//! Seeded workload generators. `--seed` reaches nothing but these: the
//! crates under test only ever see the inputs generated here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartmem_serve::Priority;
use std::time::Duration;

/// `0..n` in a seeded random order (Fisher–Yates).
pub fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6465_7200);
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

/// The activations an edit rotates through (`relu → gelu → silu → relu`).
const ACTIVATIONS: [&str; 3] = ["relu", "gelu", "silu"];

/// Byte offsets of every unary-activation function name in an exported
/// graph, with the index of the activation found there.
fn activation_sites(json: &str) -> Vec<(usize, usize)> {
    const MARK: &str = "\"kind\": \"unary\", \"f\": \"";
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(at) = json[from..].find(MARK) {
        let name_at = from + at + MARK.len();
        if let Some(k) = ACTIVATIONS.iter().position(|a| json[name_at..].starts_with(a)) {
            sites.push((name_at, k));
        }
        from = name_at;
    }
    sites
}

/// Flips one seeded unary activation of an exported graph to the next
/// one in [`ACTIVATIONS`]: a one-layer model edit made on the JSON text.
/// Returns the edited text and the ordinal of the edited site, or `None`
/// when the model has no unary activation.
pub fn edit_activation(json: &str, seed: u64) -> Option<(String, usize)> {
    let sites = activation_sites(json);
    if sites.is_empty() {
        return None;
    }
    let pick = StdRng::seed_from_u64(seed ^ 0x6564_6974).random_range(0..sites.len());
    let (at, k) = sites[pick];
    let (old, new) = (ACTIVATIONS[k], ACTIVATIONS[(k + 1) % ACTIVATIONS.len()]);
    let mut edited = String::with_capacity(json.len());
    edited.push_str(&json[..at]);
    edited.push_str(new);
    edited.push_str(&json[at + old.len()..]);
    Some((edited, pick))
}

/// One request of an open-loop trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the trace.
    pub due: Duration,
    pub model: usize,
    pub class: Priority,
}

/// `shares` of `count`, rounded so the parts sum to `count` exactly
/// (largest remainders get the spare units).
fn apportion(count: usize, shares: &[f64]) -> Vec<usize> {
    let total: f64 = shares.iter().sum();
    let exact: Vec<f64> = shares.iter().map(|s| s / total * count as f64).collect();
    let mut parts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let spare = count - parts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(spare) {
        parts[i] += 1;
    }
    parts
}

/// `parts[i]` copies of `i`, in a seeded random order.
fn shuffled_copies(parts: &[usize], seed: u64) -> Vec<usize> {
    let flat: Vec<usize> =
        parts.iter().enumerate().flat_map(|(i, &n)| std::iter::repeat_n(i, n)).collect();
    shuffled_order(flat.len(), seed).into_iter().map(|at| flat[at]).collect()
}

/// Open-loop trace of `count` requests over `models` models — the
/// traffic shape of `serve_bench`: Poisson arrivals at `rate_rps`, Zipf
/// model popularity (weight `1/(i+1)`), 60 % Interactive / 25 % Batch /
/// 15 % BestEffort.
///
/// Every seed offers the *same work at the same mean rate*: the model
/// and class mixes are exact shares in a seeded order, and the arrival
/// process is conditioned on its last request falling due at
/// `count / rate_rps`. Only order and spacing differ between seeds, so
/// the spread between runs is the server's, not the sampling noise of
/// the trace (which overload would amplify several times).
pub fn arrivals(seed: u64, count: usize, rate_rps: f64, models: usize) -> Vec<Arrival> {
    let popularity: Vec<f64> = (0..models).map(|i| 1.0 / (i + 1) as f64).collect();
    let model_of = shuffled_copies(&apportion(count, &popularity), seed);
    let class_of = shuffled_copies(&apportion(count, &[60.0, 25.0, 15.0]), seed ^ 0x5bf0_3635);
    let mut gap_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut due_s = 0.0f64;
    let dues: Vec<f64> = (0..count)
        .map(|_| {
            let u = gap_rng.next_u64() as f64 / u64::MAX as f64;
            due_s += -u.max(f64::MIN_POSITIVE).ln();
            due_s
        })
        .collect();
    let stretch = count as f64 / rate_rps / due_s;
    (0..count)
        .map(|i| Arrival {
            due: Duration::from_secs_f64(dues[i] * stretch),
            model: model_of[i],
            class: Priority::ALL[class_of[i]],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"ops": [
      {"kind": "unary", "f": "relu", "inputs": ["a"], "outputs": ["b"]},
      {"kind": "unary", "f": "exp", "inputs": ["b"], "outputs": ["c"]},
      {"kind": "unary", "f": "silu", "inputs": ["c"], "outputs": ["d"]}
    ]}"#;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = shuffled_order(18, 42);
        assert_eq!(a, shuffled_order(18, 42));
        assert_ne!(a, shuffled_order(18, 7));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn edit_flips_exactly_one_activation() {
        let (edited, site) = edit_activation(DOC, 42).expect("two activations");
        assert_eq!(edit_activation(DOC, 42), Some((edited.clone(), site)));
        assert!(site < 2, "exp is not an activation site");
        let changed = DOC.lines().zip(edited.lines()).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
        assert!(edited.contains("\"f\": \"exp\""));
        let sites: Vec<usize> =
            (0..32).filter_map(|s| edit_activation(DOC, s)).map(|e| e.1).collect();
        assert!(sites.contains(&0) && sites.contains(&1), "seeds reach both sites");
        assert_eq!(edit_activation("{\"ops\": []}", 1), None);
    }

    #[test]
    fn arrivals_are_seeded_and_on_rate() {
        let a = arrivals(42, 3000, 300.0, 10);
        assert_eq!(a, arrivals(42, 3000, 300.0, 10));
        assert_ne!(a, arrivals(7, 3000, 300.0, 10));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let span = a.last().expect("nonempty").due.as_secs_f64();
        assert!((span - 10.0).abs() < 1e-9, "3000 requests at 300/s end at 10 s, not {span}");
        // The mix is exact, whatever the seed.
        let count =
            |t: &[Arrival], pred: fn(&Arrival) -> bool| t.iter().filter(|r| pred(r)).count();
        for trace in [&a, &arrivals(7, 3000, 300.0, 10)] {
            assert_eq!(count(trace, |r| r.class == Priority::Interactive), 1800);
            assert_eq!(count(trace, |r| r.class == Priority::Batch), 750);
            assert_eq!(count(trace, |r| r.class == Priority::BestEffort), 450);
            assert_eq!(count(trace, |r| r.model == 0), 1024, "Zipf: 1/H(10) of 3000");
            assert_eq!(count(trace, |r| r.model == 9), 103);
        }
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]).iter().sum::<usize>(), 10);
    }
}
