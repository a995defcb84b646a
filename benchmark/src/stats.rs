//! Small statistics helpers: nearest-rank percentiles, medians,
//! geometric means, and span self-time subtraction.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// `values` sorted ascending (total order, so a stray NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Median: mean of the two middle values for an even count. `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value (`NaN` when empty). This is how repeated wall-clock
/// timings of the same deterministic work are joined: whatever the host
/// adds — a stall, a busy neighbour — makes a sample slower, never
/// faster, so the fastest sample is the one least disturbed. On the
/// shared 2-core sandbox the median of nine samples moves by 40 % between
/// quiet and busy minutes; the minimum by about 10 %.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Geometric mean of positive values, summed in ascending order so the
/// result does not depend on the order the values were produced in.
/// `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let logs: f64 = sorted(values).iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One recorded interval, as much of a telemetry span as self-time
/// needs: spans of one sweep or request share `trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    pub trace: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Interval {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Whether `other` lies inside `self` (same trace, not the same span).
    fn encloses(&self, other: &Interval) -> bool {
        self.trace == other.trace
            && self != other
            && self.start_ns <= other.start_ns
            && other.end_ns() <= self.end_ns()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that spans nested inside it (same trace) cover. Overlapping children
/// are counted once.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    // Group by trace, so the nesting search stays within one sweep or
    // request instead of crossing the whole run.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].trace, spans[i].start_ns));
    let mut own = vec![0; spans.len()];
    for group in order.chunk_by(|&a, &b| spans[a].trace == spans[b].trace) {
        for &i in group {
            let span = &spans[i];
            // `group` is in start order, so `reach` only moves forward.
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for child in group.iter().map(|&j| &spans[j]).filter(|c| span.encloses(c)) {
                if child.end_ns() > reach {
                    covered += child.end_ns() - child.start_ns.max(reach);
                    reach = child.end_ns();
                }
            }
            own[i] = span.dur_ns - covered;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn least_is_the_minimum() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert!(least(&[]).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_is_order_independent() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        let a = [28.794, 82.972, 27.014, 709.668, 18.884, 238.462];
        let mut b = a;
        b.reverse();
        assert_eq!(geomean(&a).to_bits(), geomean(&b).to_bits());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let span = |trace, start_ns, dur_ns| Interval { trace, start_ns, dur_ns };
        let spans = [
            span(1, 0, 100), // parent
            span(1, 10, 30), // child a: 10..40
            span(1, 30, 30), // child b: 30..60, overlaps a
            span(1, 35, 5),  // grandchild inside both
            span(2, 20, 50), // other trace: not a child
            span(1, 90, 20), // sticks out of the parent: not a child
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50, "children cover 10..60 once");
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30 - 5);
        assert_eq!(own[3], 5);
        assert_eq!(own[4], 50);
        assert_eq!(own[5], 20);
    }
}
