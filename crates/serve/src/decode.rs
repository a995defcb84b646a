//! Continuous-batching decode sessions.
//!
//! An autoregressive generation is a loop: run the model at the
//! current sequence length, append one token, repeat. Whole-request
//! batching submits the loop as a single request
//! (`decode_steps = n`) and holds every batch-mate hostage for all
//! `n` device iterations. A [`DecodeSession`] instead re-enters the
//! batcher *between* iterations — each step is its own
//! `decode_steps = 1` request, so the batcher is free to mix it with
//! whatever prefill and decode traffic is pending at that moment.
//! Continuous batching is not a new scheduler; it emerges from many
//! sessions stepping concurrently against the same shared [`Server`].
//!
//! Sequence lengths are quantized by the bucket table the models were
//! compiled under: a session carries one registered model per bucket
//! and routes each step to the smallest bucket that fits the grown
//! sequence. `Server::start` compiles every bucket's artifact for every
//! device (the tune memo re-sweeps only the `(op, m, n)` keys the new
//! extents introduce), so crossing a bucket boundary compiles nothing.

use crate::request::{InferenceRequest, InferenceResponse, Priority, SubmitError};
use crate::server::Server;
use std::fmt;

/// Why a decode step could not produce a token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The grown sequence no longer fits the largest bucket this
    /// session was given; the generation is over.
    ContextFull {
        /// Sequence length reached before the failed step.
        seq: usize,
        /// Largest bucket ceiling available to the session.
        ceiling: usize,
    },
    /// The server refused the step's submission.
    Submit(SubmitError),
    /// The step executed but failed (the response's `error` string).
    Failed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::ContextFull { seq, ceiling } => {
                write!(f, "context full: sequence {seq} at bucket ceiling {ceiling}")
            }
            DecodeError::Submit(e) => write!(f, "decode step rejected: {e}"),
            DecodeError::Failed(e) => write!(f, "decode step failed: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One autoregressive generation, stepped one token at a time through
/// a shared [`Server`] — the continuous-batching half of the decode
/// A/B (see [`InferenceRequest::decode_steps`] for the whole-request
/// half).
///
/// `buckets` maps each available bucket ceiling to the server model id
/// compiled for that bucket; each step routes to the smallest bucket
/// that fits the sequence *after* the new token. The session is
/// single-threaded by design — concurrency comes from running many
/// sessions on many threads, which is exactly the offered load the
/// batcher coalesces.
pub struct DecodeSession<'a> {
    server: &'a Server,
    /// `(bucket ceiling, model id)`, ascending by ceiling.
    buckets: Vec<(usize, usize)>,
    seq: usize,
    priority: Priority,
    tag: Option<u64>,
    tokens: u64,
    step_wall_ms: Vec<f64>,
}

impl<'a> DecodeSession<'a> {
    /// Starts a session at `prompt_len` tokens of context. `buckets`
    /// pairs each bucket ceiling with the model id registered for it;
    /// order does not matter (they are sorted here).
    pub fn new(server: &'a Server, buckets: &[(usize, usize)], prompt_len: usize) -> Self {
        let mut buckets = buckets.to_vec();
        buckets.sort_unstable();
        DecodeSession {
            server,
            buckets,
            seq: prompt_len,
            priority: Priority::default(),
            tag: None,
            tokens: 0,
            step_wall_ms: Vec::new(),
        }
    }

    /// Sets the priority class every step is admitted under.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the stable fault-injection tag carried by every step.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Current sequence length (prompt + generated tokens).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Tokens generated so far.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Wall-clock milliseconds of each completed step, in order —
    /// the per-step latency distribution a decode bench reports
    /// (`decode.p99_step_ms`).
    pub fn step_wall_ms(&self) -> &[f64] {
        &self.step_wall_ms
    }

    /// The `(bucket ceiling, model id)` the *next* step would route
    /// to, or `None` if the context is full.
    pub fn next_bucket(&self) -> Option<(usize, usize)> {
        let next = self.seq + 1;
        self.buckets.iter().copied().find(|&(b, _)| b >= next)
    }

    /// Runs one decode iteration: submits a `decode_steps = 1` request
    /// against the bucket fitting the grown sequence, waits for it,
    /// and on success appends the token. The batcher is free to
    /// coalesce this step with any concurrent prefill or decode
    /// traffic on the same (model, device) key — that interleaving is
    /// continuous batching.
    pub fn step(&mut self) -> Result<InferenceResponse, DecodeError> {
        let next = self.seq + 1;
        let (_, model) = self.next_bucket().ok_or(DecodeError::ContextFull {
            seq: self.seq,
            ceiling: self.buckets.last().map_or(0, |&(b, _)| b),
        })?;
        let mut req =
            InferenceRequest::new(model).with_decode_steps(1).with_priority(self.priority);
        if let Some(tag) = self.tag {
            req = req.with_tag(tag);
        }
        let response = self.server.submit(req).map_err(DecodeError::Submit)?.wait();
        if let Some(e) = &response.error {
            return Err(DecodeError::Failed(e.clone()));
        }
        if response.cancelled {
            return Err(DecodeError::Failed("cancelled".to_string()));
        }
        self.seq = next;
        self.tokens += 1;
        self.step_wall_ms.push(response.wall_ms);
        Ok(response)
    }

    /// Steps `n` times (or until the context fills or a step fails),
    /// returning how many tokens were generated.
    pub fn generate(&mut self, n: usize) -> Result<usize, DecodeError> {
        for i in 0..n {
            match self.step() {
                Ok(_) => {}
                Err(DecodeError::ContextFull { .. }) if i > 0 => return Ok(i),
                Err(e) => return Err(e),
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelSpec;
    use crate::server::ServeConfig;
    use smartmem_ir::{BucketTable, DType, Graph, GraphBuilder};
    use smartmem_sim::DeviceConfig;

    /// A minimal attention block with a symbolic sequence axis.
    fn attn_graph(seq: usize, table: &BucketTable) -> Graph {
        let mut b = GraphBuilder::new(format!("attn-s{seq}"));
        let q = b.input("q", &[4, seq, 48], DType::F16);
        let k = b.input("k", &[4, seq, 48], DType::F16);
        let v = b.input("v", &[4, seq, 48], DType::F16);
        let scores = b.matmul_t(q, k, false, true);
        let p = b.softmax(scores, 2);
        let o = b.matmul(p, v);
        b.output(o);
        b.finish().with_sym_dim("seq", table, seq).expect("seq binds")
    }

    fn bucketed_server() -> Server {
        let table = BucketTable::new(vec![4, 8]).expect("valid table");
        let models = vec![
            ModelSpec::new("attn-b4", attn_graph(4, &table)),
            ModelSpec::new("attn-b8", attn_graph(8, &table)),
        ];
        Server::start(models, vec![DeviceConfig::snapdragon_8gen2()], ServeConfig::default())
    }

    #[test]
    fn session_crosses_bucket_boundary_and_fills_context() {
        let server = bucketed_server();
        let mut session = DecodeSession::new(&server, &[(8, 1), (4, 0)], 2);
        assert_eq!(session.next_bucket(), Some((4, 0)), "prompt 2 fits the small bucket");
        assert_eq!(session.generate(5).expect("generate"), 5);
        assert_eq!(session.seq(), 7);
        assert_eq!(session.tokens(), 5);
        assert_eq!(session.step_wall_ms().len(), 5);
        // Steps 3 and 4 fit bucket 4; steps 5..=7 crossed into bucket 8.
        assert_eq!(session.next_bucket(), Some((8, 1)));
        session.step().expect("last slot of the large bucket");
        assert_eq!(session.seq(), 8);
        let err = session.step().expect_err("context is full");
        assert_eq!(err, DecodeError::ContextFull { seq: 8, ceiling: 8 });
        // A partial generate reports how far it got.
        let stats = server.shutdown();
        assert_eq!(stats.decode_tokens, 6, "one token per successful step");
        assert!(stats.decode_steps >= 6, "every decode batch ran at least one iteration");
    }

    #[test]
    fn whole_request_decode_holds_the_batch_hostage() {
        let server = bucketed_server();
        let single = server.submit(InferenceRequest::new(0)).expect("submit").wait();
        assert!(single.error.is_none());
        let hostage =
            server.submit(InferenceRequest::new(0).with_decode_steps(4)).expect("submit").wait();
        assert!(hostage.error.is_none());
        let ratio = hostage.exec_ms / single.exec_ms;
        assert!(
            (ratio - 4.0).abs() < 1e-6,
            "a 4-step decode request must cost 4 device iterations, got {ratio}x"
        );
        let stats = server.shutdown();
        assert_eq!(stats.decode_tokens, 4);
        assert_eq!(stats.decode_steps, 4);
    }
}
