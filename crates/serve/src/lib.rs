//! # smartmem-serve
//!
//! An SLO-aware batched inference serving runtime on top of the
//! SmartMem compilation stack — the "heavy traffic" layer of the
//! ROADMAP. SmartMem's compile-time layout planning (LTE, layout
//! selection, tuning) only pays off in serving when compiled artifacts
//! are reused across many requests; this crate supplies exactly that
//! reuse: requests are admitted through a bounded queue under a
//! per-class latency budget ([`Priority`]), coalesced into
//! per-(model, device) batches that device workers *pull* when the
//! device frees up, ordered by slack with starvation aging, and
//! executed against a plan compiled once, at start-up, through a
//! [`CompileSession`] that start-up then drops. Queued requests can be
//! revoked at any time through a [`CancelHandle`].
//!
//! ```text
//!  clients ──► submit / try_submit      (bounded queue, admission control,
//!                   │                    per-class deadline stamped)
//!                   ▼
//!              ┌──────────┐  pull-mode coalescing: a backlogged device
//!              │ Batcher  │  grows batches toward max_batch; max_delay
//!              └──────────┘  is only the idle-latency bound; cuts are
//!                ▲   CancelHandle        slack-ordered with aging;
//!                │   drops queued /      cancelled requests dropped
//!                │   cut requests        at cut time
//!              pull
//!               │ Batch<Pending>
//!               ▼
//!              ┌───────────┐  compiled-estimate placement at admission,
//!              │ Scheduler │  per-class outstanding-work accounting
//!              └───────────┘
//!               │    │    │        one worker thread per device
//!               ▼    ▼    ▼
//!            ┌────┐┌────┐┌────┐
//!            │ w0 ││ w1 ││ w2 │ …  (8 Gen 2, 835, Dimensity, Apple M1, …)
//!            └────┘└────┘└────┘
//!               │    │    │
//!               ▼    ▼    ▼
//!         ┌─────────────────────┐  every pair compiled once at start
//!         │ start-up plan       │  (misses == models × devices): its
//!         └─────────────────────┘  estimate, or its compile error
//! ```
//!
//! The runtime is std-only (mutex + condvars + threads — the offline
//! container has no tokio/rayon): submission pushes into one pure
//! [`Batcher`] state machine behind a mutex, and one worker thread per
//! device pulls batches from it, estimating device time with the
//! `smartmem-sim`-backed model reports. See the "Serving lifecycle"
//! section of `docs/ARCHITECTURE.md` for the request state diagram.
//!
//! # Example
//!
//! ```
//! use smartmem_serve::{InferenceRequest, ModelSpec, Priority, ServeConfig, Server};
//! use smartmem_sim::DeviceConfig;
//! use smartmem_ir::{DType, GraphBuilder};
//!
//! let mut b = GraphBuilder::new("toy");
//! let x = b.input("x", &[1, 16, 32], DType::F16);
//! let w = b.weight("w", &[32, 32], DType::F16);
//! let mm = b.matmul(x, w);
//! b.output(mm);
//!
//! let server = Server::start(
//!     vec![ModelSpec::new("toy", b.finish())],
//!     vec![DeviceConfig::snapdragon_8gen2(), DeviceConfig::apple_m1()],
//!     ServeConfig::default(),
//! );
//! let tickets: Vec<_> = (0..16)
//!     .map(|i| {
//!         let class = if i % 4 == 0 { Priority::BestEffort } else { Priority::Interactive };
//!         server.submit(InferenceRequest::new(0).with_priority(class)).unwrap()
//!     })
//!     .collect();
//! for t in tickets {
//!     let r = t.wait();
//!     assert!(r.error.is_none() && !r.cancelled);
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 16);
//! assert_eq!(stats.class(Priority::Interactive).completed, 12);
//! assert_eq!(stats.class(Priority::BestEffort).completed, 4);
//! assert!(stats.cache_hit_rate() > 0.8); // compile once, reuse 15 times
//! ```
//!
//! [`CompileSession`]: smartmem_core::CompileSession

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod decode;
mod request;
mod retry;
mod router;
mod scheduler;
mod server;

pub use batcher::{Batch, BatchItem, BatchKey, Batcher, Cut};
pub use decode::{DecodeError, DecodeSession};
pub use request::{
    InferenceRequest, InferenceResponse, ModelSpec, Priority, SubmitError, Ticket, REPLICA_KILLED,
};
pub use retry::{AdmissionControl, RetryDecision, RetryPolicy};
pub use router::{Router, RouterStats, RouterTicket};
pub use scheduler::DevicePool;
pub use server::{
    batch_exec_ms, histogram_mean, CancelHandle, ClassDeadlines, ClassStats, ServeConfig,
    ServeStats, Server, TelemetryConfig, FAULT_CATEGORY, RECOVERY_CATEGORY,
};
