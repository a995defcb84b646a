//! The request/response surface of the serving runtime.

use crate::server::CancelHandle;
use smartmem_ir::Graph;
use std::fmt;
use std::sync::mpsc;

/// Priority class of a request — which per-class latency budget it is
/// admitted under (see `ServeConfig::deadlines`) and therefore how the
/// slack-ordered scheduler ranks it at batch-cut time.
///
/// Classes only set *deadlines*; they never preempt running batches,
/// and starvation aging guarantees that even `BestEffort` traffic is
/// eventually served under sustained `Interactive` load.
///
/// ```
/// use smartmem_serve::Priority;
///
/// // Tight to loose latency budgets:
/// assert!(Priority::Interactive < Priority::Batch);
/// assert!(Priority::Batch < Priority::BestEffort);
/// // Stable per-class indices for metrics arrays:
/// assert_eq!(Priority::ALL.map(Priority::index), [0, 1, 2]);
/// assert_eq!(Priority::Interactive.name(), "Interactive");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Priority {
    /// User-facing traffic with a tight latency budget (the default).
    #[default]
    Interactive,
    /// Throughput-oriented traffic with a relaxed budget.
    Batch,
    /// Background traffic: served whenever there is slack, protected
    /// from starvation only by aging.
    BestEffort,
}

impl Priority {
    /// All classes, in `index` order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Stable index of this class in per-class metric arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Display name of the class.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "Interactive",
            Priority::Batch => "Batch",
            Priority::BestEffort => "BestEffort",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A model registered with the server: a name and its graph.
/// `Server::start` compiles the graph for every pool device once and
/// keeps each pair's estimate, or its compile error, in its plan.
#[derive(Clone)]
pub struct ModelSpec {
    /// Display name (unique per server).
    pub name: String,
    /// The computational graph served for this model.
    pub graph: Graph,
}

impl ModelSpec {
    /// Registers `graph` under `name`.
    pub fn new(name: impl Into<String>, graph: Graph) -> Self {
        ModelSpec { name: name.into(), graph }
    }
}

/// One inference request: which model to run, optionally a pinned
/// device (index into the server's device pool), and the
/// [`Priority`] class whose deadline it is admitted under. Unpinned
/// requests are placed by the scheduler.
#[derive(Clone, Copy, Debug)]
pub struct InferenceRequest {
    /// Model id (index into the server's registered models).
    pub model: usize,
    /// Pinned device id, or `None` to let the scheduler place it.
    pub device: Option<usize>,
    /// Priority class (default [`Priority::Interactive`]).
    pub priority: Priority,
    /// Optional stable identity of the request across retries,
    /// re-placements, and resubmission to another replica; defaults to
    /// the server-assigned request id. A `FaultPlan` keys its
    /// request-level fault decisions on this tag, so chaos harnesses
    /// that assign globally unique tags get schedule-independent fault
    /// sets (the curse follows the request wherever it goes).
    pub tag: Option<u64>,
    /// Autoregressive decode iterations this request runs on the device
    /// (`0` = an ordinary single-shot inference, the default). A
    /// request with `decode_steps = n ≥ 1` is a *decode* request: its
    /// placement estimate is charged `n×`, its batch holds the device
    /// for `n` iterations, and each iteration produces one token
    /// (counted in `ServeStats::decode_tokens`). Continuous batching
    /// submits `decode_steps = 1` per step through a
    /// [`crate::DecodeSession`]; whole-request batching submits the
    /// entire generation as one `decode_steps = n` request — and holds
    /// every batch-mate hostage for all `n` iterations.
    pub decode_steps: u32,
}

impl InferenceRequest {
    /// Request for `model`, scheduler-placed, `Interactive` priority.
    pub fn new(model: usize) -> Self {
        InferenceRequest {
            model,
            device: None,
            priority: Priority::default(),
            tag: None,
            decode_steps: 0,
        }
    }

    /// Pins the request to a device.
    #[must_use]
    pub fn on_device(mut self, device: usize) -> Self {
        self.device = Some(device);
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the stable fault-injection identity.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Marks this as a decode request of `steps` autoregressive
    /// iterations (see [`InferenceRequest::decode_steps`]).
    #[must_use]
    pub fn with_decode_steps(mut self, steps: u32) -> Self {
        self.decode_steps = steps;
        self
    }
}

/// The `error` string of responses answered because their replica was
/// killed mid-flight. A fleet router resubmits requests failing with
/// exactly this error to a surviving replica.
pub const REPLICA_KILLED: &str = "replica killed";

/// Completion record of one request.
#[derive(Clone, Debug)]
pub struct InferenceResponse {
    /// Id assigned at submission (monotone per server).
    pub request_id: u64,
    /// Global completion sequence number (monotone in the order the
    /// workers finished requests; FIFO within a (model, device) key).
    pub completion_seq: u64,
    /// Model name.
    pub model: String,
    /// Device the batch executed on (or would have, for cancelled
    /// requests).
    pub device: String,
    /// Priority class the request was admitted under.
    pub priority: Priority,
    /// Whether the request was cancelled before execution. A cancelled
    /// response carries no execution data (`batch_size == 0`,
    /// `exec_ms == 0`) and `error` stays `None`.
    pub cancelled: bool,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Wall-clock milliseconds from submission to batch execution start
    /// (queueing + batching delay).
    pub queue_ms: f64,
    /// Simulated device-time milliseconds of the whole batch.
    pub exec_ms: f64,
    /// Wall-clock milliseconds from submission to response.
    pub wall_ms: f64,
    /// Whether the request executed a pair that compiled at start-up
    /// (served from its cached artifact); `false` for a pair that
    /// failed to compile, and for requests that never executed.
    pub compile_cache_hit: bool,
    /// Failed execution attempts this request survived before this
    /// response (0 = first try). Bounded by the server's
    /// `RetryPolicy::budget`; a successful response with `retries > 0`
    /// is a *recovered* request.
    pub retries: u32,
    /// Terminal failure, if any (`None` = served). Possible values:
    /// a compilation error message, [`REPLICA_KILLED`], or a transient
    /// error that exhausted the retry budget.
    pub error: Option<String>,
}

impl InferenceResponse {
    /// Simulated end-to-end latency: queueing (wall) + device time.
    pub fn e2e_ms(&self) -> f64 {
        self.queue_ms + self.exec_ms
    }
}

/// Handle to a submitted request; redeem with [`Ticket::wait`], or
/// revoke with [`Ticket::cancel_handle`].
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<InferenceResponse>,
    pub(crate) cancel: CancelHandle,
}

impl Ticket {
    /// The request id this ticket redeems.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A clonable [`CancelHandle`] for this request, usable from any
    /// thread while the ticket is pending.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Blocks until the response arrives. Every accepted request is
    /// answered — executed, failed, or cancelled (check
    /// [`InferenceResponse::cancelled`]) — so this only fails if the
    /// server was torn down abnormally.
    pub fn wait(self) -> InferenceResponse {
        self.rx.recv().expect("server dropped the response channel")
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full (shed load and retry).
    QueueFull,
    /// Unknown model id.
    UnknownModel(usize),
    /// Unknown device id.
    UnknownDevice(usize),
    /// The server is shutting down.
    ShuttingDown,
    /// Admission control shed this request: pool slack is already
    /// negative and the request's class is sheddable (never
    /// `Interactive` — see `AdmissionControl`).
    Shed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full"),
            SubmitError::UnknownModel(m) => write!(f, "unknown model id {m}"),
            SubmitError::UnknownDevice(d) => write!(f, "unknown device id {d}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Shed => write!(f, "shed by admission control (pool slack negative)"),
        }
    }
}

impl std::error::Error for SubmitError {}
