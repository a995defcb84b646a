//! A least-loaded router over N server replicas — the fleet tier of
//! the chaos harness.
//!
//! Each replica is a full [`Server`] (own device pool, own workers)
//! built from the same model set and [`ServeConfig`]. When the config
//! carries a `cache_dir`, every replica shares the persistent artifact
//! cache, so a replica restarted after a kill warm-starts: its first
//! request hits the disk cache instead of recompiling.
//!
//! Routing is least-loaded: a submission goes to the alive replica
//! with the fewest outstanding router-submitted requests (ties to the
//! lowest index, keeping single-replica routing deterministic). A
//! killed replica answers its queued requests [`REPLICA_KILLED`];
//! [`RouterTicket::wait`] catches exactly that error and resubmits the
//! request to a surviving replica, up to a bounded reroute budget —
//! so client code just sees a slower success.

use crate::request::{InferenceRequest, InferenceResponse, SubmitError, REPLICA_KILLED};
use crate::server::{ServeConfig, ServeStats, Server};
use crate::ModelSpec;
use smartmem_sim::DeviceConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One replica slot: the live server (or `None` while down) plus the
/// router's view of its load.
struct Replica {
    server: Mutex<Option<Arc<Server>>>,
    /// Router-submitted requests not yet answered to a waiter. Not
    /// reset on restart: increments and decrements are balanced per
    /// ticket, so the counter stays meaningful across generations.
    outstanding: AtomicU64,
}

/// Least-loaded router over N [`Server`] replicas; see the module
/// docs. Shareable across threads by reference (`submit` and `wait`
/// take `&self`).
pub struct Router {
    replicas: Vec<Replica>,
    /// Blueprint for (re)building a replica.
    models: Vec<ModelSpec>,
    devices: Vec<DeviceConfig>,
    config: ServeConfig,
    /// Killed replica generations, retired at kill time. The handles
    /// are kept (not snapshotted) because a killed server may still be
    /// draining in-flight batches; fleet stats read them live so late
    /// completions are never lost.
    retired: Mutex<Vec<Arc<Server>>>,
    /// How many times a [`RouterTicket::wait`] resubmitted a
    /// [`REPLICA_KILLED`] request elsewhere.
    rerouted: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

/// Max resubmissions per ticket before a [`REPLICA_KILLED`] answer is
/// returned to the caller as-is.
const REROUTE_BUDGET: u32 = 8;

/// A ticket bound to the router: like [`crate::Ticket`], but
/// [`RouterTicket::wait`] transparently resubmits the request to a
/// surviving replica when its original replica was killed around it.
pub struct RouterTicket<'a> {
    router: &'a Router,
    ticket: crate::Ticket,
    replica: usize,
    req: InferenceRequest,
    reroutes: u32,
}

/// Fleet-wide statistics: scalar totals over every replica generation
/// (live and killed), plus the underlying per-generation snapshots.
#[derive(Clone, Debug)]
pub struct RouterStats {
    /// Requests accepted, summed over all generations. A rerouted
    /// request counts once per replica that accepted it.
    pub submitted: u64,
    /// Successful answers (`error == None`) over all generations.
    pub completed: u64,
    /// Terminal failures over all generations — including the
    /// [`REPLICA_KILLED`] answers that were then rerouted to a success
    /// elsewhere.
    pub failed: u64,
    /// Cancelled requests over all generations.
    pub cancelled: u64,
    /// Requests shed by admission control over all generations.
    pub shed: u64,
    /// Retry events over all generations.
    pub retried: u64,
    /// Requests that completed after ≥ 1 failed attempt.
    pub recovered: u64,
    /// Requests answered [`REPLICA_KILLED`], over all generations.
    pub killed: u64,
    /// Tickets resubmitted to another replica after a kill.
    pub rerouted: u64,
    /// [`Router::kill`] calls that actually took a replica down.
    pub kills: u64,
    /// [`Router::restart`] calls that actually brought one back.
    pub restarts: u64,
    /// Snapshots of the live replicas, in slot order, followed by the
    /// final stats of every killed generation.
    pub per_replica: Vec<ServeStats>,
}

impl Router {
    /// Starts `replicas` identical servers. Panics when `replicas` is
    /// zero or when `models`/`devices` is empty (each [`Server::start`]
    /// already enforces the latter).
    pub fn start(
        replicas: usize,
        models: Vec<ModelSpec>,
        devices: Vec<DeviceConfig>,
        config: ServeConfig,
    ) -> Self {
        assert!(replicas > 0, "start at least one replica");
        let router = Router {
            replicas: (0..replicas)
                .map(|_| Replica { server: Mutex::new(None), outstanding: AtomicU64::new(0) })
                .collect(),
            models,
            devices,
            config,
            retired: Mutex::new(Vec::new()),
            rerouted: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        };
        for slot in &router.replicas {
            *slot.server.lock().expect("replica slot poisoned") = Some(router.build_server());
        }
        router
    }

    fn build_server(&self) -> Arc<Server> {
        Arc::new(Server::start(self.models.clone(), self.devices.clone(), self.config.clone()))
    }

    /// Number of replica slots (alive or down).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the router has no replica slots (never true: `start`
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The live server in slot `replica`, if any — for warmup pinning
    /// and per-replica inspection.
    pub fn server(&self, replica: usize) -> Option<Arc<Server>> {
        self.replicas[replica].server.lock().expect("replica slot poisoned").clone()
    }

    /// Submits to the least-loaded alive replica (ties to the lowest
    /// index), with backpressure.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] when no replica is alive;
    /// otherwise whatever the chosen replica's [`Server::submit`]
    /// returns (a replica killed mid-submission is retried on the
    /// survivors automatically).
    pub fn submit(&self, req: InferenceRequest) -> Result<RouterTicket<'_>, SubmitError> {
        let (replica, ticket) = self.route(req)?;
        Ok(RouterTicket { router: self, ticket, replica, req, reroutes: 0 })
    }

    /// Picks the least-loaded alive replica and submits there; on a
    /// shutting-down replica (killed between pick and submit) moves to
    /// the next-best survivor.
    fn route(&self, req: InferenceRequest) -> Result<(usize, crate::Ticket), SubmitError> {
        let mut tried = vec![false; self.replicas.len()];
        loop {
            let mut best: Option<(u64, usize, Arc<Server>)> = None;
            for (r, slot) in self.replicas.iter().enumerate() {
                if tried[r] {
                    continue;
                }
                if let Some(server) = &*slot.server.lock().expect("replica slot poisoned") {
                    let load = slot.outstanding.load(Ordering::Relaxed);
                    if best.as_ref().map_or(true, |(b, _, _)| load < *b) {
                        best = Some((load, r, Arc::clone(server)));
                    }
                }
            }
            let Some((_, r, server)) = best else {
                return Err(SubmitError::ShuttingDown);
            };
            self.replicas[r].outstanding.fetch_add(1, Ordering::Relaxed);
            match server.submit(req) {
                Ok(ticket) => return Ok((r, ticket)),
                Err(err) => {
                    self.replicas[r].outstanding.fetch_sub(1, Ordering::Relaxed);
                    if err == SubmitError::ShuttingDown {
                        // Killed under us: try the survivors.
                        tried[r] = true;
                        continue;
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Kills replica `replica` hard (see [`Server::kill`]): its queued
    /// requests are answered [`REPLICA_KILLED`] — and their waiting
    /// [`RouterTicket`]s resubmit them to the survivors — while its
    /// in-flight batches finish. The generation is retired but its
    /// stats stay visible to [`Router::stats`]. Returns `false` when
    /// the slot is already down.
    pub fn kill(&self, replica: usize) -> bool {
        let Some(server) =
            self.replicas[replica].server.lock().expect("replica slot poisoned").take()
        else {
            return false;
        };
        server.kill();
        self.kills.fetch_add(1, Ordering::Relaxed);
        self.retired.lock().expect("retired generations poisoned").push(server);
        true
    }

    /// Brings a killed slot back with a fresh server generation. With
    /// a shared `cache_dir` the newcomer warm-starts from the
    /// artifacts its predecessors compiled. Returns `false` when the
    /// slot is still alive.
    pub fn restart(&self, replica: usize) -> bool {
        let mut slot = self.replicas[replica].server.lock().expect("replica slot poisoned");
        if slot.is_some() {
            return false;
        }
        *slot = Some(self.build_server());
        self.restarts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Fleet-wide statistics over every generation (see
    /// [`RouterStats`]).
    pub fn stats(&self) -> RouterStats {
        let mut per_replica: Vec<ServeStats> =
            (0..self.replicas.len()).filter_map(|r| self.server(r).map(|s| s.stats())).collect();
        per_replica.extend(
            self.retired.lock().expect("retired generations poisoned").iter().map(|s| s.stats()),
        );
        self.fleet_stats(per_replica)
    }

    /// Sums the per-generation snapshots into the fleet totals.
    fn fleet_stats(&self, per_replica: Vec<ServeStats>) -> RouterStats {
        let sum = |f: fn(&ServeStats) -> u64| per_replica.iter().map(f).sum();
        RouterStats {
            submitted: sum(|s| s.submitted),
            completed: sum(|s| s.completed),
            failed: sum(|s| s.failed),
            cancelled: sum(|s| s.cancelled),
            shed: sum(|s| s.shed),
            retried: sum(|s| s.retried),
            recovered: sum(|s| s.recovered),
            killed: sum(|s| s.killed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            per_replica,
        }
    }

    /// Shuts every live replica down and returns the final fleet
    /// statistics (live generations drained, retired generations
    /// included).
    pub fn shutdown(self) -> RouterStats {
        // Drain the live slots into the graveyard, then resolve every
        // generation: sole ownership lets `Server::shutdown` join the
        // workers and give final stats; a raced Arc still drains (its
        // Drop joins) and its stats are read after the kill settled.
        for slot in &self.replicas {
            if let Some(server) = slot.server.lock().expect("replica slot poisoned").take() {
                self.retired.lock().expect("retired generations poisoned").push(server);
            }
        }
        let generations =
            std::mem::take(&mut *self.retired.lock().expect("retired generations poisoned"));
        let per_replica: Vec<ServeStats> = generations
            .into_iter()
            .map(|server| match Arc::try_unwrap(server) {
                Ok(server) => server.shutdown(),
                Err(server) => server.stats(),
            })
            .collect();
        self.fleet_stats(per_replica)
    }
}

impl RouterTicket<'_> {
    /// The replica currently holding this request.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Blocks until a response arrives, transparently resubmitting the
    /// request to a surviving replica when the answer is
    /// [`REPLICA_KILLED`] (bounded by the router's reroute budget).
    /// The final response's `retries` field still counts per-replica
    /// execution retries, not reroutes.
    pub fn wait(mut self) -> InferenceResponse {
        loop {
            let response = self.ticket.wait();
            self.router.replicas[self.replica].outstanding.fetch_sub(1, Ordering::Relaxed);
            let was_killed = response.error.as_deref() == Some(REPLICA_KILLED);
            if !was_killed || self.reroutes >= REROUTE_BUDGET {
                return response;
            }
            match self.router.route(self.req) {
                Ok((replica, ticket)) => {
                    self.router.rerouted.fetch_add(1, Ordering::Relaxed);
                    self.reroutes += 1;
                    self.replica = replica;
                    self.ticket = ticket;
                }
                // No survivors to take it: the kill answer stands.
                Err(_) => return response,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use smartmem_ir::{DType, GraphBuilder};

    fn toy_model(name: &str) -> ModelSpec {
        let mut b = GraphBuilder::new(name);
        let x = b.input("x", &[1, 16, 32], DType::F16);
        let w = b.weight("w", &[32, 32], DType::F16);
        let mm = b.matmul(x, w);
        b.output(mm);
        ModelSpec::new(name, b.finish())
    }

    fn two_replica_router() -> Router {
        Router::start(
            2,
            vec![toy_model("toy")],
            vec![DeviceConfig::apple_m1()],
            ServeConfig::default(),
        )
    }

    #[test]
    fn routes_spread_by_load_and_complete() {
        let router = two_replica_router();
        let tickets: Vec<_> =
            (0..8).map(|_| router.submit(InferenceRequest::new(0)).expect("submit")).collect();
        for t in tickets {
            let r = t.wait();
            assert!(r.error.is_none() && !r.cancelled);
        }
        let stats = router.shutdown();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.per_replica.len(), 2);
    }

    #[test]
    fn killed_replicas_requests_complete_elsewhere() {
        use std::time::Duration;
        // A long idle delay keeps queued requests parked until we kill.
        let config = ServeConfig { max_delay: Duration::from_secs(5), ..ServeConfig::default() };
        let router =
            Router::start(2, vec![toy_model("toy")], vec![DeviceConfig::apple_m1()], config);
        // Saturate replica 0's routing preference, then kill it: every
        // ticket parked there must still come back as a success.
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                router.submit(InferenceRequest::new(0).with_priority(Priority::Batch)).unwrap()
            })
            .collect();
        let parked_on_zero = tickets.iter().filter(|t| t.replica() == 0).count();
        assert!(parked_on_zero > 0, "least-loaded routing must use replica 0");
        assert!(router.kill(0));
        assert!(!router.kill(0), "second kill is a no-op");
        for t in tickets {
            let r = t.wait();
            assert!(r.error.is_none(), "rerouted to a survivor, got {:?}", r.error);
        }
        assert!(router.restart(0), "a killed slot restarts");
        assert!(!router.restart(0), "a live slot does not");
        let stats = router.shutdown();
        assert_eq!(stats.rerouted, stats.killed, "every killed request was rerouted");
        assert_eq!(stats.kills, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.completed, 6, "all client requests completed despite the kill");
    }
}
