//! The assignment service: a discrete-event serving layer on a virtual
//! clock.
//!
//! [`AssignmentService`] models one serving process in front of one
//! simulated IPU. Time is denominated in device cycles and advances only
//! through [`AssignmentService::submit_at`] /
//! [`AssignmentService::advance_to`] / [`AssignmentService::run_until_idle`],
//! so a workload (a sequence of timed submissions) maps to one
//! bit-reproducible sequence of responses, rejections, and metrics — the
//! property the load harness gates on in CI.
//!
//! The request path:
//!
//! 1. **Admission** — a bounded queue; a full queue sheds the request
//!    immediately with [`LsapError::Overloaded`] rather than queueing
//!    without bound.
//! 2. **Micro-batching** — the scheduler coalesces same-shape requests
//!    that arrive within [`ServiceConfig::batch_window_cycles`] of the
//!    queue head (up to [`ServiceConfig::max_batch`]), so they share one
//!    warm-engine checkout. A full batch launches as soon as the device
//!    and its members are ready; a partial batch waits out the window.
//! 3. **The degradation ladder** — each request descends
//!    exact-IPU → exact-CPU → greedy-with-gap-bound until an answer fits
//!    its remaining deadline budget and its backend's circuit breaker.
//!    Every exact answer is certificate-verified before it is returned
//!    ([`lsap::policy::checked_attempt`]); a degraded answer says so
//!    explicitly and carries a weak-duality bound on its suboptimality.
//!    Nothing is ever returned silently wrong.
//! 4. **Deadlines** — a request's budget is fixed at admission
//!    (`deadline = arrival + budget` on the virtual clock) and propagated
//!    through every retry and rung: a rung whose *estimated* cost (last
//!    observed cycles for that rung and shape) no longer fits is skipped,
//!    never started — so a retry cannot overshoot the deadline it was
//!    supposed to serve.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::degrade::{greedy_modeled_cycles, greedy_with_bound};
use crate::metrics::ServiceMetrics;
use crate::pool::EnginePool;
use cpu_hungarian::JonkerVolgenant;
use hunipu::{HunIpu, F32_VERIFY_EPS};
use lsap::policy::{self, RetryClass};
use lsap::{Assignment, CostMatrix, DualCertificate, LsapError, LsapSolver, WarmStart};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Opaque id handed back at admission and echoed on the outcome.
pub type RequestId = u64;

/// One assignment request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant the request is accounted to.
    pub tenant: String,
    /// The instance to solve.
    pub matrix: CostMatrix,
    /// Total budget in virtual cycles from arrival to completion;
    /// `None` uses [`ServiceConfig::default_budget_cycles`].
    pub budget_cycles: Option<u64>,
}

impl Request {
    /// A request with the service's default deadline budget.
    pub fn new(tenant: impl Into<String>, matrix: CostMatrix) -> Self {
        Self {
            tenant: tenant.into(),
            matrix,
            budget_cycles: None,
        }
    }

    /// Sets an explicit deadline budget in virtual cycles.
    pub fn with_budget(mut self, budget_cycles: u64) -> Self {
        self.budget_cycles = Some(budget_cycles);
        self
    }
}

/// How good an answer is — never implicit.
#[derive(Debug, Clone, PartialEq)]
pub enum Quality {
    /// Certificate-verified optimal.
    Exact,
    /// Greedy answer within `gap_bound` of the optimum (weak-duality
    /// certified; see [`crate::degrade`]).
    Degraded {
        /// Upper bound on `objective - OPT`.
        gap_bound: f64,
        /// Certified lower bound on the optimum.
        lower_bound: f64,
    },
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct Response {
    /// Id from admission.
    pub id: RequestId,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// The matching.
    pub assignment: Assignment,
    /// Its cost.
    pub objective: f64,
    /// For [`Quality::Exact`]: a tight certificate proving optimality.
    /// For [`Quality::Degraded`]: the dual-feasible potentials proving
    /// the lower bound (not tight).
    pub certificate: DualCertificate,
    /// Exact or degraded-with-bound.
    pub quality: Quality,
    /// Which rung answered: `"hunipu"`, `"cpu-jv"`, or `"greedy"`.
    pub backend: &'static str,
    /// Virtual cycle the request was admitted.
    pub arrival: u64,
    /// Virtual cycle its batch started on the device.
    pub start: u64,
    /// Virtual cycle the answer was ready.
    pub completion: u64,
    /// Solve attempts beyond the first (all rungs).
    pub retries: u32,
}

/// A request the service could not answer.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Id from admission.
    pub id: RequestId,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// Why ([`LsapError::DeadlineExceeded`] in practice — overload is
    /// refused synchronously at [`AssignmentService::submit_at`]).
    pub error: LsapError,
    /// Virtual cycle the rejection was decided.
    pub cycle: u64,
}

/// Terminal state of an admitted request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered (exactly or degraded-with-bound).
    Done(Response),
    /// Not answered; the error says why.
    Failed(Rejection),
}

impl Outcome {
    /// The admitted request's id.
    pub fn id(&self) -> RequestId {
        match self {
            Outcome::Done(r) => r.id,
            Outcome::Failed(r) => r.id,
        }
    }

    /// The response, if answered.
    pub fn response(&self) -> Option<&Response> {
        match self {
            Outcome::Done(r) => Some(r),
            Outcome::Failed(_) => None,
        }
    }
}

/// Tunables for one [`AssignmentService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound: requests beyond this many waiting are shed.
    pub queue_capacity: usize,
    /// Most same-shape requests coalesced into one device batch.
    pub max_batch: usize,
    /// How long (virtual cycles) a partial batch waits for same-shape
    /// company after its head arrives.
    pub batch_window_cycles: u64,
    /// Warm engines kept resident (LRU beyond this).
    pub pool_capacity: usize,
    /// Consecutive failures that trip a backend's breaker.
    pub breaker_threshold: u32,
    /// Virtual cycles an open breaker waits before a half-open probe.
    pub breaker_cooldown_cycles: u64,
    /// IPU attempts per request before descending the ladder.
    pub max_attempts: u32,
    /// Deadline budget applied when a request does not set one; `None`
    /// means no deadline.
    pub default_budget_cycles: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 32,
            max_batch: 4,
            batch_window_cycles: 20_000,
            pool_capacity: 4,
            breaker_threshold: 3,
            breaker_cooldown_cycles: 5_000_000,
            max_attempts: 2,
            default_budget_cycles: None,
        }
    }
}

/// Ladder rungs that have learned cycle estimates. Seeded re-solves are
/// tracked separately from cold IPU solves: they are systematically
/// cheaper, and mixing the two would make deadline skip decisions
/// flip-flop with the request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rung {
    IpuSeeded,
    Ipu,
    Cpu,
}

/// Warm-start states retained per `(tenant, n)`. Small and bounded: a
/// [`WarmStart`] is O(n) floats, and the cache keeps at most
/// [`WARM_CACHE_CAPACITY`] entries, least recently used first out.
const WARM_CACHE_CAPACITY: usize = 32;

#[derive(Default)]
struct WarmCache {
    /// Most recently used first; linear scans are fine at this size.
    entries: Vec<((String, usize), WarmStart)>,
}

impl WarmCache {
    fn get(&mut self, tenant: &str, n: usize) -> Option<WarmStart> {
        let i = self
            .entries
            .iter()
            .position(|((t, k), _)| t == tenant && *k == n)?;
        let e = self.entries.remove(i);
        let ws = e.1.clone();
        self.entries.insert(0, e);
        Some(ws)
    }

    fn put(&mut self, tenant: &str, n: usize, ws: WarmStart) {
        self.remove(tenant, n);
        if self.entries.len() == WARM_CACHE_CAPACITY {
            self.entries.pop();
        }
        self.entries.insert(0, ((tenant.to_string(), n), ws));
    }

    fn remove(&mut self, tenant: &str, n: usize) {
        self.entries.retain(|((t, k), _)| !(t == tenant && *k == n));
    }
}

#[derive(Debug)]
struct Pending {
    id: RequestId,
    tenant: String,
    matrix: CostMatrix,
    n: usize,
    arrival: u64,
    deadline: Option<u64>,
}

/// The serving layer. The [crate docs](crate) state its contract; the
/// `service` module's docs walk the request path.
pub struct AssignmentService {
    cfg: ServiceConfig,
    ipu: HunIpu,
    cpu: JonkerVolgenant,
    pool: EnginePool,
    ipu_breaker: CircuitBreaker,
    cpu_breaker: CircuitBreaker,
    queue: VecDeque<Pending>,
    completed: Vec<Outcome>,
    metrics: ServiceMetrics,
    /// The submission horizon: every arrival so far is `<= now`.
    now: u64,
    /// When the device finishes its last committed batch.
    device_free_at: u64,
    next_id: RequestId,
    /// Last observed device cycles per (rung, shape) — the basis for
    /// deadline skip decisions. Learned, deterministic.
    estimates: HashMap<(Rung, usize), u64>,
    /// Per-(tenant, shape) warm-start state for the seeded rung.
    warm_starts: WarmCache,
    clock_hz: f64,
}

impl AssignmentService {
    /// A service in front of `solver`'s device.
    pub fn new(solver: HunIpu, cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
        assert!(cfg.max_batch >= 1, "max batch must be >= 1");
        assert!(cfg.max_attempts >= 1, "need at least one attempt");
        let clock_hz = solver.config().clock_hz;
        Self {
            pool: EnginePool::new(cfg.pool_capacity),
            ipu_breaker: CircuitBreaker::new(
                "hunipu",
                cfg.breaker_threshold,
                cfg.breaker_cooldown_cycles,
            ),
            cpu_breaker: CircuitBreaker::new(
                "cpu-jv",
                cfg.breaker_threshold,
                cfg.breaker_cooldown_cycles,
            ),
            cfg,
            ipu: solver,
            cpu: JonkerVolgenant::new(),
            queue: VecDeque::new(),
            completed: Vec::new(),
            metrics: ServiceMetrics::default(),
            now: 0,
            device_free_at: 0,
            next_id: 0,
            estimates: HashMap::new(),
            warm_starts: WarmCache::default(),
            clock_hz,
        }
    }

    /// Current virtual time (the latest submission horizon).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests waiting (admitted, not yet batched).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Service metrics so far. Pool counters are synced on every batch.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Drains and returns finished outcomes, in completion order.
    pub fn take_completed(&mut self) -> Vec<Outcome> {
        std::mem::take(&mut self.completed)
    }

    /// State of a backend's breaker (`"hunipu"` / `"cpu-jv"`).
    pub fn breaker_state(&self, backend: &str) -> Option<BreakerState> {
        match backend {
            "hunipu" => Some(self.ipu_breaker.state()),
            "cpu-jv" => Some(self.cpu_breaker.state()),
            _ => None,
        }
    }

    /// Arms (or with `None` disarms) a fault plan on the IPU backend.
    /// Applies to warm engines already in the pool: plans are drawn per
    /// launch, not at compile time.
    pub fn set_fault_plan(&mut self, plan: Option<ipu_sim::FaultPlan>) {
        self.ipu.set_fault_plan(plan);
    }

    /// Submits a request arriving at virtual cycle `t` (clamped to be
    /// monotone). Returns the request id, or [`LsapError::Overloaded`]
    /// if the queue is full — the overload contract is to shed at the
    /// door, synchronously. Ill-formed matrices are rejected here too.
    ///
    /// # Errors
    /// [`LsapError::Overloaded`], [`LsapError::NotSquare`],
    /// [`LsapError::EmptyMatrix`].
    pub fn submit_at(&mut self, t: u64, req: Request) -> Result<RequestId, LsapError> {
        let t = t.max(self.now);
        self.process(Some(t));
        self.now = t;

        if !req.matrix.is_square() {
            return Err(LsapError::NotSquare {
                rows: req.matrix.rows(),
                cols: req.matrix.cols(),
            });
        }
        let n = req.matrix.n();
        if n == 0 {
            return Err(LsapError::EmptyMatrix);
        }

        if self.queue.len() >= self.cfg.queue_capacity {
            self.metrics.tenant(&req.tenant).shed += 1;
            return Err(LsapError::Overloaded {
                queue_depth: self.queue.len(),
                capacity: self.cfg.queue_capacity,
            });
        }

        let id = self.next_id;
        self.next_id += 1;
        let budget = req.budget_cycles.or(self.cfg.default_budget_cycles);
        self.metrics.tenant(&req.tenant).submitted += 1;
        self.queue.push_back(Pending {
            id,
            tenant: req.tenant,
            matrix: req.matrix,
            n,
            arrival: t,
            deadline: budget.map(|b| t.saturating_add(b)),
        });
        self.metrics.queue_high_water = self.metrics.queue_high_water.max(self.queue.len());
        Ok(id)
    }

    /// Advances virtual time to `t`, running every batch whose
    /// composition is already decided (full, or its batching window
    /// closes by `t`).
    pub fn advance_to(&mut self, t: u64) {
        self.process(Some(t));
        self.now = self.now.max(t);
    }

    /// Declares that no further requests are coming, drains the queue,
    /// and advances the clock to when the device goes idle — so a
    /// subsequent `submit_at(svc.now() + 1, ..)` arrives at a free
    /// device rather than racing work still on the timeline.
    pub fn run_until_idle(&mut self) {
        self.process(None);
        self.now = self.now.max(self.device_free_at);
    }

    /// Runs every batch decidable within `horizon` (`None` = no more
    /// arrivals ever, so everything is decidable).
    ///
    /// A batch runs when two conditions hold:
    ///
    /// 1. **Its composition is fixed** — it is full (`max_batch`
    ///    same-shape members; later arrivals cannot join) or its window
    ///    `cutoff` is strictly before `horizon` (an arrival at exactly
    ///    `cutoff` may still join, so `cutoff == horizon` is not decided
    ///    yet). This makes the event order independent of how callers
    ///    interleave `submit_at` and `advance_to`.
    /// 2. **The timeline has reached its start** (`start <= horizon`) —
    ///    a batch the device cannot pick up until after the horizon is
    ///    still *waiting*, so its members keep occupying queue slots and
    ///    counting against the admission bound. This is what makes
    ///    overload visible: a busy device backs the queue up, and the
    ///    queue sheds.
    fn process(&mut self, horizon: Option<u64>) {
        while let Some(head) = self.queue.front() {
            let s0 = self.device_free_at.max(head.arrival);
            let cutoff = s0.max(head.arrival.saturating_add(self.cfg.batch_window_cycles));

            let mut idxs = Vec::new();
            for (i, p) in self.queue.iter().enumerate() {
                if p.n == head.n && p.arrival <= cutoff {
                    idxs.push(i);
                    if idxs.len() == self.cfg.max_batch {
                        break;
                    }
                }
            }
            let full = idxs.len() == self.cfg.max_batch;
            let window_closed = match horizon {
                None => true,
                Some(h) => cutoff < h,
            };
            if !(full || window_closed) {
                break;
            }
            let latest_arrival = idxs
                .iter()
                .map(|&i| self.queue[i].arrival)
                .max()
                .expect("batch has the head");
            // A full batch (or a drain, where no one else can arrive)
            // launches as soon as the device and all members are ready; a
            // partial batch inside a live timeline waits out its window.
            let start = if full || horizon.is_none() {
                s0.max(latest_arrival)
            } else {
                cutoff
            };
            if let Some(h) = horizon {
                if start > h {
                    break;
                }
            }
            let mut batch = Vec::with_capacity(idxs.len());
            for &i in idxs.iter().rev() {
                batch.push(self.queue.remove(i).expect("index from iteration"));
            }
            batch.reverse();
            self.run_batch(batch, start);
        }
    }

    /// Executes one same-shape batch starting at virtual cycle `start`.
    /// Members run back-to-back on the device; each member's completion
    /// time is where the busy clock stands when its answer is ready.
    fn run_batch(&mut self, batch: Vec<Pending>, start: u64) {
        let mut t_busy = start;
        for p in batch {
            let outcome = self.serve_one(p, start, &mut t_busy);
            self.completed.push(outcome);
        }
        self.device_free_at = t_busy;
        self.metrics.pool = self.pool.stats();
    }

    /// Descends the ladder for one request. `t_busy` is the device busy
    /// clock; every attempt advances it by the attempt's modeled cycles.
    fn serve_one(&mut self, p: Pending, start: u64, t_busy: &mut u64) -> Outcome {
        let n = p.n;
        // Solve attempts actually launched (any rung); the response
        // reports `attempts - 1` as its retry count.
        let mut attempts = 0u32;

        // Rung 0: warm-started re-solve. When this tenant has an exact
        // answer for this shape already, its duals are repaired against
        // the new matrix on the host and the device runs the shape's one
        // program with Step 1 skipped, on the engine the pool already
        // holds, so the rung pays no program load of its own.
        // Certificate-gated like every exact rung; any failure (stale
        // seed, device fault) drops the seed, counts a fallback, and
        // descends to the cold rung — never silent.
        'seeded: {
            let Some(ws) = self.warm_starts.get(&p.tenant, n) else {
                break 'seeded;
            };
            // Repair the duals against the new matrix on the host: the
            // seeded launch below uploads this seed. Only device work
            // is modeled, so the repair costs zero cycles. It is also
            // the usefulness gate: a seed from an unrelated matrix is
            // still *feasible*, so the seeded solve would succeed, but
            // the device would rebuild the matching almost from
            // scratch, slower than a cold solve. Count how much of the
            // previous matching survives.
            let Ok(seed) = lsap::repair_duals_f32(&p.matrix, &ws) else {
                self.warm_starts.remove(&p.tenant, n);
                break 'seeded;
            };
            if seed.assignment.matched_count() * 2 < n {
                break 'seeded;
            }
            let (admit, tr) = self.ipu_breaker.admit(*t_busy);
            if let Some(tr) = tr {
                self.metrics.breaker_transitions.push(tr);
            }
            if !admit {
                break 'seeded;
            }
            let est = self.estimates.get(&(Rung::IpuSeeded, n)).copied();
            if let (Some(d), Some(e)) = (p.deadline, est) {
                if t_busy.saturating_add(e) > d {
                    break 'seeded;
                }
            }
            let Ok((warm, load)) = self.pool.checkout(&self.ipu, n) else {
                break 'seeded;
            };
            *t_busy += load;
            attempts += 1;
            let att = policy::checked_attempt(&p.matrix, F32_VERIFY_EPS, None, "hunipu", || {
                warm.solve_seeded(&self.ipu, &p.matrix, &seed)
            });
            let cycles = att.modeled_cycles.or(est).unwrap_or(0);
            *t_busy += cycles;
            match att.outcome {
                Ok(report) => {
                    self.estimates.insert((Rung::IpuSeeded, n), cycles);
                    if let Some(tr) = self.ipu_breaker.record_success(*t_busy) {
                        self.metrics.breaker_transitions.push(tr);
                    }
                    self.metrics.tenant(&p.tenant).seeded += 1;
                    self.warm_starts
                        .put(&p.tenant, n, WarmStart::from_report(&report));
                    let retries = attempts.saturating_sub(1);
                    return self.finish_exact(p, start, *t_busy, "hunipu", report, retries);
                }
                Err(_) => {
                    // The seed, not necessarily the device, is suspect:
                    // drop it and let the cold attempts below exercise
                    // the breaker.
                    self.metrics.tenant(&p.tenant).seeded_fallbacks += 1;
                    self.warm_starts.remove(&p.tenant, n);
                }
            }
        }

        // Rungs 1–2: the exact rungs, device first, then the CPU
        // reroute. Both are certificate-gated.
        let exact = match self.attempt_ipu(&p, t_busy, &mut attempts) {
            Some(r) => Some((r, "hunipu")),
            None => self
                .attempt_cpu(&p, t_busy, &mut attempts)
                .map(|r| (r, "cpu-jv")),
        };
        if let Some((report, backend)) = exact {
            // CPU duals (f64) seed the device rung just as well as
            // device duals: the repair casts them through f32.
            self.warm_starts
                .put(&p.tenant, n, WarmStart::from_report(&report));
            let retries = attempts.saturating_sub(1);
            return self.finish_exact(p, start, *t_busy, backend, report, retries);
        }

        // Rung 3: greedy with an explicit gap bound — the answer of last
        // resort, never silent about what it is.
        let gc = greedy_modeled_cycles(n);
        if let Some(d) = p.deadline {
            if t_busy.saturating_add(gc) > d {
                let budget = d - p.arrival;
                let needed = t_busy.saturating_add(gc) - p.arrival;
                return self.finish_deadline(p, *t_busy, budget, needed);
            }
        }
        *t_busy += gc;
        match greedy_with_bound(&p.matrix) {
            Ok(ans) => {
                let m = self.metrics.tenant(&p.tenant);
                m.degraded += 1;
                m.record_latency(*t_busy - p.arrival);
                Outcome::Done(Response {
                    id: p.id,
                    tenant: p.tenant,
                    assignment: ans.assignment,
                    objective: ans.cost,
                    certificate: ans.lower_bound_certificate,
                    quality: Quality::Degraded {
                        gap_bound: ans.gap_bound,
                        lower_bound: ans.lower_bound,
                    },
                    backend: "greedy",
                    arrival: p.arrival,
                    start,
                    completion: *t_busy,
                    retries: attempts.saturating_sub(1),
                })
            }
            // Unreachable after admission-time validation, but never
            // swallow an error silently.
            Err(e) => Outcome::Failed(Rejection {
                id: p.id,
                tenant: p.tenant,
                error: e,
                cycle: *t_busy,
            }),
        }
    }

    /// Exact attempt(s) on the device, retried under decorrelated fault
    /// epochs as budget and breaker allow. Returns the verified report
    /// on success, `None` to descend the ladder.
    fn attempt_ipu(
        &mut self,
        p: &Pending,
        t_busy: &mut u64,
        attempts: &mut u32,
    ) -> Option<lsap::SolveReport> {
        let n = p.n;
        for k in 0..self.cfg.max_attempts {
            let (admit, tr) = self.ipu_breaker.admit(*t_busy);
            if let Some(tr) = tr {
                self.metrics.breaker_transitions.push(tr);
            }
            if !admit {
                break;
            }
            if let (Some(d), Some(&est)) = (p.deadline, self.estimates.get(&(Rung::Ipu, n))) {
                if t_busy.saturating_add(est) > d {
                    break; // deadline pressure, not backend failure
                }
            }
            let Ok((warm, load)) = self.pool.checkout(&self.ipu, n) else {
                break; // shape cannot compile on this device: descend
            };
            *t_busy += load;
            *attempts += 1;
            if k > 0 {
                self.metrics.tenant(&p.tenant).retries += 1;
            }
            let att = policy::checked_attempt(&p.matrix, F32_VERIFY_EPS, None, "hunipu", || {
                warm.solve(&self.ipu, &p.matrix)
            });
            // Fault-killed runs report no cycle count; charge the learned
            // estimate so failures are not modeled as free.
            let cycles = att
                .modeled_cycles
                .or_else(|| self.estimates.get(&(Rung::Ipu, n)).copied())
                .unwrap_or(0);
            *t_busy += cycles;
            match att.outcome {
                Ok(report) => {
                    self.estimates.insert((Rung::Ipu, n), cycles);
                    if let Some(tr) = self.ipu_breaker.record_success(*t_busy) {
                        self.metrics.breaker_transitions.push(tr);
                    }
                    return Some(report);
                }
                Err(e) => match policy::classify(&e) {
                    RetryClass::Retry => {
                        if let Some(tr) = self.ipu_breaker.record_failure(*t_busy) {
                            self.metrics.breaker_transitions.push(tr);
                        }
                    }
                    RetryClass::Escalate | RetryClass::Abort => break,
                },
            }
        }
        None
    }

    /// One exact attempt on the CPU (the reroute rung).
    fn attempt_cpu(
        &mut self,
        p: &Pending,
        t_busy: &mut u64,
        attempts: &mut u32,
    ) -> Option<lsap::SolveReport> {
        let n = p.n;
        let (admit, tr) = self.cpu_breaker.admit(*t_busy);
        if let Some(tr) = tr {
            self.metrics.breaker_transitions.push(tr);
        }
        if !admit {
            return None;
        }
        if let (Some(d), Some(&est)) = (p.deadline, self.estimates.get(&(Rung::Cpu, n))) {
            if t_busy.saturating_add(est) > d {
                return None;
            }
        }
        *attempts += 1;
        let att = policy::checked_attempt(&p.matrix, lsap::COST_EPS, None, "cpu-jv", || {
            self.cpu.solve(&p.matrix)
        });
        // CPU cycles tick a different clock; convert through modeled
        // seconds onto the service's device clock.
        let cycles = match &att.outcome {
            Ok(report) => report
                .stats
                .modeled_seconds
                .map(|s| (s * self.clock_hz).ceil() as u64)
                .unwrap_or(0),
            Err(_) => self.estimates.get(&(Rung::Cpu, n)).copied().unwrap_or(0),
        };
        *t_busy += cycles;
        match att.outcome {
            Ok(report) => {
                self.estimates.insert((Rung::Cpu, n), cycles);
                if let Some(tr) = self.cpu_breaker.record_success(*t_busy) {
                    self.metrics.breaker_transitions.push(tr);
                }
                self.metrics.tenant(&p.tenant).rerouted += 1;
                Some(report)
            }
            Err(_) => {
                if let Some(tr) = self.cpu_breaker.record_failure(*t_busy) {
                    self.metrics.breaker_transitions.push(tr);
                }
                None
            }
        }
    }

    /// Wraps a verified exact report, enforcing the completion deadline:
    /// an answer that lands after its deadline is a deadline failure, not
    /// a success — late exactness is not what the caller bought.
    fn finish_exact(
        &mut self,
        p: Pending,
        start: u64,
        completion: u64,
        backend: &'static str,
        report: lsap::SolveReport,
        retries: u32,
    ) -> Outcome {
        if let Some(d) = p.deadline {
            if completion > d {
                let budget = d - p.arrival;
                let needed = completion - p.arrival;
                return self.finish_deadline(p, completion, budget, needed);
            }
        }
        let m = self.metrics.tenant(&p.tenant);
        m.exact += 1;
        m.record_latency(completion - p.arrival);
        Outcome::Done(Response {
            id: p.id,
            tenant: p.tenant,
            assignment: report.assignment,
            objective: report.objective,
            certificate: report.certificate,
            quality: Quality::Exact,
            backend,
            arrival: p.arrival,
            start,
            completion,
            retries,
        })
    }

    fn finish_deadline(&mut self, p: Pending, cycle: u64, budget: u64, needed: u64) -> Outcome {
        self.metrics.tenant(&p.tenant).deadline_exceeded += 1;
        Outcome::Failed(Rejection {
            id: p.id,
            tenant: p.tenant,
            error: LsapError::DeadlineExceeded {
                budget_cycles: budget,
                needed_cycles: needed,
            },
            cycle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsap::Assignment;

    fn start(x: f64) -> WarmStart {
        WarmStart {
            u: vec![x],
            v: vec![0.0],
            assignment: Assignment::identity(1),
        }
    }

    #[test]
    fn warm_cache_is_keyed_by_tenant_and_shape() {
        let mut cache = WarmCache::default();
        cache.put("a", 4, start(1.0));
        cache.put("a", 8, start(2.0));
        cache.put("b", 4, start(3.0));
        assert_eq!(cache.get("a", 4), Some(start(1.0)));
        assert_eq!(cache.get("a", 8), Some(start(2.0)));
        assert_eq!(cache.get("b", 4), Some(start(3.0)));
        assert_eq!(cache.get("b", 8), None);
    }

    #[test]
    fn warm_cache_put_replaces_and_remove_forgets() {
        let mut cache = WarmCache::default();
        cache.put("a", 4, start(1.0));
        cache.put("a", 4, start(5.0));
        assert_eq!(cache.entries.len(), 1);
        assert_eq!(cache.get("a", 4), Some(start(5.0)));
        cache.remove("a", 4);
        assert_eq!(cache.get("a", 4), None);
        cache.remove("a", 4);
        assert!(cache.entries.is_empty());
    }

    #[test]
    fn warm_cache_evicts_the_least_recently_used_beyond_capacity() {
        let mut cache = WarmCache::default();
        for n in 0..WARM_CACHE_CAPACITY {
            cache.put("t", n, start(n as f64));
        }
        // Reading shape 0 makes it the most recent, so shape 1 is the
        // oldest when one more entry arrives.
        assert!(cache.get("t", 0).is_some());
        cache.put("t", WARM_CACHE_CAPACITY, start(0.5));
        assert_eq!(cache.entries.len(), WARM_CACHE_CAPACITY);
        assert_eq!(cache.get("t", 1), None);
        assert!(cache.get("t", 0).is_some());
        assert!(cache.get("t", WARM_CACHE_CAPACITY).is_some());
    }
}
