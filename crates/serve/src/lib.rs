//! Assignment-as-a-service: an overload-safe serving layer over the
//! HunIPU solver stack.
//!
//! The rest of the workspace answers "how fast can one solve / one batch
//! go?"; this crate answers the serving question: what happens when
//! requests *keep coming* — faster than the device can drain them, with
//! deadlines attached, while the device is being fault-injected? The
//! design goal is the robustness contract of a production inference
//! service:
//!
//! - **Admission control** ([`AssignmentService::submit_at`]) — a bounded
//!   queue that sheds with [`lsap::LsapError::Overloaded`] instead of
//!   growing without bound. Queue depth is bounded by construction.
//! - **Deadlines on a virtual clock** — budgets are denominated in
//!   *simulator cycles*, fixed at admission, and propagated through every
//!   retry and fallback rung, so a retry can never overshoot the deadline
//!   it serves. No wall clock enters any decision.
//! - **Warm engine pool** ([`EnginePool`]) — the C4 compile-once
//!   property turned into a serving asset: an LRU of pre-compiled
//!   [`hunipu::WarmEngine`]s, charging program-load cycles only on miss
//!   or post-eviction reuse.
//! - **Adaptive micro-batching** — same-shape requests arriving within a
//!   window share one checkout and run back-to-back.
//! - **Circuit breakers** ([`CircuitBreaker`]) — a backend that keeps
//!   failing under faults is benched for a cooldown, then probed
//!   half-open; every transition is recorded in the metrics.
//! - **Graceful degradation, never silent** — the ladder
//!   seeded-IPU → exact-IPU → exact-CPU → greedy descends until an
//!   answer fits the budget. The seeded rung re-solves from the tenant's
//!   last exact answer for the shape
//!   ([`hunipu::WarmEngine::solve_seeded`]). Exact answers are
//!   LP-certificate-verified, degraded answers carry an explicit
//!   weak-duality [`Quality::Degraded`] gap bound.
//!
//! Everything observable (responses, rejections, metrics, breaker
//! transitions) is a deterministic function of the submitted workload
//! and the armed fault-plan seed; the bench harness replays workloads
//! twice and gates on bit equality.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod breaker;
pub mod degrade;
mod metrics;
mod pool;
mod service;

pub use breaker::{BreakerState, BreakerTransition, CircuitBreaker};
pub use degrade::{greedy_modeled_cycles, greedy_with_bound, DegradedAnswer};
pub use metrics::{ServiceMetrics, TenantMetrics};
pub use pool::{EnginePool, PoolStats};
pub use service::{
    AssignmentService, Outcome, Quality, Rejection, Request, RequestId, Response, ServiceConfig,
};
