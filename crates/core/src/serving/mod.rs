//! The multi-tenant request plane in front of [`FocusService`]: admission
//! control, deadline-aware batching and tail-latency SLO accounting.
//!
//! [`FocusService::serve`](crate::service::FocusService::serve) is a
//! synchronous batch seam: hand it a slice of requests, get one outcome
//! per request. That is the right substrate, but a shared deployment needs
//! a front door that decides *which* requests reach a batch and *when* the
//! batch closes. [`RequestPlane`] is that door:
//!
//! * **Admission** ([`TokenBucket`]): each tenant owns a token bucket
//!   (`rate_per_sec`, `burst`). A submit that finds the bucket empty is
//!   shed immediately with [`Overloaded`] carrying an honest
//!   `retry_after_secs` — the plane never queues work it already knows it
//!   cannot afford.
//! * **Bounded queue + weighted fair order** (`FairQueue`): the
//!   global queue holds at most `queue_bound` requests; when it is full,
//!   submits are shed with [`ShedReason::QueueFull`] *without* spending
//!   the tenant's token. Dequeue order is start-time fair queueing over
//!   per-tenant FIFO lanes, so under overload tenants are served in
//!   proportion to their configured weights (within one pick), and a
//!   zero-weight tenant is clamped rather than starved.
//! * **Deadline-aware batching**: a batch closes when it reaches
//!   `batch_max_requests` *or* when the oldest queued request's latency
//!   budget says it must (`now ≥ deadline − dispatch_margin_secs`).
//!   Requests whose deadline has already passed at batch formation are
//!   answered [`Response::DeadlineExpired`] and never reach the backend —
//!   an expired request costs zero GT-CNN inferences. A batch may mix
//!   exact and anytime requests in one backend call
//!   ([`RequestPlane::dispatch_streaming`] streams the partials).
//! * **SLO accounting** ([`ServingStats`]): log-bucketed, exactly
//!   mergeable latency histograms ([`LatencyHistogram`]) per plane and per
//!   tenant, plus admitted/shed/expired counters, folded into
//!   [`ServiceStats`](crate::service::ServiceStats) as the `serving`
//!   field.
//!
//! All time comes from a [`Clock`](focus_runtime::Clock) capability; under
//! a [`VirtualClock`](focus_runtime::VirtualClock) every admission,
//! shedding and batching decision is deterministic, which is what lets
//! `tests/serving_plane.rs` prove byte-identity between plane-served and
//! directly-served answers over arbitrary arrival schedules. See
//! `docs/serving.md` for the request lifecycle and tenant configuration
//! guide.
//!
//! [`FocusService`]: crate::service::FocusService

mod bucket;
mod plane;
mod queue;

use serde::{Deserialize, Serialize};

use focus_runtime::LatencyHistogram;

pub use bucket::TokenBucket;
pub use plane::{Completed, RequestPlane, Ticket};
pub use queue::MIN_WEIGHT;

use crate::query::QueryOutcome;

/// Identifies a tenant of the request plane.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TenantId(pub u32);

/// Per-tenant admission and SLO knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Fair-share weight against other tenants under overload. Clamped to
    /// [`MIN_WEIGHT`]; a zero weight means "lowest priority", not "never
    /// served".
    pub weight: f64,
    /// Token-bucket refill rate: sustained admitted requests per second.
    pub rate_per_sec: f64,
    /// Token-bucket capacity: how large a burst is admitted at once.
    pub burst: f64,
    /// Per-request latency budget. A request admitted at `t` must be
    /// answered by `t + deadline_secs`; past that it expires unserved.
    pub deadline_secs: f64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            weight: 1.0,
            rate_per_sec: 64.0,
            burst: 16.0,
            deadline_secs: 1.0,
        }
    }
}

/// Plane-wide configuration: the queue bound, batch-closing rule and the
/// tenant table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Global bound on queued (admitted, not yet dispatched) requests.
    /// Submits beyond it are shed with [`ShedReason::QueueFull`].
    pub queue_bound: usize,
    /// A batch closes as soon as it can take this many requests.
    pub batch_max_requests: usize,
    /// A batch also closes when the oldest queued request is within this
    /// margin of its deadline — the time reserved for the backend call.
    pub dispatch_margin_secs: f64,
    /// Configuration applied to tenants absent from [`tenants`].
    ///
    /// [`tenants`]: ServingConfig::tenants
    pub default_tenant: TenantConfig,
    /// Per-tenant overrides.
    pub tenants: Vec<(TenantId, TenantConfig)>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            queue_bound: 256,
            batch_max_requests: 16,
            dispatch_margin_secs: 0.05,
            default_tenant: TenantConfig::default(),
            tenants: Vec::new(),
        }
    }
}

impl ServingConfig {
    /// The configuration governing `tenant`.
    pub fn tenant(&self, tenant: TenantId) -> &TenantConfig {
        self.tenants
            .iter()
            .find(|(id, _)| *id == tenant)
            .map(|(_, cfg)| cfg)
            .unwrap_or(&self.default_tenant)
    }

    /// Replaces or inserts the override for `tenant` (builder-style).
    pub fn with_tenant(mut self, tenant: TenantId, config: TenantConfig) -> Self {
        if let Some(slot) = self.tenants.iter_mut().find(|(id, _)| *id == tenant) {
            slot.1 = config;
        } else {
            self.tenants.push((tenant, config));
        }
        self
    }
}

/// Why a submit was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The tenant's token bucket had less than one token.
    RateLimited,
    /// The global queue was at its bound (the tenant's token was *not*
    /// spent).
    QueueFull,
}

/// Explicit backpressure: the plane refused a submit and tells the client
/// when trying again is worthwhile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Overloaded {
    /// Seconds until the shedding condition clears, assuming no
    /// competing traffic: a full token accrues ([`ShedReason::RateLimited`])
    /// or the next batch close drains the queue ([`ShedReason::QueueFull`]).
    pub retry_after_secs: f64,
    /// Which admission gate refused.
    pub reason: ShedReason,
}

/// The terminal answer of an admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The backend served the request.
    Answered(QueryOutcome),
    /// The request's deadline passed while it was queued; it was dropped
    /// at batch formation without consuming any GT-CNN inference.
    DeadlineExpired,
}

/// Per-tenant slice of [`ServingStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TenantServingStats {
    /// The tenant these counters belong to.
    pub tenant: TenantId,
    /// Requests offered via `submit`.
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Submits shed by the tenant's token bucket.
    pub shed_rate_limited: u64,
    /// Submits shed by the global queue bound.
    pub shed_queue_full: u64,
    /// Requests answered by the backend.
    pub answered: u64,
    /// Requests dropped unserved because their deadline passed in queue.
    pub expired: u64,
    /// Answered requests whose completion beat their deadline.
    pub deadline_misses: u64,
    /// Submit-to-answer latency of answered requests.
    pub latency: LatencyHistogram,
}

/// SLO snapshot of the request plane, embedded in
/// [`ServiceStats`](crate::service::ServiceStats) as `serving`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ServingStats {
    /// Requests offered across all tenants.
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Submits shed by token buckets.
    pub shed_rate_limited: u64,
    /// Submits shed by the global queue bound.
    pub shed_queue_full: u64,
    /// Requests answered by the backend.
    pub answered: u64,
    /// Requests dropped unserved (deadline passed while queued).
    pub expired: u64,
    /// Answered requests that finished after their deadline. Zero under a
    /// virtual clock that only advances between plane operations.
    pub deadline_misses: u64,
    /// Batches dispatched to the backend.
    pub batches: u64,
    /// High-water mark of the queue length (never exceeds the bound).
    pub max_queue_len: u64,
    /// Submit-to-answer latency across all tenants (log-bucketed,
    /// exactly mergeable).
    pub latency: LatencyHistogram,
    /// Submit-to-first-result latency of anytime requests: the GPU time
    /// accumulated up to the first round that surfaced a new distinct
    /// result (queue wait included). Empty unless anytime requests were
    /// dispatched through the live service.
    #[serde(default)]
    pub first_result_latency: LatencyHistogram,
    /// Per-tenant breakdown, ordered by tenant id.
    pub per_tenant: Vec<TenantServingStats>,
}

impl ServingStats {
    /// Requests shed for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full
    }

    /// Fraction of submits that were shed (0.0 before any submit).
    pub fn shed_fraction(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed() as f64 / self.submitted as f64
        }
    }

    /// The per-tenant slice for `tenant`, if it ever submitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantServingStats> {
        self.per_tenant.iter().find(|t| t.tenant == tenant)
    }

    pub(crate) fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantServingStats {
        if let Some(pos) = self.per_tenant.iter().position(|t| t.tenant == tenant) {
            return &mut self.per_tenant[pos];
        }
        let pos = self
            .per_tenant
            .iter()
            .position(|t| t.tenant > tenant)
            .unwrap_or(self.per_tenant.len());
        self.per_tenant.insert(
            pos,
            TenantServingStats {
                tenant,
                ..TenantServingStats::default()
            },
        );
        &mut self.per_tenant[pos]
    }

    /// Conservation check used by tests: every submitted request is
    /// accounted for exactly once across admitted/shed, and every admitted
    /// request across answered/expired/still-queued.
    pub fn conserves(&self, queued_now: u64) -> bool {
        self.submitted == self.admitted + self.shed()
            && self.admitted == self.answered + self.expired + queued_now
    }
}

pub(crate) use queue::{FairQueue, Queued};
