//! [`RequestPlane`]: the front door that turns individual tenant submits
//! into deadline-respecting [`FocusService::serve`] batches.
//!
//! [`FocusService::serve`]: crate::service::FocusService::serve

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_index::SegmentError;
use focus_runtime::Clock;

use crate::query::anytime::{AnytimeOutcome, AnytimePartial};
use crate::query::{QueryOutcome, QueryRequest};
use crate::service::{FocusService, ServiceStats};
use crate::serving::{
    FairQueue, Overloaded, Queued, Response, ServingConfig, ServingStats, ShedReason, TenantId,
    TokenBucket,
};

/// Handle for one admitted request, matched against
/// [`Completed::ticket`] when the answer comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// One finished request: either the backend's answer or an expiry notice.
#[derive(Debug, Clone, PartialEq)]
pub struct Completed {
    /// The ticket handed back by [`RequestPlane::submit`].
    pub ticket: Ticket,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The answer (or the expiry).
    pub response: Response,
    /// Submit-to-completion time as seen by the plane's clock.
    pub latency_secs: f64,
    /// Whether completion happened after the request's deadline. Always
    /// `true` for [`Response::DeadlineExpired`]; for answered requests it
    /// can only be `true` when the clock advanced during the backend call.
    pub deadline_missed: bool,
}

/// The terminal answer of an admitted anytime request.
#[derive(Debug, Clone, PartialEq)]
pub enum AnytimeResponse {
    /// The backend ran the anytime loop; the outcome carries the partial
    /// trail and the termination reason.
    Answered(AnytimeOutcome),
    /// The request's deadline passed while it was queued; no round ran.
    DeadlineExpired,
}

/// One finished anytime request, with first-result timing alongside the
/// terminal answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeCompleted {
    /// The ticket handed back by [`RequestPlane::submit`].
    pub ticket: Ticket,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// The answer (or the expiry).
    pub response: AnytimeResponse,
    /// Submit-to-completion time as seen by the plane's clock.
    pub latency_secs: f64,
    /// Queue wait plus GPU time up to the end of the first round that
    /// surfaced a new distinct result; `f64::INFINITY` when no round did
    /// (nothing matched, or the request expired). Finite values land in
    /// [`ServingStats::first_result_latency`].
    pub first_result_latency_secs: f64,
    /// Whether completion happened after the request's deadline.
    pub deadline_missed: bool,
}

/// Everything behind one lock: queue order, bucket levels, ticket counter
/// and the stats they feed. Kept together so a submit that reads the queue
/// length and a dispatch that drains it can never interleave inconsistently.
#[derive(Debug)]
struct PlaneState {
    queue: FairQueue,
    buckets: BTreeMap<TenantId, TokenBucket>,
    next_ticket: u64,
    stats: ServingStats,
}

/// The multi-tenant request plane (see the [module docs](crate::serving)).
///
/// Shared by reference from any number of submitting threads; batch
/// dispatch calls the backend *outside* the plane lock, so slow GT-CNN
/// work never blocks admission.
pub struct RequestPlane {
    config: ServingConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<PlaneState>,
}

impl RequestPlane {
    /// A plane reading time from `clock`.
    ///
    /// # Panics
    ///
    /// Panics if the queue bound or batch size is zero, or the dispatch
    /// margin is negative.
    pub fn new(config: ServingConfig, clock: Arc<dyn Clock>) -> Self {
        assert!(config.queue_bound > 0, "queue bound must be positive");
        assert!(config.batch_max_requests > 0, "batch size must be positive");
        assert!(
            config.dispatch_margin_secs >= 0.0 && config.dispatch_margin_secs.is_finite(),
            "dispatch margin must be non-negative"
        );
        Self {
            config,
            clock,
            inner: Mutex::new(PlaneState {
                queue: FairQueue::default(),
                buckets: BTreeMap::new(),
                next_ticket: 0,
                stats: ServingStats::default(),
            }),
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Offers one request on behalf of `tenant`.
    ///
    /// Admission runs two gates in order: the tenant's token bucket
    /// (sheds [`ShedReason::RateLimited`]), then the global queue bound
    /// (sheds [`ShedReason::QueueFull`] *without* spending the token a
    /// rate-check would have granted). An admitted request is stamped with
    /// `now + deadline_secs` and queued; its answer arrives from a later
    /// [`dispatch`](Self::dispatch) call, matched by the returned ticket.
    pub fn submit(&self, tenant: TenantId, request: QueryRequest) -> Result<Ticket, Overloaded> {
        let now = self.clock.now_secs();
        let tenant_cfg = self.config.tenant(tenant).clone();
        let mut state = self.inner.lock();
        state.stats.submitted += 1;
        state.stats.tenant_mut(tenant).submitted += 1;

        let tokens = {
            let bucket = state.buckets.entry(tenant).or_insert_with(|| {
                TokenBucket::new(tenant_cfg.rate_per_sec, tenant_cfg.burst, now)
            });
            bucket.refill(now);
            bucket.tokens()
        };
        if tokens < 1.0 {
            let retry_after_secs = (1.0 - tokens) / tenant_cfg.rate_per_sec;
            state.stats.shed_rate_limited += 1;
            state.stats.tenant_mut(tenant).shed_rate_limited += 1;
            return Err(Overloaded {
                retry_after_secs,
                reason: ShedReason::RateLimited,
            });
        }
        if state.queue.len() >= self.config.queue_bound {
            // Queue-full sheds do not spend the token: the tenant did
            // nothing wrong, the plane is the bottleneck. Retry when the
            // batch now forming will have drained.
            let next_close = state
                .queue
                .oldest_deadline_secs()
                .map(|d| d - self.config.dispatch_margin_secs)
                .unwrap_or(now);
            let retry_after_secs = (next_close - now).max(self.config.dispatch_margin_secs);
            state.stats.shed_queue_full += 1;
            state.stats.tenant_mut(tenant).shed_queue_full += 1;
            return Err(Overloaded {
                retry_after_secs,
                reason: ShedReason::QueueFull,
            });
        }
        state
            .buckets
            .get_mut(&tenant)
            .expect("bucket created above")
            .try_admit(now)
            .expect("a bucket holding a whole token admits");

        let ticket = Ticket(state.next_ticket);
        state.next_ticket += 1;
        state.queue.push(
            Queued {
                ticket: ticket.0,
                tenant,
                request,
                arrival_secs: now,
                deadline_secs: now + tenant_cfg.deadline_secs,
            },
            tenant_cfg.weight,
        );
        state.stats.admitted += 1;
        state.stats.tenant_mut(tenant).admitted += 1;
        let depth = state.queue.len() as u64;
        state.stats.max_queue_len = state.stats.max_queue_len.max(depth);
        Ok(ticket)
    }

    /// Requests admitted but not yet dispatched.
    pub fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether a batch should close right now: the queue can fill one, or
    /// the oldest queued request's budget leaves only the dispatch margin.
    pub fn batch_ready(&self) -> bool {
        let now = self.clock.now_secs();
        let state = self.inner.lock();
        if state.queue.is_empty() {
            return false;
        }
        state.queue.len() >= self.config.batch_max_requests
            || state
                .queue
                .oldest_deadline_secs()
                .is_some_and(|d| now >= d - self.config.dispatch_margin_secs)
    }

    /// Batch formation, shared by both dispatch paths: pops up to
    /// `batch_max_requests` requests off the fair queue. Those whose
    /// deadline passed before `now` come back first (booked as expired;
    /// they occupy no batch slot), the rest form the batch, which is
    /// counted when non-empty.
    fn close_batch(&self, now: f64) -> (Vec<Queued>, Vec<Queued>) {
        let mut expired = Vec::new();
        let mut batch = Vec::new();
        let mut state = self.inner.lock();
        while batch.len() < self.config.batch_max_requests {
            let Some(queued) = state.queue.pop() else {
                break;
            };
            if now > queued.deadline_secs {
                state.stats.expired += 1;
                state.stats.tenant_mut(queued.tenant).expired += 1;
                expired.push(queued);
            } else {
                batch.push(queued);
            }
        }
        if !batch.is_empty() {
            state.stats.batches += 1;
        }
        (expired, batch)
    }

    /// Closes one batch and serves it through `serve`, returning every
    /// request completed by the call (answers and expiries, in fair-queue
    /// order). Returns an empty vec when nothing is due.
    ///
    /// Batch formation pops up to `batch_max_requests` requests; any whose
    /// deadline has already passed complete as
    /// [`Response::DeadlineExpired`] without occupying a batch slot or
    /// touching the backend. The backend runs *outside* the plane lock; if
    /// it fails, the popped requests are restored to the queue front (in
    /// order) and the error is returned.
    pub fn dispatch_with<F>(&self, serve: F) -> Result<Vec<Completed>, SegmentError>
    where
        F: FnOnce(&[QueryRequest]) -> Result<Vec<QueryOutcome>, SegmentError>,
    {
        let now = self.clock.now_secs();
        let (expired, batch) = self.close_batch(now);
        let mut completed: Vec<Completed> = expired
            .into_iter()
            .map(|queued| Completed {
                ticket: Ticket(queued.ticket),
                tenant: queued.tenant,
                response: Response::DeadlineExpired,
                latency_secs: now - queued.arrival_secs,
                deadline_missed: true,
            })
            .collect();
        if batch.is_empty() {
            return Ok(completed);
        }

        let requests: Vec<QueryRequest> = batch.iter().map(|q| q.request.clone()).collect();
        let outcomes = match serve(&requests) {
            Ok(outcomes) => outcomes,
            Err(err) => {
                let mut state = self.inner.lock();
                state.stats.batches -= 1;
                for queued in batch.into_iter().rev() {
                    state.queue.requeue_front(queued);
                }
                return Err(err);
            }
        };
        debug_assert_eq!(outcomes.len(), batch.len(), "serve answers 1:1 in order");

        let finished = self.clock.now_secs();
        let mut state = self.inner.lock();
        for (queued, outcome) in batch.into_iter().zip(outcomes) {
            let (latency_secs, deadline_missed) =
                record_answered(&mut state.stats, &queued, finished);
            completed.push(Completed {
                ticket: Ticket(queued.ticket),
                tenant: queued.tenant,
                response: Response::Answered(outcome),
                latency_secs,
                deadline_missed,
            });
        }
        Ok(completed)
    }

    /// [`dispatch_with`](Self::dispatch_with) against a live service's
    /// [`serve`](FocusService::serve) seam.
    pub fn dispatch(&self, service: &FocusService) -> Result<Vec<Completed>, SegmentError> {
        self.dispatch_with(|batch| service.serve(batch))
    }

    /// Closes one batch and serves each request through the anytime loop,
    /// streaming every round's [`AnytimePartial`] to `on_partial` (tagged
    /// with the request's ticket) as it is produced, and returning one
    /// [`AnytimeCompleted`] per finished request.
    ///
    /// Admission is unchanged: an anytime request spent exactly one token
    /// at [`submit`](Self::submit) time, and its partials cost the tenant
    /// nothing more — the admission fee covers the whole stream. Batch
    /// formation and expiry follow [`dispatch_with`](Self::dispatch_with);
    /// requests are then served *sequentially* outside the plane lock
    /// (the anytime loop batches internally per round). If the backend
    /// fails, the failing request and every not-yet-served one are
    /// restored to the queue front; requests already served stay
    /// completed (their partials were already streamed).
    ///
    /// Each answered request whose rounds surfaced at least one result
    /// records queue-wait-plus-GPU-time-to-that-round into
    /// [`ServingStats::first_result_latency`].
    pub fn dispatch_anytime_with<F>(
        &self,
        mut serve: F,
        mut on_partial: impl FnMut(Ticket, &AnytimePartial),
    ) -> Result<Vec<AnytimeCompleted>, SegmentError>
    where
        F: FnMut(
            &QueryRequest,
            &mut dyn FnMut(&AnytimePartial),
        ) -> Result<AnytimeOutcome, SegmentError>,
    {
        let now = self.clock.now_secs();
        let (expired, batch) = self.close_batch(now);
        let mut completed: Vec<AnytimeCompleted> = expired
            .into_iter()
            .map(|queued| AnytimeCompleted {
                ticket: Ticket(queued.ticket),
                tenant: queued.tenant,
                response: AnytimeResponse::DeadlineExpired,
                latency_secs: now - queued.arrival_secs,
                first_result_latency_secs: f64::INFINITY,
                deadline_missed: true,
            })
            .collect();
        if batch.is_empty() {
            return Ok(completed);
        }

        let mut answered: Vec<(Queued, AnytimeOutcome, f64)> = Vec::new();
        let mut iter = batch.into_iter();
        while let Some(queued) = iter.next() {
            let ticket = Ticket(queued.ticket);
            // GPU time accumulated up to (and including) the first round
            // that surfaced a new distinct result.
            let mut gpu_latency = 0.0f64;
            let mut to_first_result = f64::INFINITY;
            let result = serve(&queued.request, &mut |partial: &AnytimePartial| {
                gpu_latency += partial.latency_secs;
                if !partial.new_results.is_empty() && to_first_result.is_infinite() {
                    to_first_result = gpu_latency;
                }
                on_partial(ticket, partial);
            });
            match result {
                Ok(outcome) => answered.push((queued, outcome, to_first_result)),
                Err(err) => {
                    // Restore the failing request ahead of the untouched
                    // tail; the already-served prefix stays completed.
                    let mut state = self.inner.lock();
                    if answered.is_empty() {
                        state.stats.batches -= 1;
                    }
                    let mut restore = vec![queued];
                    restore.extend(iter);
                    for q in restore.into_iter().rev() {
                        state.queue.requeue_front(q);
                    }
                    return Err(err);
                }
            }
        }

        let finished = self.clock.now_secs();
        let mut state = self.inner.lock();
        for (queued, outcome, to_first) in answered {
            let (latency_secs, deadline_missed) =
                record_answered(&mut state.stats, &queued, finished);
            let queue_wait = now - queued.arrival_secs;
            let first_result_latency_secs = if to_first.is_finite() {
                let total = queue_wait + to_first;
                state.stats.first_result_latency.record(total);
                total
            } else {
                f64::INFINITY
            };
            completed.push(AnytimeCompleted {
                ticket: Ticket(queued.ticket),
                tenant: queued.tenant,
                response: AnytimeResponse::Answered(outcome),
                latency_secs,
                first_result_latency_secs,
                deadline_missed,
            });
        }
        Ok(completed)
    }

    /// [`dispatch_anytime_with`](Self::dispatch_anytime_with) against a
    /// live service's [`serve_anytime_with`](FocusService::serve_anytime_with)
    /// seam.
    pub fn dispatch_anytime(
        &self,
        service: &FocusService,
        on_partial: impl FnMut(Ticket, &AnytimePartial),
    ) -> Result<Vec<AnytimeCompleted>, SegmentError> {
        self.dispatch_anytime_with(
            |request, stream| service.serve_anytime_with(request, stream),
            on_partial,
        )
    }

    /// Drains the queue completely (repeated dispatches), regardless of
    /// the batch-closing rule — shutdown and test teardown.
    pub fn flush_with<F>(&self, mut serve: F) -> Result<Vec<Completed>, SegmentError>
    where
        F: FnMut(&[QueryRequest]) -> Result<Vec<QueryOutcome>, SegmentError>,
    {
        let mut all = Vec::new();
        while self.queue_len() > 0 {
            all.extend(self.dispatch_with(&mut serve)?);
        }
        Ok(all)
    }

    /// Snapshot of the plane's SLO counters and histograms.
    pub fn serving_stats(&self) -> ServingStats {
        self.inner.lock().stats.clone()
    }

    /// The service's unified stats with this plane's [`ServingStats`]
    /// folded in as [`ServiceStats::serving`].
    pub fn stats(&self, service: &FocusService) -> ServiceStats {
        let mut stats = service.stats();
        stats.serving = self.serving_stats();
        stats
    }
}

/// Books one request answered at `finished` into the global and per-tenant
/// counters and latency histograms; returns its `(latency_secs,
/// deadline_missed)`.
fn record_answered(stats: &mut ServingStats, queued: &Queued, finished: f64) -> (f64, bool) {
    let latency_secs = finished - queued.arrival_secs;
    let deadline_missed = finished > queued.deadline_secs;
    stats.answered += 1;
    stats.deadline_misses += u64::from(deadline_missed);
    stats.latency.record(latency_secs);
    let tenant = stats.tenant_mut(queued.tenant);
    tenant.answered += 1;
    tenant.deadline_misses += u64::from(deadline_missed);
    tenant.latency.record(latency_secs);
    (latency_secs, deadline_missed)
}

impl std::fmt::Debug for RequestPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.lock();
        f.debug_struct("RequestPlane")
            .field("config", &self.config)
            .field("queued", &state.queue.len())
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::TenantConfig;
    use focus_runtime::VirtualClock;
    use focus_video::ClassId;

    fn plane(config: ServingConfig) -> (RequestPlane, VirtualClock) {
        let clock = VirtualClock::new();
        let plane = RequestPlane::new(config, Arc::new(clock.clone()));
        (plane, clock)
    }

    fn request() -> QueryRequest {
        QueryRequest::new(ClassId(1))
    }

    /// A backend that answers with empty outcomes and counts invocations.
    fn echo(
        calls: &std::cell::Cell<usize>,
    ) -> impl FnMut(&[QueryRequest]) -> Result<Vec<QueryOutcome>, SegmentError> + '_ {
        move |batch| {
            calls.set(calls.get() + 1);
            Ok(batch
                .iter()
                .map(|req| QueryOutcome {
                    class: req.class,
                    frames: Vec::new(),
                    objects: Vec::new(),
                    matched_clusters: 0,
                    confirmed_clusters: 0,
                    centroid_inferences: 0,
                    gpu_cost: focus_cnn::GpuCost::default(),
                    latency_secs: 0.0,
                })
                .collect())
        }
    }

    #[test]
    fn rate_limit_sheds_with_honest_retry_after() {
        let config = ServingConfig {
            default_tenant: TenantConfig {
                rate_per_sec: 2.0,
                burst: 1.0,
                ..TenantConfig::default()
            },
            ..ServingConfig::default()
        };
        let (plane, clock) = plane(config);
        let tenant = TenantId(0);
        plane.submit(tenant, request()).unwrap();
        let shed = plane.submit(tenant, request()).unwrap_err();
        assert_eq!(shed.reason, ShedReason::RateLimited);
        assert_eq!(shed.retry_after_secs, 0.5, "a whole token at 2/s");
        // Waiting exactly retry_after admits again.
        clock.advance(shed.retry_after_secs);
        plane.submit(tenant, request()).unwrap();
        let stats = plane.serving_stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed_rate_limited, 1);
        assert!(stats.conserves(2));
    }

    #[test]
    fn queue_full_sheds_without_spending_the_token() {
        let config = ServingConfig {
            queue_bound: 2,
            default_tenant: TenantConfig {
                rate_per_sec: 1.0,
                burst: 3.0,
                ..TenantConfig::default()
            },
            ..ServingConfig::default()
        };
        let (plane, _clock) = plane(config);
        let tenant = TenantId(0);
        plane.submit(tenant, request()).unwrap();
        plane.submit(tenant, request()).unwrap();
        let shed = plane.submit(tenant, request()).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);
        assert!(shed.retry_after_secs > 0.0);
        // The third token was not spent: drain the queue and the same
        // tenant admits immediately at the same instant.
        let calls = std::cell::Cell::new(0);
        plane.flush_with(echo(&calls)).unwrap();
        plane.submit(tenant, request()).unwrap();
        let stats = plane.serving_stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.max_queue_len, 2, "bound respected");
        assert!(stats.conserves(1));
    }

    #[test]
    fn batch_closes_on_size_or_deadline() {
        let config = ServingConfig {
            batch_max_requests: 3,
            dispatch_margin_secs: 0.1,
            default_tenant: TenantConfig {
                deadline_secs: 1.0,
                rate_per_sec: 100.0,
                burst: 10.0,
                ..TenantConfig::default()
            },
            ..ServingConfig::default()
        };
        let (plane, clock) = plane(config);
        let tenant = TenantId(0);
        plane.submit(tenant, request()).unwrap();
        assert!(
            !plane.batch_ready(),
            "one fresh request: neither rule fires"
        );
        plane.submit(tenant, request()).unwrap();
        plane.submit(tenant, request()).unwrap();
        assert!(plane.batch_ready(), "size rule");
        let calls = std::cell::Cell::new(0);
        let completed = plane.dispatch_with(echo(&calls)).unwrap();
        assert_eq!(completed.len(), 3);

        plane.submit(tenant, request()).unwrap();
        clock.advance(0.95);
        assert!(plane.batch_ready(), "deadline rule: within the margin");
    }

    #[test]
    fn expired_requests_never_reach_the_backend() {
        let config = ServingConfig {
            dispatch_margin_secs: 0.0,
            default_tenant: TenantConfig {
                deadline_secs: 0.5,
                ..TenantConfig::default()
            },
            ..ServingConfig::default()
        };
        let (plane, clock) = plane(config);
        let ticket = plane.submit(TenantId(3), request()).unwrap();
        clock.advance(10.0);
        let calls = std::cell::Cell::new(0);
        let completed = plane.dispatch_with(echo(&calls)).unwrap();
        assert_eq!(calls.get(), 0, "no backend call for an all-expired batch");
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].ticket, ticket);
        assert_eq!(completed[0].response, Response::DeadlineExpired);
        assert!(completed[0].deadline_missed);
        let stats = plane.serving_stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.answered, 0);
        assert_eq!(stats.batches, 0);
        assert!(stats.conserves(0));
    }

    #[test]
    fn backend_error_restores_the_queue() {
        let (plane, _clock) = plane(ServingConfig::default());
        let t0 = plane.submit(TenantId(0), request()).unwrap();
        let t1 = plane.submit(TenantId(1), request()).unwrap();
        let err = plane
            .dispatch_with(|_| {
                Err(SegmentError::Corrupt {
                    path: std::path::PathBuf::from("backend-down"),
                    expected: 0,
                    found: 1,
                })
            })
            .unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt { .. }));
        assert_eq!(plane.queue_len(), 2, "both requests restored");
        let stats = plane.serving_stats();
        assert_eq!(stats.batches, 0, "failed batch not counted");
        // A retry serves the same requests in the same order.
        let calls = std::cell::Cell::new(0);
        let completed = plane.dispatch_with(echo(&calls)).unwrap();
        let tickets: Vec<Ticket> = completed.iter().map(|c| c.ticket).collect();
        assert_eq!(tickets, vec![t0, t1]);
    }

    #[test]
    fn latency_lands_in_the_histogram_per_tenant() {
        let config = ServingConfig {
            dispatch_margin_secs: 0.0,
            ..ServingConfig::default()
        };
        let (plane, clock) = plane(config);
        plane.submit(TenantId(1), request()).unwrap();
        plane.submit(TenantId(2), request()).unwrap();
        clock.advance(0.25);
        let calls = std::cell::Cell::new(0);
        let completed = plane.dispatch_with(echo(&calls)).unwrap();
        assert_eq!(completed.len(), 2);
        for c in &completed {
            assert_eq!(c.latency_secs, 0.25);
            assert!(!c.deadline_missed);
        }
        let stats = plane.serving_stats();
        assert_eq!(stats.latency.count(), 2);
        assert_eq!(stats.deadline_misses, 0);
        let bound = focus_runtime::LatencyHistogram::relative_error_bound();
        for tenant in [TenantId(1), TenantId(2)] {
            let t = stats.tenant(tenant).unwrap();
            assert_eq!(t.latency.count(), 1);
            let p50 = t.latency.p50();
            assert!((p50 / 0.25).max(0.25 / p50) <= bound * bound);
        }
    }

    #[test]
    fn merge_aggregates_two_planes() {
        let (a, clock_a) = plane(ServingConfig {
            dispatch_margin_secs: 0.0,
            ..ServingConfig::default()
        });
        let (b, _clock_b) = plane(ServingConfig::default());
        a.submit(TenantId(1), request()).unwrap();
        clock_a.advance(0.1);
        let calls = std::cell::Cell::new(0);
        a.dispatch_with(echo(&calls)).unwrap();
        b.submit(TenantId(1), request()).unwrap();
        b.submit(TenantId(2), request()).unwrap();

        let mut merged = a.serving_stats();
        merged.merge(&b.serving_stats());
        assert_eq!(merged.submitted, 3);
        assert_eq!(merged.answered, 1);
        assert_eq!(merged.latency.count(), 1);
        assert_eq!(merged.per_tenant.len(), 2);
        assert_eq!(merged.tenant(TenantId(1)).unwrap().submitted, 2);
    }

    #[test]
    #[should_panic(expected = "queue bound")]
    fn zero_queue_bound_panics() {
        let _ = RequestPlane::new(
            ServingConfig {
                queue_bound: 0,
                ..ServingConfig::default()
            },
            Arc::new(VirtualClock::new()),
        );
    }
}
