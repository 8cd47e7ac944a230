//! [`RequestPlane`]: the front door that turns individual tenant submits
//! into deadline-respecting [`FocusService::serve`] batches.
//!
//! One dispatch body books every batch: [`RequestPlane::dispatch_with`]
//! hands it any batch backend, [`RequestPlane::dispatch_streaming`] the
//! live service, where each request runs as its anytime mode says and
//! incremental requests stream their partials per ticket.
//!
//! [`FocusService::serve`]: crate::service::FocusService::serve

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_index::SegmentError;
use focus_runtime::Clock;

use crate::query::anytime::{AnytimePartial, AnytimeTermination};
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
    /// Submit-to-completion time on the plane's clock; a request the live
    /// service runs completes when it stops, an exact one after round 1.
    pub latency_secs: f64,
    /// Queue wait plus GPU time up to the end of the first round that
    /// surfaced a new distinct result; `f64::INFINITY` when no streamed
    /// round did (an exact request, nothing matched, or the request
    /// expired). Finite values land in
    /// [`ServingStats::first_result_latency`].
    pub first_result_latency_secs: f64,
    /// Why an incremental request stopped; `None` for exact requests,
    /// expiries and [`dispatch_with`](RequestPlane::dispatch_with) answers.
    pub termination: Option<AnytimeTermination>,
    /// Whether completion happened after the request's deadline. Always
    /// `true` for [`Response::DeadlineExpired`]; for answered requests it
    /// can only be `true` when the clock advanced during the backend call.
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
        self.dispatch_body(
            |requests, _, _| {
                let outcomes = serve(requests)?;
                Ok(outcomes
                    .into_iter()
                    .map(|outcome| (outcome, None))
                    .collect())
            },
            |_, _| {},
        )
    }

    /// [`dispatch_streaming`](Self::dispatch_streaming) with no partial
    /// stream.
    pub fn dispatch(&self, service: &FocusService) -> Result<Vec<Completed>, SegmentError> {
        self.dispatch_streaming(service, |_, _| {})
    }

    /// [`dispatch_with`](Self::dispatch_with) against the live service,
    /// each request run as its [`anytime`](QueryRequest::anytime) mode
    /// says, in one backend call. Every round's [`AnytimePartial`] of an
    /// incremental request streams to `on_partial` under its ticket (its
    /// one admission token bought the whole stream), and the
    /// queue-wait-plus-GPU-time to its first result lands in
    /// [`ServingStats::first_result_latency`]. Latency and deadline are
    /// booked when each request stops, not when the batch does.
    pub fn dispatch_streaming(
        &self,
        service: &FocusService,
        on_partial: impl FnMut(Ticket, &AnytimePartial),
    ) -> Result<Vec<Completed>, SegmentError> {
        self.dispatch_body(
            |requests, stream, stop| {
                let runs = service.serve_streaming(requests, stream, stop)?;
                Ok(runs
                    .into_iter()
                    .zip(requests)
                    .map(|(run, request)| {
                        let termination = request.anytime.incremental.then_some(run.termination);
                        (run.outcome, termination)
                    })
                    .collect())
            },
            on_partial,
        )
    }

    /// The one dispatch body: closes a batch, books its expiries, calls
    /// `serve` outside the plane lock, then books the answers. `serve`
    /// answers one `(outcome, termination)` per request, in order, and
    /// reports request `i`'s partials and stop to the two hooks it is
    /// handed (a stop not reported is booked when `serve` returns).
    fn dispatch_body<F>(
        &self,
        serve: F,
        mut on_partial: impl FnMut(Ticket, &AnytimePartial),
    ) -> Result<Vec<Completed>, SegmentError>
    where
        F: FnOnce(
            &[QueryRequest],
            &mut dyn FnMut(usize, &AnytimePartial),
            &mut dyn FnMut(usize),
        ) -> Result<Vec<(QueryOutcome, Option<AnytimeTermination>)>, SegmentError>,
    {
        // Batch formation: pop up to `batch_max_requests` live requests;
        // those whose deadline passed complete as expired without taking a
        // slot.
        let now = self.clock.now_secs();
        let mut completed = Vec::new();
        let mut batch: Vec<Queued> = Vec::new();
        {
            let mut state = self.inner.lock();
            while batch.len() < self.config.batch_max_requests {
                let Some(queued) = state.queue.pop() else {
                    break;
                };
                if now <= queued.deadline_secs {
                    batch.push(queued);
                    continue;
                }
                state.stats.expired += 1;
                state.stats.tenant_mut(queued.tenant).expired += 1;
                completed.push(Completed {
                    ticket: Ticket(queued.ticket),
                    tenant: queued.tenant,
                    response: Response::DeadlineExpired,
                    latency_secs: now - queued.arrival_secs,
                    first_result_latency_secs: f64::INFINITY,
                    termination: None,
                    deadline_missed: true,
                });
            }
            if batch.is_empty() {
                return Ok(completed);
            }
            state.stats.batches += 1;
        }

        let requests: Vec<QueryRequest> = batch.iter().map(|q| q.request.clone()).collect();
        // GPU time per request over its streamed rounds, and that time at
        // the end of the first round that surfaced a new distinct result.
        let mut gpu_secs = vec![0.0f64; batch.len()];
        let mut to_first = vec![f64::INFINITY; batch.len()];
        let mut stopped_at: Vec<Option<f64>> = vec![None; batch.len()];
        let answers = serve(
            &requests,
            &mut |i, partial| {
                gpu_secs[i] += partial.latency_secs;
                if !partial.new_results.is_empty() && to_first[i].is_infinite() {
                    to_first[i] = gpu_secs[i];
                }
                on_partial(Ticket(batch[i].ticket), partial);
            },
            &mut |i| stopped_at[i] = Some(self.clock.now_secs()),
        );
        let answers = match answers {
            Ok(answers) => answers,
            Err(err) => {
                let mut state = self.inner.lock();
                state.stats.batches -= 1;
                for queued in batch.into_iter().rev() {
                    state.queue.requeue_front(queued);
                }
                return Err(err);
            }
        };
        debug_assert_eq!(answers.len(), batch.len(), "serve answers 1:1 in order");

        let finished = self.clock.now_secs();
        let mut state = self.inner.lock();
        for (((queued, (outcome, termination)), to_first), stopped_at) in
            batch.into_iter().zip(answers).zip(to_first).zip(stopped_at)
        {
            let done = stopped_at.unwrap_or(finished);
            let latency_secs = done - queued.arrival_secs;
            let deadline_missed = done > queued.deadline_secs;
            let first_result_latency_secs = now - queued.arrival_secs + to_first;
            let stats = &mut state.stats;
            stats.answered += 1;
            stats.deadline_misses += u64::from(deadline_missed);
            stats.latency.record(latency_secs);
            if to_first.is_finite() {
                stats.first_result_latency.record(first_result_latency_secs);
            }
            let tenant = stats.tenant_mut(queued.tenant);
            tenant.answered += 1;
            tenant.deadline_misses += u64::from(deadline_missed);
            tenant.latency.record(latency_secs);
            completed.push(Completed {
                ticket: Ticket(queued.ticket),
                tenant: queued.tenant,
                response: Response::Answered(outcome),
                latency_secs,
                first_result_latency_secs,
                termination,
                deadline_missed,
            });
        }
        Ok(completed)
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
