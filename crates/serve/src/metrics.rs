//! Request counters and latency histograms, rendered in the Prometheus
//! text exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use caffeine_obs::TraceStoreStats;
use caffeine_runtime::PhaseBreakdown;

use crate::sync::PoisonlessMutex;

/// Upper bounds of the latency buckets, in microseconds (powers of four
/// from 16µs to ~17s, plus +Inf implicitly).
const BUCKET_BOUNDS_US: [u64; 13] = [
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
];

/// One latency histogram (counts per bucket + sum + total).
#[derive(Debug, Default)]
struct Histogram {
    buckets: [u64; BUCKET_BOUNDS_US.len()],
    count: u64,
    sum_us: u64,
}

impl Histogram {
    fn observe(&mut self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            if us <= bound {
                self.buckets[i] += 1;
                break;
            }
        }
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }
}

/// Server-wide observability state. Every method is thread-safe.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// `(route label, status) → count`.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Per-route latency histograms.
    latency: Mutex<BTreeMap<String, Histogram>>,
    /// Requests rejected because the worker queue was full.
    rejected_busy: AtomicU64,
    /// Jobs submitted over the API.
    jobs_submitted: AtomicU64,
    /// Jobs that reached a terminal state.
    jobs_finished: AtomicU64,
    /// Terminal job records evicted from the bounded store.
    jobs_evicted: AtomicU64,
    /// Interrupted jobs re-adopted from checkpoints at startup.
    jobs_adopted: AtomicU64,
    /// Requests served on an already-open (kept-alive) connection.
    keepalive_reused: AtomicU64,
    /// SSE job-event streams opened.
    sse_streams: AtomicU64,
    /// SSE streams currently owned by the streamer thread (gauge).
    sse_active: AtomicU64,
    /// Jobs currently waiting in the admission queue (gauge).
    jobs_queued: AtomicU64,
    /// Time jobs spent queued before admission.
    queue_wait: Mutex<Histogram>,
    /// Wall-clock start of the process (unix seconds), for
    /// `process_start_time_seconds`.
    start_unix: f64,
    /// Cumulative engine time per phase, microseconds, labelled and
    /// ordered like [`PhaseBreakdown::durations`]. Each job's event pump
    /// folds every stats interval's [`PhaseBreakdown`] in exactly once
    /// (island 0's copy), so the sums cover every generation whatever the
    /// island count.
    engine_phase_us: [(&'static str, AtomicU64); 6],
    /// Cumulative basis-cache hits across all jobs' stats intervals.
    cache_hits: AtomicU64,
    /// Cumulative basis-cache misses across all jobs' stats intervals.
    cache_misses: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: Mutex::new(BTreeMap::new()),
            latency: Mutex::new(BTreeMap::new()),
            rejected_busy: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_finished: AtomicU64::new(0),
            jobs_evicted: AtomicU64::new(0),
            jobs_adopted: AtomicU64::new(0),
            keepalive_reused: AtomicU64::new(0),
            sse_streams: AtomicU64::new(0),
            sse_active: AtomicU64::new(0),
            jobs_queued: AtomicU64::new(0),
            queue_wait: Mutex::new(Histogram::default()),
            start_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
            engine_phase_us: PhaseBreakdown::default()
                .durations()
                .map(|(phase, _)| (phase, AtomicU64::new(0))),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// Folds one stats interval's phase breakdown into the cumulative
    /// engine-phase counters and cache totals; call it once per interval.
    pub fn observe_engine_phases(&self, b: &PhaseBreakdown) {
        for ((_, cell), (_, s)) in self.engine_phase_us.iter().zip(b.durations()) {
            cell.fetch_add((s.max(0.0) * 1e6) as u64, Ordering::Relaxed);
        }
        self.cache_hits.fetch_add(b.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(b.cache_misses, Ordering::Relaxed);
    }

    /// Records one finished request.
    pub fn observe(&self, route: &str, status: u16, elapsed: Duration) {
        *self
            .requests
            .plock()
            .entry((route.to_string(), status))
            .or_insert(0) += 1;
        self.latency
            .plock()
            .entry(route.to_string())
            .or_default()
            .observe(elapsed);
    }

    /// Records a 503 due to a saturated worker pool.
    pub fn observe_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job submission.
    pub fn observe_job_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job reaching a terminal state.
    pub fn observe_job_finished(&self) {
        self.jobs_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a terminal job record evicted from the bounded store.
    pub fn observe_job_evicted(&self) {
        self.jobs_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an interrupted job re-adopted from its checkpoint.
    pub fn observe_job_adopted(&self) {
        self.jobs_adopted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request served on a reused (kept-alive) connection.
    pub fn observe_keepalive_reuse(&self) {
        self.keepalive_reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an SSE job-event stream being opened.
    pub fn observe_sse_stream(&self) {
        self.sse_streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a stream entering the dedicated streamer's ownership.
    pub fn observe_sse_adopted(&self) {
        self.sse_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a stream leaving the streamer (done, dead, or dropped).
    pub fn observe_sse_closed(&self) {
        // Saturating: a close without a matched adopt must not wrap.
        let _ = self
            .sse_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Publishes the current admission-queue depth (gauge).
    pub fn set_jobs_queued(&self, depth: usize) {
        self.jobs_queued.store(depth as u64, Ordering::Relaxed);
    }

    /// The last published admission-queue depth.
    pub fn jobs_queued(&self) -> u64 {
        self.jobs_queued.load(Ordering::Relaxed)
    }

    /// Records how long one job waited in the admission queue.
    pub fn observe_queue_wait(&self, waited: Duration) {
        self.queue_wait.plock().observe(waited);
    }

    /// Renders everything in the Prometheus text format. Registry cache
    /// counters and trace-store statistics are passed in so `Metrics`
    /// stays decoupled from the registry and the trace store.
    pub fn render(
        &self,
        registry_hits: u64,
        registry_misses: u64,
        traces: &TraceStoreStats,
    ) -> String {
        let mut out = String::with_capacity(2048);
        let uptime = self.started.elapsed().as_secs_f64();
        out.push_str("# TYPE caffeine_serve_uptime_seconds gauge\n");
        out.push_str(&format!("caffeine_serve_uptime_seconds {uptime:.3}\n"));
        out.push_str("# TYPE process_start_time_seconds gauge\n");
        out.push_str(&format!(
            "process_start_time_seconds {:.3}\n",
            self.start_unix
        ));
        out.push_str("# TYPE caffeine_build_info gauge\n");
        out.push_str(&format!(
            "caffeine_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        ));

        out.push_str("# TYPE caffeine_serve_requests_total counter\n");
        for ((route, status), count) in self.requests.plock().iter() {
            out.push_str(&format!(
                "caffeine_serve_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str("# TYPE caffeine_serve_request_duration_microseconds histogram\n");
        for (route, hist) in self.latency.plock().iter() {
            let mut cumulative = 0;
            for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cumulative += hist.buckets[i];
                out.push_str(&format!(
                    "caffeine_serve_request_duration_microseconds_bucket{{route=\"{route}\",le=\"{bound}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "caffeine_serve_request_duration_microseconds_bucket{{route=\"{route}\",le=\"+Inf\"}} {}\n",
                hist.count
            ));
            out.push_str(&format!(
                "caffeine_serve_request_duration_microseconds_sum{{route=\"{route}\"}} {}\n",
                hist.sum_us
            ));
            out.push_str(&format!(
                "caffeine_serve_request_duration_microseconds_count{{route=\"{route}\"}} {}\n",
                hist.count
            ));
        }

        out.push_str("# TYPE caffeine_serve_rejected_busy_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_rejected_busy_total {}\n",
            self.rejected_busy.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_registry_hits_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_registry_hits_total {registry_hits}\n"
        ));
        out.push_str("# TYPE caffeine_serve_registry_misses_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_registry_misses_total {registry_misses}\n"
        ));
        out.push_str("# TYPE caffeine_serve_jobs_submitted_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_jobs_submitted_total {}\n",
            self.jobs_submitted.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_jobs_finished_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_jobs_finished_total {}\n",
            self.jobs_finished.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_jobs_evicted_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_jobs_evicted_total {}\n",
            self.jobs_evicted.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_jobs_adopted_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_jobs_adopted_total {}\n",
            self.jobs_adopted.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_keepalive_reused_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_keepalive_reused_total {}\n",
            self.keepalive_reused.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_sse_streams_total counter\n");
        out.push_str(&format!(
            "caffeine_serve_sse_streams_total {}\n",
            self.sse_streams.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_sse_active gauge\n");
        out.push_str(&format!(
            "caffeine_serve_sse_active {}\n",
            self.sse_active.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_jobs_queued gauge\n");
        out.push_str(&format!(
            "caffeine_serve_jobs_queued {}\n",
            self.jobs_queued.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE caffeine_serve_queue_wait_seconds histogram\n");
        {
            let hist = self.queue_wait.plock();
            let mut cumulative = 0;
            for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cumulative += hist.buckets[i];
                out.push_str(&format!(
                    "caffeine_serve_queue_wait_seconds_bucket{{le=\"{}\"}} {cumulative}\n",
                    bound as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "caffeine_serve_queue_wait_seconds_bucket{{le=\"+Inf\"}} {}\n",
                hist.count
            ));
            out.push_str(&format!(
                "caffeine_serve_queue_wait_seconds_sum {}\n",
                hist.sum_us as f64 / 1e6
            ));
            out.push_str(&format!(
                "caffeine_serve_queue_wait_seconds_count {}\n",
                hist.count
            ));
        }
        out.push_str("# TYPE caffeine_engine_phase_seconds counter\n");
        for (phase, cell) in &self.engine_phase_us {
            out.push_str(&format!(
                "caffeine_engine_phase_seconds{{phase=\"{phase}\"}} {:.6}\n",
                cell.load(Ordering::Relaxed) as f64 / 1e6
            ));
        }
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        out.push_str("# TYPE caffeine_engine_cache_hits_total counter\n");
        out.push_str(&format!("caffeine_engine_cache_hits_total {hits}\n"));
        out.push_str("# TYPE caffeine_engine_cache_misses_total counter\n");
        out.push_str(&format!("caffeine_engine_cache_misses_total {misses}\n"));
        out.push_str("# TYPE caffeine_basis_cache_hit_ratio gauge\n");
        let ratio = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        out.push_str(&format!("caffeine_basis_cache_hit_ratio {ratio:.6}\n"));
        out.push_str("# TYPE caffeine_trace_spans_total counter\n");
        out.push_str(&format!(
            "caffeine_trace_spans_total {}\n",
            traces.spans_total
        ));
        out.push_str("# TYPE caffeine_traces_sampled_total counter\n");
        out.push_str(&format!(
            "caffeine_traces_sampled_total {}\n",
            traces.sampled_total
        ));
        out.push_str("# TYPE caffeine_traces_dropped_total counter\n");
        out.push_str(&format!(
            "caffeine_traces_dropped_total {}\n",
            traces.dropped_total
        ));
        out.push_str("# TYPE caffeine_trace_store_bytes gauge\n");
        out.push_str(&format!(
            "caffeine_trace_store_bytes {}\n",
            traces.store_bytes
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_show_up_in_the_rendering() {
        let m = Metrics::new();
        m.observe("predict", 200, Duration::from_micros(120));
        m.observe("predict", 200, Duration::from_micros(90_000));
        m.observe("predict", 400, Duration::from_micros(10));
        m.observe_busy();
        m.observe_job_submitted();
        let text = m.render(
            5,
            2,
            &TraceStoreStats {
                spans_total: 12,
                sampled_total: 3,
                dropped_total: 1,
                store_bytes: 4096,
            },
        );
        assert!(
            text.contains("caffeine_serve_requests_total{route=\"predict\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_serve_requests_total{route=\"predict\",status=\"400\"} 1"),
            "{text}"
        );
        assert!(text.contains("_count{route=\"predict\"} 3"), "{text}");
        assert!(
            text.contains("caffeine_serve_registry_hits_total 5"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_serve_rejected_busy_total 1"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("caffeine_trace_spans_total 12"), "{text}");
        assert!(text.contains("caffeine_traces_sampled_total 3"), "{text}");
        assert!(text.contains("caffeine_traces_dropped_total 1"), "{text}");
        assert!(text.contains("caffeine_trace_store_bytes 4096"), "{text}");
    }

    #[test]
    fn gauges_and_queue_wait_render() {
        let m = Metrics::new();
        m.set_jobs_queued(3);
        m.observe_sse_adopted();
        m.observe_sse_adopted();
        m.observe_sse_closed();
        m.observe_queue_wait(Duration::from_millis(2));
        let text = m.render(0, 0, &TraceStoreStats::default());
        assert!(text.contains("caffeine_serve_jobs_queued 3"), "{text}");
        assert!(text.contains("caffeine_serve_sse_active 1"), "{text}");
        assert!(
            text.contains("caffeine_serve_queue_wait_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_serve_queue_wait_seconds_bucket{le=\"0.004096\"} 1"),
            "{text}"
        );
        // The gauge is saturating: an unmatched close stays at zero.
        m.observe_sse_closed();
        m.observe_sse_closed();
        assert!(m
            .render(0, 0, &TraceStoreStats::default())
            .contains("caffeine_serve_sse_active 0"));
    }

    #[test]
    fn build_info_start_time_and_engine_phases_render() {
        let m = Metrics::new();
        let text = m.render(0, 0, &TraceStoreStats::default());
        assert!(
            text.contains(&format!(
                "caffeine_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        // The daemon started after the unix epoch, presumably.
        let start: f64 = text
            .lines()
            .find(|l| l.starts_with("process_start_time_seconds "))
            .and_then(|l| l.split(' ').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(start > 1e9, "{start}");
        // Zeroed phase counters still render (so dashboards see the series).
        assert!(
            text.contains("caffeine_engine_phase_seconds{phase=\"basis_eval\"} 0.000000"),
            "{text}"
        );

        m.observe_engine_phases(&PhaseBreakdown {
            generation: 1,
            basis_eval: 0.25,
            linear_solve: 0.5,
            eval_other: 0.01,
            selection: 0.05,
            migration: 0.0,
            wall: 1.0,
            cache_hits: 30,
            cache_misses: 10,
            start_unix_ns: 1_000_000_000,
            end_unix_ns: 2_000_000_000,
        });
        m.observe_engine_phases(&PhaseBreakdown {
            generation: 2,
            basis_eval: 0.25,
            linear_solve: 0.25,
            eval_other: 0.0,
            selection: 0.0,
            migration: 0.0,
            wall: 0.5,
            cache_hits: 10,
            cache_misses: 0,
            start_unix_ns: 2_000_000_000,
            end_unix_ns: 2_500_000_000,
        });
        let text = m.render(0, 0, &TraceStoreStats::default());
        assert!(
            text.contains("caffeine_engine_phase_seconds{phase=\"basis_eval\"} 0.500000"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_engine_phase_seconds{phase=\"linear_solve\"} 0.750000"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_engine_phase_seconds{phase=\"wall\"} 1.500000"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_engine_cache_hits_total 40"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_engine_cache_misses_total 10"),
            "{text}"
        );
        assert!(
            text.contains("caffeine_basis_cache_hit_ratio 0.800000"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        // 10µs lands in the first bucket; every later bucket must include it.
        m.observe("x", 200, Duration::from_micros(10));
        let text = m.render(0, 0, &TraceStoreStats::default());
        assert!(text.contains("le=\"16\"} 1"), "{text}");
        assert!(text.contains("le=\"268435456\"} 1"), "{text}");
    }
}
