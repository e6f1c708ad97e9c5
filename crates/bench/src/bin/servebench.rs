//! `servebench` — a load generator for the `caffeine-serve` daemon,
//! recording predict latency percentiles and throughput to
//! `BENCH_serve.json`.
//!
//! Boots an in-process server on an ephemeral port, publishes an
//! OTA-shaped model artifact, then hammers `POST /predict` from
//! concurrent client threads over real sockets — once with a fresh
//! connection per request (the pre-keep-alive behavior, kept as the
//! baseline) and once reusing one kept-alive connection per client, so
//! the snapshot records what connection reuse buys. A job lifecycle
//! (submit → poll → fetch → verify bit-identical predictions) runs once
//! as a correctness gate. Two admission scenarios ride along: a **burst
//! submit** (4× `max_running_jobs` jobs at once, asserting the FIFO
//! queue admits them in order without a 429) and an **SSE fan-out**
//! (many concurrent `jobs/{id}/events` watchers on the dedicated
//! streamer thread while predict load runs, recording how much the
//! watchers cost `/predict` p50 against a single-watcher baseline).
//!
//! ```text
//! cargo run --release -p caffeine-bench --bin servebench            # full
//! cargo run -p caffeine-bench --bin servebench -- --smoke           # CI
//! cargo run -p caffeine-bench --bin servebench -- --out path.json
//! ```
//!
//! `--smoke` runs one worker with a handful of requests — enough to
//! prove the server boots, answers, and round-trips a job; its timings
//! are flagged as not meaningful.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
use caffeine_core::{Model, ModelArtifact};
use caffeine_serve::{client, ServeConfig, Server};

/// Warn-level logger for the measured servers: per-request access
/// lines would pollute the harness output and skew the timings.
fn quiet_logger() -> caffeine_obs::Logger {
    caffeine_obs::Logger::stderr(caffeine_obs::Level::Warn, caffeine_obs::LogFormat::Text)
}

const T: Duration = Duration::from_secs(30);

#[derive(Debug, Serialize)]
struct PredictStats {
    /// `true` when each client reused one kept-alive connection.
    keep_alive: bool,
    /// Concurrent client threads.
    concurrency: usize,
    /// Requests per thread.
    requests_per_client: usize,
    /// Points per predict batch.
    batch_size: usize,
    /// Total successful requests.
    requests: usize,
    /// Mean request latency, microseconds.
    mean_us: f64,
    /// Median request latency, microseconds.
    p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    p99_us: f64,
    /// Aggregate request throughput.
    req_per_sec: f64,
    /// Aggregate point-prediction throughput.
    points_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct JobStats {
    /// Submit → finished wall time, seconds.
    total_secs: f64,
    /// Generations the job ran.
    generations: usize,
    /// Models in the published front.
    n_models: usize,
    /// `true` when served predictions matched in-process bit for bit.
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct BurstStats {
    /// Jobs submitted at once.
    submitted: usize,
    /// The server's running-slot bound.
    max_running_jobs: usize,
    /// Jobs observed `running` right after the burst (≤ the bound).
    running_after_burst: usize,
    /// Jobs observed `queued` right after the burst.
    queued_after_burst: usize,
    /// `true` when no job was ever seen queued behind a later-submitted
    /// job that had already been admitted.
    admitted_in_submission_order: bool,
    /// Burst submit → last job finished, seconds.
    total_secs: f64,
}

#[derive(Debug, Serialize)]
struct SseFanoutStats {
    /// Concurrent SSE watchers on one job.
    watchers: usize,
    /// Watchers that received the terminal `done` frame.
    done_received: usize,
    /// `/predict` p50 with a single watcher open, microseconds.
    single_watcher_predict_p50_us: f64,
    /// `/predict` p50 with all watchers open, microseconds.
    fanout_predict_p50_us: f64,
    /// fanout p50 / single-watcher p50 (the acceptance gate tracks ≤ 2).
    p50_ratio: f64,
}

#[derive(Debug, Serialize)]
struct Snapshot {
    /// Snapshot schema version.
    schema: u32,
    /// `caffeine-serve` crate version that produced this snapshot.
    serve_version: String,
    /// Unix timestamp (seconds) of the run.
    unix_time: u64,
    /// `true` when produced by `--smoke` (timings not meaningful).
    smoke: bool,
    /// Server worker threads.
    server_workers: usize,
    /// Predict load with a fresh connection per request (baseline).
    predict_fresh: PredictStats,
    /// Predict load over kept-alive connections (one per client).
    predict_keepalive: PredictStats,
    /// One job lifecycle, as a correctness gate.
    job: JobStats,
    /// Burst submission through the FIFO admission queue.
    burst: BurstStats,
    /// Concurrent SSE watchers vs `/predict` latency.
    sse_fanout: SseFanoutStats,
}

/// A 13-variable OTA-shaped artifact: a handful of rational bases over
/// the paper's design-space dimensionality.
fn ota_shaped_artifact() -> ModelArtifact {
    let cfg = WeightConfig::default();
    let bases = vec![
        BasisFunction::from_vc(VarCombo::single(13, 0, 1)),
        BasisFunction::from_vc(VarCombo::single(13, 3, -1)),
        BasisFunction::from_vc(VarCombo::single(13, 7, 2)),
        BasisFunction::from_vc(VarCombo::single(13, 12, -2)),
    ];
    let model = Model::new(bases, vec![0.5, 2.0, -3.0, 0.25, 1.5], cfg).with_metrics(0.01, 20.0);
    ModelArtifact::new((0..13).map(|i| format!("x{i}")).collect(), vec![model])
        .expect("artifact builds")
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn run_predict_load(
    addr: &str,
    concurrency: usize,
    requests_per_client: usize,
    batch_size: usize,
    keep_alive: bool,
) -> PredictStats {
    // One shared batch body: `batch_size` points over 13 variables.
    let points: Vec<Vec<f64>> = (0..batch_size)
        .map(|t| (0..13).map(|j| 1.0 + 0.01 * (t * 13 + j) as f64).collect())
        .collect();
    let body = Arc::new(
        serde_json::to_string(&serde_json::json!({ "points": points }))
            .expect("body renders")
            .into_bytes(),
    );

    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..concurrency {
        let addr = addr.to_string();
        let body = Arc::clone(&body);
        threads.push(std::thread::spawn(move || {
            let mut conn = client::Connection::new(&addr, T);
            let mut latencies_us = Vec::with_capacity(requests_per_client);
            for _ in 0..requests_per_client {
                let t0 = Instant::now();
                let r = if keep_alive {
                    // The client will not auto-retry a POST whose response
                    // never arrived (it could double-execute); predict is
                    // pure, so the bench may retry by hand when the server
                    // rotated the connection underneath us.
                    conn.request("POST", "/v1/models/bench/predict", Some(&body))
                        .or_else(|_| conn.request("POST", "/v1/models/bench/predict", Some(&body)))
                        .expect("predict request")
                } else {
                    client::request(&addr, "POST", "/v1/models/bench/predict", Some(&body), T)
                        .expect("predict request")
                };
                assert_eq!(r.status, 200, "{}", r.text());
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            latencies_us
        }));
    }
    let mut latencies: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let requests = latencies.len();
    PredictStats {
        keep_alive,
        concurrency,
        requests_per_client,
        batch_size,
        requests,
        mean_us: latencies.iter().sum::<f64>() / requests.max(1) as f64,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        req_per_sec: requests as f64 / wall,
        points_per_sec: (requests * batch_size) as f64 / wall,
    }
}

fn run_job_lifecycle(addr: &str, generations: usize) -> JobStats {
    let points: Vec<Vec<f64>> = (1..=24).map(|i| vec![f64::from(i) * 0.25]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "name": "bench-job",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": generations,
        "max_bases": 4,
        "seed": 7,
        "grammar": "rational",
    });
    let t0 = Instant::now();
    let r = client::request(
        addr,
        "POST",
        "/v1/jobs",
        Some(
            serde_json::to_string(&spec)
                .expect("spec renders")
                .as_bytes(),
        ),
        T,
    )
    .expect("submit job");
    assert_eq!(r.status, 201, "{}", r.text());
    let id = r.json().expect("job json")["id"].as_u64().expect("job id");

    let status = loop {
        let r = client::request(addr, "GET", &format!("/v1/jobs/{id}"), None, T).expect("poll job");
        let status = r.json().expect("status json");
        match status["state"].as_str().expect("state") {
            "finished" => break status,
            "failed" | "cancelled" => panic!("job ended badly: {status:?}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let total_secs = t0.elapsed().as_secs_f64();
    let n_models = status["result"]["n_models"].as_u64().expect("n_models") as usize;

    // Correctness gate: served predictions must equal in-process ones bit
    // for bit.
    let r = client::request(addr, "GET", "/v1/models/bench-job", None, T).expect("fetch model");
    let artifact = ModelArtifact::from_json(&r.text()).expect("artifact parses");
    let batch: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.3]).collect();
    let expected = artifact.predict(None, &batch).expect("local predict");
    let body = serde_json::to_string(&serde_json::json!({ "points": batch })).expect("renders");
    let r = client::request(
        addr,
        "POST",
        "/v1/models/bench-job/predict",
        Some(body.as_bytes()),
        T,
    )
    .expect("served predict");
    let served: Vec<f64> = r.json().expect("json")["predictions"]
        .as_array()
        .expect("array")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();
    let bit_identical = served.len() == expected.len()
        && served
            .iter()
            .zip(&expected)
            .all(|(s, e)| s.to_bits() == e.to_bits());
    assert!(bit_identical, "served predictions diverged from in-process");

    JobStats {
        total_secs,
        generations,
        n_models,
        bit_identical,
    }
}

fn job_spec(name: &str, generations: usize) -> Vec<u8> {
    let points: Vec<Vec<f64>> = (1..=24).map(|i| vec![f64::from(i) * 0.25]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    serde_json::to_string(&serde_json::json!({
        "name": name,
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 16,
        "generations": generations,
        "max_bases": 4,
        "seed": 7,
        "grammar": "rational",
    }))
    .expect("spec renders")
    .into_bytes()
}

/// Fires 4× `max_running_jobs` submissions at a dedicated queue-limited
/// server and watches the FIFO queue drain them in submission order.
fn run_burst(smoke: bool) -> BurstStats {
    let max_running = 2usize;
    let submitted = 4 * max_running;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        max_running_jobs: max_running,
        max_jobs: 32,
        logger: quiet_logger(),
        ..ServeConfig::default()
    })
    .expect("bind burst server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.serve());

    let step = if smoke { 50 } else { 80 };
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..submitted)
        .map(|i| {
            // `i + 2`: even the shortest job must comfortably outlive
            // the whole submission burst so the queue-shape snapshot
            // below sees every slot and queue position occupied.
            let body = job_spec(&format!("burst-{i}"), step * (i + 2));
            let r = client::request(&addr, "POST", "/v1/jobs", Some(&body), T).expect("submit");
            assert_eq!(r.status, 201, "burst submission {i} rejected: {}", r.text());
            r.json().expect("job json")["id"].as_u64().expect("id")
        })
        .collect();

    // Snapshot the queue shape right after the burst.
    let listing = client::request(&addr, "GET", "/v1/jobs", None, T).expect("list");
    let listing = listing.json().expect("jobs json");
    let count_state = |want: &str| {
        listing["jobs"]
            .as_array()
            .expect("jobs array")
            .iter()
            .filter(|j| j["state"].as_str() == Some(want))
            .count()
    };
    let running_after_burst = count_state("running");
    let queued_after_burst = count_state("queued");
    assert!(
        running_after_burst <= max_running,
        "{running_after_burst} running > {max_running} slots"
    );

    // Poll to completion. FIFO promises admission order, not finishing
    // order (how fast each run goes is up to the OS), so each round reads
    // the newest job first and checks that the jobs still queued are a
    // suffix of submission order: in that reading order, a job seen
    // queued after a later one was seen admitted really was leapfrogged.
    let mut admitted_in_submission_order = true;
    loop {
        let mut states: Vec<String> = ids
            .iter()
            .rev()
            .map(|&id| {
                let r = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None, T)
                    .expect("poll job");
                let state = r.json().expect("status")["state"]
                    .as_str()
                    .unwrap_or("?")
                    .to_string();
                assert!(
                    state != "failed" && state != "cancelled",
                    "burst job {id} ended in {state}"
                );
                state
            })
            .collect();
        states.reverse();
        if let Some(first_queued) = states.iter().position(|s| s == "queued") {
            admitted_in_submission_order &= states[first_queued..].iter().all(|s| s == "queued");
        }
        if states.iter().all(|s| s == "finished") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let total_secs = t0.elapsed().as_secs_f64();
    assert!(admitted_in_submission_order, "FIFO admission violated");

    handle.shutdown();
    server_thread
        .join()
        .expect("burst server thread")
        .expect("burst serve loop");
    BurstStats {
        submitted,
        max_running_jobs: max_running,
        running_after_burst,
        queued_after_burst,
        admitted_in_submission_order,
        total_secs,
    }
}

/// Opens `watchers` concurrent SSE streams on one long-running job and
/// measures `/predict` p50 while they are all attached, against a
/// single-watcher baseline taken the same way.
fn run_sse_fanout(addr: &str, watchers: usize) -> SseFanoutStats {
    let measure = |n_watchers: usize, job_name: &str| -> (f64, usize) {
        let body = job_spec(job_name, 1_000_000);
        let r = client::request(addr, "POST", "/v1/jobs", Some(&body), T).expect("submit");
        assert_eq!(r.status, 201, "{}", r.text());
        let id = r.json().expect("json")["id"].as_u64().expect("id");

        let threads: Vec<std::thread::JoinHandle<bool>> = (0..n_watchers)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut done = false;
                    let _ = client::sse_tail(
                        &addr,
                        &format!("/v1/jobs/{id}/events"),
                        Duration::from_secs(120),
                        |event| {
                            if event.event == "done" {
                                done = true;
                            }
                            !done
                        },
                    );
                    done
                })
            })
            .collect();
        // Let the watchers attach before measuring.
        std::thread::sleep(Duration::from_millis(300));
        let stats = run_predict_load(addr, 2, 50, 16, true);
        // End the job: every watcher gets its `done` frame.
        let r = client::request(addr, "DELETE", &format!("/v1/jobs/{id}"), None, T)
            .expect("cancel fanout job");
        assert_eq!(r.status, 202, "{}", r.text());
        let done = threads
            .into_iter()
            .map(|t| t.join().expect("watcher thread"))
            .filter(|d| *d)
            .count();
        (stats.p50_us, done)
    };

    let (single_p50, single_done) = measure(1, "fanout-baseline");
    assert_eq!(single_done, 1, "baseline watcher missed its done frame");
    let (fanout_p50, done_received) = measure(watchers, "fanout-load");
    assert_eq!(
        done_received, watchers,
        "only {done_received}/{watchers} watchers saw done"
    );
    SseFanoutStats {
        watchers,
        done_received,
        single_watcher_predict_p50_us: single_p50,
        fanout_predict_p50_us: fanout_p50,
        p50_ratio: fanout_p50 / single_p50.max(1.0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_serve.json".into());

    let server_workers = if smoke { 2 } else { 4 };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: server_workers,
        backlog: 256,
        logger: quiet_logger(),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.serve());

    // Seed the registry over the wire.
    let artifact = ota_shaped_artifact();
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/bench",
        Some(artifact.to_json().as_bytes()),
        T,
    )
    .expect("publish bench model");
    assert_eq!(r.status, 201, "{}", r.text());

    let (concurrency, requests_per_client, batch_size) =
        if smoke { (1, 5, 16) } else { (8, 200, 64) };
    let predict_fresh =
        run_predict_load(&addr, concurrency, requests_per_client, batch_size, false);
    let predict_keepalive =
        run_predict_load(&addr, concurrency, requests_per_client, batch_size, true);
    let job = run_job_lifecycle(&addr, if smoke { 4 } else { 20 });
    // The acceptance scenario: 100 concurrent watchers (scaled down for
    // the CI smoke) must all receive `done` while /predict stays usable.
    let sse_fanout = run_sse_fanout(&addr, if smoke { 25 } else { 100 });

    handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("serve loop");

    let burst = run_burst(smoke);

    let snapshot = Snapshot {
        schema: 5,
        serve_version: caffeine_serve::VERSION.to_string(),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        smoke,
        server_workers,
        predict_fresh,
        predict_keepalive,
        job,
        burst,
        sse_fanout,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&out_path, format!("{json}\n")).expect("write snapshot");

    println!(
        "servebench → {out_path}{}",
        if smoke { " (smoke)" } else { "" }
    );
    for stats in [&snapshot.predict_fresh, &snapshot.predict_keepalive] {
        println!(
            "  predict ({}): {} reqs ({} clients × {} × batch {}): p50 {:.0}µs  p99 {:.0}µs  {:.0} req/s  {:.0} points/s",
            if stats.keep_alive { "keep-alive" } else { "fresh conns" },
            stats.requests,
            stats.concurrency,
            stats.requests_per_client,
            stats.batch_size,
            stats.p50_us,
            stats.p99_us,
            stats.req_per_sec,
            stats.points_per_sec,
        );
    }
    println!(
        "  job: {} generations → {} models in {:.2}s (bit-identical: {})",
        snapshot.job.generations,
        snapshot.job.n_models,
        snapshot.job.total_secs,
        snapshot.job.bit_identical,
    );
    println!(
        "  burst: {} jobs into {} slots → {} running / {} queued after submit, FIFO admission {}, drained in {:.2}s",
        snapshot.burst.submitted,
        snapshot.burst.max_running_jobs,
        snapshot.burst.running_after_burst,
        snapshot.burst.queued_after_burst,
        snapshot.burst.admitted_in_submission_order,
        snapshot.burst.total_secs,
    );
    println!(
        "  sse fan-out: {}/{} watchers got done; predict p50 {:.0}µs (1 watcher) → {:.0}µs ({} watchers), ratio {:.2}",
        snapshot.sse_fanout.done_received,
        snapshot.sse_fanout.watchers,
        snapshot.sse_fanout.single_watcher_predict_p50_us,
        snapshot.sse_fanout.fanout_predict_p50_us,
        snapshot.sse_fanout.watchers,
        snapshot.sse_fanout.p50_ratio,
    );
}
