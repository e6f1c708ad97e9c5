//! Chaos suite: the full job lifecycle — submit → queued → running →
//! checkpoint → publish → remote predict, plus the SSE watch — driven
//! through the testkit's fault-injecting proxy under *every* fault
//! class, asserting the system converges to the same published artifact
//! hash as a fault-free run.
//!
//! Reproducing a failure: every assertion message carries the fault
//! class and seed. Re-run just that cell with
//! `CHAOS_SEEDS=<seed> cargo test --test chaos` — the proxy's schedule
//! is a pure function of the seed, so the same connections misbehave
//! the same way, byte for byte.

use std::time::{Duration, Instant};

use caffeine_obs::TraceContext;
use caffeine_serve::client::{self, RetryPolicy, WatchOptions};
use caffeine_serve::{ServeConfig, Server};
use caffeine_testkit::{FaultClass, FaultPlan, FaultProxy, FAULT_CLASSES};

const T: Duration = Duration::from_secs(10);

/// Boots a server on an ephemeral port; returns (addr, handle, join).
fn boot(
    config: ServeConfig,
) -> (
    String,
    caffeine_serve::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

/// The seed matrix. `CHAOS_SEEDS` (comma-separated u64s) overrides it —
/// CI pins its matrix there, and a failed cell replays locally with the
/// seed the assertion printed.
fn seed_matrix() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![1, 2],
    }
}

/// A small deterministic job: same spec + same engine seed ⇒ the same
/// published artifact, bit for bit, which is what lets every faulted
/// run be compared to the fault-free baseline by content hash.
/// `checkpoint_every: 1` guarantees checkpoint traffic mid-lifecycle.
fn job_spec(name: &str) -> String {
    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0] + 0.5 * p[0]).collect();
    serde_json::to_string(&serde_json::json!({
        "name": name,
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 16,
        "generations": 6,
        "max_bases": 4,
        "seed": 9,
        "checkpoint_every": 1,
        "grammar": "rational",
    }))
    .unwrap()
}

/// What one lifecycle pass observed.
struct LifecycleRun {
    /// Published artifact content hash.
    version: String,
    /// Bit patterns of the remote predictions on a fixed batch.
    prediction_bits: Vec<u64>,
    /// Event names the SSE watch delivered, in order.
    events: Vec<String>,
}

/// Submits the job, riding out faults without ever double-executing:
/// the POST goes through the retry policy (which may retry 429/503
/// answers and write-phase failures on its own — both provably safe),
/// and when it still fails (a read-phase cut: the daemon *might* have
/// executed it), the job list is consulted for a job with our unique
/// model name before re-submitting. Application-level recovery, same
/// guarantee: at most one job ever runs per submission.
fn submit_with_recovery(
    conn: &mut client::Connection,
    spec: &str,
    name: &str,
    policy: &RetryPolicy,
    label: &str,
) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match conn.request_traced_with_retry(
            "POST",
            "/v1/jobs",
            Some(spec.as_bytes()),
            TraceContext::mint(),
            policy,
        ) {
            Ok(r) if r.status == 201 => {
                return r.json().unwrap()["id"].as_u64().expect("job id");
            }
            Ok(r) => panic!("{label}: submit answered {}: {}", r.status, r.text()),
            Err(e) => {
                // Did it land? Our model name is unique to this cell, so
                // one listed job with it IS our submission.
                let list = conn
                    .request_traced_with_retry(
                        "GET",
                        "/v1/jobs",
                        None,
                        TraceContext::mint(),
                        policy,
                    )
                    .unwrap_or_else(|e| panic!("{label}: job list failed: {e}"));
                let jobs = list.json().unwrap()["jobs"].as_array().cloned().unwrap();
                if let Some(job) = jobs.iter().find(|j| j["model_id"] == name) {
                    return job["id"].as_u64().expect("job id");
                }
                assert!(
                    Instant::now() < deadline,
                    "{label}: submit never landed: {e}"
                );
            }
        }
    }
}

/// Drives the whole lifecycle through `addr` (daemon or proxy): submit
/// with recovery, watch the SSE stream to `done` (reconnecting through
/// cuts), confirm the terminal state, and predict against the published
/// model. Returns everything the convergence assertions compare.
fn run_lifecycle(addr: &str, name: &str, seed: u64, label: &str) -> LifecycleRun {
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(500),
        seed,
        ..RetryPolicy::default()
    };
    let mut conn = client::Connection::new(addr, T);
    let spec = job_spec(name);
    let id = submit_with_recovery(&mut conn, &spec, name, &policy, label);

    // SSE watch through the same faulted path, reconnect-resuming
    // across cuts. The watch itself asserts exactly-once delivery of
    // sequenced frames.
    let mut events = Vec::new();
    let mut last_seq = 0u64;
    let mut saw_done = false;
    let opts = WatchOptions {
        timeout: T,
        retry: RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            seed,
            ..RetryPolicy::default()
        },
    };
    client::watch_job(addr, &format!("/v1/jobs/{id}/events"), &opts, |e| {
        if let Some(seq) = e.id {
            assert!(
                seq > last_seq,
                "{label}: frame {seq} after {last_seq} — duplicate or reorder"
            );
            last_seq = seq;
        }
        events.push(e.event.clone());
        if e.event == "done" {
            saw_done = true;
        }
        !saw_done
    })
    .unwrap_or_else(|e| panic!("{label}: watch failed: {e}"));
    assert!(saw_done, "{label}: watch ended without `done`");

    // Terminal state + published version, via the same faulted path.
    let status = conn
        .request_traced_with_retry(
            "GET",
            &format!("/v1/jobs/{id}"),
            None,
            TraceContext::mint(),
            &policy,
        )
        .unwrap_or_else(|e| panic!("{label}: status fetch failed: {e}"));
    let status = status.json().unwrap();
    assert_eq!(
        status["state"].as_str(),
        Some("finished"),
        "{label}: {status:?}"
    );
    let version = status["result"]["version"]
        .as_str()
        .unwrap_or_else(|| panic!("{label}: no published version in {status:?}"))
        .to_string();

    // Remote predict on the published model. Prediction is pure, so the
    // policy may opt into read-phase retries for the POST.
    let batch: Vec<Vec<f64>> = (1..=8).map(|i| vec![f64::from(i) * 0.7]).collect();
    let body = serde_json::to_string(&serde_json::json!({ "points": batch })).unwrap();
    let predict_policy = RetryPolicy {
        assume_idempotent: true,
        ..policy
    };
    let r = conn
        .request_traced_with_retry(
            "POST",
            &format!("/v1/models/{name}/predict"),
            Some(body.as_bytes()),
            TraceContext::mint(),
            &predict_policy,
        )
        .unwrap_or_else(|e| panic!("{label}: predict failed: {e}"));
    assert_eq!(r.status, 200, "{label}: {}", r.text());
    let prediction_bits: Vec<u64> = r.json().unwrap()["predictions"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect();

    LifecycleRun {
        version,
        prediction_bits,
        events,
    }
}

/// The tentpole acceptance test: every fault class (and a mixed plan),
/// every seed in the matrix — the lifecycle completes through the
/// faulted path and publishes a content hash identical to the
/// fault-free baseline, with bit-identical remote predictions.
#[test]
fn lifecycle_converges_through_every_fault_class() {
    let dir = std::env::temp_dir().join(format!("caffeine-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, join) = boot(ServeConfig {
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // Fault-free baseline.
    let baseline = run_lifecycle(&addr, "chaos-baseline", 0, "baseline");
    assert!(
        baseline.events.iter().any(|e| e == "checkpoint"),
        "baseline lifecycle never checkpointed: {:?}",
        baseline.events
    );

    let mut plans: Vec<(String, FaultPlan, u64)> = Vec::new();
    for seed in seed_matrix() {
        for class in FAULT_CLASSES {
            plans.push((
                format!("{}-{seed}", class.name()),
                FaultPlan::only(class, seed),
                seed,
            ));
        }
        plans.push((format!("mixed-{seed}"), FaultPlan::mixed(seed), seed));
    }

    for (label, plan, seed) in plans {
        let proxy = FaultProxy::spawn(addr.clone(), plan)
            .unwrap_or_else(|e| panic!("{label}: proxy spawn failed: {e}"));
        let name = format!("chaos-{label}");
        let run = run_lifecycle(&proxy.addr(), &name, seed, &label);
        assert_eq!(
            run.version, baseline.version,
            "{label}: published hash diverged from the fault-free run"
        );
        assert_eq!(
            run.prediction_bits, baseline.prediction_bits,
            "{label}: remote predictions diverged"
        );
        assert!(
            run.events.iter().any(|e| e == "done"),
            "{label}: no done event: {:?}",
            run.events
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-running a seed reproduces the identical fault schedule — the
/// acceptance criterion that makes every red chaos run replayable.
#[test]
fn seed_matrix_schedules_are_reproducible() {
    for seed in seed_matrix() {
        for class in FAULT_CLASSES {
            assert_eq!(
                FaultPlan::only(class, seed).schedule(128),
                FaultPlan::only(class, seed).schedule(128),
                "class {} seed {seed}",
                class.name()
            );
        }
        assert_eq!(
            FaultPlan::mixed(seed).schedule(128),
            FaultPlan::mixed(seed).schedule(128),
            "mixed seed {seed}"
        );
    }
}

/// `caffeine-cli jobs watch` — the real binary — pointed through a
/// proxy that keeps cutting the SSE stream mid-response: it must
/// reconnect through the cuts, print the `done` event, and exit zero.
#[test]
fn cli_jobs_watch_reconnects_through_cut_streams() {
    let (addr, handle, join) = boot(ServeConfig::default());

    let r = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(job_spec("cli-watch-chaos").as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let id = r.json().unwrap()["id"].as_u64().unwrap();

    let proxy = FaultProxy::spawn(addr.clone(), FaultPlan::only(FaultClass::MidResponseCut, 1))
        .expect("spawn proxy");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_caffeine-cli"))
        .args([
            "jobs",
            "watch",
            "--remote",
            &format!("http://{}", proxy.addr()),
            "--id",
            &id.to_string(),
        ])
        .output()
        .expect("run caffeine-cli");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "jobs watch exited nonzero through cut streams\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("done: "), "no done event:\n{stdout}");
    assert!(
        proxy.connections() >= 2,
        "the stream was never cut — the fault plan did not engage"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}
