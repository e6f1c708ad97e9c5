//! Restart-resume integration test: a real `caffeine-cli serve` daemon
//! process is killed (SIGKILL, no drain) mid-job, restarted over the same
//! `--model-dir`, and must re-adopt the interrupted job from its
//! checkpoint and drive it to auto-publication.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use caffeine_serve::client;

const T: Duration = Duration::from_secs(10);

/// Spawns the daemon on an ephemeral port and parses the bound address
/// off its startup banner.
fn spawn_daemon(model_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_caffeine-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--model-dir",
            model_dir.to_str().expect("utf-8 temp path"),
            "--threads",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn caffeine-cli serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("readable stderr");
        if let Some(rest) = line.strip_prefix("caffeine-serve listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn wait_for_state(addr: &str, id: u64, want: &str, deadline: Duration) -> serde_json::Value {
    let end = Instant::now() + deadline;
    loop {
        let r = client::request(addr, "GET", &format!("/v1/jobs/{id}"), None, T).unwrap();
        let status = r.json().unwrap();
        let state = status["state"].as_str().unwrap_or("?").to_string();
        if state == want {
            return status;
        }
        // A re-adopted job may briefly sit in the admission queue before
        // a running slot frees.
        assert!(
            state == "queued" || state == "running",
            "job {id} ended in `{state}` while waiting for `{want}`: {status:?}"
        );
        assert!(
            Instant::now() < end,
            "job {id} never reached `{want}` (stuck at `{state}`)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killed_daemon_readopts_checkpointed_job_and_publishes() {
    let dir = std::env::temp_dir().join(format!("caffeine-restart-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let (mut daemon, addr) = spawn_daemon(&dir);

    // A job big enough to survive until the kill: checkpoint every
    // generation so the kill point hardly matters.
    let points: Vec<Vec<f64>> = (1..=24).map(|i| vec![f64::from(i) * 0.25]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "name": "restart-survivor",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 48,
        "generations": 600,
        "max_bases": 4,
        "seed": 11,
        "grammar": "rational",
        "checkpoint_every": 1,
    });
    let r = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(serde_json::to_string(&spec).unwrap().as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let id = r.json().unwrap()["id"].as_u64().unwrap();

    // Let it make observable progress (≥2 generations ⇒ at least one
    // checkpoint is on disk), then kill the process without any drain.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None, T).unwrap();
        let status = r.json().unwrap();
        let done = status["progress"]["completed_generations"]
            .as_u64()
            .unwrap_or(0);
        assert_ne!(
            status["state"].as_str(),
            Some("finished"),
            "job finished before the kill; raise `generations` in this test"
        );
        if done >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "job made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.kill().expect("SIGKILL the daemon");
    daemon.wait().expect("reap the daemon");

    // The wreckage must be on disk: spec + checkpoint under .jobs/.
    let jobs_dir = dir.join(".jobs");
    assert!(
        jobs_dir.join(format!("job-{id}.spec.json")).exists(),
        "spec survived the kill"
    );
    assert!(
        jobs_dir.join(format!("job-{id}.ckpt")).exists(),
        "checkpoint survived the kill"
    );

    // Restart over the same model dir: the job must come back, marked
    // resumed, with its progress not reset to zero.
    let (mut daemon, addr) = spawn_daemon(&dir);
    let r = client::request(&addr, "GET", "/v1/jobs", None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let listing = r.json().unwrap();
    let jobs = listing["jobs"].as_array().unwrap();
    let adopted = jobs
        .iter()
        .find(|j| j["id"].as_u64() == Some(id))
        .unwrap_or_else(|| panic!("job {id} not re-adopted: {listing:?}"));
    assert_eq!(adopted["resumed"].as_bool(), Some(true), "{adopted:?}");
    assert_eq!(
        adopted["model_id"].as_str(),
        Some("restart-survivor"),
        "{adopted:?}"
    );

    // It must run to completion and auto-publish under its original name.
    let status = wait_for_state(&addr, id, "finished", Duration::from_secs(300));
    assert_eq!(
        status["progress"]["total_generations"].as_u64(),
        Some(600),
        "{status:?}"
    );
    let version = status["result"]["version"].as_str().unwrap().to_string();
    let r = client::request(&addr, "GET", "/v1/models/restart-survivor", None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let artifact = caffeine_core::ModelArtifact::from_json(&r.text()).unwrap();
    assert_eq!(artifact.content_hash(), version);

    // Terminal cleanup: nothing left to re-adopt on the next restart —
    // neither the checkpoint nor the staging files its saves keep.
    assert!(!jobs_dir.join(format!("job-{id}.spec.json")).exists());
    assert!(!jobs_dir.join(format!("job-{id}.ckpt")).exists());
    let ckpt_prefix = format!("job-{id}.ckpt");
    let leftovers: Vec<String> = std::fs::read_dir(&jobs_dir)
        .expect("jobs dir readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&ckpt_prefix))
        .collect();
    assert!(
        leftovers.is_empty(),
        "leftover checkpoint files: {leftovers:?}"
    );

    let r = client::request(&addr, "POST", "/v1/admin/shutdown", None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    daemon.wait().expect("daemon exits after drain");
    std::fs::remove_dir_all(&dir).ok();
}
