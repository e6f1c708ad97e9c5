//! `caffeine-cli` — template-free symbolic modeling from CSV data.
//!
//! ```text
//! caffeine-cli --data measurements.csv --target PM --test holdout.csv \
//!              --gens 500 --threads 8 --islands 4 \
//!              --checkpoint pm.ckpt --out models.json
//! ```
//!
//! Reads `{x, y}` samples from a CSV (header row = variable names), runs
//! the CAFFEINE engine through the `caffeine-runtime` island runner
//! (parallel evaluation, optional islands, resumable checkpoints), applies
//! SAG post-processing when a test set is given, and prints the
//! error/complexity tradeoff as readable expressions.

use std::path::Path;
use std::time::Duration;

use caffeine::cli::{
    front_summary, front_to_json, parse_csv, parse_points_csv, usage, CliOptions, JobsOptions,
    PredictOptions, ServeOptions,
};
use caffeine::core::expr::FormatOptions;
use caffeine::core::sag::{simplify_front, SagSettings};
use caffeine::core::{pareto, CaffeineResult};
use caffeine::runtime::{IslandRunner, PhaseBreakdown, RunEvent, RuntimeCheckpoint};
use caffeine::serve::{client, ServeConfig, Server};
use serde::Deserialize;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("predict") => run_predict(&args[1..]),
        Some("jobs") => run_jobs(&args[1..]),
        _ => run(&args),
    };
    if let Err(msg) = outcome {
        eprintln!("error: {msg}");
        eprintln!();
        eprint!("{}", usage());
        std::process::exit(1);
    }
}

/// `caffeine-cli serve`: run the daemon until a shutdown request.
fn run_serve(args: &[String]) -> Result<(), String> {
    let opts = ServeOptions::parse(args)?;
    let server = Server::bind(ServeConfig {
        addr: opts.addr.clone(),
        model_dir: opts.model_dir.clone().map(Into::into),
        workers: opts.threads.max(1),
        max_jobs: opts.max_jobs,
        max_running_jobs: opts.max_running_jobs,
        max_conn_requests: opts.max_conn_requests,
        idle_timeout: Duration::from_millis(opts.idle_timeout_ms),
        logger: caffeine::obs::Logger::stderr(opts.log_level, opts.log_format),
        slow_request: Duration::from_millis(opts.slow_request_ms),
        trace_capacity: opts.trace_capacity,
        trace_sample_rate: opts.trace_sample_rate,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    eprintln!(
        "caffeine-serve listening on {} ({} worker(s), registry: {})",
        server.local_addr(),
        opts.threads.max(1),
        opts.model_dir.as_deref().unwrap_or("in-memory"),
    );
    eprintln!(
        "stop with: curl -X POST http://{}/v1/admin/shutdown",
        server.local_addr()
    );
    server
        .serve()
        .map_err(|e| format!("serve loop failed: {e}"))
}

/// `caffeine-cli predict --remote`: batch-query a served model.
fn run_predict(args: &[String]) -> Result<(), String> {
    let opts = PredictOptions::parse(args)?;
    let (addr, base) = client::parse_base_url(&opts.remote)?;
    let text = std::fs::read_to_string(&opts.points)
        .map_err(|e| format!("cannot read {}: {e}", opts.points))?;
    let (names, rows) = parse_points_csv(&text)?;
    eprintln!(
        "querying {} for model `{}` with {} point(s) ({} variable(s))",
        opts.remote,
        opts.model,
        rows.len(),
        names.len()
    );
    let path = match &opts.version {
        Some(v) => format!("{base}/v1/models/{}/predict?version={v}", opts.model),
        None => format!("{base}/v1/models/{}/predict", opts.model),
    };
    let body = serde_json::to_string(&serde_json::json!({ "points": rows })).expect("body renders");
    let response = client::request(
        &addr,
        "POST",
        &path,
        Some(body.as_bytes()),
        Duration::from_secs(60),
    )
    .map_err(|e| format!("request to {addr} failed: {e}"))?;
    let json = response
        .json()
        .map_err(|e| format!("server sent a non-JSON response: {e}"))?;
    if response.status != 200 {
        let detail = json["error"]["message"].as_str().unwrap_or("unknown error");
        return Err(format!("server answered {}: {detail}", response.status));
    }
    let predictions = json["predictions"]
        .as_array()
        .ok_or("response has no `predictions` array")?;
    for p in predictions {
        println!("{}", p.as_f64().unwrap_or(f64::NAN));
    }
    eprintln!(
        "model version {} answered {} prediction(s)",
        json["version"].as_str().unwrap_or("?"),
        predictions.len()
    );
    if let Some(out) = &opts.out {
        std::fs::write(out, serde_json::to_string_pretty(&json).unwrap())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("response written to {out}");
    }
    Ok(())
}

/// `caffeine-cli jobs list|submit|watch`: inspect a remote daemon's job
/// store, submit a job spec, or tail a job's event stream.
fn run_jobs(args: &[String]) -> Result<(), String> {
    let opts = JobsOptions::parse(args)?;
    let (addr, base) = client::parse_base_url(&opts.remote)?;
    match opts.action.as_str() {
        "list" => {
            let path = match &opts.state {
                Some(s) => format!("{base}/v1/jobs?state={s}"),
                None => format!("{base}/v1/jobs"),
            };
            let response = client::request(&addr, "GET", &path, None, Duration::from_secs(30))
                .map_err(|e| format!("request to {addr} failed: {e}"))?;
            let json = response
                .json()
                .map_err(|e| format!("server sent a non-JSON response: {e}"))?;
            if response.status != 200 {
                let detail = json["error"]["message"].as_str().unwrap_or("unknown error");
                return Err(format!("server answered {}: {detail}", response.status));
            }
            let jobs = json["jobs"]
                .as_array()
                .ok_or("response has no `jobs` array")?;
            println!("{:>6}  {:>10}  {:>9}  model", "id", "state", "progress");
            for j in jobs {
                let done = j["progress"]["completed_generations"].as_u64().unwrap_or(0);
                let total = j["progress"]["total_generations"].as_u64().unwrap_or(0);
                println!(
                    "{:>6}  {:>10}  {:>4}/{:<4}  {}{}",
                    j["id"].as_u64().unwrap_or(0),
                    j["state"].as_str().unwrap_or("?"),
                    done,
                    total,
                    j["model_id"].as_str().unwrap_or("?"),
                    if j["resumed"] == serde_json::Value::Bool(true) {
                        " (resumed)"
                    } else {
                        ""
                    },
                );
            }
            eprintln!("{} job(s)", jobs.len());
            Ok(())
        }
        "submit" => {
            let spec_path = opts.spec.as_deref().expect("submit always has a spec");
            let body =
                std::fs::read(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
            // A sampled context asks the server to retain the trace, so
            // the id printed below stays queryable at /v1/traces.
            let mut ctx = caffeine::obs::TraceContext::mint();
            ctx.sampled = true;
            // Submission retries under the client's policy: a received
            // 429/503 (admission backpressure) honors the daemon's
            // Retry-After and re-submits — safe even for POST, since a
            // response in hand proves the job was refused, not spawned.
            let mut conn = client::Connection::new(&addr, Duration::from_secs(30));
            let response = conn
                .request_traced_with_retry(
                    "POST",
                    &format!("{base}/v1/jobs"),
                    Some(&body),
                    ctx,
                    &client::RetryPolicy::default(),
                )
                .map_err(|e| format!("request to {addr} failed: {e}"))?;
            let json = response
                .json()
                .map_err(|e| format!("server sent a non-JSON response: {e}"))?;
            if response.status != 201 {
                let detail = json["error"]["message"].as_str().unwrap_or("unknown error");
                return Err(format!("server answered {}: {detail}", response.status));
            }
            let id = json["id"].as_u64().unwrap_or(0);
            println!("{id}");
            eprintln!(
                "job {id} submitted (state: {}, trace: {})",
                json["state"].as_str().unwrap_or("?"),
                json["trace_id"].as_str().unwrap_or("?"),
            );
            eprintln!(
                "watch with: caffeine-cli jobs watch --remote {} --id {id}",
                opts.remote
            );
            Ok(())
        }
        _ => {
            let id = opts.id.expect("watch always has an id");
            // Show the job's trace id up front so the watcher can pull
            // the span tree from /v1/traces/{trace_id} afterwards.
            if let Ok(response) = client::request(
                &addr,
                "GET",
                &format!("{base}/v1/jobs/{id}"),
                None,
                Duration::from_secs(10),
            ) {
                if let Ok(json) = response.json() {
                    if let Some(trace) = json["trace_id"].as_str() {
                        eprintln!("job {id} trace: {trace}");
                    }
                }
            }
            let path = format!("{base}/v1/jobs/{id}/events");
            eprintln!(
                "tailing job {id} events from {} (ctrl-c to stop)",
                opts.remote
            );
            // The watch survives cut streams: on a transport failure it
            // reconnects and resumes from the server's replay history,
            // using SSE ids to skip frames already printed. A fresh
            // `snapshot` frame after each reconnect shows the current
            // state across the gap.
            let mut saw_done = false;
            client::watch_job(&addr, &path, &client::WatchOptions::default(), |event| {
                if opts.timings && event.event == "progress" {
                    if let Some(line) = timings_line(&event.data) {
                        println!("{line}");
                    }
                } else {
                    println!("{}: {}", event.event, event.data);
                }
                if event.event == "done" {
                    saw_done = true;
                }
                !saw_done
            })
            .map_err(|e| format!("event stream from {addr} failed: {e}"))?;
            // The watch ends cleanly either at `done` or after repeated
            // reconnects stopped yielding new frames — the latter means
            // the job is still running but this watcher cannot keep up.
            if !saw_done {
                return Err(format!(
                    "event stream for job {id} drained before a `done` event — reconnect \
                     attempts stopped yielding new frames; the job may still be running. \
                     Watch again with: caffeine-cli jobs watch --remote {} --id {id}",
                    opts.remote
                ));
            }
            Ok(())
        }
    }
}

/// What `jobs watch --timings` prints for one SSE `progress` frame: its
/// breakdown's timing line plus the frame's best error. Every island's
/// frame carries the same interval breakdown, so only island 0's prints
/// (the copy `/metrics` folds); the others print nothing. A frame with
/// no phase breakdown (e.g. from an older server) prints raw.
fn timings_line(data: &str) -> Option<String> {
    let raw = || Some(format!("progress: {data}"));
    let Ok(frame) = serde_json::from_str::<serde_json::Value>(data) else {
        return raw();
    };
    if frame["island"].as_u64().is_some_and(|island| island != 0) {
        return None;
    }
    let Ok(phases) = PhaseBreakdown::from_value(&frame["phases"]) else {
        return raw();
    };
    let best_error = frame["best_error"]
        .as_f64()
        .map_or_else(|| "-".to_string(), |e| format!("{e:.6}"));
    Some(format!("{phases}  best_error {best_error}"))
}

fn evolve(opts: &CliOptions, train: &caffeine::doe::Dataset) -> Result<CaffeineResult, String> {
    let grammar = opts.resolve_grammar(train.n_vars())?;
    let settings = opts.settings();
    let config = opts.runtime_config();

    let resume_from = opts
        .checkpoint
        .as_deref()
        .filter(|p| opts.resume && Path::new(p).exists());
    let mut runner = match resume_from {
        Some(path) => {
            let checkpoint = RuntimeCheckpoint::load(Path::new(path)).map_err(|e| e.to_string())?;
            eprintln!(
                "resuming from {path}: {} of {} generations done",
                checkpoint.completed, checkpoint.master.generations
            );
            // Search-shaping flags are fixed by the checkpoint; warn when
            // the command line tries to change one instead of silently
            // ignoring it.
            for flag in [
                "--pop",
                "--seed",
                "--max-bases",
                "--islands",
                "--migrate-every",
            ] {
                if opts.was_set(flag) {
                    eprintln!("warning: {flag} is fixed by the checkpoint and was ignored");
                }
            }
            let mut runner =
                IslandRunner::from_checkpoint(checkpoint, train).map_err(|e| e.to_string())?;
            // An *explicit* `--gens` retargets the total so a resumed run
            // can be extended; otherwise the checkpointed total stands
            // (the bare-resume case must not truncate to the default).
            if opts.was_set("--gens") {
                runner.set_total_generations(opts.generations);
            }
            // Execution policy never changes the result: always honor it.
            runner.set_threads(opts.threads);
            if opts.was_set("--checkpoint-every") {
                runner.set_checkpoint_every(opts.checkpoint_every);
            }
            runner
        }
        None => IslandRunner::new(settings, grammar, config, train).map_err(|e| e.to_string())?,
    };
    if let Some(path) = &opts.checkpoint {
        runner.set_checkpoint_path(path);
    }

    // Live progress: print runtime events to stderr from a printer thread.
    let (tx, rx) = std::sync::mpsc::channel();
    runner.set_events(tx);
    let printer = std::thread::spawn(move || {
        for event in rx {
            match event {
                RunEvent::Progress { island, stats, .. } => eprintln!(
                    "gen {:>5} island {island}: best error {:.4}%, front {}, feasible {}",
                    stats.generation,
                    100.0 * stats.best_error,
                    stats.front_size,
                    stats.feasible
                ),
                RunEvent::Migrated { generation } => {
                    eprintln!("gen {generation:>5}: ring migration")
                }
                RunEvent::Checkpointed { generation, .. } => {
                    eprintln!("gen {generation:>5}: checkpoint written")
                }
                RunEvent::Finished { .. } => {}
            }
        }
    });
    let result = runner.run(train).map_err(|e| e.to_string());
    drop(runner); // closes the channel so the printer exits
    printer.join().expect("progress printer panicked");
    result
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = CliOptions::parse(args)?;

    let text = std::fs::read_to_string(&opts.data)
        .map_err(|e| format!("cannot read {}: {e}", opts.data))?;
    let mut train = parse_csv(&text, opts.target.as_deref())?;
    let dropped = train.drop_nonfinite();
    if dropped > 0 {
        eprintln!("dropped {dropped} samples with non-finite values");
    }
    eprintln!(
        "training data: {} samples, {} variables",
        train.n_samples(),
        train.n_vars()
    );

    let test = match &opts.test {
        Some(path) => {
            let t =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut ds = parse_csv(&t, opts.target.as_deref())?;
            ds.drop_nonfinite();
            Some(ds)
        }
        None => None,
    };

    eprintln!(
        "evolving: pop {}, {} generations, max {} bases, {} thread(s), {} island(s)...",
        opts.population, opts.generations, opts.max_bases, opts.threads, opts.islands
    );
    let result = evolve(&opts, &train)?;

    let cw = caffeine::core::expr::ComplexityWeights::default();
    let models: Vec<_> = match &test {
        Some(test_ds) => {
            let sag = SagSettings::default();
            let simplified = simplify_front(&result.models, &train, test_ds, &sag);
            pareto::train_tradeoff(&simplified)
        }
        None => result.models.clone(),
    }
    .iter()
    .map(|m| m.simplified(&cw))
    .collect();

    let fmt = FormatOptions::with_names(train.names().to_vec());
    println!(
        "{:>10} {:>10} {:>12}  expression",
        "train", "test", "complexity"
    );
    for m in &models {
        let test_str = m
            .test_error
            .map(|t| format!("{:.3}%", 100.0 * t))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:>9.3}% {:>10} {:>12.2}  {}",
            100.0 * m.train_error,
            test_str,
            m.complexity,
            m.format(&fmt)
        );
    }

    if let Some(path) = &opts.out {
        let json = front_to_json(&models, train.names());
        std::fs::write(path, serde_json::to_string_pretty(&json).unwrap())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("front written to {path}");
    }

    let summary = front_summary(&models);
    eprintln!(
        "done: {} models, best training error {:.4}%",
        summary["models"],
        100.0 * summary["best_train_error"]
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_print_one_line_per_interval() {
        let phases = serde_json::to_value(&PhaseBreakdown::default());
        let frames: Vec<String> = (0..2)
            .map(|island| {
                let frame = serde_json::json!({
                    "island": island,
                    "best_error": 0.5,
                    "phases": phases.clone(),
                });
                serde_json::to_string(&frame).unwrap()
            })
            .collect();
        let lines: Vec<String> = frames.iter().filter_map(|f| timings_line(f)).collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].ends_with("best_error 0.500000"), "{lines:?}");
        // A frame without a breakdown still prints, raw.
        assert_eq!(
            timings_line(r#"{"island":0}"#).as_deref(),
            Some(r#"progress: {"island":0}"#)
        );
    }
}
