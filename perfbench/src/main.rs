//! `perfbench` — the repository benchmark. One command measures both
//! end-to-end paths of the system, search (OTA data → GP → SAG → Table I)
//! and serving (predict request → response), checks their outputs, and
//! prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_table1|predict_point|predict_batch|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. A traced run first
//! repeats the workload untraced so it can report the tracing overhead;
//! each of its two passes serves for half of `--seconds`.
//! `--repeat N` runs the workload N times, each in its own process with
//! seeds `seed..seed+N`, and prints each metric's median and quartiles.
//! See `perfbench/README.md` for the workloads and the layer map.

#![deny(unsafe_code)]

mod search;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use search::{OtaData, PerfOutcome, SearchOutcome};
use serve::{ServeOutcome, ServePlan};
use trace::Tracer;

/// Evaluator threads, server workers and client connections: the host
/// has two cores and all load comes from this one process.
const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 3;
/// Working files (checkpoints, written traces), relative to the directory
/// the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
}

const fn spec(name: &'static str, unit: &'static str, higher_is_better: bool) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better,
    }
}

const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", false),
    spec("search_s", "s", false),
    spec("table1_met", "count", true),
    spec("qtc_best_pct", "%", false),
    spec("predict_p50_us", "us", false),
    spec("predict_p99_us", "us", false),
    spec("points_per_s", "1/s", true),
    spec("publish_p50_us", "us", false),
    spec("peak_rss_mb", "MB", false),
];

const PER_LAYER: &[Spec] = &[
    spec("circuit.simulate_us", "us", false),
    spec("circuit.sim_failures", "count", false),
    spec("core.init_ms", "ms", false),
    spec("core.generation_ms", "ms", false),
    spec("core.gens_per_s", "1/s", true),
    spec("core.evaluate_ms", "ms", false),
    spec("core.vary_select_ms", "ms", false),
    spec("core.basis_eval_ms", "ms", false),
    spec("core.linear_solve_ms", "ms", false),
    spec("core.cache_hit_ratio", "ratio", true),
    spec("core.cache_hits", "count", true),
    spec("core.cache_misses", "count", false),
    spec("core.feasible_ratio", "ratio", true),
    spec("runtime.eval_parallel_eff", "ratio", true),
    spec("runtime.checkpoint_ms", "ms", false),
    spec("core.harvest_ms", "ms", false),
    spec("core.sag_ms", "ms", false),
    spec("core.pick_ms", "ms", false),
    spec("search.accounted_pct", "%", true),
    spec("trace.search_s", "s", false),
    spec("trace.search_overhead_pct", "%", false),
    spec("serve.http_parse_us", "us", false),
    spec("serve.route_us", "us", false),
    spec("serve.registry_get_us", "us", false),
    spec("serve.json_decode_us", "us", false),
    spec("core.predict_us", "us", false),
    spec("core.tape_compile_us", "us", false),
    spec("serve.json_encode_us", "us", false),
    spec("serve.http_write_us", "us", false),
    spec("serve.unaccounted_us", "us", false),
    spec("serve.rtt_p50_us", "us", false),
    spec("serve.publish_us", "us", false),
    spec("serve.bytes_in", "bytes", false),
    spec("serve.bytes_out", "bytes", false),
    spec("serve.reconnects", "count", false),
    spec("trace.predict_overhead_pct", "%", false),
];

/// The predict layers whose medians, plus `serve.unaccounted_us`, make up
/// the traced round-trip median. `core.tape_compile` is not listed: the
/// compiles it times are part of `core.predict`.
const PREDICT_LAYERS: &[(&str, &str)] = &[
    ("serve.http_parse", "serve.http_parse_us"),
    ("serve.route", "serve.route_us"),
    ("serve.registry_get", "serve.registry_get_us"),
    ("serve.json_decode", "serve.json_decode_us"),
    ("core.predict", "core.predict_us"),
    ("serve.json_encode", "serve.json_encode_us"),
    ("serve.http_write", "serve.http_write_us"),
];

/// The search layers whose self times make up `search_s`.
const SEARCH_LAYERS: &[&str] = &[
    "core.init",
    "core.generation",
    "core.evaluate",
    "runtime.checkpoint",
    "core.harvest",
    "core.sag",
    "core.pick",
];

/// One workload: a search budget and a serving traffic mix.
struct Workload {
    name: &'static str,
    /// Generations per performance.
    generations: usize,
    /// `true`: the GP seeds follow `--seed` and the search runs once.
    /// `false`: the search that builds the served fronts runs on the
    /// default seeds, [`ARTIFACT_SEARCHES`] times, and the seed picks the
    /// served points and published versions.
    seeded_search: bool,
    points_per_request: usize,
    /// Every this many loop operations one is a publish (0: none).
    publish_every: usize,
}

/// Repetitions of a predict workload's artifact search; `search_s` is
/// their median, and every repetition must find the same fronts.
const ARTIFACT_SEARCHES: usize = 3;

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "search_table1",
        generations: 600,
        seeded_search: true,
        points_per_request: 1,
        publish_every: 0,
    },
    Workload {
        name: "predict_point",
        generations: 60,
        seeded_search: false,
        points_per_request: 1,
        publish_every: 100,
    },
    Workload {
        name: "predict_batch",
        generations: 60,
        seeded_search: false,
        points_per_request: 1024,
        publish_every: 0,
    },
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: perfbench --workload <search_table1|predict_point|predict_batch|all> \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        repeat: 1,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat takes an integer")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let ok = if args.workload == "all" {
        run_children(
            &args,
            WORKLOADS.iter().map(|w| (w.name, args.seed)).collect(),
        )
    } else if args.repeat > 1 {
        let seeds = (0..args.repeat as u64).map(|i| args.seed + i);
        run_children(&args, seeds.map(|s| (args.workload.as_str(), s)).collect())
    } else {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == args.workload)
            .expect("workload validated by parse_args");
        run_workload(workload, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything one pass over a workload measured.
struct Pass {
    setup_s: f64,
    data: OtaData,
    search: SearchOutcome,
    serve: ServeOutcome,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    tracer: Tracer,
}

fn run_pass(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Pass, String> {
    let mut tracer = Tracer::new(traced, Instant::now(), 0);
    // Set-up repetitions, search repetitions and serving slices are spread
    // over the pass, so drift in the host's speed reaches each metric
    // alike instead of spoiling whichever phase it lands on.
    let mut sim_s = Vec::with_capacity(SETUP_REPEATS);
    let data = timed_simulation(&mut sim_s)?;
    let searches = if w.seeded_search {
        1
    } else {
        ARTIFACT_SEARCHES
    };
    let slices = if w.seeded_search {
        data.splits.len()
    } else {
        searches
    };
    let mut serving = Serving {
        plan: ServePlan {
            points_per_request: w.points_per_request,
            publish_every: w.publish_every,
            seconds: seconds / slices as f64,
        },
        seed,
        outcome: None,
        build_s: None,
    };

    let search_seed = if w.seeded_search { seed } else { 1 };
    let mut search = search::run_search(
        &data,
        w.generations,
        search_seed,
        work,
        &mut tracer,
        &mut |perfs, t| {
            // A seeded search serves what it has found after each
            // performance, with a set-up repetition halfway.
            if w.seeded_search {
                serving.slice(perfs, t)?;
                if perfs.len() == slices / 2 {
                    timed_simulation(&mut sim_s)?;
                }
            }
            Ok(())
        },
    )?;
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut walls = vec![search.wall_s];
    for _ in 1..searches {
        serving.slice(&search.perfs, &mut tracer)?;
        timed_simulation(&mut sim_s)?;
        let again = search::run_search(
            &data,
            w.generations,
            search_seed,
            work,
            &mut tracer,
            &mut |_, _| Ok(()),
        )?;
        walls.push(again.wall_s);
        attempted += 1;
        let same = search
            .perfs
            .iter()
            .zip(&again.perfs)
            .all(|(a, b)| a.front == b.front && a.row == b.row);
        if !same {
            failed += 1;
            failures.push("a repeated search found different fronts".to_string());
        }
        search.counters.add(&again.counters);
    }
    if !w.seeded_search {
        serving.slice(&search.perfs, &mut tracer)?;
    }
    while sim_s.len() < SETUP_REPEATS {
        timed_simulation(&mut sim_s)?;
    }
    search.wall_s = stats::median(&walls).unwrap_or(search.wall_s);
    for (out, (_, split)) in search.perfs.iter().zip(&data.splits) {
        eprintln!("{}", search::format_row(out));
        attempted += 1;
        if let Err(e) = search::check_row(out, split) {
            failed += 1;
            failures.push(e);
        }
    }

    let serve = serving.outcome.ok_or("no serving slice ran")?;
    let build_s = serving.build_s.unwrap_or(0.0);
    failures.extend(serve.failures.iter().cloned());
    let sim_median = stats::median(&sim_s).unwrap_or(0.0);
    let setup_s = sim_median + build_s + serve.setup_s;
    eprintln!(
        "perfbench: set-up {setup_s:.3} s = OTA simulation {sim_median:.3} (median of {SETUP_REPEATS}) \
+ artifact build {build_s:.3} + server bind, seed publish and warm-up {:.3}",
        serve.setup_s
    );
    Ok(Pass {
        setup_s,
        attempted: attempted + serve.attempted,
        failed: failed + serve.failed,
        failures,
        data,
        search,
        serve,
        tracer,
    })
}

/// The serving loop, run in slices between the pass's other phases; each
/// slice serves the fronts found so far.
struct Serving {
    /// The plan of one slice.
    plan: ServePlan,
    seed: u64,
    outcome: Option<ServeOutcome>,
    /// Artifact build time of the first slice (part of `setup_s`).
    build_s: Option<f64>,
}

impl Serving {
    fn slice(&mut self, perfs: &[PerfOutcome], tracer: &mut Tracer) -> Result<(), String> {
        let started = Instant::now();
        let fronts: Vec<(&str, &[caffeine_core::Model])> = perfs
            .iter()
            .map(|p| (p.perf.name(), p.front.as_slice()))
            .collect();
        let fleet = serve::build_fleet(&fronts, &self.plan, self.seed)?;
        self.build_s.get_or_insert(started.elapsed().as_secs_f64());
        let part = serve::run_serving(&fleet, &self.plan, tracer)?;
        match &mut self.outcome {
            None => self.outcome = Some(part),
            Some(outcome) => outcome.absorb(part),
        }
        Ok(())
    }
}

/// Simulates the OTA data set and records how long it took.
fn timed_simulation(sim_s: &mut Vec<f64>) -> Result<OtaData, String> {
    let started = Instant::now();
    let data = search::simulate_ota();
    sim_s.push(started.elapsed().as_secs_f64());
    data
}

/// Collects metric values and notes any that could not be measured.
#[derive(Default)]
struct Metrics {
    values: Vec<(Spec, f64)>,
    missing: Vec<&'static str>,
}

impl Metrics {
    fn set(&mut self, table: &[Spec], name: &'static str, value: Option<f64>) {
        let spec = *table
            .iter()
            .find(|s| s.name == name)
            .expect("metric is declared in its table");
        match value.filter(|v| v.is_finite()) {
            Some(v) => self.values.push((spec, v)),
            None => self.missing.push(name),
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(s, v)| format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", s.name, s.unit))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

fn mean_ms(ns: &[u64]) -> Option<f64> {
    ratio(ns.iter().sum::<u64>() as f64 / 1e6, ns.len() as f64)
}

fn median_us(ns: &[u64]) -> Option<f64> {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    stats::median(&us)
}

fn end_to_end(p: &Pass, out: &mut Metrics) {
    let t = END_TO_END;
    out.set(t, "setup_s", Some(p.setup_s));
    out.set(t, "search_s", Some(p.search.wall_s));
    let met = p.search.perfs.iter().filter(|o| o.row.is_some()).count();
    out.set(t, "table1_met", Some(met as f64));
    let logs: Vec<f64> = p.search.perfs.iter().map(|o| o.best_qtc().ln()).collect();
    let geo = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
    out.set(t, "qtc_best_pct", Some(100.0 * geo));
    // Latency is taken per one-second window and averaged over the
    // windows: how the two client/worker pairs share the two cores flips
    // between regimes for seconds at a time, and a mean moves smoothly
    // with the share of time spent in each where a median would jump.
    out.set(t, "predict_p50_us", stats::mean(&p.serve.window_p50_us));
    // Each window reports its p99, or its highest percentile with ten
    // samples beyond it.
    let tails = &p.serve.window_tail_us;
    let tail_values: Vec<f64> = tails.iter().map(|x| x.value).collect();
    out.set(t, "predict_p99_us", stats::mean(&tail_values));
    if let (Some(pct), Some(n)) = (
        tails.iter().map(|x| x.pct).min_by(f64::total_cmp),
        tails.iter().map(|x| x.n).min(),
    ) {
        println!(
            "{{\"detail\":{{\"predict_p99_us\":{{\"windows\":{},\"lowest_percentile\":{pct},\
\"fewest_samples_per_window\":{n},\"samples\":{}}}}}}}",
            tails.len(),
            p.serve.rtt_us.len()
        );
    }
    out.set(
        t,
        "points_per_s",
        stats::median(&p.serve.window_points_per_s),
    );
    out.set(t, "publish_p50_us", stats::median(&p.serve.publish_us));
    out.set(t, "peak_rss_mb", peak_rss_mb());
}

fn per_layer(traced: &Pass, untraced: &Pass, out: &mut Metrics) {
    let t = PER_LAYER;
    let tr = &traced.tracer;
    let c = traced.search.counters;
    out.set(
        t,
        "circuit.simulate_us",
        median_us(&traced.data.simulate_ns),
    );
    out.set(t, "circuit.sim_failures", Some(traced.data.failures as f64));

    let generation = tr.layer("core.generation");
    let evaluate = tr.layer("core.evaluate");
    out.set(t, "core.init_ms", mean_ms(&tr.layer("core.init").total_ns));
    out.set(t, "core.generation_ms", mean_ms(&generation.total_ns));
    let gen_s = generation.total_ns.iter().sum::<u64>() as f64 / 1e9;
    out.set(t, "core.gens_per_s", ratio(c.generations as f64, gen_s));
    out.set(t, "core.evaluate_ms", mean_ms(&evaluate.total_ns));
    out.set(t, "core.vary_select_ms", mean_ms(&generation.self_ns));
    let gens = c.generations as f64;
    out.set(
        t,
        "core.basis_eval_ms",
        ratio(c.basis_eval_ns as f64 / 1e6, gens),
    );
    out.set(
        t,
        "core.linear_solve_ms",
        ratio(c.linear_solve_ns as f64 / 1e6, gens),
    );
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    out.set(
        t,
        "core.cache_hit_ratio",
        ratio(c.cache_hits as f64, lookups),
    );
    out.set(t, "core.cache_hits", Some(c.cache_hits as f64));
    out.set(t, "core.cache_misses", Some(c.cache_misses as f64));
    out.set(
        t,
        "core.feasible_ratio",
        ratio(c.feasible as f64, c.evaluated as f64),
    );
    let eval_wall_ns = evaluate.total_ns.iter().sum::<u64>() as f64;
    let cpu_ns = (c.basis_eval_ns + c.linear_solve_ns) as f64;
    out.set(
        t,
        "runtime.eval_parallel_eff",
        ratio(cpu_ns, eval_wall_ns * THREADS as f64),
    );
    out.set(
        t,
        "runtime.checkpoint_ms",
        mean_ms(&tr.layer("runtime.checkpoint").total_ns),
    );
    out.set(
        t,
        "core.harvest_ms",
        mean_ms(&tr.layer("core.harvest").total_ns),
    );
    out.set(t, "core.sag_ms", mean_ms(&tr.layer("core.sag").total_ns));
    out.set(t, "core.pick_ms", mean_ms(&tr.layer("core.pick").total_ns));
    let accounted: f64 = SEARCH_LAYERS.iter().map(|l| tr.self_s(l)).sum();
    let search_root_s = tr.layer("search.perf").total_ns.iter().sum::<u64>() as f64 / 1e9;
    out.set(
        t,
        "search.accounted_pct",
        ratio(100.0 * accounted, search_root_s),
    );
    out.set(t, "trace.search_s", Some(traced.search.wall_s));
    let overhead = ratio(
        traced.search.wall_s - untraced.search.wall_s,
        untraced.search.wall_s,
    );
    out.set(t, "trace.search_overhead_pct", overhead.map(|r| 100.0 * r));

    let rtt_p50 = stats::median(&traced.serve.rtt_us);
    let mut layers_sum = 0.0;
    for (span, metric) in PREDICT_LAYERS {
        let median = median_us(&tr.layer(span).total_ns);
        layers_sum += median.unwrap_or(0.0);
        out.set(t, metric, median);
    }
    out.set(
        t,
        "core.tape_compile_us",
        median_us(&tr.layer("core.tape_compile").total_ns),
    );
    out.set(t, "serve.unaccounted_us", rtt_p50.map(|r| r - layers_sum));
    out.set(t, "serve.rtt_p50_us", rtt_p50);
    out.set(
        t,
        "serve.publish_us",
        median_us(&tr.layer("serve.publish").total_ns),
    );
    let predicts = traced.serve.predicts as f64;
    out.set(
        t,
        "serve.bytes_in",
        ratio(traced.serve.bytes_in as f64, predicts),
    );
    out.set(
        t,
        "serve.bytes_out",
        ratio(traced.serve.bytes_out as f64, predicts),
    );
    out.set(t, "serve.reconnects", Some(traced.serve.reconnects as f64));
    let base = stats::median(&untraced.serve.rtt_us);
    let overhead = rtt_p50.zip(base).and_then(|(a, b)| ratio(a - b, b));
    out.set(t, "trace.predict_overhead_pct", overhead.map(|r| 100.0 * r));
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn facts(args: &Args, workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"perfbench\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{},\"trace\":{},\
\"nproc\":{nproc},\"build\":\"{}\",\"caffeine_version\":\"{}\",\"evaluator_threads\":{THREADS},\
\"server_workers\":{THREADS},\"clients\":{THREADS}}}}}",
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        caffeine_serve::VERSION,
    )
}

fn run_workload(w: &Workload, args: &Args) -> bool {
    println!("{}", facts(args, w.name, args.seed));
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return false;
    }
    // A traced run makes two passes, so each serves for half the time and
    // the run stays within the length of two plain ones.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = (|| {
        let mut metrics = Metrics::default();
        let first = run_pass(w, args.seed, seconds, false, &work)?;
        if !args.trace {
            end_to_end(&first, &mut metrics);
            return Ok((metrics, first.attempted, first.failed, first.failures));
        }
        let traced = run_pass(w, args.seed, seconds, true, &work)?;
        per_layer(&traced, &first, &mut metrics);
        let path =
            PathBuf::from(WORK_DIR).join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        match traced.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        report_breakdown(&metrics);
        let mut failures = first.failures;
        failures.extend(traced.failures);
        Ok::<_, String>((
            metrics,
            first.attempted + traced.attempted,
            first.failed + traced.failed,
            failures,
        ))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, mut failed, failures) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return false;
        }
    };
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for name in &metrics.missing {
        eprintln!("perfbench: could not measure {name}");
        failed += 1;
    }
    let bad_names: Vec<&str> = metrics
        .values
        .iter()
        .map(|(s, _)| s.name)
        .filter(|n| !stats::valid_metric_name(n))
        .collect();
    if !bad_names.is_empty() {
        eprintln!("perfbench: invalid metric names {bad_names:?}");
        return false;
    }
    for (s, v) in &metrics.values {
        let better = if s.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        eprintln!(
            "{:<32} {v:>16.4} {:<6} ({better} is better)",
            s.name, s.unit
        );
    }
    let correct = failed == 0;
    println!(
        "{{\"detail\":{{\"error_rate\":{}}}}}",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics.json()
    );
    correct
}

/// Prints how the traced layers add up to the traced headline numbers.
fn report_breakdown(m: &Metrics) {
    let get = |name: &str| {
        m.values
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(_, v)| *v)
    };
    let parts: Vec<String> = PREDICT_LAYERS
        .iter()
        .map(|(_, metric)| *metric)
        .chain(["serve.unaccounted_us"])
        .map(|n| format!("{n} {:.2}", get(n).unwrap_or(f64::NAN)))
        .collect();
    eprintln!(
        "perfbench: traced predict p50 {:.2} us = {}",
        get("serve.rtt_p50_us").unwrap_or(f64::NAN),
        parts.join(" + ")
    );
    eprintln!(
        "perfbench: search layer self times cover {:.1}% of the traced search ({:.3} s)",
        get("search.accounted_pct").unwrap_or(f64::NAN),
        get("trace.search_s").unwrap_or(f64::NAN)
    );
}

/// Runs `(workload, seed)` pairs each in its own process and prints each
/// metric's median and quartiles across them.
fn run_children(args: &Args, runs: Vec<(&str, u64)>) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (workload, seed) in runs {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                all_ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        all_ok &= output.status.success();
        let Some(last) = stdout.lines().last() else {
            all_ok = false;
            continue;
        };
        let Ok(result) = serde_json::from_str::<serde_json::Value>(last) else {
            all_ok = false;
            continue;
        };
        let Some(metrics) = result["metrics"].as_object() else {
            continue;
        };
        for (name, m) in metrics.iter() {
            let key = if args.workload == "all" {
                format!("{workload}.{name}")
            } else {
                name.to_string()
            };
            let unit = m["unit"].as_str().unwrap_or("").to_string();
            let v = m["value"].as_f64().unwrap_or(f64::NAN);
            match values.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, vs)) => vs.push(v),
                None => values.push((key, unit, vec![v])),
            }
        }
    }
    eprintln!(
        "{:<40} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "runs", "median", "q1", "q3", "iqr/med"
    );
    for (name, unit, vs) in &values {
        let med = stats::median(vs).unwrap_or(f64::NAN);
        let [q1, _, q3] = stats::quartiles(vs).unwrap_or([f64::NAN; 3]);
        let spread = stats::relative_spread(vs).unwrap_or(f64::NAN);
        eprintln!(
            "{:<40} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>8.4}  {unit}",
            name,
            vs.len(),
            med,
            q1,
            q3,
            spread
        );
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &serde_json::Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn expected(table: &[Spec]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|s| {
                let better = if s.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (s.name.to_string(), s.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_and_workload_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(declared(&spec["end_to_end"]), expected(END_TO_END));
        let per_layer: Vec<(String, String, String)> = spec["per_layer"]
            .as_array()
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        assert_eq!(per_layer, expected(PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        assert!(names.iter().all(|n| stats::valid_metric_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload predict_point --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload all --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --bogus 1")).is_err());
        assert!(parse_args(&args("--workload all --seconds 0")).is_err());
    }
}
