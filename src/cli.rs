//! Support code for the `caffeine-cli` binary: CSV dataset loading and
//! argument parsing, kept in the library so they are unit-testable.

use std::collections::BTreeMap;

use caffeine_core::{CaffeineSettings, GrammarConfig};
use caffeine_doe::Dataset;

/// Parsed command-line options of `caffeine-cli`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Training CSV path.
    pub data: String,
    /// Target column name (defaults to the last column).
    pub target: Option<String>,
    /// Optional held-out test CSV.
    pub test: Option<String>,
    /// Optional grammar file; defaults to the paper's full grammar.
    pub grammar: Option<String>,
    /// Optional JSON output path for the model front.
    pub out: Option<String>,
    /// Population size.
    pub population: usize,
    /// Generations.
    pub generations: usize,
    /// Maximum basis functions.
    pub max_bases: usize,
    /// RNG seed.
    pub seed: u64,
    /// Evaluation worker threads.
    pub threads: usize,
    /// Number of islands.
    pub islands: usize,
    /// Ring-migration period in generations (0 disables).
    pub migrate_every: usize,
    /// Checkpoint file path.
    pub checkpoint: Option<String>,
    /// Checkpoint cadence in generations (0 = only on completion).
    pub checkpoint_every: usize,
    /// Resume from the `--checkpoint` file when it exists.
    pub resume: bool,
    /// Flags that were explicitly given (distinguishes `--gens 300` from
    /// the default — resume semantics depend on it).
    pub explicit: Vec<&'static str>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            data: String::new(),
            target: None,
            test: None,
            grammar: None,
            out: None,
            population: 200,
            generations: 300,
            max_bases: 10,
            seed: 0,
            threads: 1,
            islands: 1,
            migrate_every: 25,
            checkpoint: None,
            checkpoint_every: 0,
            resume: false,
            explicit: Vec::new(),
        }
    }
}

/// Every flag of a model run, in usage order. Used for duplicate detection
/// and nearest-flag suggestions.
const KNOWN_FLAGS: &[&str] = &[
    "--data",
    "--target",
    "--test",
    "--grammar",
    "--out",
    "--pop",
    "--gens",
    "--max-bases",
    "--seed",
    "--threads",
    "--islands",
    "--migrate-every",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
];

/// Levenshtein edit distance (for `did you mean ...?` suggestions).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest of `known`, when it is close enough to be a plausible typo.
fn nearest_flag(unknown: &str, known: &[&'static str]) -> Option<&'static str> {
    known
        .iter()
        .map(|&f| (edit_distance(unknown, f), f))
        .min()
        .filter(|&(d, f)| d <= (f.len() / 2).max(2))
        .map(|(_, f)| f)
}

/// The `--flag [value]` scanner every command's parser shares: it
/// rejects a repeated known flag, and names the nearest known flag when
/// one is unknown.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The command's flags, in usage order.
    known: &'static [&'static str],
    /// The subcommand for error messages, with a trailing space (empty
    /// for a model run).
    command: &'static str,
    /// The known flags given so far, in order.
    seen: Vec<&'static str>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], command: &'static str, known: &'static [&'static str]) -> Self {
        Flags {
            args: args.iter(),
            known,
            command,
            seen: Vec::new(),
        }
    }

    /// The next flag, or `None` once the arguments run out.
    fn next_flag(&mut self) -> Result<Option<&'a str>, String> {
        let Some(flag) = self.args.next() else {
            return Ok(None);
        };
        if let Some(&known) = self.known.iter().find(|&&f| f == flag) {
            if self.seen.contains(&known) {
                return Err(format!("flag {known} given more than once"));
            }
            self.seen.push(known);
        }
        Ok(Some(flag))
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("flag {flag} needs a value"))
    }

    /// The integer value after `flag`.
    fn int<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    }

    /// The error for a flag the command does not know.
    fn unknown(&self, flag: &str) -> String {
        let command = self.command;
        match nearest_flag(flag, self.known) {
            Some(near) => {
                format!("unknown {command}flag `{flag}` — did you mean `{near}`? (see --help)")
            }
            None => format!("unknown {command}flag `{flag}` (see --help)"),
        }
    }
}

impl CliOptions {
    /// Parses `--key value` style arguments (the program name already
    /// stripped).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags (with a
    /// nearest-flag suggestion), duplicated flags, missing values, or a
    /// missing `--data`.
    pub fn parse(args: &[String]) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut flags = Flags::new(args, "", KNOWN_FLAGS);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--data" => opts.data = flags.value(flag)?,
                "--target" => opts.target = Some(flags.value(flag)?),
                "--test" => opts.test = Some(flags.value(flag)?),
                "--grammar" => opts.grammar = Some(flags.value(flag)?),
                "--out" => opts.out = Some(flags.value(flag)?),
                "--pop" => opts.population = flags.int(flag)?,
                "--gens" => opts.generations = flags.int(flag)?,
                "--max-bases" => opts.max_bases = flags.int(flag)?,
                "--seed" => opts.seed = flags.int(flag)?,
                "--threads" => opts.threads = flags.int(flag)?,
                "--islands" => opts.islands = flags.int(flag)?,
                "--migrate-every" => opts.migrate_every = flags.int(flag)?,
                "--checkpoint" => opts.checkpoint = Some(flags.value(flag)?),
                "--checkpoint-every" => opts.checkpoint_every = flags.int(flag)?,
                "--resume" => opts.resume = true,
                other => return Err(flags.unknown(other)),
            }
        }
        opts.explicit = flags.seen;
        if opts.data.is_empty() {
            return Err("missing required flag --data <file.csv>".to_string());
        }
        if opts.resume && opts.checkpoint.is_none() {
            return Err("--resume needs --checkpoint <file> to resume from".to_string());
        }
        Ok(opts)
    }

    /// `true` when the flag was explicitly present on the command line.
    pub fn was_set(&self, flag: &str) -> bool {
        self.explicit.contains(&flag)
    }

    /// The runtime configuration implied by these options.
    pub fn runtime_config(&self) -> caffeine_runtime::RuntimeConfig {
        caffeine_runtime::RuntimeConfig {
            threads: self.threads.max(1),
            islands: self.islands.max(1),
            migrate_every: self.migrate_every,
            checkpoint_every: self.checkpoint_every,
            ..caffeine_runtime::RuntimeConfig::default()
        }
    }

    /// The engine settings implied by these options.
    pub fn settings(&self) -> CaffeineSettings {
        let mut s = CaffeineSettings::paper();
        s.population = self.population;
        s.generations = self.generations;
        s.max_bases = self.max_bases;
        s.seed = self.seed;
        s.stats_every = (self.generations / 10).max(1);
        s
    }

    /// Resolves the grammar: parse the file when given, otherwise the full
    /// paper grammar over `n_vars` variables.
    ///
    /// # Errors
    ///
    /// Propagates file-IO and grammar-parse failures as strings.
    pub fn resolve_grammar(&self, n_vars: usize) -> Result<GrammarConfig, String> {
        match &self.grammar {
            None => Ok(GrammarConfig::paper_full(n_vars)),
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read grammar file {path}: {e}"))?;
                let mut g = caffeine_core::grammar::parse_grammar(&text)
                    .map_err(|e| format!("grammar file {path}: {e}"))?;
                if g.n_vars != n_vars {
                    // Data decides the dimensionality; the file's `vars`
                    // is validated against it.
                    return Err(format!(
                        "grammar file declares {} vars but the data has {n_vars}",
                        g.n_vars
                    ));
                }
                g.n_vars = n_vars;
                Ok(g)
            }
        }
    }
}

/// Parsed options of `caffeine-cli serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address.
    pub addr: String,
    /// Registry/checkpoint directory (in-memory when absent).
    pub model_dir: Option<String>,
    /// Worker threads.
    pub threads: usize,
    /// Job-store capacity (terminal records are evicted; 429 beyond).
    pub max_jobs: usize,
    /// Concurrently running GP jobs; submissions beyond this wait in the
    /// FIFO admission queue (0 = same as `threads`).
    pub max_running_jobs: usize,
    /// Requests served per connection before the server closes it.
    pub max_conn_requests: usize,
    /// Keep-alive idle timeout between requests, milliseconds.
    pub idle_timeout_ms: u64,
    /// Log verbosity: `error`, `warn`, `info`, or `debug`.
    pub log_level: caffeine_obs::Level,
    /// Log line format: `text` or `json`.
    pub log_format: caffeine_obs::LogFormat,
    /// Requests slower than this get an `http.slow` warning, ms.
    pub slow_request_ms: u64,
    /// Completed traces kept by the in-process trace store.
    pub trace_capacity: usize,
    /// Fraction of ordinary (fast, non-errored) traces retained by tail
    /// sampling, 0.0–1.0. Slow, errored, and explicitly requested traces
    /// are always kept.
    pub trace_sample_rate: f64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            model_dir: None,
            threads: 4,
            max_jobs: 64,
            max_running_jobs: 0,
            max_conn_requests: 100,
            idle_timeout_ms: 5_000,
            log_level: caffeine_obs::Level::Info,
            log_format: caffeine_obs::LogFormat::Text,
            slow_request_ms: 1_000,
            trace_capacity: 256,
            trace_sample_rate: 0.1,
        }
    }
}

/// Every flag of `serve`, in usage order.
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--model-dir",
    "--threads",
    "--max-jobs",
    "--max-running-jobs",
    "--max-conn-requests",
    "--idle-timeout-ms",
    "--log-level",
    "--log-format",
    "--slow-request-ms",
    "--trace-capacity",
    "--trace-sample-rate",
];

impl ServeOptions {
    /// Parses the arguments after the `serve` subcommand.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown (with a nearest-flag
    /// suggestion) or duplicated flags, or missing values.
    pub fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions::default();
        let mut flags = Flags::new(args, "serve ", SERVE_FLAGS);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--addr" => opts.addr = flags.value(flag)?,
                "--model-dir" => opts.model_dir = Some(flags.value(flag)?),
                "--threads" => opts.threads = flags.int(flag)?,
                "--max-jobs" => opts.max_jobs = flags.int(flag)?,
                "--max-running-jobs" => opts.max_running_jobs = flags.int(flag)?,
                "--max-conn-requests" => opts.max_conn_requests = flags.int(flag)?,
                "--idle-timeout-ms" => opts.idle_timeout_ms = flags.int(flag)?,
                "--log-level" => {
                    let raw = flags.value(flag)?;
                    opts.log_level = caffeine_obs::Level::parse(&raw).map_err(|_| {
                        format!("--log-level must be error, warn, info, or debug (got `{raw}`)")
                    })?;
                }
                "--log-format" => {
                    let raw = flags.value(flag)?;
                    opts.log_format = caffeine_obs::LogFormat::parse(&raw)
                        .map_err(|_| format!("--log-format must be text or json (got `{raw}`)"))?;
                }
                "--slow-request-ms" => opts.slow_request_ms = flags.int(flag)?,
                "--trace-capacity" => opts.trace_capacity = flags.int(flag)?,
                "--trace-sample-rate" => {
                    let raw = flags.value(flag)?;
                    let rate: f64 = raw.parse().map_err(|_| {
                        format!("--trace-sample-rate needs a number in 0..=1 (got `{raw}`)")
                    })?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!(
                            "--trace-sample-rate needs a number in 0..=1 (got `{raw}`)"
                        ));
                    }
                    opts.trace_sample_rate = rate;
                }
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(opts)
    }
}

/// Parsed options of `caffeine-cli jobs <list|submit|watch>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobsOptions {
    /// The action: `list`, `submit`, or `watch`.
    pub action: String,
    /// Server base URL.
    pub remote: String,
    /// Job id (required by `watch`).
    pub id: Option<u64>,
    /// State filter for `list`.
    pub state: Option<String>,
    /// `watch` only: print a per-phase timing line for each progress
    /// frame instead of the raw frame JSON.
    pub timings: bool,
    /// Job spec JSON file (required by `submit`).
    pub spec: Option<String>,
}

/// Every flag of `jobs`, in usage order.
const JOBS_FLAGS: &[&str] = &["--remote", "--id", "--state", "--timings", "--spec"];

impl JobsOptions {
    /// Parses the arguments after the `jobs` subcommand: an action word
    /// (`list`, `submit`, or `watch`) followed by `--remote`, `--id`,
    /// `--state`, `--spec`.
    ///
    /// # Errors
    ///
    /// A message for a missing/unknown action, unknown or duplicated
    /// flags, missing values, a `watch` without `--id`, or a `submit`
    /// without `--spec`.
    pub fn parse(args: &[String]) -> Result<JobsOptions, String> {
        let action = match args.first().map(String::as_str) {
            Some(a @ ("list" | "submit" | "watch")) => a.to_string(),
            Some(other) => {
                return Err(format!(
                    "unknown jobs action `{other}` (use list, submit, or watch)"
                ))
            }
            None => return Err("jobs needs an action: list, submit, or watch".to_string()),
        };
        let mut remote = None;
        let mut id = None;
        let mut state = None;
        let mut timings = false;
        let mut spec = None;
        let mut flags = Flags::new(&args[1..], "jobs ", JOBS_FLAGS);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--remote" => remote = Some(flags.value(flag)?),
                "--id" => id = Some(flags.int(flag)?),
                "--state" => state = Some(flags.value(flag)?),
                "--timings" => timings = true,
                "--spec" => spec = Some(flags.value(flag)?),
                other => return Err(flags.unknown(other)),
            }
        }
        let opts = JobsOptions {
            action,
            remote: remote.ok_or("jobs needs --remote http://host:port")?,
            id,
            state,
            timings,
            spec,
        };
        if opts.action == "watch" && opts.id.is_none() {
            return Err("jobs watch needs --id <job>".to_string());
        }
        if opts.timings && opts.action != "watch" {
            return Err("--timings only applies to jobs watch".to_string());
        }
        if opts.action == "submit" && opts.spec.is_none() {
            return Err("jobs submit needs --spec <file.json>".to_string());
        }
        if opts.spec.is_some() && opts.action != "submit" {
            return Err("--spec only applies to jobs submit".to_string());
        }
        Ok(opts)
    }
}

/// Parsed options of `caffeine-cli predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictOptions {
    /// Server base URL, e.g. `http://127.0.0.1:7878`.
    pub remote: String,
    /// Registry model id.
    pub model: String,
    /// Pinned artifact version (latest when absent).
    pub version: Option<String>,
    /// CSV of input points (header row = variable names, no target).
    pub points: String,
    /// Optional JSON output path for the predictions.
    pub out: Option<String>,
}

/// Every flag of `predict`, in usage order.
const PREDICT_FLAGS: &[&str] = &["--remote", "--model", "--points", "--version", "--out"];

impl PredictOptions {
    /// Parses the arguments after the `predict` subcommand.
    ///
    /// # Errors
    ///
    /// A message for unknown or duplicated flags, missing values, or
    /// missing required flags (`--remote`, `--model`, `--points`).
    pub fn parse(args: &[String]) -> Result<PredictOptions, String> {
        let mut remote = None;
        let mut model = None;
        let mut version = None;
        let mut points = None;
        let mut out = None;
        let mut flags = Flags::new(args, "predict ", PREDICT_FLAGS);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--remote" => remote = Some(flags.value(flag)?),
                "--model" => model = Some(flags.value(flag)?),
                "--version" => version = Some(flags.value(flag)?),
                "--points" => points = Some(flags.value(flag)?),
                "--out" => out = Some(flags.value(flag)?),
                other => return Err(flags.unknown(other)),
            }
        }
        Ok(PredictOptions {
            remote: remote.ok_or("predict needs --remote http://host:port")?,
            model: model.ok_or("predict needs --model <id>")?,
            version,
            points: points.ok_or("predict needs --points <file.csv>")?,
            out,
        })
    }
}

/// Parses a headers-only CSV of input points (every column is a design
/// variable; no target column).
///
/// # Errors
///
/// A message naming the line for ragged rows or non-numeric cells.
pub fn parse_points_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<f64>>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty CSV")?;
    let names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
    let mut rows = Vec::new();
    for (lineno, line) in lines {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != names.len() {
            return Err(format!(
                "line {}: expected {} cells, got {}",
                lineno + 1,
                names.len(),
                cells.len()
            ));
        }
        let row: Result<Vec<f64>, String> = cells
            .iter()
            .map(|cell| {
                cell.parse()
                    .map_err(|_| format!("line {}: `{cell}` is not a number", lineno + 1))
            })
            .collect();
        rows.push(row?);
    }
    if rows.is_empty() {
        return Err("CSV has a header but no data rows".into());
    }
    Ok((names, rows))
}

/// The usage text.
pub fn usage() -> &'static str {
    concat!(
        "caffeine-cli: template-free symbolic modeling (CAFFEINE, DATE 2005)\n",
        "\n",
        "usage: caffeine-cli --data train.csv [options]\n",
        "\n",
        "subcommands:\n",
        "  serve   --addr <host:port> --model-dir <dir> --threads <n>\n",
        "          [--max-jobs <n>] [--max-running-jobs <n>] [--max-conn-requests <n>]\n",
        "          [--idle-timeout-ms <n>] [--log-level <error|warn|info|debug>]\n",
        "          [--log-format <text|json>] [--slow-request-ms <n>]\n",
        "          [--trace-capacity <n>] [--trace-sample-rate <0..1>]\n",
        "          run the caffeine-serve daemon (model registry, batched\n",
        "          /predict, async /jobs with FIFO queued admission — at most\n",
        "          --max-running-jobs run at once, default = --threads — SSE\n",
        "          events off a dedicated streamer thread, HTTP keep-alive,\n",
        "          structured access logs with X-Request-Id tracing, span\n",
        "          trees per request at /v1/traces (tail-sampled: slow,\n",
        "          errored, and explicitly requested traces always kept), a\n",
        "          live HTML dashboard at /dashboard, engine phase timings in\n",
        "          /metrics, /healthz liveness + /readyz readiness; default\n",
        "          addr 127.0.0.1:7878; interrupted jobs found under\n",
        "          --model-dir/.jobs are re-adopted on start; see\n",
        "          docs/API.md and docs/OBSERVABILITY.md)\n",
        "  predict --remote http://host:port --model <id> --points <file.csv>\n",
        "          [--version <hash>] [--out <file.json>]\n",
        "          query a remote model with a CSV of input points\n",
        "  jobs    list   --remote http://host:port [--state <s>]\n",
        "          submit --remote http://host:port --spec <file.json>\n",
        "          watch  --remote http://host:port --id <job> [--timings]\n",
        "          list server jobs / submit a job spec (prints the job id\n",
        "          and its trace id) / tail one job's live SSE event stream\n",
        "          (--timings renders each progress frame's per-phase\n",
        "          breakdown as a one-line summary)\n",
        "\n",
        "options:\n",
        "  --data <file>       training CSV (header row = variable names)\n",
        "  --target <name>     target column (default: last column)\n",
        "  --test <file>       held-out CSV for testing error + SAG filtering\n",
        "  --grammar <file>    grammar configuration file\n",
        "  --out <file>        write the model front as JSON\n",
        "  --pop <n>           population size (default 200)\n",
        "  --gens <n>          generations (default 300)\n",
        "  --max-bases <n>     max basis functions per model (default 10)\n",
        "  --seed <n>          RNG seed (default 0)\n",
        "\n",
        "runtime options (caffeine-runtime):\n",
        "  --threads <n>          evaluation worker threads; any n reproduces\n",
        "                         the --threads 1 result exactly (default 1)\n",
        "  --islands <k>          island-model islands; the population is split\n",
        "                         over them (default 1)\n",
        "  --migrate-every <n>    ring-migrate nondominated individuals every n\n",
        "                         generations, 0 disables (default 25)\n",
        "  --checkpoint <file>    write resumable JSON snapshots of the run\n",
        "  --checkpoint-every <n> snapshot cadence in generations\n",
        "                         (default: only on completion)\n",
        "  --resume               continue from --checkpoint if the file exists\n",
    )
}

/// Parses a simple CSV (comma-separated, header row, no quoting) into a
/// [`Dataset`] with the `target` column as `y`.
///
/// # Errors
///
/// Returns a message naming the line for ragged rows, non-numeric cells,
/// an unknown target column, or fewer than two columns.
pub fn parse_csv(text: &str, target: Option<&str>) -> Result<Dataset, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty CSV")?;
    let names: Vec<String> = header.split(',').map(|s| s.trim().to_string()).collect();
    if names.len() < 2 {
        return Err("need at least one input column and the target".into());
    }
    let target_idx = match target {
        Some(t) => names
            .iter()
            .position(|n| n == t)
            .ok_or_else(|| format!("target column `{t}` not found in header"))?,
        None => names.len() - 1,
    };
    let var_names: Vec<String> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != target_idx)
        .map(|(_, n)| n.clone())
        .collect();

    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (lineno, line) in lines {
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != names.len() {
            return Err(format!(
                "line {}: expected {} cells, got {}",
                lineno + 1,
                names.len(),
                cells.len()
            ));
        }
        let mut row = Vec::with_capacity(names.len() - 1);
        let mut y = f64::NAN;
        for (i, cell) in cells.iter().enumerate() {
            let v: f64 = cell
                .parse()
                .map_err(|_| format!("line {}: `{cell}` is not a number", lineno + 1))?;
            if i == target_idx {
                y = v;
            } else {
                row.push(v);
            }
        }
        xs.push(row);
        ys.push(y);
    }
    Dataset::new(var_names, xs, ys).map_err(|e| e.to_string())
}

/// Serializes a model front into the JSON document `--out` writes.
///
/// The document is a strict superset of the
/// [`caffeine_core::ModelArtifact`] schema (`schema_version`,
/// `var_names`, `models`), so it can be published to a `caffeine-serve`
/// registry as-is (`POST /v1/models/{id}` ignores the extra
/// human-readable `front` rows).
pub fn front_to_json(models: &[caffeine_core::Model], var_names: &[String]) -> serde_json::Value {
    let opts = caffeine_core::expr::FormatOptions::with_names(var_names.to_vec());
    let rows: Vec<serde_json::Value> = models
        .iter()
        .map(|m| {
            serde_json::json!({
                "expression": m.format(&opts),
                "train_error": m.train_error,
                "test_error": m.test_error,
                "complexity": m.complexity,
                "n_bases": m.n_bases(),
                "model": m,
            })
        })
        .collect();
    serde_json::json!({
        "schema_version": caffeine_core::MODEL_SCHEMA_VERSION,
        "var_names": var_names,
        "models": models,
        "front": rows,
    })
}

/// Summary statistics of a front, for the CLI's closing line.
pub fn front_summary(models: &[caffeine_core::Model]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("models", models.len() as f64);
    out.insert(
        "best_train_error",
        models
            .iter()
            .map(|m| m.train_error)
            .fold(f64::INFINITY, f64::min),
    );
    out.insert(
        "max_complexity",
        models.iter().map(|m| m.complexity).fold(0.0, f64::max),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_csv_uses_last_column_by_default() {
        let csv = "a,b,y\n1,2,3\n4,5,6\n";
        let ds = parse_csv(csv, None).unwrap();
        assert_eq!(ds.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(ds.targets(), &[3.0, 6.0]);
        assert_eq!(ds.point(1), &[4.0, 5.0]);
    }

    #[test]
    fn parse_csv_honors_named_target() {
        let csv = "a,y,b\n1,9,2\n";
        let ds = parse_csv(csv, Some("y")).unwrap();
        assert_eq!(ds.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(ds.targets(), &[9.0]);
    }

    #[test]
    fn parse_csv_reports_errors_with_line_numbers() {
        assert!(parse_csv("", None).is_err());
        assert!(parse_csv("only\n1\n", None).is_err());
        let ragged = parse_csv("a,y\n1\n", None).unwrap_err();
        assert!(ragged.contains("line 2"), "{ragged}");
        let nonnum = parse_csv("a,y\n1,x\n", None).unwrap_err();
        assert!(nonnum.contains("not a number"), "{nonnum}");
        let badtarget = parse_csv("a,y\n1,2\n", Some("z")).unwrap_err();
        assert!(badtarget.contains("`z`"), "{badtarget}");
    }

    #[test]
    fn parse_csv_skips_blank_lines() {
        let ds = parse_csv("a,y\n\n1,2\n\n3,4\n", None).unwrap();
        assert_eq!(ds.n_samples(), 2);
    }

    #[test]
    fn options_parse_full_flag_set() {
        let args: Vec<String> = [
            "--data",
            "d.csv",
            "--target",
            "pm",
            "--test",
            "t.csv",
            "--pop",
            "50",
            "--gens",
            "10",
            "--max-bases",
            "4",
            "--seed",
            "9",
            "--out",
            "m.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert_eq!(o.data, "d.csv");
        assert_eq!(o.target.as_deref(), Some("pm"));
        assert_eq!(o.population, 50);
        assert_eq!(o.generations, 10);
        assert_eq!(o.max_bases, 4);
        assert_eq!(o.seed, 9);
        assert_eq!(o.out.as_deref(), Some("m.json"));
        let s = o.settings();
        assert_eq!(s.population, 50);
        assert_eq!(s.max_bases, 4);
    }

    #[test]
    fn options_reject_bad_input() {
        let parse =
            |v: &[&str]| CliOptions::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&[]).is_err()); // missing --data
        assert!(parse(&["--data"]).is_err()); // missing value
        assert!(parse(&["--data", "x", "--pop", "abc"]).is_err());
        assert!(parse(&["--data", "x", "--wat", "1"]).is_err());
    }

    #[test]
    fn options_parse_runtime_flags() {
        let args: Vec<String> = [
            "--data",
            "d.csv",
            "--threads",
            "8",
            "--islands",
            "4",
            "--migrate-every",
            "10",
            "--checkpoint",
            "run.ckpt",
            "--checkpoint-every",
            "50",
            "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert_eq!(o.threads, 8);
        assert_eq!(o.islands, 4);
        assert_eq!(o.migrate_every, 10);
        assert_eq!(o.checkpoint.as_deref(), Some("run.ckpt"));
        assert_eq!(o.checkpoint_every, 50);
        assert!(o.resume);
        let rc = o.runtime_config();
        assert_eq!(rc.threads, 8);
        assert_eq!(rc.islands, 4);
        assert_eq!(rc.migrate_every, 10);
        assert_eq!(rc.checkpoint_every, 50);
    }

    #[test]
    fn explicit_flags_are_tracked() {
        let args: Vec<String> = ["--data", "d.csv", "--gens", "40", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = CliOptions::parse(&args).unwrap();
        assert!(o.was_set("--gens"));
        assert!(o.was_set("--threads"));
        // Defaults are not "set": bare resume must keep the checkpointed
        // total instead of truncating to the default generations.
        assert!(!o.was_set("--pop"));
        assert!(!o.was_set("--checkpoint-every"));
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let parse =
            |v: &[&str]| CliOptions::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let err = parse(&["--data", "a.csv", "--data", "b.csv"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        assert!(err.contains("--data"), "{err}");
        let err = parse(&["--data", "a.csv", "--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // Every subcommand rejects a repeat instead of keeping the last.
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = ServeOptions::parse(&to_args(&["--threads", "2", "--threads", "4"])).unwrap_err();
        assert!(err.contains("--threads given more than once"), "{err}");
        let err = JobsOptions::parse(&to_args(&[
            "watch",
            "--remote",
            "http://x:1",
            "--id",
            "1",
            "--timings",
            "--timings",
        ]))
        .unwrap_err();
        assert!(err.contains("--timings given more than once"), "{err}");
        let err = PredictOptions::parse(&to_args(&[
            "--remote",
            "http://x:1",
            "--model",
            "a",
            "--model",
            "b",
            "--points",
            "p.csv",
        ]))
        .unwrap_err();
        assert!(err.contains("--model given more than once"), "{err}");
    }

    #[test]
    fn unknown_flags_suggest_the_nearest_known_one() {
        let parse =
            |v: &[&str]| CliOptions::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let err = parse(&["--data", "x", "--thread", "4"]).unwrap_err();
        assert!(err.contains("did you mean `--threads`"), "{err}");
        let err = parse(&["--data", "x", "--sed", "4"]).unwrap_err();
        assert!(err.contains("did you mean `--seed`"), "{err}");
        let err = parse(&["--data", "x", "--migrateevery", "4"]).unwrap_err();
        assert!(err.contains("did you mean `--migrate-every`"), "{err}");
        // Nothing plausible: no suggestion.
        let err = parse(&["--data", "x", "--zzzzqqqq", "4"]).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        // The subcommands suggest from their own flags.
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = ServeOptions::parse(&to_args(&["--max-job", "4"])).unwrap_err();
        assert!(err.contains("unknown serve flag `--max-job`"), "{err}");
        assert!(err.contains("did you mean `--max-jobs`"), "{err}");
        let err = JobsOptions::parse(&to_args(&["list", "--remot", "http://x:1"])).unwrap_err();
        assert!(err.contains("did you mean `--remote`"), "{err}");
        let err = PredictOptions::parse(&to_args(&["--point", "p.csv"])).unwrap_err();
        assert!(err.contains("did you mean `--points`"), "{err}");
        let err = PredictOptions::parse(&to_args(&["--zzzzqqqq"])).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        // Every listed flag has a parser arm: none of them is "unknown".
        type Parse = fn(&[String]) -> Option<String>;
        let parsers: [(&[&str], Parse); 4] = [
            (KNOWN_FLAGS, |a| CliOptions::parse(a).err()),
            (SERVE_FLAGS, |a| ServeOptions::parse(a).err()),
            (JOBS_FLAGS, |a| {
                JobsOptions::parse(&[&["list".to_string()], a].concat()).err()
            }),
            (PREDICT_FLAGS, |a| PredictOptions::parse(a).err()),
        ];
        for (known, parse) in parsers {
            for flag in known {
                let err = parse(&to_args(&[flag])).unwrap_or_default();
                assert!(!err.contains("unknown"), "{flag}: {err}");
            }
        }
    }

    #[test]
    fn resume_requires_checkpoint() {
        let args: Vec<String> = ["--data", "d.csv", "--resume"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = CliOptions::parse(&args).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
    }

    #[test]
    fn default_grammar_matches_data_dimensionality() {
        let o = CliOptions {
            data: "d.csv".into(),
            ..CliOptions::default()
        };
        let g = o.resolve_grammar(7).unwrap();
        assert_eq!(g.n_vars, 7);
    }

    #[test]
    fn front_json_and_summary() {
        use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
        let m = caffeine_core::Model::new(
            vec![BasisFunction::from_vc(VarCombo::single(1, 0, -1))],
            vec![1.0, 2.0],
            WeightConfig::default(),
        )
        .with_metrics(0.05, 11.25);
        let json = front_to_json(std::slice::from_ref(&m), &["x".to_string()]);
        assert_eq!(json["front"][0]["n_bases"], 1);
        // The --out document is a publishable artifact superset.
        let artifact =
            caffeine_core::ModelArtifact::from_json(&serde_json::to_string(&json).unwrap())
                .unwrap();
        assert_eq!(artifact.models, vec![m.clone()]);
        assert_eq!(artifact.var_names, vec!["x".to_string()]);
        assert!(json["front"][0]["expression"]
            .as_str()
            .unwrap()
            .contains("1 / x"));
        let summary = front_summary(&[m]);
        assert_eq!(summary["models"], 1.0);
        assert!((summary["best_train_error"] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn serve_options_parse_and_default() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9000",
            "--model-dir",
            "mdl",
            "--threads",
            "8",
            "--max-jobs",
            "5",
            "--max-running-jobs",
            "3",
            "--max-conn-requests",
            "32",
            "--idle-timeout-ms",
            "750",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = ServeOptions::parse(&args).unwrap();
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(o.model_dir.as_deref(), Some("mdl"));
        assert_eq!(o.threads, 8);
        assert_eq!(o.max_jobs, 5);
        assert_eq!(o.max_running_jobs, 3);
        assert_eq!(o.max_conn_requests, 32);
        assert_eq!(o.idle_timeout_ms, 750);
        assert_eq!(ServeOptions::parse(&[]).unwrap(), ServeOptions::default());
        assert_eq!(ServeOptions::default().max_jobs, 64);
        // 0 = "same as --threads": resolved at bind time, not parse time.
        assert_eq!(ServeOptions::default().max_running_jobs, 0);
        assert!(ServeOptions::parse(&["--wat".to_string()]).is_err());
        assert!(ServeOptions::parse(&["--addr".to_string()]).is_err());
        assert!(ServeOptions::parse(&["--max-jobs".to_string(), "x".to_string()]).is_err());
        assert!(ServeOptions::parse(&["--max-running-jobs".to_string()]).is_err());
    }

    #[test]
    fn serve_options_parse_observability_flags() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = ServeOptions::parse(&to_args(&[
            "--log-level",
            "debug",
            "--log-format",
            "json",
            "--slow-request-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(o.log_level, caffeine_obs::Level::Debug);
        assert_eq!(o.log_format, caffeine_obs::LogFormat::Json);
        assert_eq!(o.slow_request_ms, 250);
        // Defaults: info-level text logs, 1s slow threshold.
        let d = ServeOptions::default();
        assert_eq!(d.log_level, caffeine_obs::Level::Info);
        assert_eq!(d.log_format, caffeine_obs::LogFormat::Text);
        assert_eq!(d.slow_request_ms, 1_000);
        // Bad values are named in the error.
        let err = ServeOptions::parse(&to_args(&["--log-level", "loud"])).unwrap_err();
        assert!(err.contains("`loud`"), "{err}");
        let err = ServeOptions::parse(&to_args(&["--log-format", "xml"])).unwrap_err();
        assert!(err.contains("`xml`"), "{err}");
        assert!(ServeOptions::parse(&to_args(&["--slow-request-ms", "x"])).is_err());
        // Trace-store tuning.
        let o = ServeOptions::parse(&to_args(&[
            "--trace-capacity",
            "512",
            "--trace-sample-rate",
            "0.25",
        ]))
        .unwrap();
        assert_eq!(o.trace_capacity, 512);
        assert!((o.trace_sample_rate - 0.25).abs() < 1e-12);
        assert_eq!(d.trace_capacity, 256);
        assert!((d.trace_sample_rate - 0.1).abs() < 1e-12);
        let err = ServeOptions::parse(&to_args(&["--trace-sample-rate", "1.5"])).unwrap_err();
        assert!(err.contains("0..=1"), "{err}");
        assert!(ServeOptions::parse(&to_args(&["--trace-sample-rate", "x"])).is_err());
        assert!(ServeOptions::parse(&to_args(&["--trace-capacity", "x"])).is_err());
    }

    #[test]
    fn jobs_options_parse_actions_and_requirements() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = JobsOptions::parse(&to_args(&[
            "watch",
            "--remote",
            "http://127.0.0.1:7878",
            "--id",
            "7",
        ]))
        .unwrap();
        assert_eq!(o.action, "watch");
        assert_eq!(o.id, Some(7));
        let o = JobsOptions::parse(&to_args(&[
            "list",
            "--remote",
            "http://x:1",
            "--state",
            "running",
        ]))
        .unwrap();
        assert_eq!(o.action, "list");
        assert_eq!(o.state.as_deref(), Some("running"));
        assert!(o.id.is_none());
        assert!(!o.timings);
        let o = JobsOptions::parse(&to_args(&[
            "watch",
            "--remote",
            "http://x:1",
            "--id",
            "3",
            "--timings",
        ]))
        .unwrap();
        assert!(o.timings);
        // --timings is a watch-only flag.
        let err = JobsOptions::parse(&to_args(&["list", "--remote", "http://x:1", "--timings"]))
            .unwrap_err();
        assert!(err.contains("--timings"), "{err}");
        // submit needs --spec (and --spec is submit-only).
        let o = JobsOptions::parse(&to_args(&[
            "submit",
            "--remote",
            "http://x:1",
            "--spec",
            "job.json",
        ]))
        .unwrap();
        assert_eq!(o.action, "submit");
        assert_eq!(o.spec.as_deref(), Some("job.json"));
        let err = JobsOptions::parse(&to_args(&["submit", "--remote", "http://x:1"])).unwrap_err();
        assert!(err.contains("--spec"), "{err}");
        let err = JobsOptions::parse(&to_args(&[
            "list",
            "--remote",
            "http://x:1",
            "--spec",
            "job.json",
        ]))
        .unwrap_err();
        assert!(err.contains("--spec"), "{err}");
        // watch without --id, missing remote, unknown action/flags.
        let err = JobsOptions::parse(&to_args(&["watch", "--remote", "http://x:1"])).unwrap_err();
        assert!(err.contains("--id"), "{err}");
        let err = JobsOptions::parse(&to_args(&["list"])).unwrap_err();
        assert!(err.contains("--remote"), "{err}");
        assert!(JobsOptions::parse(&to_args(&["purge"])).is_err());
        assert!(JobsOptions::parse(&to_args(&[])).is_err());
        assert!(JobsOptions::parse(&to_args(&["list", "--wat"])).is_err());
        assert!(
            JobsOptions::parse(&to_args(&["watch", "--remote", "http://x", "--id", "z"])).is_err()
        );
    }

    #[test]
    fn predict_options_require_the_essentials() {
        let args: Vec<String> = [
            "--remote",
            "http://127.0.0.1:7878",
            "--model",
            "ota-gain",
            "--points",
            "p.csv",
            "--version",
            "abc",
            "--out",
            "preds.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = PredictOptions::parse(&args).unwrap();
        assert_eq!(o.model, "ota-gain");
        assert_eq!(o.version.as_deref(), Some("abc"));
        let err = PredictOptions::parse(&["--model".to_string(), "m".to_string()]).unwrap_err();
        assert!(err.contains("--remote"), "{err}");
        let err = PredictOptions::parse(&[
            "--remote".to_string(),
            "http://x".to_string(),
            "--model".to_string(),
            "m".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("--points"), "{err}");
    }

    #[test]
    fn points_csv_parses_all_columns_as_inputs() {
        let (names, rows) = parse_points_csv("w,l\n1,2\n3,4\n").unwrap();
        assert_eq!(names, vec!["w".to_string(), "l".to_string()]);
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(parse_points_csv("").is_err());
        assert!(parse_points_csv("w,l\n").is_err());
        assert!(parse_points_csv("w,l\n1\n").unwrap_err().contains("line 2"));
        assert!(parse_points_csv("w\nx\n")
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn front_json_declares_its_schema_version() {
        let json = front_to_json(&[], &[]);
        assert_eq!(
            json["schema_version"],
            u64::from(caffeine_core::MODEL_SCHEMA_VERSION)
        );
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [KNOWN_FLAGS, SERVE_FLAGS, JOBS_FLAGS, PREDICT_FLAGS].concat() {
            assert!(u.contains(flag), "usage missing {flag}");
        }
    }

    #[test]
    fn usage_keeps_its_indentation() {
        let u = usage();
        assert!(u.contains("\n  serve   --addr <host:port>"), "{u}");
        assert!(u.contains("\n          [--max-jobs <n>]"), "{u}");
        assert!(u.contains("\n  --data <file>       training CSV"), "{u}");
    }
}
