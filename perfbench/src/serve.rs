//! The serving path: an in-process daemon with 2 workers, a closed loop
//! of kept-alive clients, publishes beside the reads, the correctness
//! gate, and (traced run) an in-process replay of every request through
//! the public functions the daemon's handler calls.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;

use caffeine_circuit::ota::{OtaDesign, OTA_VAR_NAMES};
use caffeine_core::expr::{EvalContext, Tape};
use caffeine_core::{Model, ModelArtifact};
use caffeine_obs::{Level, LogFormat, Logger};
use caffeine_serve::http::{self, Response};
use caffeine_serve::{route, ModelRegistry, Route, ServeConfig, Server, ServerHandle};

use crate::stats::{self, Tail};
use crate::trace::Tracer;
use crate::THREADS;

/// Models kept per served front.
const FRONT_MODELS: usize = 10;
/// Distinct published versions per model id (publishes cycle through them,
/// so the registry stays bounded however fast the loop runs).
const VARIANTS: usize = 32;

/// Timed publishes before each loop window.
const PUBLISHES_PER_WINDOW: usize = 4;
/// Untimed predicts per client on the first daemon (part of set-up).
const WARMUP: usize = 50;
/// Untimed predicts per client on each later daemon.
const REWARM: usize = 10;

/// The traffic of one workload's serving phase.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Design points per predict request.
    pub points_per_request: usize,
    /// Every this many loop operations one is a publish (0: none).
    pub publish_every: usize,
    /// Length of the closed loop.
    pub seconds: f64,
}

impl ServePlan {
    /// The loop runs as windows of about this length, each on a fresh
    /// daemon. Batch requests are a thousand times fewer per second, so
    /// their windows are longer to keep a tail with samples beyond it.
    fn window_s(&self) -> f64 {
        if self.points_per_request > 1 {
            1.0
        } else {
            0.5
        }
    }

    /// Distinct point batches per model id.
    fn batches(&self) -> usize {
        if self.points_per_request > 1 {
            8
        } else {
            512
        }
    }
}

/// One published version of a model id.
#[derive(Debug)]
struct Variant {
    request: Vec<u8>,
    version: String,
}

/// One served model id: its versions and its predict requests.
#[derive(Debug)]
struct Served {
    id: String,
    variants: Vec<Variant>,
    next_variant: AtomicUsize,
    requests: Vec<Vec<u8>>,
}

/// Everything the serving phase sends, built from the search's fronts and
/// the seed before the server starts.
#[derive(Debug)]
pub struct Fleet {
    served: Vec<Served>,
    batches: Vec<Vec<Vec<f64>>>,
    known: HashMap<String, Arc<ModelArtifact>>,
}

/// Up to [`FRONT_MODELS`] models spread evenly along a front sorted by
/// complexity, always keeping the most complex (lowest-error) one, which
/// serves requests that name no model.
fn thin_front(front: &[Model]) -> Vec<Model> {
    if front.len() <= FRONT_MODELS {
        return front.to_vec();
    }
    let last = front.len() - 1;
    let mut picked: Vec<usize> = (0..FRONT_MODELS)
        .map(|i| (i * last + (FRONT_MODELS - 1) / 2) / (FRONT_MODELS - 1))
        .collect();
    picked.dedup();
    picked.into_iter().map(|i| front[i].clone()).collect()
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Builds the fleet from the seed: one model id per front, [`VARIANTS`]
/// versions of each (intercepts nudged by a seeded number of ulps), and
/// design points drawn uniformly from the ±10 % training cube.
///
/// # Errors
///
/// A message when a front cannot be packaged as an artifact.
pub fn build_fleet(
    fronts: &[(&str, &[Model])],
    plan: &ServePlan,
    seed: u64,
) -> Result<Fleet, String> {
    let names: Vec<String> = OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect();
    let nominal = OtaDesign::nominal().to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F1EE_7000);
    let batches: Vec<Vec<Vec<f64>>> = (0..plan.batches())
        .map(|_| {
            (0..plan.points_per_request)
                .map(|_| {
                    nominal
                        .iter()
                        .map(|&x| x * (1.0 + 0.1 * rng.gen_range(-1.0..1.0)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let bodies: Vec<String> = batches
        .iter()
        .map(|b| serde_json::to_string(&serde_json::json!({ "points": b })).unwrap_or_default())
        .collect();

    let mut known = HashMap::new();
    let mut served = Vec::with_capacity(fronts.len());
    for (name, front) in fronts {
        let id = format!("ota-{}", name.to_ascii_lowercase());
        let base = thin_front(front);
        let nudge = rng.gen_range(0..1u64 << 20) * VARIANTS as u64;
        let mut variants = Vec::with_capacity(VARIANTS);
        for v in (0..VARIANTS as u64).map(|v| v + nudge) {
            let mut models = base.clone();
            for m in &mut models {
                m.coefficients[0] = f64::from_bits(m.coefficients[0].to_bits().wrapping_add(v));
            }
            let json = ModelArtifact::new(names.clone(), models)
                .map_err(|e| e.to_string())?
                .to_json();
            // What the daemon will hold: the artifact parsed from the body.
            let held = ModelArtifact::from_json(&json).map_err(|e| e.to_string())?;
            let version = held.content_hash();
            known.insert(version.clone(), Arc::new(held));
            variants.push(Variant {
                request: post(&format!("/v1/models/{id}"), json.as_bytes()),
                version,
            });
        }
        let requests = bodies
            .iter()
            .map(|b| post(&format!("/v1/models/{id}/predict"), b.as_bytes()))
            .collect();
        served.push(Served {
            id,
            variants,
            next_variant: AtomicUsize::new(0),
            requests,
        });
    }
    Ok(Fleet {
        served,
        batches,
        known,
    })
}

/// A response as the client reads it.
#[derive(Debug)]
struct Reply {
    status: u16,
    close: bool,
    version: Option<String>,
    body: Vec<u8>,
    bytes: usize,
}

/// A kept-alive HTTP/1.1 client that counts the connection rotations the
/// server forces.
#[derive(Debug)]
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    rotations: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            rotations: 0,
        }
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        let outcome = self.try_exchange(request);
        match &outcome {
            Ok(reply) if reply.close => {
                self.stream = None;
                self.rotations += 1;
            }
            Ok(_) => {}
            Err(_) => self.stream = None,
        }
        outcome
    }

    fn try_exchange(&mut self, request: &[u8]) -> Result<Reply, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            let timeout = Some(Duration::from_secs(10));
            stream
                .set_read_timeout(timeout)
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(timeout)
                .map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().ok_or("no connection")?;
        stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before a response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or("malformed status line")?;
        let (mut length, mut close, mut version) = (0usize, false, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().map_err(|_| "bad content-length")?,
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-model-version" => version = Some(value.to_string()),
                _ => {}
            }
        }
        while self.buf.len() < head_end + length {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            close,
            version,
            body: self.buf[head_end..head_end + length].to_vec(),
            bytes: head_end + length,
        })
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct ClientStats {
    rtt_us: Vec<f64>,
    publish_us: Vec<f64>,
    points_ok: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    bytes_in: u64,
    bytes_out: u64,
    predicts: u64,
    rotations: u64,
    /// When the last timed request completed.
    last_end: Option<Instant>,
}

impl ClientStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn merge(&mut self, other: ClientStats) {
        self.rtt_us.extend(other.rtt_us);
        self.publish_us.extend(other.publish_us);
        self.points_ok += other.points_ok;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.predicts += other.predicts;
        self.rotations += other.rotations;
        self.last_end = self.last_end.max(other.last_end);
    }
}

/// The serving phase's measurements.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Server bind, seed publish and warm-up.
    pub setup_s: f64,
    /// Round trip of every successful predict in the loop, µs.
    pub rtt_us: Vec<f64>,
    /// Median round trip of each window, µs.
    pub window_p50_us: Vec<f64>,
    /// Tail round trip of each window.
    pub window_tail_us: Vec<Tail>,
    /// Points predicted per second by successful requests, per window.
    pub window_points_per_s: Vec<f64>,
    /// Round trip of every successful publish (between and in windows), µs.
    pub publish_us: Vec<f64>,
    /// Operations checked (warm-up, publishes, predicts).
    pub attempted: u64,
    /// Operations that failed or did not match.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Request bytes sent by loop predicts.
    pub bytes_in: u64,
    /// Response bytes received by loop predicts.
    pub bytes_out: u64,
    /// Loop predict requests sent.
    pub predicts: u64,
    /// Connection rotations forced by the server during the loop windows.
    pub reconnects: u64,
}

impl ServeOutcome {
    /// Folds a later slice of the same loop into this one.
    pub fn absorb(&mut self, o: ServeOutcome) {
        self.rtt_us.extend(o.rtt_us);
        self.window_p50_us.extend(o.window_p50_us);
        self.window_tail_us.extend(o.window_tail_us);
        self.window_points_per_s.extend(o.window_points_per_s);
        self.publish_us.extend(o.publish_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(o.failures.into_iter().take(room));
        self.bytes_in += o.bytes_in;
        self.bytes_out += o.bytes_out;
        self.predicts += o.predicts;
        self.reconnects += o.reconnects;
    }
}

/// Per-thread memo of the in-process predictions the gate compares with.
type Expected = HashMap<String, HashMap<usize, Vec<f64>>>;

/// The correctness gate for one predict response: every non-NaN value
/// must equal in-process `ModelArtifact::predict` of the version the
/// response names, bit for bit, and every non-finite one must be `null`.
fn check_predict(
    reply: &Reply,
    fleet: &Fleet,
    expected: &mut Expected,
    batch: usize,
) -> Result<usize, String> {
    if reply.status != 200 {
        return Err(format!("predict answered {}", reply.status));
    }
    let version = reply
        .version
        .as_deref()
        .ok_or("predict response has no x-model-version")?;
    let artifact = fleet
        .known
        .get(version)
        .ok_or_else(|| format!("unknown version {version}"))?;
    let by_batch = expected.entry(version.to_string()).or_default();
    let want = match by_batch.entry(batch) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(
            artifact
                .predict(None, &fleet.batches[batch])
                .map_err(|e| e.to_string())?,
        ),
    };
    let text = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
    let body: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let got = body["predictions"]
        .as_array()
        .ok_or("no predictions array")?;
    if got.len() != want.len() {
        return Err(format!(
            "{} predictions for {} points",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, &w)) in got.iter().zip(want.iter()).enumerate() {
        let ok = if w.is_finite() {
            g.as_f64().is_some_and(|v| v.to_bits() == w.to_bits())
        } else {
            matches!(g, serde_json::Value::Null)
        };
        if !ok {
            return Err(format!(
                "point {i}: served {g:?}, in-process {w:?} ({version})"
            ));
        }
    }
    Ok(want.len())
}

fn check_publish(reply: &Reply, version: &str) -> Result<(), String> {
    if reply.status != 200 && reply.status != 201 {
        return Err(format!("publish answered {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
    let body: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match body["version"].as_str() {
        Some(v) if v == version => Ok(()),
        other => Err(format!("publish stored {other:?}, expected {version}")),
    }
}

/// The handler's rendering of a predict response: `json!`, then the
/// non-finite → `null` pass, then `to_string`.
fn encode_predictions(id: &str, version: &str, predictions: Vec<f64>) -> String {
    fn sanitize(v: serde_json::Value) -> serde_json::Value {
        match v {
            serde_json::Value::Float(f) if !f.is_finite() => serde_json::Value::Null,
            serde_json::Value::Array(items) => {
                serde_json::Value::Array(items.into_iter().map(sanitize).collect())
            }
            serde_json::Value::Object(m) => serde_json::Value::Object(
                m.iter()
                    .map(|(k, val)| (k.to_string(), sanitize(val.clone())))
                    .collect(),
            ),
            other => other,
        }
    }
    let n = predictions.len();
    let value = serde_json::json!({
        "model_id": id,
        "version": version,
        "n_points": n,
        "predictions": predictions,
    });
    serde_json::to_string(&sanitize(value)).unwrap_or_default()
}

/// Replays one predict request in-process, one span per layer.
fn replay_predict(
    t: &mut Tracer,
    group: u64,
    request: &[u8],
    registry: &ModelRegistry,
) -> Result<(), String> {
    let mut carry = request.to_vec();
    t.span("serve.replay", group, |t| {
        let req = t.span("serve.http_parse", group, |_| {
            http::read_request_buffered(
                &mut carry,
                &mut std::io::empty(),
                http::DEFAULT_MAX_BODY_BYTES,
            )
        });
        let req = req.map_err(|e| e.message())?;
        let Ok(Route::Predict(id)) =
            t.span("serve.route", group, |_| route(&req.method, &req.path))
        else {
            return Err("replayed request did not route to predict".to_string());
        };
        let stored = t
            .span("serve.registry_get", group, |_| registry.get(&id, None))
            .ok_or("replayed model id is not registered")?;
        let points = t.span("serve.json_decode", group, |_| {
            let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
            let points: Vec<Vec<f64>> =
                Deserialize::from_value(&v["points"]).map_err(|e: serde::Error| e.to_string())?;
            Ok::<_, String>(points)
        })?;
        let model = stored.artifact.best();
        t.span("core.tape_compile", group, |_| {
            let ctx = EvalContext::new(model.weight_config);
            for (b, &c) in model.bases.iter().zip(&model.coefficients[1..]) {
                if c != 0.0 {
                    std::hint::black_box(Tape::compile(b, &ctx));
                }
            }
        });
        let predictions = t
            .span("core.predict", group, |_| {
                stored.artifact.predict(None, &points)
            })
            .map_err(|e| e.to_string())?;
        let body = t.span("serve.json_encode", group, |_| {
            encode_predictions(&id, &stored.version, predictions)
        });
        t.span("serve.http_write", group, |_| {
            let mut out = Vec::with_capacity(body.len() + 256);
            Response::json(200, body)
                .with_header("x-model-version", stored.version.clone())
                .with_header("x-request-id", "0123456789abcdef")
                .with_header(
                    "traceparent",
                    "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00",
                )
                .write_to(&mut out, true)
                .map_err(|e| e.to_string())
        })
    })
}

/// Replays one publish in-process into a private registry.
fn replay_publish(
    t: &mut Tracer,
    group: u64,
    request: &[u8],
    registry: &ModelRegistry,
) -> Result<(), String> {
    let mut carry = request.to_vec();
    let req = http::read_request_buffered(
        &mut carry,
        &mut std::io::empty(),
        http::DEFAULT_MAX_BODY_BYTES,
    )
    .map_err(|e| e.message())?;
    let Ok(Route::PublishModel(id)) = route(&req.method, &req.path) else {
        return Err("replayed request did not route to publish".into());
    };
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    t.span("serve.publish", group, |_| {
        let artifact = ModelArtifact::from_json(text).map_err(|e| e.to_string())?;
        registry.publish(&id, artifact).map_err(|e| e.message)
    })?;
    Ok(())
}

/// A running daemon.
struct Daemon {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: THREADS,
            logger: Logger::stderr(Level::Warn, LogFormat::Text),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Daemon { handle, thread })
    }

    /// Drains and joins the daemon; its clients must have disconnected.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// What the client threads share within one window.
struct Loop<'f> {
    fleet: &'f Fleet,
    plan: ServePlan,
    registry: Arc<ModelRegistry>,
}

impl Loop<'_> {
    /// Publishes the next version of `served`; `timed` publishes count in
    /// `publish_p50_us`.
    fn publish(
        &self,
        client: &mut Client,
        served: &Served,
        stats: &mut ClientStats,
        t: &mut Tracer,
    ) {
        let v = served.next_variant.fetch_add(1, Ordering::Relaxed) % VARIANTS;
        let variant = &served.variants[v];
        stats.attempted += 1;
        let started = Instant::now();
        let outcome = client.exchange(&variant.request);
        let elapsed = started.elapsed();
        match outcome.and_then(|r| check_publish(&r, &variant.version)) {
            Ok(()) => stats.publish_us.push(elapsed.as_secs_f64() * 1e6),
            Err(e) => stats.fail(format!("publish {}: {e}", served.id)),
        }
        if t.enabled() {
            let private = ModelRegistry::in_memory();
            let group = t.new_group();
            if let Err(e) = replay_publish(t, group, &variant.request, &private) {
                stats.fail(format!("publish replay: {e}"));
            }
        }
    }

    /// One predict: send, time, gate, and (traced) replay.
    fn predict(
        &self,
        client: &mut Client,
        k: usize,
        stats: &mut ClientStats,
        expected: &mut Expected,
        t: &mut Tracer,
        timed: bool,
    ) {
        let n_ids = self.fleet.served.len();
        let served = &self.fleet.served[k % n_ids];
        let batch = (k / n_ids) % self.fleet.batches.len();
        let request = &served.requests[batch];
        stats.attempted += 1;
        let started = Instant::now();
        let outcome = client.exchange(request);
        let ended = Instant::now();
        let reply = match outcome {
            Ok(r) => r,
            Err(e) => return stats.fail(format!("predict {}: {e}", served.id)),
        };
        match check_predict(&reply, self.fleet, expected, batch) {
            Ok(points) if timed => {
                stats.rtt_us.push((ended - started).as_secs_f64() * 1e6);
                stats.points_ok += points as u64;
                stats.bytes_in += request.len() as u64;
                stats.bytes_out += reply.bytes as u64;
                stats.predicts += 1;
                stats.last_end = Some(ended);
            }
            Ok(_) => {}
            Err(e) => return stats.fail(format!("predict {}: {e}", served.id)),
        }
        if timed && t.enabled() {
            let group = t.new_group();
            t.record("serve.rtt", group, started, ended);
            if let Err(e) = replay_predict(t, group, request, &self.registry) {
                stats.fail(format!("predict replay: {e}"));
            }
        }
    }

    /// Untimed publishes of every id, then untimed predicts from every
    /// client: brings a fresh daemon to its serving state.
    fn prime(&self, clients: &mut [Client], stats: &mut ClientStats, warmup: usize) {
        let mut untraced = Tracer::new(false, Instant::now(), 0);
        let published = stats.publish_us.len();
        for served in &self.fleet.served {
            self.publish(&mut clients[0], served, stats, &mut untraced);
        }
        stats.publish_us.truncate(published);
        let mut expected = Expected::new();
        let n = clients.len();
        for (c, client) in clients.iter_mut().enumerate() {
            for j in 0..warmup {
                self.predict(
                    client,
                    j * n + c,
                    stats,
                    &mut expected,
                    &mut untraced,
                    false,
                );
            }
        }
    }

    /// The closed loop of client `c` until `deadline`; `j` counts its
    /// operations across windows.
    fn run_client(
        &self,
        client: &mut Client,
        c: usize,
        j: &mut usize,
        deadline: Instant,
        t: &mut Tracer,
    ) -> ClientStats {
        let mut stats = ClientStats::default();
        let mut expected = Expected::new();
        let clients = THREADS;
        let rotations_before = client.rotations;
        while Instant::now() < deadline {
            let k = *j * clients + c;
            *j += 1;
            let every = self.plan.publish_every;
            if every > 0 && k % every == every - 1 {
                let served = &self.fleet.served[(k / every) % self.fleet.served.len()];
                self.publish(client, served, &mut stats, t);
            } else {
                self.predict(client, k, &mut stats, &mut expected, t, true);
            }
        }
        stats.rotations = client.rotations - rotations_before;
        stats
    }
}

/// Runs the serving phase as a series of windows. Each window starts a
/// fresh daemon, publishes every id and warms it up, makes its timed
/// publishes, runs the closed loop, and drains the daemon. The first
/// window's start, publish and warm-up is the set-up.
///
/// A fresh daemon per window matters on a 2-core host: where the
/// scheduler places the worker threads sets the round trip for seconds at
/// a time (up to 1.6× apart), so each window draws a new placement and
/// the metrics average over many.
///
/// # Errors
///
/// A message when a daemon cannot be started or stopped.
pub fn run_serving(
    fleet: &Fleet,
    plan: &ServePlan,
    tracer: &mut Tracer,
) -> Result<ServeOutcome, String> {
    let windows = ((plan.seconds / plan.window_s()).round() as usize).max(1);
    let window = Duration::from_secs_f64(plan.seconds / windows as f64);
    let mut total = ClientStats::default();
    let mut setup_s = 0.0;
    let (mut window_p50_us, mut window_tail_us, mut window_points_per_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut ops = [0usize; THREADS];
    for w in 0..windows {
        let setup_started = Instant::now();
        let daemon = Daemon::start()?;
        let state = Loop {
            fleet,
            plan: *plan,
            registry: Arc::clone(&daemon.handle.shared().registry),
        };
        let addr = daemon.handle.addr();
        let mut clients: Vec<Client> = (0..THREADS).map(|_| Client::new(addr)).collect();
        let warmup = if w == 0 { WARMUP } else { REWARM };
        state.prime(&mut clients, &mut total, warmup);
        if w == 0 {
            setup_s = setup_started.elapsed().as_secs_f64();
        }

        for r in 0..PUBLISHES_PER_WINDOW {
            let n = w * PUBLISHES_PER_WINDOW + r;
            let served = &fleet.served[n % fleet.served.len()];
            state.publish(&mut clients[0], served, &mut total, tracer);
        }
        let barrier = Barrier::new(THREADS);
        let started = Instant::now();
        let deadline = started + window;
        let results: Vec<(ClientStats, Tracer)> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .iter_mut()
                .zip(ops.iter_mut())
                .enumerate()
                .map(|(c, (client, j))| {
                    let mut t = tracer.fork();
                    let (state, barrier) = (&state, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let stats = state.run_client(client, c, j, deadline, &mut t);
                        (stats, t)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut window_stats = ClientStats::default();
        for (s, t) in results {
            window_stats.merge(s);
            tracer.absorb(t);
        }
        if let Some(p50) = stats::median(&window_stats.rtt_us) {
            window_p50_us.push(p50);
        }
        if let Some(tail) = stats::tail_percentile(&window_stats.rtt_us, 99.0) {
            window_tail_us.push(tail);
        }
        let elapsed = window_stats.last_end.map_or(window, |end| end - started);
        window_points_per_s.push(window_stats.points_ok as f64 / elapsed.as_secs_f64());
        total.merge(window_stats);
        drop(clients);
        daemon.stop()?;
    }

    Ok(ServeOutcome {
        setup_s,
        rtt_us: total.rtt_us,
        window_p50_us,
        window_tail_us,
        window_points_per_s,
        publish_us: total.publish_us,
        attempted: total.attempted,
        failed: total.failed,
        failures: total.failures,
        bytes_in: total.bytes_in,
        bytes_out: total.bytes_out,
        predicts: total.predicts,
        reconnects: total.rotations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thin_front_keeps_ends_and_caps_size() {
        let model = |e: f64| Model::new(vec![], vec![e], Default::default()).with_metrics(e, e);
        let front: Vec<Model> = (0..37).map(|i| model(i as f64)).collect();
        let thin = thin_front(&front);
        assert_eq!(thin.len(), FRONT_MODELS);
        assert_eq!(thin[0].train_error, 0.0);
        assert_eq!(thin[FRONT_MODELS - 1].train_error, 36.0);
        assert_eq!(thin_front(&front[..4]).len(), 4);
    }

    #[test]
    fn encoded_predictions_carry_null_for_non_finite_values() {
        let text = encode_predictions("m", "v", vec![1.5, f64::NAN, f64::INFINITY]);
        assert!(text.contains("[1.5,null,null]"), "{text}");
    }
}
