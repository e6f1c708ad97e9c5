//! The daemon: TCP accept loop, bounded dispatch, graceful drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caffeine_obs::{
    Level, LogFormat, Logger, SpanKind, TraceContext, TraceSpan, TraceStore, TraceStoreConfig,
};

use crate::error::ApiError;
use crate::handlers;
use crate::http::{self, HttpError, Response};
use crate::jobs::JobManager;
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::registry::ModelRegistry;
use crate::sse::SseStreamer;

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Registry/checkpoint directory; `None` serves purely in memory.
    pub model_dir: Option<PathBuf>,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Pending-connection queue bound (beyond it: 503).
    pub backlog: usize,
    /// Per-request body cap in bytes.
    pub max_body_bytes: usize,
    /// Socket read/write timeout for an in-flight request.
    pub io_timeout: Duration,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server answers
    /// `Connection: close` (bounds how long one client can pin a
    /// worker; clamped to ≥ 1).
    pub max_conn_requests: usize,
    /// Job-record capacity of the bounded job store (clamped to ≥ 1;
    /// submissions beyond it evict terminal records or answer 429).
    pub max_jobs: usize,
    /// Concurrently *running* GP jobs; submissions beyond this queue
    /// (FIFO) instead of spawning threads. `0` means "same as `workers`".
    pub max_running_jobs: usize,
    /// Structured logger every request and handler logs through
    /// (stderr text at `info` by default; tests inject a capture).
    pub logger: Logger,
    /// Requests slower than this additionally log a `http.slow` warning
    /// (and their traces are always retained by tail sampling).
    pub slow_request: Duration,
    /// Completed traces retained by the in-process trace store
    /// (ring-buffered; clamped to ≥ 1).
    pub trace_capacity: usize,
    /// Fraction of unremarkable traces (fast, ok, not explicitly
    /// requested) retained, `0.0..=1.0`. Slow/errored/requested traces
    /// are always kept.
    pub trace_sample_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            model_dir: None,
            workers: 4,
            backlog: 64,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_conn_requests: 100,
            max_jobs: 64,
            max_running_jobs: 0,
            logger: Logger::stderr(Level::Info, LogFormat::Text),
            slow_request: Duration::from_secs(1),
            trace_capacity: 256,
            trace_sample_rate: 0.1,
        }
    }
}

/// State shared by every worker: registry, jobs, metrics, the SSE
/// streamer, shutdown flag.
#[derive(Debug)]
pub struct Shared {
    /// The model registry.
    pub registry: Arc<ModelRegistry>,
    /// The job manager.
    pub jobs: JobManager,
    /// Observability counters.
    pub metrics: Arc<Metrics>,
    /// The dedicated SSE streamer thread owning all event-stream
    /// connections (so they never pin pool workers).
    pub sse: SseStreamer,
    /// Bounded tail-sampling store of completed request/job traces.
    pub traces: Arc<TraceStore>,
    config: ServeConfig,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Set once construction finished loading the registry and adopting
    /// orphaned jobs — `/readyz` reports 503 until then and during drain.
    ready: AtomicBool,
}

impl Shared {
    /// Flags the accept loop to stop and pokes it awake with a local
    /// connection so it notices immediately.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop may be blocked in `accept`; a throwaway
        // connection wakes it. Failure is fine — the flag alone stops the
        // loop on the next accepted connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
    }

    /// `true` once draining started.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Readiness for `/readyz`: `Ok` once the registry is loaded and the
    /// scheduler is accepting work, `Err(reason)` before that or while
    /// draining.
    pub fn readiness(&self) -> Result<(), &'static str> {
        if self.is_shutting_down() {
            Err("draining")
        } else if self.ready.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err("starting")
        }
    }

    /// The server's structured logger.
    pub fn logger(&self) -> &Logger {
        &self.config.logger
    }
}

/// A handle for stopping a server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins a graceful drain: stop accepting, finish in-flight work.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The shared state (registry seeding in tests/benches).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

/// The bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens (or creates) the registry.
    ///
    /// # Errors
    ///
    /// Propagates bind and registry-directory failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = match &config.model_dir {
            Some(dir) => Arc::new(ModelRegistry::open(dir)?),
            None => Arc::new(ModelRegistry::in_memory()),
        };
        let max_running = match config.max_running_jobs {
            0 => config.workers.max(1),
            n => n,
        };
        let traces = Arc::new(TraceStore::new(TraceStoreConfig {
            capacity: config.trace_capacity,
            sample_rate: config.trace_sample_rate,
            slow_threshold: config.slow_request,
        }));
        let jobs = JobManager::new(
            config.model_dir.as_ref().map(|d| d.join(".jobs")),
            config.max_jobs,
            max_running,
        )
        .with_traces(Arc::clone(&traces));
        let metrics = Arc::new(Metrics::new());
        // A previous daemon killed mid-job leaves specs + checkpoints
        // behind; bring those jobs back before accepting traffic so
        // `GET /v1/jobs` never shows an empty store that silently holds
        // orphaned work.
        let adopted = jobs.adopt_orphans(&registry, &metrics);
        if adopted > 0 {
            eprintln!("caffeine-serve: re-adopted {adopted} interrupted job(s) from checkpoints");
        }
        let sse = SseStreamer::new(Arc::clone(&metrics));
        let shared = Arc::new(Shared {
            registry,
            jobs,
            metrics,
            sse,
            traces,
            config,
            local_addr,
            shutdown: AtomicBool::new(false),
            // The registry is open and orphans are adopted by now, so
            // the daemon is born ready; the flag exists so `/readyz`
            // can outlive a future async-init refactor unchanged.
            ready: AtomicBool::new(true),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A stop handle usable from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until shutdown, then drains: the worker pool
    /// finishes queued requests and background jobs are cancelled and
    /// joined.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures (per-connection errors are
    /// absorbed).
    pub fn serve(self) -> std::io::Result<()> {
        let worker_shared = Arc::clone(&self.shared);
        let pool = WorkerPool::new(
            self.shared.config.workers,
            self.shared.config.backlog,
            move |stream: TcpStream| {
                // A panicking handler must cost one request, not one
                // worker — otherwise repeated panics silently shrink the
                // pool until nothing serves.
                let shared = Arc::clone(&worker_shared);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    handle_connection(&shared, stream)
                }));
                if outcome.is_err() {
                    worker_shared
                        .metrics
                        .observe("handler_panic", 500, Duration::ZERO);
                }
            },
        );
        for stream in self.listener.incoming() {
            if self.shared.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    // Transient accept failures (e.g. EMFILE under fd
                    // exhaustion) must not busy-spin the acceptor; a
                    // short pause lets workers close sockets and
                    // recover.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            if let Err(mut stream) = pool.try_execute(stream) {
                // Pool saturated: answer 503 on the acceptor thread (one
                // small write) and close.
                self.shared.metrics.observe_busy();
                write_busy(&mut stream, pool.queued(), self.shared.logger());
            }
        }
        pool.shutdown();
        self.shared.jobs.drain();
        // Jobs are terminal now, so every hub has closed; the streamer
        // flushes what it can and exits.
        self.shared.sse.shutdown();
        Ok(())
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let max_requests = shared.config.max_conn_requests.max(1);

    // Keep-alive loop: serve requests off this connection until the
    // client closes / asks to close, the per-connection budget is spent,
    // the connection idles out, or the server starts draining. The carry
    // buffer holds bytes a pipelining client sent ahead of time.
    let mut served = 0usize;
    let mut carry = Vec::with_capacity(1024);
    loop {
        // Between requests, only the *wait for the first byte* runs on
        // the (usually shorter) idle budget; once a request is in flight
        // its transfer gets the full IO budget again.
        if served > 0 && carry.is_empty() && !wait_for_next_request(shared, &mut stream, &mut carry)
        {
            break;
        }
        let started = Instant::now();
        match http::read_request_buffered(&mut carry, &mut stream, shared.config.max_body_bytes) {
            Ok(request) => {
                served += 1;
                if served > 1 {
                    shared.metrics.observe_keepalive_reuse();
                }
                let keep_alive = served < max_requests
                    && request.wants_keep_alive()
                    && !shared.is_shutting_down();
                // Accept a well-formed client trace id; mint one
                // otherwise. Every response echoes it back.
                let request_id = request
                    .header("x-request-id")
                    .filter(|v| caffeine_obs::valid_request_id(v))
                    .map(str::to_string)
                    .unwrap_or_else(caffeine_obs::request_id);
                // Trace context: continue an inbound W3C `traceparent`
                // (the client's span becomes the root's parent, and its
                // sampled flag means "retain this trace"), mint a fresh
                // trace otherwise. Every response advertises the
                // server-side context back to the caller.
                let parent_ctx = request.header("traceparent").and_then(TraceContext::parse);
                let ctx = parent_ctx.map_or_else(TraceContext::mint, |p| p.child());
                if parent_ctx.is_some_and(|p| p.sampled) {
                    shared.traces.force_keep(ctx.trace_id);
                }
                let mut root_span = shared.traces.span(
                    &format!("http {} {}", request.method, request.path),
                    SpanKind::Server,
                    ctx,
                    parent_ctx.map(|p| p.span_id),
                );
                root_span.attr("request.id", request_id.clone());
                let access = |route, status, bytes_out| Access {
                    request_id: &request_id,
                    route,
                    method: &request.method,
                    path: &request.path,
                    status,
                    elapsed: started.elapsed(),
                    bytes_in: request.body.len(),
                    bytes_out,
                };
                match handlers::handle(shared, &request, &request_id, &mut root_span) {
                    (handlers::Outcome::Response(response), label) => {
                        let response = response
                            .with_header("x-request-id", request_id.clone())
                            .with_header("traceparent", ctx.traceparent());
                        let status = response.status;
                        let bytes_out = response.body.len();
                        let write_ok = response.write_to(&mut stream, keep_alive).is_ok();
                        if status >= 500 {
                            root_span.set_error(format!("http {status}"));
                        }
                        finish_request(shared, root_span, ctx, &access(label, status, bytes_out));
                        if !keep_alive || !write_ok {
                            break;
                        }
                    }
                    (handlers::Outcome::StreamJobEvents(entry), label) => {
                        // Hand the socket to the dedicated streamer so
                        // this worker returns to the pool immediately —
                        // open streams must not occupy workers. Streamed
                        // responses always close when done.
                        root_span.attr("job.id", entry.id.to_string());
                        let done = match shared.sse.adopt(stream, &entry, &request_id) {
                            Ok(()) => access(label, 200, 0),
                            Err((mut returned, e)) => {
                                // The client still deserves a response
                                // (and the metrics the truth) when the
                                // streamer cannot take the connection.
                                let _ = returned.set_nonblocking(false);
                                let response =
                                    ApiError::internal(format!("cannot stream events: {e}"))
                                        .into_response()
                                        .with_header("x-request-id", request_id.clone());
                                let bytes_out = response.body.len();
                                let _ = response.write_to(&mut returned, false);
                                root_span.set_error("cannot stream events");
                                access(label, 500, bytes_out)
                            }
                        };
                        finish_request(shared, root_span, ctx, &done);
                        return;
                    }
                }
            }
            // Nothing (more) is coming: close without a response.
            Err(HttpError::Closed) | Err(HttpError::Idle) => break,
            Err(e) => {
                let (status, code) = match e.status() {
                    Some(413) => (413, "payload_too_large"),
                    Some(501) => (501, "not_implemented"),
                    Some(_) => (400, "bad_request"),
                    // Read timeout / transport error mid-request: try a
                    // 408; the peer is probably gone, so failure to write
                    // is fine.
                    None => (408, "request_timeout"),
                };
                // No request parsed, so there is no client id to accept;
                // the error response still carries a server-minted one.
                let request_id = caffeine_obs::request_id();
                let response = ApiError {
                    status,
                    code,
                    message: e.message(),
                    retry_after: None,
                }
                .into_response()
                .with_header("x-request-id", request_id.clone());
                let bytes_out = response.body.len();
                let _ = response.write_to(&mut stream, false);
                let access = Access {
                    request_id: &request_id,
                    route: "http_error",
                    method: "-",
                    path: "-",
                    status,
                    elapsed: started.elapsed(),
                    bytes_in: 0,
                    bytes_out,
                };
                log_access(shared, &access, false);
                break; // parser state is unknowable; never reuse
            }
        }
    }
    let _ = stream.flush();
}

/// One answered request, as the metrics and the access log record it.
struct Access<'a> {
    request_id: &'a str,
    route: &'static str,
    method: &'a str,
    path: &'a str,
    status: u16,
    elapsed: Duration,
    bytes_in: usize,
    bytes_out: usize,
}

/// The completion every parsed request shares: its root span takes the
/// route and status and finishes, its trace completes unless a submit
/// handler handed it to a job (it then completes when the job does), and
/// the request is counted and logged.
fn finish_request(shared: &Arc<Shared>, mut span: TraceSpan, ctx: TraceContext, access: &Access) {
    span.attr("http.route", access.route);
    span.attr("http.status", access.status.to_string());
    span.finish();
    shared.traces.finish_unless_held(ctx.trace_id);
    log_access(shared, access, true);
}

/// Counts the request in the metrics and emits the one structured
/// `http.access` line every answered request gets, plus an `http.slow`
/// warning when `warn_slow` and it exceeded the configured slow-request
/// threshold. A request that never parsed gets no warning: its slowness
/// is the client's, and a 408 comes only after `io_timeout`, past any
/// sensible threshold.
fn log_access(shared: &Arc<Shared>, access: &Access, warn_slow: bool) {
    shared
        .metrics
        .observe(access.route, access.status, access.elapsed);
    let fields = [
        ("request_id", access.request_id.into()),
        ("route", access.route.into()),
        ("method", access.method.into()),
        ("path", access.path.into()),
        ("status", access.status.into()),
        ("latency_ms", (access.elapsed.as_secs_f64() * 1e3).into()),
        ("bytes_in", access.bytes_in.into()),
        ("bytes_out", access.bytes_out.into()),
    ];
    shared.logger().info("http.access", &fields);
    if warn_slow && access.elapsed >= shared.config.slow_request {
        shared.logger().warn("http.slow", &fields);
    }
}

/// Waits under the idle budget for the first byte of the next kept-alive
/// request, restoring the in-flight IO timeout once it arrives. Returns
/// `false` when the connection should close (idle timeout, peer closed,
/// transport failure) — silently, since no request is in flight.
fn wait_for_next_request(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> bool {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let mut first = [0u8; 1];
    let alive = match stream.read(&mut first) {
        Ok(0) | Err(_) => false,
        Ok(n) => {
            carry.extend_from_slice(&first[..n]);
            true
        }
    };
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    alive
}

/// Writes a bare 503 (used when even queuing was impossible).
///
/// This runs on the **acceptor thread**, so it must never block: a
/// client that connects and then never reads (zero receive window)
/// would otherwise freeze `accept()` for every other client. The
/// response is rendered to a buffer and sent with a single best-effort
/// nonblocking write — a peer too hostile to take ~140 bytes just loses
/// them. `Retry-After` scales with how deep the worker queue already is
/// (clamped to 1..=30 seconds). The request was never parsed, so the
/// `x-request-id` is always server-generated here.
fn write_busy(stream: &mut TcpStream, pool_queued: usize, logger: &Logger) {
    let retry_after = (1 + pool_queued as u64 / 4).min(30);
    let request_id = caffeine_obs::request_id();
    let mut rendered = Vec::with_capacity(256);
    let _ = Response::json(
        503,
        "{\"error\":{\"code\":\"unavailable\",\"message\":\"server is saturated\"}}".into(),
    )
    .with_header("retry-after", retry_after.to_string())
    .with_header("x-request-id", request_id.clone())
    .write_to(&mut rendered, false);
    logger.warn(
        "http.busy",
        &[
            ("request_id", request_id.into()),
            ("queued", pool_queued.into()),
            ("retry_after", retry_after.into()),
        ],
    );
    if stream.set_nonblocking(true).is_ok() {
        let _ = stream.write(&rendered);
    }
}
