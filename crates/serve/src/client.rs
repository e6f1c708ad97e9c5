//! A minimal blocking HTTP/1.1 client for the daemon's own API — used by
//! `caffeine-cli predict --remote` / `jobs`, the load generator, and the
//! integration tests.
//!
//! [`Connection`] keeps one TCP connection open and reuses it across
//! requests (matching the server's keep-alive support), framing each
//! response by its `Content-Length` and reconnecting transparently when
//! the server closes (request cap reached, idle timeout, old server).
//! [`request`] is the one-shot convenience built on top. [`sse_tail`]
//! consumes a chunked `text/event-stream` response event by event, and
//! [`watch_job`] wraps it with reconnect-and-resume over the server's
//! replay history. [`Connection::request_traced_with_retry`] layers a
//! [`RetryPolicy`] — capped exponential backoff with deterministic
//! jitter, `Retry-After` honoring, per-request deadlines — over the
//! basic request path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use caffeine_obs::TraceContext;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }

    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` header in seconds, when present and numeric —
    /// overload responses (429/503) carry it.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after")?.trim().parse().ok()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// A message when the body is not JSON.
    pub fn json(&self) -> Result<serde_json::Value, String> {
        serde_json::from_str(&self.text()).map_err(|e| e.to_string())
    }
}

/// Splits `http://host:port[/base]` into `(host:port, base_path)`.
///
/// # Errors
///
/// A message for non-`http://` schemes or a missing authority.
pub fn parse_base_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("`{url}`: only http:// URLs are supported"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].trim_end_matches('/')),
        None => (rest, ""),
    };
    if authority.is_empty() {
        return Err(format!("`{url}`: missing host"));
    }
    Ok((authority.to_string(), path.to_string()))
}

/// A persistent keep-alive connection to one server.
#[derive(Debug)]
pub struct Connection {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Connection {
    /// Creates a (lazily connected) connection to `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Connection {
        Connection {
            addr: addr.into(),
            timeout,
            stream: None,
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Performs one request, reusing the open connection when possible.
    ///
    /// When the reused socket turns out to be dead (the server closed it
    /// after its request cap or idle timeout), the request is retried
    /// once on a fresh connection — but only when that is provably safe:
    /// always when the *write* failed (the server never saw the full
    /// request), and on a dead read only for idempotent methods. A `POST`
    /// whose response never arrived is NOT retried, since the server may
    /// have executed it (e.g. spawned a job) before dying.
    ///
    /// # Errors
    ///
    /// Transport failures and unparseable responses as `io::Error`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<ClientResponse> {
        self.request_traced(method, path, body, TraceContext::mint())
    }

    /// Like [`Connection::request`], but propagating the caller's trace
    /// context instead of minting one. A context with `sampled` set asks
    /// the server to retain the trace regardless of its sampling policy.
    ///
    /// # Errors
    ///
    /// Transport failures and unparseable responses as `io::Error`.
    pub fn request_traced(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        ctx: TraceContext,
    ) -> std::io::Result<ClientResponse> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body, ctx) {
            Ok(r) => Ok(r),
            Err((phase, e)) if reused && is_stale_socket(&e) && phase.retry_safe(method) => {
                self.stream = None;
                self.try_request(method, path, body, ctx)
                    .map_err(|(_, e)| e)
            }
            Err((_, e)) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Like [`Connection::request_traced`], but under a [`RetryPolicy`]:
    /// transport failures back off and retry when a repeat is provably
    /// safe, and overload answers (429/503) are retried after honoring
    /// the server's `Retry-After` (capped at the policy's
    /// `max_backoff`) or, absent one, the computed backoff.
    ///
    /// Retrying after a *received* 429/503 is safe for any method —
    /// including POST — because a response in hand proves the server
    /// refused the request without executing it. Transport failures
    /// keep the phase rule: a write-phase failure retries any method, a
    /// read-phase failure only idempotent ones (or any, when the policy
    /// opts into `assume_idempotent`).
    ///
    /// Every attempt reuses the caller's trace context `ctx`, so the
    /// server's trace shows the retries as siblings of one client span.
    ///
    /// # Errors
    ///
    /// The final attempt's transport failure once attempts or the
    /// deadline run out, or immediately when a retry would be unsafe.
    pub fn request_traced_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        ctx: TraceContext,
        policy: &RetryPolicy,
    ) -> std::io::Result<ClientResponse> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_request(method, path, body, ctx) {
                Ok(r) if matches!(r.status, 429 | 503) && attempt < policy.max_attempts => {
                    let wait = r
                        .retry_after()
                        .map(Duration::from_secs)
                        .unwrap_or_else(|| policy.backoff(attempt))
                        .min(policy.max_backoff);
                    if start.elapsed() + wait >= policy.deadline {
                        return Ok(r); // surface the overload answer
                    }
                    std::thread::sleep(wait);
                }
                Ok(r) => return Ok(r),
                Err((phase, e)) => {
                    self.stream = None;
                    let safe = phase.retry_safe(method) || policy.assume_idempotent;
                    if !safe || attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    let wait = policy.backoff(attempt);
                    if start.elapsed() + wait >= policy.deadline {
                        return Err(e);
                    }
                    std::thread::sleep(wait);
                }
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        ctx: TraceContext,
    ) -> Result<ClientResponse, (RequestPhase, std::io::Error)> {
        let addr = self.addr.clone();
        let writing = |e| (RequestPhase::Write, e);
        let stream = self.connect().map_err(writing)?;
        let body = body.unwrap_or(&[]);
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ntraceparent: {}\r\ncontent-length: {}\r\n\r\n",
            ctx.traceparent(),
            body.len()
        )
        .map_err(writing)?;
        stream.write_all(body).map_err(writing)?;
        stream.flush().map_err(writing)?;
        let (response, server_keeps) =
            read_framed_response(stream).map_err(|e| (RequestPhase::Read, e))?;
        if !server_keeps {
            self.stream = None;
        }
        Ok(response)
    }
}

/// How a client request retries: capped exponential backoff with
/// deterministic jitter, bounded by an attempt count and a per-request
/// wall-clock deadline.
///
/// The jitter stream is a pure function of `(seed, attempt)`, so a test
/// (or an incident replay) that fixes the seed reproduces the exact
/// same backoff schedule every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff, including server `Retry-After`.
    pub max_backoff: Duration,
    /// Wall-clock budget for the whole request, sleeps included. When
    /// the next backoff would cross it, the last result is returned
    /// instead of sleeping.
    pub deadline: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
    /// Callers who *know* their POST is safe to repeat (e.g. a pure
    /// prediction) may opt into read-phase retries for it. Off by
    /// default: the "never silently double-execute a POST" rule.
    pub assume_idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(60),
            seed: 0,
            assume_idempotent: false,
        }
    }
}

impl RetryPolicy {
    /// The backoff slept after attempt `attempt` (1-based) fails:
    /// `base · 2^(attempt-1)`, capped at `max_backoff`, scaled by a
    /// deterministic jitter factor in `[0.5, 1.0)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let exp = self.base_backoff.saturating_mul(1u32 << doublings);
        exp.min(self.max_backoff).mul_f64(self.jitter(attempt))
    }

    /// Jitter factor in `[0.5, 1.0)` for `attempt` — splitmix64 over
    /// `(seed, attempt)`, so the schedule replays exactly per seed.
    fn jitter(&self, attempt: u32) -> f64 {
        let bits = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        0.5 + 0.5 * ((bits >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Splitmix64 finalizer: the client's only randomness, and it is not
/// random at all — a fixed permutation of its input, used to derive the
/// reproducible jitter stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where a request attempt failed, which decides whether a retry on a
/// fresh connection can double-execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestPhase {
    /// The request never fully left: retrying is safe for any method.
    Write,
    /// The request was sent but the response never arrived: retrying is
    /// only safe for idempotent methods.
    Read,
}

impl RequestPhase {
    fn retry_safe(self, method: &str) -> bool {
        match self {
            RequestPhase::Write => true,
            RequestPhase::Read => matches!(method, "GET" | "HEAD" | "PUT" | "DELETE"),
        }
    }
}

/// Performs one request against `addr` (a `host:port` string) on a fresh
/// connection that is closed afterwards.
///
/// # Errors
///
/// Transport failures and unparseable responses as `io::Error`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request_traced(addr, method, path, body, timeout, TraceContext::mint())
}

/// Like [`request`], but propagating the caller's trace context. A
/// context with `sampled` set asks the server to retain the trace
/// regardless of its sampling policy.
///
/// # Errors
///
/// Transport failures and unparseable responses as `io::Error`.
pub fn request_traced(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
    ctx: TraceContext,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;

    let body = body.unwrap_or(&[]);
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ntraceparent: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        ctx.traceparent(),
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;

    let (response, _keeps) = read_framed_response(&mut stream)?;
    Ok(response)
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// `true` for failures that mean the reused socket was already dead —
/// the only failures [`Connection::request`] may transparently retry.
fn is_stale_socket(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
    ) || (e.kind() == std::io::ErrorKind::InvalidData
        && e.to_string().contains("before a full response head"))
}

/// `true` for failures that mean the SSE stream was severed mid-flight
/// — the failures [`watch_job`] heals by reconnecting. Broader than
/// [`is_stale_socket`]: a cut can land mid-chunk (`InvalidData` from
/// the dechunker), and a proxy or daemon restart can refuse the dial.
fn is_cut_stream(e: &std::io::Error) -> bool {
    is_stale_socket(e)
        || matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::NotConnected
        )
        || (e.kind() == std::io::ErrorKind::InvalidData
            && e.to_string().contains("connection closed mid-"))
}

/// Reads `head bytes + \r\n\r\n` from the stream, then exactly the
/// declared `Content-Length` body bytes. Returns the response and whether
/// the server will keep the connection open.
fn read_framed_response(stream: &mut TcpStream) -> std::io::Result<(ClientResponse, bool)> {
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before a full response head"));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line `{status_line}`")))?;
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (n, v) = l.split_once(':')?;
            Some((n.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    let header = |name: &str| -> Option<&str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let keeps = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    let content_length: usize = match header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| invalid(format!("bad content-length `{v}`")))?,
        // Streamed (chunked) or legacy close-delimited bodies: read to
        // EOF. Such responses never keep the connection alive.
        None => {
            let mut body = raw[head_end + 4..].to_vec();
            stream.read_to_end(&mut body)?;
            return Ok((
                ClientResponse {
                    status,
                    headers,
                    body,
                },
                false,
            ));
        }
    };
    let mut body = raw[head_end + 4..].to_vec();
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(invalid("connection closed mid-response-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((
        ClientResponse {
            status,
            headers,
            body,
        },
        keeps,
    ))
}

/// One server-sent event as parsed off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseEvent {
    /// The `id:` field when present and numeric — the frame's position
    /// in the job's stream, used by [`watch_job`] to discard frames it
    /// already delivered before a reconnect.
    pub id: Option<u64>,
    /// The `event:` field (empty when the frame had none).
    pub event: String,
    /// The concatenated `data:` lines.
    pub data: String,
}

/// Opens `GET path` against `addr` and feeds each SSE frame to
/// `on_event` until the callback returns `false`, the stream ends, or
/// `timeout` passes without a byte. Comment frames (`: keep-alive`) are
/// skipped.
///
/// # Errors
///
/// Transport failures as `io::Error`; a non-200 status as
/// `io::ErrorKind::InvalidData` with the status in the message.
pub fn sse_tail(
    addr: &str,
    path: &str,
    timeout: Duration,
    mut on_event: impl FnMut(&SseEvent) -> bool,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\naccept: text/event-stream\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )?;
    stream.flush()?;

    // Head: read until the blank line, check status + chunked encoding.
    let mut raw = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        if raw.len() > 16 * 1024 {
            return Err(invalid("response head too large"));
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(invalid("connection closed before a full response head"));
        }
        raw.push(byte[0]);
    }
    let head = std::str::from_utf8(&raw).map_err(|_| invalid("response head is not UTF-8"))?;
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    if status != 200 {
        // Drain what the server sent so the error can carry the body.
        let mut body = Vec::new();
        let _ = stream.read_to_end(&mut body);
        return Err(invalid(format!(
            "server answered {status}: {}",
            String::from_utf8_lossy(&body)
        )));
    }
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");

    let mut dechunked: Vec<u8> = Vec::new();
    let mut consumed = 0usize; // bytes of `dechunked` already parsed into frames
    let mut chunk_buf = Vec::new();
    loop {
        let ended = if chunked {
            read_one_chunk(&mut stream, &mut chunk_buf)?
        } else {
            let mut buf = [0u8; 1024];
            let n = stream.read(&mut buf)?;
            chunk_buf.clear();
            chunk_buf.extend_from_slice(&buf[..n]);
            n == 0
        };
        dechunked.extend_from_slice(&chunk_buf);
        // Frames are terminated by a blank line.
        while let Some(end) = find_frame_end(&dechunked[consumed..]) {
            let frame = &dechunked[consumed..consumed + end];
            consumed += end;
            if let Some(event) = parse_sse_frame(frame) {
                if !on_event(&event) {
                    return Ok(());
                }
            }
        }
        if consumed > 0 {
            dechunked.drain(..consumed);
            consumed = 0;
        }
        if ended {
            return Ok(());
        }
    }
}

/// Options for [`watch_job`]: the per-read timeout of each underlying
/// stream plus the policy bounding reconnect attempts and backoff.
#[derive(Debug, Clone, Copy)]
pub struct WatchOptions {
    /// Read timeout of each SSE connection — must exceed the server's
    /// 1s heartbeat cadence to tell "slow" from "dead".
    pub timeout: Duration,
    /// Bounds reconnects: `max_attempts` consecutive no-progress
    /// reconnects end the watch, with `backoff()` slept between them.
    /// The policy's `deadline` does not apply — a healthy watch may
    /// legitimately run for hours.
    pub retry: RetryPolicy,
}

impl Default for WatchOptions {
    fn default() -> WatchOptions {
        WatchOptions {
            timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }
}

/// Tails a job's SSE stream like [`sse_tail`], but *survives cut
/// streams*: on a transport failure — or a stream the server ends while
/// the caller still wants more — it reconnects, resumes from the
/// server's replay history, and uses the frames' `id:` sequence to
/// deliver each published frame at most once. Unsequenced frames (the
/// per-subscription `snapshot`) are delivered on every connection,
/// which is exactly what a watcher wants after a gap.
///
/// The watch ends when the callback returns `false` (`Ok`), when
/// `retry.max_attempts` consecutive reconnects yield no new frames
/// (`Ok` for clean stream ends, the last error otherwise), or when the
/// server answers a reconnect with a non-200 (`Err` — e.g. the job was
/// deleted mid-watch).
///
/// # Errors
///
/// Transport failures once reconnect attempts are exhausted; a non-200
/// status as `io::ErrorKind::InvalidData` with the status in the
/// message.
pub fn watch_job(
    addr: &str,
    path: &str,
    opts: &WatchOptions,
    mut on_event: impl FnMut(&SseEvent) -> bool,
) -> std::io::Result<()> {
    let mut last_id: Option<u64> = None;
    let mut stopped = false;
    let mut no_progress = 0u32; // consecutive connections with no new frame
    loop {
        let seen_before = last_id;
        let result = sse_tail(addr, path, opts.timeout, |event| {
            if let Some(id) = event.id {
                if last_id.is_some_and(|seen| id <= seen) {
                    return true; // replayed frame already delivered
                }
                last_id = Some(id);
            }
            if !on_event(event) {
                stopped = true;
            }
            !stopped
        });
        if stopped {
            return Ok(());
        }
        let progressed = last_id != seen_before;
        no_progress = if progressed { 0 } else { no_progress + 1 };
        match result {
            // The server ended the stream but the caller wants more: a
            // dropped (lagging) watcher or a finished job's replay.
            // Reconnect while new frames keep arriving; stop once the
            // stream is evidently drained.
            Ok(()) => {
                if no_progress >= opts.retry.max_attempts {
                    return Ok(());
                }
            }
            Err(e) if is_cut_stream(&e) => {
                if no_progress >= opts.retry.max_attempts {
                    return Err(e);
                }
            }
            // Non-transport failures (4xx/5xx answers, protocol
            // violations) will not heal by reconnecting.
            Err(e) => return Err(e),
        }
        std::thread::sleep(opts.retry.backoff(no_progress.max(1)));
    }
}

/// Reads one `<hex len>\r\n<bytes>\r\n` chunk into `out` (cleared first).
/// Returns `true` on the terminating zero-length chunk.
fn read_one_chunk(stream: &mut TcpStream, out: &mut Vec<u8>) -> std::io::Result<bool> {
    out.clear();
    let mut size_line = Vec::new();
    let mut byte = [0u8; 1];
    while !size_line.ends_with(b"\r\n") {
        if size_line.len() > 32 {
            return Err(invalid("chunk size line too long"));
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(invalid("connection closed mid-chunk-size"));
        }
        size_line.push(byte[0]);
    }
    let size_text = std::str::from_utf8(&size_line[..size_line.len() - 2])
        .map_err(|_| invalid("chunk size is not UTF-8"))?;
    let size = usize::from_str_radix(size_text.trim(), 16)
        .map_err(|_| invalid(format!("bad chunk size `{size_text}`")))?;
    let mut remaining = size + 2; // data + trailing CRLF
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        let want = remaining.min(buf.len());
        let n = stream.read(&mut buf[..want])?;
        if n == 0 {
            return Err(invalid("connection closed mid-chunk"));
        }
        out.extend_from_slice(&buf[..n]);
        remaining -= n;
    }
    out.truncate(size); // drop the trailing CRLF
    Ok(size == 0)
}

/// Index just past the `\n\n` (or `\r\n\r\n`) frame terminator.
fn find_frame_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i + 1 < buf.len() {
        if buf[i] == b'\n' && buf[i + 1] == b'\n' {
            return Some(i + 2);
        }
        if i + 3 < buf.len() && &buf[i..i + 4] == b"\r\n\r\n" {
            return Some(i + 4);
        }
        i += 1;
    }
    None
}

/// Parses one SSE frame; `None` for comment-only frames.
fn parse_sse_frame(frame: &[u8]) -> Option<SseEvent> {
    let text = String::from_utf8_lossy(frame);
    let mut id = None;
    let mut event = String::new();
    let mut data_lines: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("event:") {
            event = v.trim().to_string();
        } else if let Some(v) = line.strip_prefix("data:") {
            data_lines.push(v.trim());
        } else if let Some(v) = line.strip_prefix("id:") {
            id = v.trim().parse().ok();
        }
        // Lines starting with ':' are comments; ignore everything else.
    }
    if event.is_empty() && data_lines.is_empty() {
        return None;
    }
    Some(SseEvent {
        id,
        event,
        data: data_lines.join("\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_urls_parse() {
        assert_eq!(
            parse_base_url("http://127.0.0.1:7878").unwrap(),
            ("127.0.0.1:7878".into(), String::new())
        );
        assert_eq!(
            parse_base_url("http://example.com:80/api/").unwrap(),
            ("example.com:80".into(), "/api".into())
        );
        assert!(parse_base_url("https://x").is_err());
        assert!(parse_base_url("http://").is_err());
    }

    #[test]
    fn response_headers_and_retry_after_parse() {
        let r = ClientResponse {
            status: 429,
            headers: vec![
                ("content-type".into(), "application/json".into()),
                ("retry-after".into(), "7".into()),
            ],
            body: Vec::new(),
        };
        assert_eq!(r.header("Retry-After"), Some("7"));
        assert_eq!(r.retry_after(), Some(7));
        let none = ClientResponse {
            status: 200,
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(none.retry_after(), None);
    }

    #[test]
    fn sse_frames_parse() {
        let e = parse_sse_frame(b"event: progress\ndata: {\"generation\":3}\n").unwrap();
        assert_eq!(e.event, "progress");
        assert_eq!(e.data, "{\"generation\":3}");
        assert_eq!(e.id, None);
        assert!(parse_sse_frame(b": keep-alive\n").is_none());
        let e = parse_sse_frame(b"data: a\ndata: b\n").unwrap();
        assert_eq!(e.event, "");
        assert_eq!(e.data, "a\nb");
        let e = parse_sse_frame(b"id: 42\nevent: progress\ndata: {}\n").unwrap();
        assert_eq!(e.id, Some(42));
        // A non-numeric id is ignored rather than failing the frame.
        let e = parse_sse_frame(b"id: abc\nevent: progress\ndata: {}\n").unwrap();
        assert_eq!(e.id, None);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(1),
            seed: 7,
            ..RetryPolicy::default()
        };
        // Same (seed, attempt) ⇒ same duration, run after run.
        for attempt in 1..10 {
            assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
        }
        // Jitter keeps each backoff in [half, full) of the capped value.
        for (attempt, cap_ms) in [(1u32, 100u64), (2, 200), (3, 400), (4, 800), (5, 1000)] {
            let b = policy.backoff(attempt);
            let cap = Duration::from_millis(cap_ms);
            assert!(b >= cap / 2 && b < cap, "attempt {attempt}: {b:?}");
        }
        // Deep attempts stay at the cap (no overflow).
        assert!(policy.backoff(u32::MAX) <= Duration::from_secs(1));
        // A different seed yields a different schedule somewhere.
        let other = RetryPolicy { seed: 8, ..policy };
        assert!((1..10).any(|a| other.backoff(a) != policy.backoff(a)));
    }

    #[test]
    fn frame_ends_are_found() {
        assert_eq!(find_frame_end(b"data: x\n\nrest"), Some(9));
        assert_eq!(find_frame_end(b"data: x\r\n\r\nrest"), Some(11));
        assert_eq!(find_frame_end(b"data: x\n"), None);
    }
}
