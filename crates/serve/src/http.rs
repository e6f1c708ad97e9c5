//! A strict, bounded HTTP/1.x subset: request parsing and response
//! writing over any `Read`/`Write` pair.
//!
//! The parser is deliberately small and paranoid rather than featureful:
//! requests are `METHOD SP TARGET SP HTTP/1.x`, headers are
//! `Name: value`, bodies require `Content-Length`. Everything is
//! bounded — head bytes, header count, body bytes — and every failure is
//! a typed [`HttpError`] mapping to a definite status code, so malformed,
//! truncated, or oversized input can never panic the worker or hold it
//! hostage (callers set socket read timeouts; a timeout surfaces as
//! [`HttpError::Io`]).
//!
//! [`parse_head`] is a pure function over bytes, which is what the
//! property tests hammer; [`read_request_buffered`] layers the socket
//! loop on top.

use std::io::{Read, Write};

/// Hard cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the number of headers.
pub const MAX_HEADERS: usize = 100;
/// Default cap on the body, in bytes (callers can lower it).
pub const DEFAULT_MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parse/transport failure with a definite HTTP status.
#[derive(Debug)]
pub enum HttpError {
    /// 400 — the bytes are not a well-formed request.
    Malformed(String),
    /// 413 — head or declared body exceeds the configured bound.
    TooLarge(String),
    /// 501 — well-formed but using a feature this server does not
    /// implement (e.g. chunked transfer encoding).
    Unsupported(String),
    /// The connection died or timed out mid-request.
    Io(std::io::Error),
    /// The peer closed before sending anything (not an error worth a
    /// response).
    Closed,
    /// A read timed out before the first byte of a request arrived: a
    /// kept-alive connection went idle (close quietly, no response).
    Idle,
}

impl HttpError {
    /// The status code a response for this failure should carry (`Io` and
    /// `Closed` get none — the socket is gone or silent).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) => Some(400),
            HttpError::TooLarge(_) => Some(413),
            HttpError::Unsupported(_) => Some(501),
            HttpError::Io(_) | HttpError::Closed | HttpError::Idle => None,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(m) | HttpError::TooLarge(m) | HttpError::Unsupported(m) => {
                m.clone()
            }
            HttpError::Io(e) => e.to_string(),
            HttpError::Closed => "connection closed".into(),
            HttpError::Idle => "connection idle".into(),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component (no query string).
    pub path: String,
    /// The raw query string after `?`, when present.
    pub query: Option<String>,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// `true` when the request line said `HTTP/1.0` (affects the
    /// keep-alive default).
    pub http10: bool,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of a `key=value` query parameter, when present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Whether the client is willing to reuse the connection: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close` is sent; HTTP/1.0
    /// defaults to close unless `Connection: keep-alive` is sent. The
    /// `Connection` header is treated as a comma-separated token list.
    pub fn wants_keep_alive(&self) -> bool {
        let token = |t: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|tok| tok.trim().eq_ignore_ascii_case(t)))
        };
        if token("close") {
            false
        } else if self.http10 {
            token("keep-alive")
        } else {
            true
        }
    }
}

/// The head of a request: everything but the body, plus how many bytes of
/// the input the head consumed and the declared body length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The request minus its body.
    pub request: Request,
    /// Bytes of input consumed by the head (through the blank line).
    pub consumed: usize,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
}

fn is_token_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses a request head from a byte buffer that contains at least the
/// full head (through `\r\n\r\n`).
///
/// Returns `Ok(None)` when the buffer does not yet contain a complete
/// head (the caller should read more, up to [`MAX_HEAD_BYTES`]).
///
/// # Errors
///
/// [`HttpError::Malformed`] for syntactic violations,
/// [`HttpError::TooLarge`] for too many headers, [`HttpError::Unsupported`]
/// for chunked transfer encoding or non-1.x versions.
pub fn parse_head(buf: &[u8]) -> Result<Option<Head>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(
                "request line is not `METHOD TARGET VERSION`".into(),
            ))
        }
    };
    if !method.bytes().all(is_token_char) {
        return Err(HttpError::Malformed("method is not a token".into()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Unsupported(format!(
            "version `{version}` (this server speaks HTTP/1.x)"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(
            "request target must be an absolute path".into(),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without colon: `{line}`")))?;
        if name.is_empty() || !name.bytes().all(is_token_char) {
            return Err(HttpError::Malformed(format!(
                "header name `{name}` is not a token"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
        http10: version == "HTTP/1.0",
    };
    if let Some(te) = request.header("transfer-encoding") {
        return Err(HttpError::Unsupported(format!(
            "transfer-encoding `{te}` (send Content-Length)"
        )));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("Content-Length `{v}` is not a number")))?,
    };
    Ok(Some(Head {
        request,
        consumed: head_end,
        content_length,
    }))
}

/// Index just past the `\r\n\r\n` terminator, when present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Reads one full request from `carry` + the stream, enforcing all
/// bounds. Bytes beyond it — a pipelined successor request on a
/// kept-alive connection — stay in `carry` for the next call.
///
/// # Errors
///
/// Every [`HttpError`] variant: malformed/oversized/unsupported input,
/// transport failures (including mid-request read timeouts),
/// [`HttpError::Closed`] when the peer disconnects before sending a byte,
/// and [`HttpError::Idle`] when a read times out before the first byte of
/// a request arrives.
pub fn read_request_buffered(
    carry: &mut Vec<u8>,
    stream: &mut impl Read,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut chunk = [0u8; 4096];
    let head = loop {
        if let Some(head) = parse_head(carry)? {
            break head;
        }
        if carry.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // A timeout before any byte arrived is not a protocol error:
            // the peer is just holding an idle (kept-alive) connection
            // open. Mid-request timeouts stay transport errors.
            Err(e)
                if carry.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(HttpError::Idle)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if carry.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed(
                "connection closed mid-request-head".into(),
            ));
        }
        carry.extend_from_slice(&chunk[..n]);
    };

    if head.content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "declared body of {} bytes exceeds the {max_body}-byte limit",
            head.content_length
        )));
    }
    let total = head.consumed + head.content_length;
    while carry.len() < total {
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed mid-request-body".into(),
            ));
        }
        carry.extend_from_slice(&chunk[..n]);
    }
    let mut request = head.request;
    request.body = carry[head.consumed..total].to_vec();
    carry.drain(..total);
    Ok(request)
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (Content-Type/Length and Connection are automatic).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response from an already-rendered body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// An HTML response (the embedded dashboard page).
    pub fn html(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/html; charset=utf-8",
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes the response (HTTP/1.1). `keep_alive` decides the
    /// `Connection` header: the caller negotiated it from the request
    /// version, the client's `Connection` header, and its own
    /// per-connection request budget.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(w, "content-type: {}\r\n", self.content_type)?;
        write!(w, "content-length: {}\r\n", self.body.len())?;
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(w, "connection: {connection}\r\n")?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Writes only the head of this response with
    /// `Transfer-Encoding: chunked` instead of a `Content-Length`, for
    /// endpoints that stream an open-ended body (the SSE job-event
    /// stream). The body field is ignored; frame the body with
    /// [`encode_chunk`] and end it with [`CHUNKED_BODY_END`]. Streamed
    /// responses always close the connection when done.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_chunked_head(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(w, "content-type: {}\r\n", self.content_type)?;
        write!(w, "transfer-encoding: chunked\r\n")?;
        write!(w, "connection: close\r\n")?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "\r\n")?;
        w.flush()
    }
}

/// The terminating zero-length chunk ending a chunked body.
pub const CHUNKED_BODY_END: &[u8] = b"0\r\n\r\n";

/// Appends one `<hex len>\r\n<bytes>\r\n` chunk frame to a byte buffer,
/// for writers that build an outbox and flush it nonblockingly. Empty
/// input is skipped (a zero-length chunk would terminate the body).
pub fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_str(s: &str) -> Result<Request, HttpError> {
        read_request_buffered(
            &mut Vec::new(),
            &mut Cursor::new(s.as_bytes().to_vec()),
            DEFAULT_MAX_BODY_BYTES,
        )
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let r =
            parse_str("GET /v1/models/demo?version=abc HTTP/1.1\r\nHost: x\r\nX-Trace: 7\r\n\r\n")
                .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/models/demo");
        assert_eq!(r.query_param("version"), Some("abc"));
        assert_eq!(r.header("x-trace"), Some("7"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse_str("POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(r.body, b"{\"a\"");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
            "GET relative HTTP/1.1\r\n\r\n",
            "G T / HTTP/1.1\r\n\r\n",
        ] {
            let e = parse_str(bad).unwrap_err();
            assert_eq!(e.status(), Some(400), "{bad:?} → {e:?}");
        }
    }

    #[test]
    fn rejects_unsupported_features_with_501() {
        let e = parse_str("GET / HTTP/2\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), Some(501));
        let e = parse_str("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), Some(501));
    }

    #[test]
    fn bounds_are_enforced_with_413() {
        let huge_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        let e = parse_str(&huge_head).unwrap_err();
        assert_eq!(e.status(), Some(413));
        let e = read_request_buffered(
            &mut Vec::new(),
            &mut Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n".to_vec()),
            10,
        )
        .unwrap_err();
        assert_eq!(e.status(), Some(413));
    }

    #[test]
    fn truncation_is_malformed_not_a_panic() {
        let e = parse_str("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e.status(), Some(400));
        let e = parse_str("GET / HTTP/1.1\r\nHost").unwrap_err();
        assert_eq!(e.status(), Some(400));
        assert!(matches!(parse_str("").unwrap_err(), HttpError::Closed));
    }

    #[test]
    fn pipelined_requests_are_consumed_one_at_a_time() {
        // Two requests sent back to back (the second with a body), as a
        // pipelining client would: each read must consume exactly one,
        // leaving the rest in the carry buffer.
        let wire = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut cursor = Cursor::new(wire.as_bytes().to_vec());
        let mut carry = Vec::new();
        let first = read_request_buffered(&mut carry, &mut cursor, 1024).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.body.is_empty());
        let second = read_request_buffered(&mut carry, &mut cursor, 1024).unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert!(carry.is_empty());
        assert!(matches!(
            read_request_buffered(&mut carry, &mut cursor, 1024).unwrap_err(),
            HttpError::Closed
        ));
    }

    #[test]
    fn bad_content_length_is_malformed() {
        let e = parse_str("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), Some(400));
        let e = parse_str("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), Some(400));
    }

    #[test]
    fn responses_render_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .with_header("x-model-version", "abc")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
        assert!(text.contains("x-model-version: abc"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn responses_can_advertise_keep_alive() {
        let mut out = Vec::new();
        Response::json(200, "{}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_connection_header() {
        let r = parse_str("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive(), "1.1 defaults to keep-alive");
        let r = parse_str("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive());
        let r = parse_str("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "header value is case-insensitive");
        let r = parse_str("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "1.0 defaults to close");
        let r = parse_str("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive());
        let r = parse_str("GET / HTTP/1.1\r\nConnection: x, close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "token list is scanned");
    }

    #[test]
    fn idle_timeout_before_first_byte_is_distinguished() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let e = read_request_buffered(&mut Vec::new(), &mut TimesOut, 1024).unwrap_err();
        assert!(matches!(e, HttpError::Idle), "{e:?}");
        assert_eq!(e.status(), None);

        // Same timeout after bytes arrived: a stalled request, a real
        // transport error (the caller answers 408).
        struct PartialThenTimeout(bool);
        impl Read for PartialThenTimeout {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 {
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                self.0 = true;
                buf[..4].copy_from_slice(b"GET ");
                Ok(4)
            }
        }
        let e = read_request_buffered(&mut Vec::new(), &mut PartialThenTimeout(false), 1024)
            .unwrap_err();
        assert!(matches!(e, HttpError::Io(_)), "{e:?}");
    }

    #[test]
    fn chunked_bodies_frame_and_terminate() {
        let mut out = Vec::new();
        let mut sse = Response {
            status: 200,
            headers: Vec::new(),
            body: Vec::new(),
            content_type: "text/event-stream",
        };
        sse.headers
            .push(("cache-control".into(), "no-cache".into()));
        sse.write_chunked_head(&mut out).unwrap();
        encode_chunk(&mut out, b"event: progress\ndata: {}\n\n");
        encode_chunk(&mut out, b""); // skipped, must not terminate the stream
        encode_chunk(&mut out, b"xy");
        out.extend_from_slice(CHUNKED_BODY_END);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"), "{text}");
        assert!(text.contains("cache-control: no-cache"), "{text}");
        assert!(!text.contains("content-length"), "{text}");
        let (_, body) = text.split_once("\r\n\r\n").unwrap();
        assert_eq!(
            body,
            "1a\r\nevent: progress\ndata: {}\n\n\r\n2\r\nxy\r\n0\r\n\r\n"
        );
    }
}
