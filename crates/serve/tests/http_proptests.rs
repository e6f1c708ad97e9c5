//! Property tests for the HTTP request parser: arbitrary, truncated, and
//! oversized byte streams must never panic, and must always resolve to a
//! typed error (definite status) or a well-formed request.

use std::io::{Cursor, Read};

use caffeine_serve::http::{parse_head, read_request_buffered, HttpError, Request, MAX_HEAD_BYTES};
use proptest::prelude::*;

/// A valid predict request: head plus an 18-byte body.
const PREDICT: &[u8] =
    b"POST /v1/models/m/predict HTTP/1.1\r\ncontent-length: 18\r\nhost: x\r\n\r\n{\"points\":[[1.0]]}";

/// Reads one request from `bytes` with a fresh carry buffer.
fn read_one(bytes: Vec<u8>, max_body: usize) -> Result<Request, HttpError> {
    read_request_buffered(&mut Vec::new(), &mut Cursor::new(bytes), max_body)
}

/// Hands out at most `step` bytes per read, so request boundaries land
/// anywhere inside a read.
struct Trickle {
    inner: Cursor<Vec<u8>>,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step);
        self.inner.read(&mut buf[..n])
    }
}

fn outcome_is_sane(result: Result<Request, HttpError>) {
    match result {
        Ok(r) => {
            assert!(!r.method.is_empty());
            assert!(r.path.starts_with('/'));
        }
        Err(e) => match e.status() {
            Some(s) => assert!(s == 400 || s == 413 || s == 501, "status {s}"),
            None => assert!(matches!(
                e,
                HttpError::Closed | HttpError::Io(_) | HttpError::Idle
            )),
        },
    }
}

/// Printable ASCII + CR/LF soup: more likely than raw bytes to get deep
/// into the header machinery.
fn ascii_soup(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..100, len).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0..=1 => b'\r',
                2..=3 => b'\n',
                4 => b':',
                5 => b' ',
                c => b' ' + (c % 95),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totally arbitrary bytes: the parser must classify, never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let _ = parse_head(&bytes); // pure head parse on raw bytes
        outcome_is_sane(read_one(bytes, 4096));
    }

    /// Header-shaped ASCII soup, optionally behind a valid request line.
    #[test]
    fn ascii_soup_never_panics(
        soup in ascii_soup(0..512),
        prefix_valid in (0u8..2).prop_map(|b| b == 1),
    ) {
        let mut bytes = Vec::new();
        if prefix_valid {
            bytes.extend_from_slice(b"GET / HTTP/1.1\r\n");
        }
        bytes.extend_from_slice(&soup);
        outcome_is_sane(read_one(bytes, 4096));
    }

    /// Truncating a valid request at every byte boundary must give a
    /// clean error (or, at full length, the parsed request and nothing
    /// left over in the carry buffer).
    #[test]
    fn truncations_of_a_valid_request_never_panic(cut in 0usize..=92) {
        let cut = cut.min(PREDICT.len());
        let mut carry = Vec::new();
        let result =
            read_request_buffered(&mut carry, &mut Cursor::new(PREDICT[..cut].to_vec()), 4096);
        if cut == PREDICT.len() {
            prop_assert!(result.is_ok(), "{:?}", result);
            prop_assert!(carry.is_empty(), "{} bytes left in carry", carry.len());
        }
        outcome_is_sane(result);
    }

    /// Two copies of a valid request sent back to back, however the
    /// stream splits them across reads, come out as two identical
    /// requests and leave the carry buffer empty.
    #[test]
    fn back_to_back_requests_read_as_two(step in 1usize..=2 * PREDICT.len()) {
        let mut stream = Trickle { inner: Cursor::new(PREDICT.repeat(2)), step };
        let mut carry = Vec::new();
        let first = read_request_buffered(&mut carry, &mut stream, 4096).unwrap();
        let second = read_request_buffered(&mut carry, &mut stream, 4096).unwrap();
        prop_assert_eq!(&first.path, "/v1/models/m/predict");
        prop_assert_eq!(&first.body, b"{\"points\":[[1.0]]}");
        prop_assert_eq!(first, second);
        prop_assert!(carry.is_empty(), "{} bytes left in carry", carry.len());
    }

    /// Declared bodies beyond the limit must answer 413 without reading
    /// the body.
    #[test]
    fn oversized_declared_bodies_are_413(extra in 1usize..1_000_000) {
        let limit = 4096usize;
        let head = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", limit + extra);
        let err = read_one(head.into_bytes(), limit).unwrap_err();
        prop_assert_eq!(err.status(), Some(413));
    }

    /// Oversized heads (giant header sections) must answer 413, bounded
    /// by MAX_HEAD_BYTES regardless of how much the client sends.
    #[test]
    fn oversized_heads_are_413(pad in MAX_HEAD_BYTES..MAX_HEAD_BYTES + 4096) {
        let head = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(pad));
        let err = read_one(head.into_bytes(), 4096).unwrap_err();
        prop_assert_eq!(err.status(), Some(413));
    }

    /// Random query strings keep the parser total and query_param safe.
    #[test]
    fn query_strings_are_total(soup in ascii_soup(0..128)) {
        let query: Vec<u8> = soup
            .into_iter()
            .map(|b| if b == b'\r' || b == b'\n' || b == b' ' { b'+' } else { b })
            .collect();
        let mut raw = b"GET /v1/models/m?".to_vec();
        raw.extend_from_slice(&query);
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        if let Ok(r) = read_one(raw, 4096) {
            let _ = r.query_param("version");
            let _ = r.query_param("");
        }
    }
}
