//! Request-level fault tests: the hardened client against adversarial
//! peers — scripted overload servers (Retry-After honoring), servers
//! that die mid-response (the phase rule), and a real daemon behind the
//! testkit's fault-injecting proxy (per-class convergence and SSE
//! reconnect-resume).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
use caffeine_core::{Model, ModelArtifact};
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

fn demo_artifact() -> ModelArtifact {
    ModelArtifact::new(
        vec!["w".into(), "l".into()],
        vec![Model::new(
            vec![
                BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
                BasisFunction::from_vc(VarCombo::single(2, 1, -1)),
            ],
            vec![1.0, 2.0, -3.0],
            WeightConfig::default(),
        )
        .with_metrics(0.01, 9.0)],
    )
    .unwrap()
}

/// What the scripted server does with one accepted connection.
#[derive(Clone, Copy)]
enum Script {
    /// Read the request, answer with this raw response, close.
    Respond(&'static str),
    /// Read the *whole* request, then slam the connection shut without
    /// any response. Consuming the full request first matters: it
    /// guarantees the client's writes all succeed, so the failure lands
    /// deterministically in the read phase (a close racing the client's
    /// send would surface as a retry-safe write-phase error instead).
    CloseEarly,
}

/// Reads one full HTTP request (head + `content-length` body) off `conn`.
fn drain_request(conn: &mut std::net::TcpStream) {
    let mut buf = [0u8; 4096];
    let mut req = Vec::new();
    let head_end = loop {
        if let Some(pos) = req.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => req.extend_from_slice(&buf[..n]),
        }
    };
    let head = String::from_utf8_lossy(&req[..head_end]).to_ascii_lowercase();
    let body_len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    while req.len() - head_end < body_len {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => req.extend_from_slice(&buf[..n]),
        }
    }
}

/// A scripted one-thread server: plays `script` connection by
/// connection (repeating the last entry forever) and counts accepts.
fn scripted_server(script: Vec<Script>) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted server");
    let addr = listener.local_addr().unwrap().to_string();
    let count = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&count);
    std::thread::spawn(move || {
        while let Ok((mut conn, _)) = listener.accept() {
            let i = seen.fetch_add(1, Ordering::SeqCst);
            let act = *script.get(i).or(script.last()).expect("non-empty script");
            let _ = conn.set_read_timeout(Some(T));
            drain_request(&mut conn);
            match act {
                Script::Respond(response) => {
                    let _ = conn.write_all(response.as_bytes());
                    let _ = conn.flush();
                    let _ = conn.shutdown(Shutdown::Both);
                }
                Script::CloseEarly => {
                    let _ = conn.shutdown(Shutdown::Both);
                }
            }
        }
    });
    (addr, count)
}

const OVERLOADED: &str =
    "HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
const THROTTLED: &str =
    "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
const OK: &str = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok";

/// The wire test for Retry-After: a server that answers 503 with
/// `Retry-After: 1` once, then 200. The client must wait out the full
/// advertised second and re-issue the request — even a POST, because
/// the received 503 proves the server refused without executing.
#[test]
fn retry_after_is_honored_on_the_wire() {
    let (addr, count) = scripted_server(vec![Script::Respond(OVERLOADED), Script::Respond(OK)]);
    let mut conn = client::Connection::new(&addr, T);
    let started = Instant::now();
    let r = conn
        .request_traced_with_retry(
            "POST",
            "/v1/jobs",
            Some(b"{}"),
            TraceContext::mint(),
            &RetryPolicy::default(),
        )
        .expect("retry converges");
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "ok");
    assert_eq!(count.load(Ordering::SeqCst), 2, "exactly one retry");
    assert!(
        started.elapsed() >= Duration::from_secs(1),
        "Retry-After: 1 was not honored (elapsed {:?})",
        started.elapsed()
    );
}

/// Sustained overload without Retry-After: the client backs off on its
/// own schedule, then surfaces the final 429 (not an error) once
/// attempts run out.
#[test]
fn sustained_overload_backs_off_then_surfaces_the_answer() {
    let (addr, count) = scripted_server(vec![Script::Respond(THROTTLED)]);
    let mut conn = client::Connection::new(&addr, T);
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let r = conn
        .request_traced_with_retry(
            "POST",
            "/v1/jobs",
            Some(b"{}"),
            TraceContext::mint(),
            &policy,
        )
        .expect("overload surfaces as a response");
    assert_eq!(r.status, 429);
    assert_eq!(count.load(Ordering::SeqCst), 3, "all attempts used");
}

/// The phase rule survives the retry layer: a server that dies after
/// reading a POST (response never arrived — it *may* have executed)
/// must not trigger a retry, while the same failure on a GET retries
/// until attempts run out.
#[test]
fn read_phase_failures_retry_gets_but_never_posts() {
    let (addr, count) = scripted_server(vec![Script::CloseEarly]);
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };

    let mut conn = client::Connection::new(&addr, T);
    conn.request_traced_with_retry(
        "POST",
        "/v1/jobs",
        Some(b"{}"),
        TraceContext::mint(),
        &policy,
    )
    .expect_err("a POST whose response never arrived must fail");
    assert_eq!(count.load(Ordering::SeqCst), 1, "POST must not be retried");

    let mut conn = client::Connection::new(&addr, T);
    conn.request_traced_with_retry("GET", "/v1/jobs", None, TraceContext::mint(), &policy)
        .expect_err("server never answers");
    assert_eq!(
        count.load(Ordering::SeqCst),
        1 + 3,
        "GET retries to the attempt cap"
    );
}

/// An explicitly idempotent policy opts a POST into read-phase retries
/// — the caller has declared the repeat safe (e.g. a pure prediction).
#[test]
fn assume_idempotent_opts_posts_into_read_phase_retries() {
    let (addr, count) = scripted_server(vec![Script::CloseEarly, Script::Respond(OK)]);
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(5),
        assume_idempotent: true,
        ..RetryPolicy::default()
    };
    let mut conn = client::Connection::new(&addr, T);
    let r = conn
        .request_traced_with_retry(
            "POST",
            "/v1/models/demo/predict",
            Some(b"{}"),
            TraceContext::mint(),
            &policy,
        )
        .expect("opt-in retry converges");
    assert_eq!(r.status, 200);
    assert_eq!(count.load(Ordering::SeqCst), 2);
}

/// Connect failures are write-phase (nothing ever reached a server), so
/// even a POST retries through them. The daemon comes up only after the
/// first attempts have already failed — the client must ride it out.
#[test]
fn connect_refused_is_retried_for_any_method() {
    // Reserve a port, then release it so the first dial is refused.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);

    let addr_for_server = addr.clone();
    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let listener = TcpListener::bind(&addr_for_server).expect("rebind");
        let (mut conn, _) = listener.accept().expect("accept");
        drain_request(&mut conn);
        let _ = conn.write_all(OK.as_bytes());
    });

    let mut conn = client::Connection::new(&addr, T);
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    let r = conn
        .request_traced_with_retry(
            "POST",
            "/v1/jobs",
            Some(b"{}"),
            TraceContext::mint(),
            &policy,
        )
        .expect("client rides out the refused dials");
    assert_eq!(r.status, 200);
    server.join().unwrap();
}

/// Every fault class, one real daemon: predictions issued through the
/// fault proxy converge — under the retry policy — to bit-identical
/// results, for every class and every seed in the matrix.
#[test]
fn predictions_converge_through_every_fault_class() {
    let (addr, handle, join) = boot(ServeConfig::default());
    let artifact = demo_artifact();
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/demo",
        Some(artifact.to_json().as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());

    let points: Vec<Vec<f64>> = (1..=16)
        .map(|i| vec![f64::from(i) * 0.4, f64::from(i) * 0.9])
        .collect();
    let expected = artifact.predict(None, &points).unwrap();
    let body = serde_json::to_string(&serde_json::json!({ "points": points })).unwrap();

    for class in FAULT_CLASSES {
        for seed in caffeine_testkit_seed_matrix() {
            let proxy =
                FaultProxy::spawn(addr.clone(), FaultPlan::only(class, seed)).expect("spawn proxy");
            let mut conn = client::Connection::new(proxy.addr(), T);
            let policy = RetryPolicy {
                // Prediction is pure: safe to re-issue even when a cut
                // landed mid-response.
                assume_idempotent: true,
                max_attempts: 8,
                base_backoff: Duration::from_millis(10),
                seed,
                ..RetryPolicy::default()
            };
            let r = conn
                .request_traced_with_retry(
                    "POST",
                    "/v1/models/demo/predict",
                    Some(body.as_bytes()),
                    TraceContext::mint(),
                    &policy,
                )
                .unwrap_or_else(|e| panic!("class {} seed {seed}: {e}", class.name()));
            assert_eq!(r.status, 200, "class {} seed {seed}", class.name());
            let served: Vec<f64> = r.json().unwrap()["predictions"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            for (s, e) in served.iter().zip(&expected) {
                assert_eq!(
                    s.to_bits(),
                    e.to_bits(),
                    "class {} seed {seed}: prediction diverged",
                    class.name()
                );
            }
        }
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The seed matrix the fault tests run over. `CHAOS_SEEDS` (a
/// comma-separated list) overrides it, which is how CI pins its matrix
/// and how a failure is replayed locally.
fn caffeine_testkit_seed_matrix() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS: u64 list"))
            .collect(),
        Err(_) => vec![1, 2],
    }
}

/// A job watched through a proxy that keeps cutting the response stream
/// mid-flight: `watch_job` must reconnect, resume from the replay
/// history via SSE ids, deliver every published frame exactly once, and
/// still see `done`.
#[test]
fn sse_watch_survives_mid_stream_cuts_without_duplicates() {
    let (addr, handle, join) = boot(ServeConfig::default());

    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 2.0 * p[0] + 1.0).collect();
    let spec = serde_json::to_string(&serde_json::json!({
        "name": "watched-under-cuts",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 16,
        "generations": 6,
        "max_bases": 4,
        "seed": 5,
        "grammar": "rational",
    }))
    .unwrap();
    let r = client::request(&addr, "POST", "/v1/jobs", Some(spec.as_bytes()), T).unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let id = r.json().unwrap()["id"].as_u64().unwrap();

    // Watch through a proxy that cuts every faulted connection's
    // response after a few hundred bytes — an SSE stream dies within
    // its first frames, over and over.
    let proxy = FaultProxy::spawn(addr.clone(), FaultPlan::only(FaultClass::MidResponseCut, 3))
        .expect("spawn proxy");
    let opts = WatchOptions {
        timeout: Duration::from_secs(10),
        retry: RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
    };
    let mut ids = Vec::new();
    let mut saw_done = false;
    client::watch_job(
        &proxy.addr(),
        &format!("/v1/jobs/{id}/events"),
        &opts,
        |e| {
            if let Some(seq) = e.id {
                ids.push(seq);
            }
            if e.event == "done" {
                saw_done = true;
            }
            !saw_done
        },
    )
    .expect("watch survives the cuts");

    assert!(saw_done, "watch ended without `done`");
    assert!(
        proxy.connections() >= 2,
        "the stream was never cut — the fault plan did not engage"
    );
    // Exactly-once delivery: sequenced frames arrive strictly in order,
    // no duplicates across reconnects.
    for pair in ids.windows(2) {
        assert!(pair[1] > pair[0], "duplicate or reordered frame: {ids:?}");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
