//! End-to-end tests: a real server on an ephemeral port, driven over
//! real sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
use caffeine_core::{Model, ModelArtifact};
use caffeine_serve::{client, ServeConfig, Server};

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
    // 1 + 2·x0 − 3/x1 plus a simpler sibling, as a tiny front.
    ModelArtifact::new(
        vec!["w".into(), "l".into()],
        vec![
            Model::new(
                vec![BasisFunction::from_vc(VarCombo::single(2, 0, 1))],
                vec![1.0, 2.0],
                WeightConfig::default(),
            )
            .with_metrics(0.2, 4.0),
            Model::new(
                vec![
                    BasisFunction::from_vc(VarCombo::single(2, 0, 1)),
                    BasisFunction::from_vc(VarCombo::single(2, 1, -1)),
                ],
                vec![1.0, 2.0, -3.0],
                WeightConfig::default(),
            )
            .with_metrics(0.01, 9.0),
        ],
    )
    .unwrap()
}

#[test]
fn predict_round_trip_is_bit_identical_to_in_process() {
    let (addr, handle, join) = boot(ServeConfig::default());
    let artifact = demo_artifact();

    // Publish over HTTP.
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/demo",
        Some(artifact.to_json().as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let version = r.json().unwrap()["version"].as_str().unwrap().to_string();
    assert_eq!(version, artifact.content_hash());

    // Batch with awkward values (denormals, negatives, near-poles).
    let points: Vec<Vec<f64>> = (1..=64)
        .map(|i| {
            let x = f64::from(i);
            vec![x * 0.37 - 5.0, (x * 0.11).exp() * 1e-3]
        })
        .collect();
    let expected = artifact.predict(None, &points).unwrap();

    let body = serde_json::to_string(&serde_json::json!({ "points": points })).unwrap();
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/demo/predict",
        Some(body.as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let json = r.json().unwrap();
    let served: Vec<f64> = json["predictions"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits(), "served {s} != in-process {e}");
    }
    assert_eq!(json["version"].as_str().unwrap(), version);

    // Pinned-version fetch returns the identical artifact.
    let r = client::request(
        &addr,
        "GET",
        &format!("/v1/models/demo?version={version}"),
        None,
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200);
    let fetched = ModelArtifact::from_json(&r.text()).unwrap();
    assert_eq!(fetched, artifact);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The predict decoder takes any valid JSON spelling of a body, not just
/// the canonical one: here `model` comes first, an unknown nested key
/// rides along, and the `points` key is escaped.
#[test]
fn non_canonical_predict_body_is_bit_identical_to_in_process() {
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

    let points = vec![vec![0.25, -1e-3], vec![-0.0, 7.0], vec![1e300, 2.5e-310]];
    let expected = artifact.predict(Some(1), &points).unwrap();
    let rows = serde_json::to_string(&points).unwrap();
    let body = format!(
        "{{ \"model\" : 1,\n  \"client\": {{\"tags\": [\"a\", {{\"b\": null}}], \"n\": -0}},\n  \
         \"po\\u0069nts\": {rows} }}"
    );
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/demo/predict",
        Some(body.as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let json = r.json().unwrap();
    assert_eq!(json["n_points"].as_u64(), Some(3));
    let served = json["predictions"].as_array().unwrap();
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(&expected) {
        match s.as_f64() {
            Some(v) => assert_eq!(v.to_bits(), e.to_bits(), "served {v} != in-process {e}"),
            None => assert!(
                matches!(s, serde_json::Value::Null) && !e.is_finite(),
                "served {s:?}, in-process {e}"
            ),
        }
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_batches_get_structured_4xx_not_panics() {
    let (addr, handle, join) = boot(ServeConfig::default());
    let artifact = demo_artifact();
    client::request(
        &addr,
        "PUT",
        "/v1/models/demo",
        Some(artifact.to_json().as_bytes()),
        T,
    )
    .unwrap();

    let cases: Vec<(&str, &str)> = vec![
        ("empty batch", r#"{"points": []}"#),
        ("ragged", r#"{"points": [[1.0, 2.0], [1.0]]}"#),
        ("wrong dims", r#"{"points": [[1.0, 2.0, 3.0]]}"#),
        ("not arrays", r#"{"points": 7}"#),
        ("no points", r#"{}"#),
        (
            "bad model index",
            r#"{"points": [[1.0, 2.0]], "model": 99}"#,
        ),
        ("not json", "}{"),
    ];
    for (what, body) in cases {
        let r = client::request(
            &addr,
            "POST",
            "/v1/models/demo/predict",
            Some(body.as_bytes()),
            T,
        )
        .unwrap();
        assert_eq!(r.status, 400, "{what}: {}", r.text());
        let json = r.json().unwrap();
        assert!(json["error"]["message"].as_str().is_some(), "{what}");
    }

    // Unknown model / version → 404 with a structured body.
    let r = client::request(&addr, "POST", "/v1/models/ghost/predict", Some(b"{}"), T).unwrap();
    assert_eq!(r.status, 404);
    let r = client::request(&addr, "GET", "/v1/models/demo?version=feedbeef", None, T).unwrap();
    assert_eq!(r.status, 404);

    // Unsupported-schema artifact publish → 422.
    let future = artifact
        .to_json()
        .replace("\"schema_version\":1", "\"schema_version\":9");
    let r = client::request(&addr, "POST", "/v1/models/demo", Some(future.as_bytes()), T).unwrap();
    assert_eq!(r.status, 422, "{}", r.text());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn raw_socket_abuse_gets_http_errors_not_hangs() {
    let (addr, handle, join) = boot(ServeConfig {
        max_body_bytes: 64 * 1024,
        io_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });

    // Malformed request line → 400.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"BLURB\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");

    // Oversized declared body → 413.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");

    // Chunked encoding → 501.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 501"), "{buf}");

    // A stalled half-request times out with 408 instead of hanging.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap(); // never finish
    let started = Instant::now();
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok();
    assert!(started.elapsed() < Duration::from_secs(5), "server hung");
    assert!(buf.is_empty() || buf.starts_with("HTTP/1.1 408"), "{buf}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn job_lifecycle_end_to_end_with_bit_identical_predictions() {
    let dir = std::env::temp_dir().join(format!("caffeine-serve-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (addr, handle, join) = boot(ServeConfig {
        model_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // A tiny y = 3/x problem the rational grammar nails quickly.
    let points: Vec<Vec<f64>> = (1..=20).map(|i| vec![f64::from(i) * 0.4]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "name": "served-rational",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 8,
        "max_bases": 4,
        "seed": 7,
        "grammar": "rational",
    });
    let r = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(
            serde_json::to_string(&spec)
                .unwrap()
                .into_bytes()
                .as_slice(),
        ),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let job = r.json().unwrap();
    let id = job["id"].as_u64().unwrap();

    // Poll to completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_status = loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None, T).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let status = r.json().unwrap();
        match status["state"].as_str().unwrap() {
            "finished" => break status,
            "failed" | "cancelled" => panic!("job ended badly: {}", r.text()),
            _ => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let version = final_status["result"]["version"]
        .as_str()
        .unwrap()
        .to_string();
    assert!(final_status["result"]["n_models"].as_u64().unwrap() > 0);
    assert!(
        final_status["progress"]["completed_generations"]
            .as_u64()
            .unwrap()
            >= 8
    );

    // Fetch the published artifact and compare predictions bit for bit.
    let r = client::request(&addr, "GET", "/v1/models/served-rational", None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let artifact = ModelArtifact::from_json(&r.text()).unwrap();
    assert_eq!(artifact.content_hash(), version);

    let batch: Vec<Vec<f64>> = (1..=10).map(|i| vec![f64::from(i) * 0.7]).collect();
    let expected = artifact.predict(None, &batch).unwrap();
    let body = serde_json::to_string(&serde_json::json!({ "points": batch })).unwrap();
    let r = client::request(
        &addr,
        "POST",
        "/v1/models/served-rational/predict",
        Some(body.as_bytes()),
        T,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let served: Vec<f64> = r.json().unwrap()["predictions"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits());
    }

    // The artifact also survived to disk (registry persistence).
    let on_disk = dir.join("served-rational").join(format!("{version}.json"));
    assert!(on_disk.exists(), "missing {}", on_disk.display());

    // Cancel a long job mid-flight.
    let long_spec = serde_json::json!({
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 1_000_000,
        "grammar": "rational",
    });
    let r = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(
            serde_json::to_string(&long_spec)
                .unwrap()
                .into_bytes()
                .as_slice(),
        ),
        T,
    )
    .unwrap();
    let long_id = r.json().unwrap()["id"].as_u64().unwrap();
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{long_id}"), None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{long_id}"), None, T).unwrap();
        if r.json().unwrap()["state"].as_str().unwrap() == "cancelled" {
            break;
        }
        assert!(Instant::now() < deadline, "cancel did not take effect");
        std::thread::sleep(Duration::from_millis(30));
    }

    // Bad job specs are rejected up front.
    let r = client::request(&addr, "POST", "/v1/jobs", Some(b"{\"var_names\": []}"), T).unwrap();
    assert_eq!(r.status, 400);
    let r = client::request(&addr, "GET", "/v1/jobs/424242", None, T).unwrap();
    assert_eq!(r.status, 404);

    // Metrics mention what we did.
    let r = client::request(&addr, "GET", "/metrics", None, T).unwrap();
    assert_eq!(r.status, 200);
    let text = r.text();
    assert!(text.contains("caffeine_serve_requests_total"), "{text}");
    assert!(
        text.contains("route=\"models.predict\",status=\"200\""),
        "{text}"
    );
    assert!(
        text.contains("caffeine_serve_jobs_submitted_total 2"),
        "{text}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_survives_concurrent_hammering() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 8,
        backlog: 256,
        ..ServeConfig::default()
    });
    let artifact = Arc::new(demo_artifact());
    let addr = Arc::new(addr);

    let mut threads = Vec::new();
    for t in 0..8u32 {
        let addr = Arc::clone(&addr);
        let artifact = Arc::clone(&artifact);
        threads.push(std::thread::spawn(move || {
            for i in 0..20u32 {
                let id = format!("hammer-{}", t % 4); // ids contended across threads
                match i % 4 {
                    0 | 1 => {
                        // Publish (often byte-identical → idempotent path).
                        let r = client::request(
                            &addr,
                            "POST",
                            &format!("/v1/models/{id}"),
                            Some(artifact.to_json().as_bytes()),
                            T,
                        )
                        .unwrap();
                        assert!(r.status == 200 || r.status == 201, "{}", r.text());
                    }
                    2 => {
                        let r = client::request(&addr, "GET", "/v1/models", None, T).unwrap();
                        assert_eq!(r.status, 200);
                    }
                    _ => {
                        let r = client::request(&addr, "GET", &format!("/v1/models/{id}"), None, T)
                            .unwrap();
                        // 404 only if nothing published yet on this id.
                        assert!(r.status == 200 || r.status == 404, "{}", r.text());
                    }
                }
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }

    // Every hammered id holds exactly one version (content-addressed
    // publishes of identical bytes must never duplicate).
    let r = client::request(&addr, "GET", "/v1/models", None, T).unwrap();
    let json = r.json().unwrap();
    let models = json["models"].as_array().unwrap();
    assert_eq!(models.len(), 4, "{json:?}");
    for m in models {
        assert_eq!(m["versions"].as_array().unwrap().len(), 1, "{m:?}");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let (addr, handle, join) = boot(ServeConfig::default());

    // One raw socket, three sequential requests: every response must
    // arrive and advertise keep-alive.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    for i in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let response = read_one_response(&mut s);
        assert!(response.starts_with("HTTP/1.1 200"), "req {i}: {response}");
        assert!(
            response.contains("connection: keep-alive"),
            "req {i}: {response}"
        );
        assert!(
            response.ends_with("{\"status\":\"ok\"}"),
            "req {i}: {response}"
        );
    }
    // Pipelining: both requests sent before reading either response.
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\nGET /healthz HTTP/1.1\r\nhost: x\r\n\r\n",
    )
    .unwrap();
    for i in 0..2 {
        let response = read_one_response(&mut s);
        assert!(
            response.starts_with("HTTP/1.1 200"),
            "pipelined {i}: {response}"
        );
    }

    // An explicit Connection: close is honored.
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut s);
    assert!(response.contains("connection: close"), "{response}");
    let mut rest = String::new();
    s.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closed after Connection: close");

    // The high-level client reuses its connection transparently; the
    // metrics must show reused requests.
    let mut conn = caffeine_serve::client::Connection::new(&addr, T);
    for _ in 0..5 {
        let r = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
    }
    let r = client::request(&addr, "GET", "/metrics", None, T).unwrap();
    let text = r.text();
    let reused: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("caffeine_serve_keepalive_reused_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert!(
        reused >= 6,
        "expected ≥6 reused requests, metrics say {reused}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn per_connection_request_cap_and_idle_timeout_close_connections() {
    let (addr, handle, join) = boot(ServeConfig {
        max_conn_requests: 2,
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });

    // Request cap: the second (last allowed) response says close, and the
    // socket is then shut.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    assert!(read_one_response(&mut s).contains("connection: keep-alive"));
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    assert!(read_one_response(&mut s).contains("connection: close"));
    let mut rest = String::new();
    s.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closed at the request cap");

    // Idle timeout: after one request, an idle connection is closed
    // quietly (no 408 spam) within the idle budget.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let _ = read_one_response(&mut s);
    let started = Instant::now();
    let mut rest = String::new();
    s.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle close sends nothing, got: {rest}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle close took {:?}",
        started.elapsed()
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Reads one `Content-Length`-framed response off a raw socket.
fn read_one_response(s: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(s.read(&mut byte).unwrap(), 1, "socket closed mid-head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    s.read_exact(&mut body).unwrap();
    raw.extend_from_slice(&body);
    String::from_utf8(raw).unwrap()
}

#[test]
fn sse_stream_delivers_progress_and_done_events() {
    let (addr, handle, join) = boot(ServeConfig::default());

    // 200 generations with stats every 20 → 10 progress events; the hub
    // replays history, so the stream content is deterministic even when
    // the job finishes before the SSE client connects.
    let points: Vec<Vec<f64>> = (1..=20).map(|i| vec![f64::from(i) * 0.4]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "name": "sse-job",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 200,
        "max_bases": 4,
        "seed": 7,
        "grammar": "rational",
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

    let mut events: Vec<caffeine_serve::client::SseEvent> = Vec::new();
    caffeine_serve::client::sse_tail(
        &addr,
        &format!("/v1/jobs/{id}/events"),
        Duration::from_secs(60),
        |event| {
            events.push(event.clone());
            event.event != "done"
        },
    )
    .unwrap();

    assert_eq!(events[0].event, "snapshot", "{events:?}");
    let progress = events.iter().filter(|e| e.event == "progress").count();
    assert!(progress >= 2, "expected ≥2 progress events, got {events:?}");
    let done = events.last().unwrap();
    assert_eq!(done.event, "done");
    assert!(
        done.data.contains("\"state\":\"finished\""),
        "{}",
        done.data
    );
    assert!(done.data.contains("\"version\""), "{}", done.data);

    // Subscribing to the finished job again just replays and ends.
    let mut replay = 0usize;
    caffeine_serve::client::sse_tail(
        &addr,
        &format!("/v1/jobs/{id}/events"),
        Duration::from_secs(10),
        |_| {
            replay += 1;
            true // never ask to stop: the server must end the stream
        },
    )
    .unwrap();
    assert!(replay >= 3, "replay stream had {replay} events");

    // Unknown job: 404 before any stream starts.
    let err = caffeine_serve::client::sse_tail(
        &addr,
        "/v1/jobs/424242/events",
        Duration::from_secs(5),
        |_| true,
    )
    .unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn job_store_filters_evicts_and_answers_409_on_terminal_delete() {
    let (addr, handle, join) = boot(ServeConfig {
        max_jobs: 2,
        ..ServeConfig::default()
    });
    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let submit = |generations: u64| {
        let spec = serde_json::json!({
            "var_names": ["x0"],
            "points": points,
            "targets": targets,
            "population": 16,
            "generations": generations,
            "grammar": "rational",
        });
        client::request(
            &addr,
            "POST",
            "/v1/jobs",
            Some(serde_json::to_string(&spec).unwrap().as_bytes()),
            T,
        )
        .unwrap()
    };

    // A quick job that reaches a terminal state.
    let r = submit(2);
    assert_eq!(r.status, 201, "{}", r.text());
    let quick_id = r.json().unwrap()["id"].as_u64().unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{quick_id}"), None, T).unwrap();
        if r.json().unwrap()["state"].as_str().unwrap() == "finished" {
            break;
        }
        assert!(Instant::now() < deadline, "quick job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }

    // DELETE on the finished job: 409 with the terminal state in the body.
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{quick_id}"), None, T).unwrap();
    assert_eq!(r.status, 409, "{}", r.text());
    let json = r.json().unwrap();
    assert_eq!(json["state"].as_str(), Some("finished"));
    assert_eq!(json["error"]["code"].as_str(), Some("already_terminal"));

    // The state filter distinguishes live from finished.
    let long_id = submit(1_000_000).json().unwrap()["id"].as_u64().unwrap();
    let r = client::request(&addr, "GET", "/v1/jobs?state=running", None, T).unwrap();
    let running = r.json().unwrap();
    let running = running["jobs"].as_array().unwrap();
    assert_eq!(running.len(), 1, "{running:?}");
    assert_eq!(running[0]["id"].as_u64(), Some(long_id));
    let r = client::request(&addr, "GET", "/v1/jobs?state=nonsense", None, T).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    // Capacity 2 with one terminal + one live: the next submission evicts
    // the finished record; the one after that meets a full store → 429.
    let r = submit(1_000_000);
    assert_eq!(r.status, 201, "{}", r.text());
    let r = client::request(&addr, "GET", &format!("/v1/jobs/{quick_id}"), None, T).unwrap();
    assert_eq!(r.status, 404, "terminal record evicted: {}", r.text());
    let r = submit(1_000_000);
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(
        r.json().unwrap()["error"]["code"].as_str(),
        Some("too_many_jobs")
    );

    // Cancelling a live job is still a 202, and a second DELETE on the
    // now-cancelled job is a 409 carrying `cancelled`.
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{long_id}"), None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{long_id}"), None, T).unwrap();
        if r.json().unwrap()["state"].as_str().unwrap() == "cancelled" {
            break;
        }
        assert!(Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{long_id}"), None, T).unwrap();
    assert_eq!(r.status, 409, "{}", r.text());
    assert_eq!(r.json().unwrap()["state"].as_str(), Some("cancelled"));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Tentpole regression: a burst of submissions beyond `max_running_jobs`
/// queues (FIFO, visible positions) instead of spawning threads or
/// answering 429; 429 fires only when the whole store is full of live
/// jobs, and then carries a queue-derived `Retry-After`.
#[test]
fn burst_submissions_queue_with_visible_positions_and_retry_after() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 4,
        max_running_jobs: 2,
        max_jobs: 8,
        ..ServeConfig::default()
    });
    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let submit = || {
        let spec = serde_json::json!({
            "var_names": ["x0"],
            "points": points,
            "targets": targets,
            "population": 16,
            "generations": 1_000_000,
            "grammar": "rational",
        });
        client::request(
            &addr,
            "POST",
            "/v1/jobs",
            Some(serde_json::to_string(&spec).unwrap().as_bytes()),
            T,
        )
        .unwrap()
    };

    // 8 submissions into 2 running slots: all accepted (201), the first
    // two running, the rest queued with monotone 1-based positions.
    let mut ids = Vec::new();
    for i in 0..8 {
        let r = submit();
        assert_eq!(r.status, 201, "submission {i}: {}", r.text());
        let doc = r.json().unwrap();
        ids.push(doc["id"].as_u64().unwrap());
        if i < 2 {
            assert_eq!(doc["state"].as_str(), Some("running"), "{doc:?}");
            assert!(doc["queue_position"].as_u64().is_none(), "{doc:?}");
        } else {
            assert_eq!(doc["state"].as_str(), Some("queued"), "{doc:?}");
            assert_eq!(doc["queue_position"].as_u64(), Some(i - 1), "{doc:?}");
        }
    }
    // The listing agrees, and the state filter knows `queued`.
    let r = client::request(&addr, "GET", "/v1/jobs?state=queued", None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let queued = r.json().unwrap();
    assert_eq!(queued["jobs"].as_array().unwrap().len(), 6, "{queued:?}");
    let r = client::request(&addr, "GET", "/v1/jobs?state=running", None, T).unwrap();
    assert_eq!(r.json().unwrap()["jobs"].as_array().unwrap().len(), 2);

    // The store (capacity 8) is now full of live jobs: the 9th meets a
    // 429 whose Retry-After reflects the queue depth (1 + 6).
    let r = submit();
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(
        r.json().unwrap()["error"]["code"].as_str(),
        Some("too_many_jobs")
    );
    assert_eq!(r.retry_after(), Some(7), "Retry-After derived from depth");

    // Cancelling a queued job settles it instantly and renumbers the
    // jobs behind it.
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{}", ids[4]), None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    let r = client::request(&addr, "GET", &format!("/v1/jobs/{}", ids[4]), None, T).unwrap();
    assert_eq!(r.json().unwrap()["state"].as_str(), Some("cancelled"));
    let r = client::request(&addr, "GET", &format!("/v1/jobs/{}", ids[5]), None, T).unwrap();
    let doc = r.json().unwrap();
    assert_eq!(doc["queue_position"].as_u64(), Some(3), "{doc:?}");

    // Metrics expose the queue.
    let r = client::request(&addr, "GET", "/metrics", None, T).unwrap();
    let text = r.text();
    assert!(text.contains("caffeine_serve_jobs_queued 5"), "{text}");
    assert!(
        text.contains("caffeine_serve_queue_wait_seconds_count"),
        "{text}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Headline bugfix regression: the saturated-pool 503 is written on the
/// acceptor thread — a client that connects and never reads must not be
/// able to stall `accept()` for everyone else.
#[test]
fn saturated_pool_503_never_blocks_the_acceptor() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        backlog: 1,
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // Pin the single worker and the single backlog slot with stalled
    // half-requests (each holds its spot until the 2s read timeout).
    let mut pin = TcpStream::connect(&addr).unwrap();
    pin.write_all(b"POST /v1/jobs HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // worker picks `pin` up
    let mut fill = TcpStream::connect(&addr).unwrap();
    fill.write_all(b"POST /v1/jobs HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // `fill` occupies the backlog

    // A herd of clients that connect and then never read a byte: each
    // gets the best-effort 503 write and is forgotten.
    let silent: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(&addr).unwrap()).collect();

    // The acceptor must still be answering promptly: a fresh probe gets
    // its 503 (the pool is still saturated) within a tight bound, with
    // the Retry-After satellite asserted on the wire.
    let started = Instant::now();
    let mut probe = TcpStream::connect(&addr).unwrap();
    probe.set_read_timeout(Some(T)).unwrap();
    let mut raw = String::new();
    probe.read_to_string(&mut raw).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "acceptor stalled for {:?} behind non-reading clients",
        started.elapsed()
    );
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("retry-after: 1"), "{raw}");
    assert!(raw.contains("\"unavailable\""), "{raw}");
    // Even the acceptor-thread 503 carries a trace id.
    assert!(raw.contains("x-request-id: "), "{raw}");
    drop(silent);

    // Once the stalled requests time out the pool frees up again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = client::request(&addr, "GET", "/healthz", None, T) {
            if r.status == 200 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "pool never recovered");
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(pin);
    drop(fill);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Tentpole regression: open SSE streams are owned by the dedicated
/// streamer thread, so fan-out far beyond the worker count leaves the
/// pool fully available for plain requests and kept-alive predicts.
#[test]
fn sse_watchers_do_not_occupy_pool_workers() {
    const WATCHERS: u64 = 25;
    let (addr, handle, join) = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
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
    let sse_active = || -> u64 {
        let r = client::request(&addr, "GET", "/metrics", None, T).unwrap();
        r.text()
            .lines()
            .find_map(|l| l.strip_prefix("caffeine_serve_sse_active "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    };

    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 16,
        "generations": 1_000_000,
        "grammar": "rational",
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

    // 25 watchers on a two-worker pool: before the streamer, the third
    // watcher alone would have starved every other request.
    let watchers: Vec<std::thread::JoinHandle<(usize, bool)>> = (0..WATCHERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut frames = 0usize;
                let mut done = false;
                let _ = client::sse_tail(
                    &addr,
                    &format!("/v1/jobs/{id}/events"),
                    Duration::from_secs(60),
                    |event| {
                        frames += 1;
                        if event.event == "done" {
                            done = true;
                        }
                        !done
                    },
                );
                (frames, done)
            })
        })
        .collect();
    // Wait until every watcher is attached.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let active = sse_active();
        if active == WATCHERS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {active}/{WATCHERS} watchers attached"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The pool must still answer plain requests and kept-alive predicts
    // while all the streams are open.
    for _ in 0..5 {
        let r = client::request(&addr, "GET", "/healthz", None, T).unwrap();
        assert_eq!(r.status, 200);
    }
    let batch: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i), 0.5]).collect();
    let expected: Vec<u64> = artifact
        .predict(None, &batch)
        .unwrap()
        .iter()
        .map(|e| e.to_bits())
        .collect();
    let body = serde_json::to_string(&serde_json::json!({ "points": batch })).unwrap();
    let mut conn = client::Connection::new(&addr, T);
    for _ in 0..5 {
        let r = conn
            .request("POST", "/v1/models/demo/predict", Some(body.as_bytes()))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let served: Vec<u64> = r.json().unwrap()["predictions"]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        assert_eq!(served, expected, "served predictions diverged");
    }
    // An open kept-alive connection would hold shutdown for its idle timeout.
    drop(conn);
    assert_eq!(
        sse_active(),
        WATCHERS,
        "all {WATCHERS} streams owned by the streamer"
    );

    // Ending the job ends every stream with a `done` frame.
    let r = client::request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    for watcher in watchers {
        let (frames, done) = watcher.join().unwrap();
        assert!(done, "watcher missed the done frame after {frames} frames");
        assert!(frames >= 2, "expected snapshot + done at least");
    }

    // The gauge returns to zero once the streams close.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let active = sse_active();
        if active == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "sse_active stuck at {active}");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (addr, _handle, join) = boot(ServeConfig::default());
    let r = client::request(&addr, "GET", "/healthz", None, T).unwrap();
    assert_eq!(r.status, 200);
    let r = client::request(&addr, "POST", "/v1/admin/shutdown", None, T).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    // The serve loop must return on its own after the drain.
    join.join().unwrap().unwrap();
    // And the port must actually be released/refusing.
    assert!(client::request(&addr, "GET", "/healthz", None, Duration::from_millis(500)).is_err());
}

/// Extracts the `x-request-id` header from a raw response string.
fn response_request_id(response: &str) -> String {
    response
        .lines()
        .find_map(|l| l.strip_prefix("x-request-id: "))
        .expect("response missing x-request-id header")
        .trim()
        .to_string()
}

/// Tentpole regression: every response carries `X-Request-Id` — a valid
/// caller-supplied id echoed verbatim, anything else replaced by a
/// server-minted one — and every request leaves exactly one JSON
/// access-log line carrying the same id.
#[test]
fn every_response_carries_request_id_with_matching_access_log_line() {
    let (logger, capture) =
        caffeine_obs::Logger::capture(caffeine_obs::Level::Info, caffeine_obs::LogFormat::Json);
    let (addr, handle, join) = boot(ServeConfig {
        logger,
        ..ServeConfig::default()
    });

    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(T)).unwrap();

    // A valid caller id is echoed verbatim.
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nx-request-id: caller-id.01\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut s);
    assert!(
        response.contains("x-request-id: caller-id.01"),
        "{response}"
    );

    // No caller id: the server mints one (16 lowercase hex chars).
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut s);
    let minted = response_request_id(&response);
    assert_eq!(minted.len(), 16, "{response}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{response}");

    // An invalid caller id (embedded spaces) is replaced, never echoed.
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\nx-request-id: not ok id\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut s);
    let replaced = response_request_id(&response);
    assert_ne!(replaced, "not ok id", "{response}");
    assert!(caffeine_obs::valid_request_id(&replaced), "{response}");

    // Error paths carry the id too: a routed 404 …
    s.write_all(b"GET /v1/jobs/424242 HTTP/1.1\r\nhost: x\r\nx-request-id: miss-404\r\n\r\n")
        .unwrap();
    let response = read_one_response(&mut s);
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(response.contains("x-request-id: miss-404"), "{response}");

    // … and a parse-level 400 on a fresh socket.
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(b"BLURB\r\n\r\n").unwrap();
    let mut raw = String::new();
    bad.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("x-request-id: "), "{raw}");

    // Every request above left a JSON access-log line; the ids on the
    // wire match the ids in the log. (The log line is written just after
    // the response bytes, so allow a brief settle.)
    let deadline = Instant::now() + Duration::from_secs(5);
    let logs: Vec<serde_json::Value> = loop {
        let access: Vec<serde_json::Value> = capture
            .lines()
            .iter()
            .filter_map(|l| serde_json::from_str(l).ok())
            .filter(|v: &serde_json::Value| v["event"].as_str() == Some("http.access"))
            .collect();
        if access.len() >= 5 || Instant::now() > deadline {
            break access;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(logs.len() >= 5, "expected ≥5 access lines, got {logs:?}");
    let by_id = |id: &str| {
        logs.iter()
            .find(|v| v["request_id"].as_str() == Some(id))
            .unwrap_or_else(|| panic!("no access log for {id}: {logs:?}"))
    };
    let line = by_id("caller-id.01");
    assert_eq!(line["route"].as_str(), Some("healthz"), "{line:?}");
    assert_eq!(line["status"].as_u64(), Some(200), "{line:?}");
    assert_eq!(line["method"].as_str(), Some("GET"), "{line:?}");
    assert_eq!(line["path"].as_str(), Some("/healthz"), "{line:?}");
    assert!(line["latency_ms"].as_f64().is_some(), "{line:?}");
    assert!(line["bytes_out"].as_u64().unwrap() > 0, "{line:?}");
    let line = by_id(&minted);
    assert_eq!(line["route"].as_str(), Some("healthz"), "{line:?}");
    let line = by_id("miss-404");
    assert_eq!(line["status"].as_u64(), Some(404), "{line:?}");
    assert_eq!(line["route"].as_str(), Some("jobs.get"), "{line:?}");
    // The parse-level failure logs under the http_error pseudo-route.
    assert!(
        logs.iter().any(|v| v["route"].as_str() == Some("http_error")
            && v["status"].as_u64() == Some(400)),
        "{logs:?}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Satellite: slow requests get a `http.slow` warn line sharing the
/// access-log field set, gated on the configured threshold.
#[test]
fn slow_request_threshold_emits_warn_line() {
    let (logger, capture) =
        caffeine_obs::Logger::capture(caffeine_obs::Level::Info, caffeine_obs::LogFormat::Json);
    let (addr, handle, join) = boot(ServeConfig {
        logger,
        slow_request: Duration::from_millis(0), // everything is "slow"
        ..ServeConfig::default()
    });
    let r = client::request(&addr, "GET", "/healthz", None, T).unwrap();
    assert_eq!(r.status, 200);
    let id = r.header("x-request-id").unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let hit = capture.lines().iter().any(|l| {
            serde_json::from_str::<serde_json::Value>(l).is_ok_and(|v| {
                v["event"].as_str() == Some("http.slow")
                    && v["level"].as_str() == Some("warn")
                    && v["request_id"].as_str() == Some(id.as_str())
            })
        });
        if hit {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no http.slow line for {id}: {:?}",
            capture.lines()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Tentpole: `GET /dashboard` serves the embedded self-contained page.
#[test]
fn dashboard_endpoint_serves_the_embedded_page() {
    let (addr, handle, join) = boot(ServeConfig::default());
    let r = client::request(&addr, "GET", "/dashboard", None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("text/html; charset=utf-8"));
    assert!(r.header("x-request-id").is_some());
    let body = r.text();
    assert!(
        body.starts_with("<!DOCTYPE html>"),
        "not a page: {body:.0?}"
    );
    assert!(body.contains("EventSource"), "dashboard must follow SSE");
    assert!(body.contains("/v1/jobs"), "dashboard must poll the job API");
    // Non-GET is rejected like any other route mismatch.
    let r = client::request(&addr, "POST", "/dashboard", None, T).unwrap();
    assert_eq!(r.status, 405, "{}", r.text());
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A sorted label set, the identity of a series within a family.
/// `/metrics` folds each stats interval once: after a finished 2-island
/// job, the engine wall and cache totals equal the sums over island 0's
/// SSE `progress` breakdowns, not one copy per island.
#[test]
fn engine_phase_metrics_fold_each_stats_interval_once() {
    let (addr, handle, join) = boot(ServeConfig::default());

    // 40 generations with stats every 4: stats generations 0, 4, …, 36
    // and the last one close 11 intervals per island.
    let points: Vec<Vec<f64>> = (1..=20).map(|i| vec![f64::from(i) * 0.4]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 40,
        "max_bases": 4,
        "seed": 5,
        "islands": 2,
        "grammar": "rational",
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
    let mut island0 = Vec::new();
    let mut islands = std::collections::BTreeSet::new();
    client::sse_tail(
        &addr,
        &format!("/v1/jobs/{id}/events"),
        Duration::from_secs(60),
        |event| {
            if event.event == "progress" {
                let frame: serde_json::Value = serde_json::from_str(&event.data).unwrap();
                let island = frame["island"].as_u64().unwrap();
                islands.insert(island);
                if island == 0 {
                    island0.push(frame["phases"].clone());
                }
            }
            event.event != "done"
        },
    )
    .unwrap();
    assert_eq!(islands.len(), 2, "both islands report progress");
    assert_eq!(island0.len(), 11, "{island0:?}");

    let text = client::request(&addr, "GET", "/metrics", None, T)
        .unwrap()
        .text();
    let metric = |series: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {series} in {text}"))
    };
    let sum = |field: &str| -> f64 { island0.iter().map(|p| p[field].as_f64().unwrap()).sum() };
    // Each fold truncates to whole microseconds.
    let wall = metric("caffeine_engine_phase_seconds{phase=\"wall\"}");
    let sse_wall = sum("wall");
    assert!(sse_wall > 0.0);
    assert!(
        wall <= sse_wall + 1e-9 && sse_wall - wall <= island0.len() as f64 * 1e-6 + 1e-9,
        "/metrics wall {wall} vs island-0 SSE sum {sse_wall}"
    );
    assert_eq!(
        metric("caffeine_engine_cache_hits_total"),
        sum("cache_hits")
    );
    assert_eq!(
        metric("caffeine_engine_cache_misses_total"),
        sum("cache_misses")
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

type LabelSet = Vec<(String, String)>;

/// Splits a `k="v",k2="v2"` label string into sorted pairs. Values in
/// this exposition never contain commas or escaped quotes.
fn label_pairs(labels: &str) -> LabelSet {
    let mut pairs: Vec<(String, String)> = labels
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|kv| {
            let eq = kv.find('=').unwrap_or_else(|| panic!("bad label: {kv}"));
            (
                kv[..eq].to_string(),
                kv[eq + 1..].trim_matches('"').to_string(),
            )
        })
        .collect();
    pairs.sort();
    pairs
}

/// Satellite: the whole `/metrics` exposition parses — every sample is
/// `name[{labels}] value`, every family has a `# TYPE`, no series
/// repeats, histogram buckets are cumulative and end at `+Inf` equal to
/// `_count` — and engine-phase counters accumulate real job time.
#[test]
fn metrics_exposition_parses_and_engine_phases_accumulate() {
    let (addr, handle, join) = boot(ServeConfig::default());

    // Drive a real job to completion so the engine-phase counters move,
    // then mix in ordinary traffic for more route series.
    let points: Vec<Vec<f64>> = (1..=20).map(|i| vec![f64::from(i) * 0.4]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    let spec = serde_json::json!({
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 200,
        "max_bases": 4,
        "seed": 7,
        "grammar": "rational",
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
    client::sse_tail(
        &addr,
        &format!("/v1/jobs/{id}/events"),
        Duration::from_secs(60),
        |event| event.event != "done",
    )
    .unwrap();
    client::request(&addr, "GET", "/healthz", None, T).unwrap();
    client::request(&addr, "GET", "/no-such-route", None, T).unwrap();

    let text = client::request(&addr, "GET", "/metrics", None, T)
        .unwrap()
        .text();

    // Parse every line of the exposition.
    let mut types: std::collections::HashMap<String, String> = Default::default();
    let mut seen: std::collections::HashSet<String> = Default::default();
    let mut samples: Vec<(String, String, f64)> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap().to_string();
            let kind = it.next().unwrap_or("").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "{line}"
            );
            assert!(types.insert(name, kind).is_none(), "duplicate TYPE: {line}");
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment: {line}");
            continue;
        }
        let (name, labels, value) = if let Some(brace) = line.find('{') {
            let close = line
                .rfind('}')
                .unwrap_or_else(|| panic!("unclosed labels: {line}"));
            (
                &line[..brace],
                &line[brace + 1..close],
                line[close + 1..].trim(),
            )
        } else {
            let sp = line.find(' ').unwrap_or_else(|| panic!("no value: {line}"));
            (&line[..sp], "", line[sp + 1..].trim())
        };
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value: {line}"));
        assert!(value.is_finite(), "non-finite sample: {line}");
        assert!(
            seen.insert(format!("{name}{{{labels}}}")),
            "duplicate series: {line}"
        );
        samples.push((name.to_string(), labels.to_string(), value));
    }
    assert!(!samples.is_empty(), "empty exposition:\n{text}");

    // Every sample belongs to a declared family; histogram children
    // (`_bucket`/`_sum`/`_count`) resolve to their base name.
    for (name, _, _) in &samples {
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(types.contains_key(base), "undeclared family for {name}");
    }

    // Histogram buckets are cumulative per label set and end at +Inf,
    // which must agree with the `_count` series.
    for (base, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let mut groups: std::collections::HashMap<LabelSet, Vec<(f64, f64)>> = Default::default();
        for (name, labels, value) in &samples {
            if name != &format!("{base}_bucket") {
                continue;
            }
            let mut pairs = label_pairs(labels);
            let le_at = pairs
                .iter()
                .position(|(k, _)| k == "le")
                .unwrap_or_else(|| panic!("bucket without le: {labels}"));
            let le = pairs.remove(le_at).1;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| panic!("bad le: {labels}"))
            };
            groups.entry(pairs).or_default().push((le, *value));
        }
        assert!(!groups.is_empty(), "histogram {base} emitted no buckets");
        for (pairs, mut buckets) in groups {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in buckets.windows(2) {
                assert!(
                    w[1].1 >= w[0].1,
                    "{base}{pairs:?} buckets not cumulative: {buckets:?}"
                );
            }
            let (last_le, inf_count) = *buckets.last().unwrap();
            assert!(last_le.is_infinite(), "{base}{pairs:?} missing +Inf bucket");
            let count = samples
                .iter()
                .find(|(n, l, _)| n == &format!("{base}_count") && label_pairs(l) == pairs)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("{base}_count missing for {pairs:?}"));
            assert_eq!(inf_count, count, "{base}{pairs:?}: +Inf != _count");
            assert!(
                samples
                    .iter()
                    .any(|(n, l, _)| n == &format!("{base}_sum") && label_pairs(l) == pairs),
                "{base}_sum missing for {pairs:?}"
            );
        }
    }

    // Build/process identity gauges.
    let start = samples
        .iter()
        .find(|(n, _, _)| n == "process_start_time_seconds")
        .map(|(_, _, v)| *v)
        .expect("process_start_time_seconds missing");
    assert!(start > 1.0e9, "implausible start time {start}");
    assert!(
        seen.contains(&format!(
            "caffeine_build_info{{version=\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        )),
        "{text}"
    );

    // Engine phases accumulated real time from the finished job.
    let phase = |which: &str| {
        samples
            .iter()
            .find(|(n, l, _)| {
                n == "caffeine_engine_phase_seconds" && l.contains(&format!("phase=\"{which}\""))
            })
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("missing engine phase {which}"))
    };
    assert!(phase("wall") > 0.0, "wall phase never accumulated");
    assert!(
        phase("basis_eval") + phase("linear_solve") + phase("eval_other") > 0.0,
        "no evaluation time recorded"
    );
    for which in ["selection", "migration"] {
        assert!(phase(which) >= 0.0);
    }

    // Trace-store families declare as the right kinds and have samples
    // consistent with the traffic above: every request opened at least
    // one span, and the finished job's trace was retained (errored or
    // slow requests count too, so sampled is a lower bound).
    let family = |name: &str| {
        samples
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(types["caffeine_trace_spans_total"], "counter");
    assert_eq!(types["caffeine_traces_sampled_total"], "counter");
    assert_eq!(types["caffeine_traces_dropped_total"], "counter");
    assert_eq!(types["caffeine_trace_store_bytes"], "gauge");
    assert!(family("caffeine_trace_spans_total") >= 4.0);
    assert!(family("caffeine_traces_sampled_total") >= 0.0);
    assert!(family("caffeine_traces_dropped_total") >= 0.0);
    assert!(family("caffeine_trace_store_bytes") >= 0.0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}
