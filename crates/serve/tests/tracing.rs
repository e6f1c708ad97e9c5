//! End-to-end tracing tests: a real server on an ephemeral port, a real
//! job, and the resulting span tree pulled back over `GET /v1/traces`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use caffeine_obs::TraceContext;
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

fn tiny_job_spec() -> Vec<u8> {
    let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
    let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
    serde_json::to_string(&serde_json::json!({
        "name": "traced-rational",
        "var_names": ["x0"],
        "points": points,
        "targets": targets,
        "population": 24,
        "generations": 6,
        "max_bases": 4,
        "seed": 11,
        "grammar": "rational",
    }))
    .unwrap()
    .into_bytes()
}

/// The tentpole acceptance path: submit a job carrying our own
/// `traceparent`, let it finish, and pull the whole span tree back. The
/// tree must link HTTP accept → queued → running → one `generations`
/// span per stats interval → publish, every child's parent must resolve
/// inside the tree, and the root's parent must be our client span.
#[test]
fn completed_job_trace_links_http_accept_to_publish() {
    let (addr, handle, join) = boot(ServeConfig::default());

    // Sampled flag set: an explicit retention request, so the trace is
    // kept regardless of the store's 10% default sampling rate.
    let mut client_ctx = TraceContext::mint();
    client_ctx.sampled = true;

    let r = client::request_traced(
        &addr,
        "POST",
        "/v1/jobs",
        Some(&tiny_job_spec()),
        T,
        client_ctx,
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.text());

    // The response echoes a traceparent in our trace, and the job adopts
    // the same trace id (one tree for the whole lifecycle).
    let echoed = TraceContext::parse(r.header("traceparent").expect("traceparent echoed"))
        .expect("echoed header parses");
    assert_eq!(echoed.trace_id, client_ctx.trace_id);
    let job = r.json().unwrap();
    let id = job["id"].as_u64().unwrap();
    let trace_id = job["trace_id"].as_str().expect("job carries trace_id");
    assert_eq!(trace_id, client_ctx.trace_id_hex());

    // Run to completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None, T).unwrap();
        match r.json().unwrap()["state"].as_str().unwrap() {
            "finished" => break,
            "failed" | "cancelled" => panic!("job ended badly: {}", r.text()),
            _ => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }

    // The trace completes when the job's event pump drains; give it a
    // moment before declaring it missing.
    let deadline = Instant::now() + Duration::from_secs(30);
    let trace = loop {
        let r = client::request(&addr, "GET", &format!("/v1/traces/{trace_id}"), None, T).unwrap();
        if r.status == 200 {
            break r.json().unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "trace never appeared: {}",
            r.text()
        );
        std::thread::sleep(Duration::from_millis(30));
    };

    let spans = trace["spans"].as_array().expect("spans array");
    assert!(spans.len() >= 6, "want >=6 spans, got {:?}", trace);

    let names: Vec<&str> = spans.iter().map(|s| s["name"].as_str().unwrap()).collect();
    for expected in ["http POST /v1/jobs", "job", "queued", "running", "publish"] {
        assert!(
            names.contains(&expected),
            "missing `{expected}` in {names:?}"
        );
    }
    // Engine time is traced as real stats intervals, never as per-phase
    // spans laid out after the fact.
    for fabricated in [
        "basis_eval",
        "linear_solve",
        "eval_other",
        "selection",
        "migration",
    ] {
        assert!(!names.contains(&fabricated), "`{fabricated}` in {names:?}");
    }

    // Every parent link resolves inside the tree, except the roots whose
    // parent is our own (external) client span.
    let ids: HashSet<&str> = spans
        .iter()
        .map(|s| s["span_id"].as_str().unwrap())
        .collect();
    let client_span_hex = format!("{:016x}", client_ctx.span_id);
    let mut external_parents = 0;
    for s in spans {
        match s["parent_span_id"].as_str() {
            None => panic!("span `{:?}` has no parent", s["name"]),
            Some(p) if ids.contains(p) => {}
            Some(p) => {
                assert_eq!(
                    p, client_span_hex,
                    "span `{:?}` points at an unknown parent",
                    s["name"]
                );
                external_parents += 1;
            }
        }
    }
    assert!(external_parents >= 1, "no span claims the client as parent");

    // The HTTP server span and the job span share our trace id; phase
    // spans parent under `running`, which parents under `job`.
    let span_by_name = |n: &str| spans.iter().find(|s| s["name"] == n).unwrap();
    let job_span = span_by_name("job");
    let running = span_by_name("running");
    assert_eq!(
        running["parent_span_id"].as_str().unwrap(),
        job_span["span_id"].as_str().unwrap()
    );
    assert_eq!(
        job_span["attrs"]["job.id"].as_str().unwrap(),
        id.to_string()
    );
    assert_eq!(job_span["attrs"]["job.state"].as_str().unwrap(), "finished");
    let publish = span_by_name("publish");
    assert_eq!(
        publish["parent_span_id"].as_str().unwrap(),
        job_span["span_id"].as_str().unwrap()
    );
    assert!(publish["attrs"]["model.version"].as_str().is_some());

    // 6 generations at stats_every 1: one `generations` span per stats
    // interval, each a child of `running` inside its extent, in order and
    // without overlap, carrying the interval's phase breakdown.
    let ns = |s: &serde_json::Value, key: &str| s[key].as_u64().unwrap();
    let running_start = ns(running, "start_unix_ns");
    let running_end = running_start + ns(running, "duration_ns");
    let mut intervals: Vec<&serde_json::Value> = spans
        .iter()
        .filter(|s| s["name"] == "generations")
        .collect();
    assert_eq!(intervals.len(), 6, "{names:?}");
    intervals.sort_by_key(|s| ns(s, "start_unix_ns"));
    let mut previous_end = running_start;
    for (i, span) in intervals.iter().enumerate() {
        assert_eq!(span["parent_span_id"], running["span_id"], "{span:?}");
        let start = ns(span, "start_unix_ns");
        let end = start + ns(span, "duration_ns");
        assert!(previous_end <= start, "overlaps its predecessor: {span:?}");
        assert!(end <= running_end, "ends after `running`: {span:?}");
        previous_end = end;
        let attr = |key: &str| -> f64 {
            span["attrs"][key]
                .as_str()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("attr `{key}` missing: {span:?}"))
        };
        assert_eq!(attr("generation"), (i + 1) as f64);
        assert!(attr("wall") > 0.0, "{span:?}");
        assert!(attr("basis_eval") + attr("linear_solve") > 0.0, "{span:?}");
    }

    // The list view finds it by job id, and the filters hold.
    let r = client::request(&addr, "GET", &format!("/v1/traces?job={id}"), None, T).unwrap();
    assert_eq!(r.status, 200);
    let listed = r.json().unwrap();
    let rows = listed["traces"].as_array().unwrap();
    assert!(rows.iter().any(|t| t["trace_id"] == trace_id), "{listed:?}");
    let r = client::request(&addr, "GET", "/v1/traces?error=true", None, T).unwrap();
    for t in r.json().unwrap()["traces"].as_array().unwrap() {
        assert_eq!(t["error"].as_bool(), Some(true));
    }
    // Bad filter values are 400s, unknown ids 404s.
    let r = client::request(&addr, "GET", "/v1/traces?min_duration_ms=x", None, T).unwrap();
    assert_eq!(r.status, 400);
    let r = client::request(&addr, "GET", "/v1/traces/zz", None, T).unwrap();
    assert_eq!(r.status, 404);

    // The trace metrics families render with real counts.
    let r = client::request(&addr, "GET", "/metrics", None, T).unwrap();
    let text = r.text();
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name} in {text}"))
    };
    assert!(metric("caffeine_trace_spans_total") >= 6.0);
    assert!(metric("caffeine_traces_sampled_total") >= 1.0);
    assert!(metric("caffeine_trace_store_bytes") > 0.0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `/readyz` answers 200 while serving and flips to 503 on the same
/// kept-alive connection once a drain begins.
#[test]
fn readyz_flips_to_503_during_drain() {
    let (addr, _handle, join) = boot(ServeConfig::default());

    let mut conn = client::Connection::new(&addr, T);
    let r = conn.request("GET", "/readyz", None).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.json().unwrap()["status"].as_str(), Some("ready"));

    let r = conn.request("POST", "/v1/admin/shutdown", None).unwrap();
    assert_eq!(r.status, 202, "{}", r.text());

    // Same connection: the acceptor is closing, but the in-flight
    // keep-alive connection gets one more answer — and readiness now
    // says no (the drain then closes the connection).
    let r = conn.request("GET", "/readyz", None).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    let body = r.json().unwrap();
    assert_eq!(body["status"].as_str(), Some("unavailable"));
    assert_eq!(body["reason"].as_str(), Some("draining"));

    join.join().unwrap().unwrap();
}

/// Hammering the daemon with hundreds of traced requests keeps the trace
/// store bounded: the byte gauge stays sane and evictions are counted
/// instead of memory growing without limit.
#[test]
fn trace_store_stays_bounded_under_request_hammer() {
    let (addr, handle, join) = boot(ServeConfig {
        trace_capacity: 32,
        trace_sample_rate: 1.0,
        ..ServeConfig::default()
    });

    let mut conn = client::Connection::new(&addr, T);
    for i in 0..500 {
        let mut ctx = TraceContext::mint();
        ctx.sampled = true; // force retention so the ring must evict
        let r = conn
            .request_traced("GET", "/healthz", None, ctx)
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(r.status, 200);
    }

    let r = conn.request("GET", "/metrics", None).unwrap();
    let text = r.text();
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name} in {text}"))
    };
    assert!(
        metric("caffeine_traces_dropped_total") >= 400.0,
        "ring did not evict: {text}"
    );
    // 32 retained traces of a couple spans each: well under a megabyte.
    assert!(metric("caffeine_trace_store_bytes") < 1_000_000.0);

    let r = conn.request("GET", "/v1/traces", None).unwrap();
    assert!(r.json().unwrap()["traces"].as_array().unwrap().len() <= 32);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A completed job's held-open trace is an ordinary ring citizen: once
/// the job finishes and the hold ends, later traffic evicts it, and the
/// store's byte gauge shows no permanent growth from the hold — the
/// job-hold release path end to end, over real HTTP.
#[test]
fn completed_job_traces_are_evicted_by_later_traffic_without_byte_growth() {
    let (addr, handle, join) = boot(ServeConfig {
        trace_capacity: 4,
        trace_sample_rate: 1.0,
        ..ServeConfig::default()
    });

    // One traced job, driven to completion. Its trace is held open for
    // the job's whole life — well past the submitting request.
    let mut ctx = TraceContext::mint();
    ctx.sampled = true;
    let r =
        client::request_traced(&addr, "POST", "/v1/jobs", Some(&tiny_job_spec()), T, ctx).unwrap();
    assert_eq!(r.status, 201, "{}", r.text());
    let job = r.json().unwrap();
    let id = job["id"].as_u64().unwrap();
    let trace_id = job["trace_id"].as_str().unwrap().to_string();

    let mut conn = client::Connection::new(&addr, T);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = conn
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .unwrap();
        match r.json().unwrap()["state"].as_str().unwrap() {
            "finished" => break,
            "failed" | "cancelled" => panic!("job ended badly: {}", r.text()),
            _ => {
                assert!(Instant::now() < deadline, "job did not finish in time");
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }
    // The hold ends when the pump drains; the completed trace appears.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = conn
            .request("GET", &format!("/v1/traces/{trace_id}"), None)
            .unwrap();
        if r.status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "job trace never completed");
        std::thread::sleep(Duration::from_millis(30));
    }

    // Now hammer the daemon: at sample rate 1.0 every request's trace
    // enters the 4-slot ring, so the released job trace must be evicted
    // like any other — a leaked hold would pin it (and its bytes).
    for _ in 0..50 {
        let mut ctx = TraceContext::mint();
        ctx.sampled = true;
        let r = conn.request_traced("GET", "/healthz", None, ctx).unwrap();
        assert_eq!(r.status, 200);
    }
    let r = conn
        .request("GET", &format!("/v1/traces/{trace_id}"), None)
        .unwrap();
    assert_eq!(
        r.status,
        404,
        "completed job trace survived 50 evicting requests: {}",
        r.text()
    );

    // No permanent growth: the ring holds at most 4 healthz-sized
    // traces, so the byte gauge must be tiny and the evictions counted.
    let r = conn.request("GET", "/metrics", None).unwrap();
    let text = r.text();
    let metric = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name} in {text}"))
    };
    assert!(metric("caffeine_traces_dropped_total") >= 40.0, "{text}");
    assert!(metric("caffeine_trace_store_bytes") < 100_000.0, "{text}");
    let r = conn.request("GET", "/v1/traces", None).unwrap();
    assert!(r.json().unwrap()["traces"].as_array().unwrap().len() <= 4);

    handle.shutdown();
    join.join().unwrap().unwrap();
}
