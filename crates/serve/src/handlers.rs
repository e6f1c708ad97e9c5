//! Route dispatch: one function per endpoint, all pure request →
//! response over the shared server state.

use std::sync::Arc;
use std::time::Duration;

use caffeine_core::ModelArtifact;
use caffeine_obs::{CompletedTrace, TraceSpan, TraceSummary};

use crate::error::ApiError;
use crate::http::{Request, Response};
use crate::jobs::{JobEntry, JobSpec};
use crate::predict;
use crate::router::{route, Route};
use crate::server::Shared;

/// A short label for metrics (bounded cardinality: route shape, not raw
/// path).
pub fn route_label(r: &Route) -> &'static str {
    match r {
        Route::Health => "healthz",
        Route::Ready => "readyz",
        Route::Metrics => "metrics",
        Route::Dashboard => "dashboard",
        Route::ListModels => "models.list",
        Route::PublishModel(_) => "models.publish",
        Route::GetModel(_) => "models.get",
        Route::Predict(_) => "models.predict",
        Route::ListJobs => "jobs.list",
        Route::SubmitJob => "jobs.submit",
        Route::GetJob(_) => "jobs.get",
        Route::JobEvents(_) => "jobs.events",
        Route::CancelJob(_) => "jobs.cancel",
        Route::ListTraces => "traces.list",
        Route::GetTrace(_) => "traces.get",
        Route::Shutdown => "admin.shutdown",
    }
}

/// What a handled request turns into: almost always a buffered
/// [`Response`], except for the SSE endpoint, which hands the connection
/// over to a streaming writer in the server loop.
#[derive(Debug)]
pub enum Outcome {
    /// A complete response, written with `Content-Length` framing.
    Response(Response),
    /// Stream this job's events as `text/event-stream` until it ends.
    StreamJobEvents(Arc<JobEntry>),
}

/// Resolves and executes a request. Returns the outcome plus the metric
/// label it should be recorded under. `request_id` is the correlation id
/// the server resolved for this request; handlers thread it into their
/// debug logs so handler-level lines correlate with the access log.
/// `root` is the request's root server span — job submission links the
/// job's trace to it, so a job's whole lifecycle shares the submitting
/// request's trace id.
pub fn handle(
    shared: &Arc<Shared>,
    request: &Request,
    request_id: &str,
    root: &mut TraceSpan,
) -> (Outcome, &'static str) {
    match route(&request.method, &request.path) {
        Err(e) => (Outcome::Response(e.into_response()), "unrouted"),
        Ok(r) => {
            let label = route_label(&r);
            let outcome = dispatch(shared, &r, request, request_id, root)
                .unwrap_or_else(|e| Outcome::Response(e.into_response()));
            (outcome, label)
        }
    }
}

/// Replaces non-finite floats with `null`, recursively. The vendored
/// JSON writer emits bare `Infinity` / `NaN` tokens (a deliberate
/// extension for checkpoint fidelity), which strict JSON clients cannot
/// parse — API responses (and SSE frames, see [`crate::jobs`]) must stay
/// standard.
pub(crate) fn sanitize(v: serde_json::Value) -> serde_json::Value {
    match v {
        serde_json::Value::Float(f) if !f.is_finite() => serde_json::Value::Null,
        serde_json::Value::Array(items) => {
            serde_json::Value::Array(items.into_iter().map(sanitize).collect())
        }
        serde_json::Value::Object(m) => {
            serde_json::Value::Object(m.into_iter().map(|(k, val)| (k, sanitize(val))).collect())
        }
        other => other,
    }
}

fn json_response(status: u16, value: serde_json::Value) -> Response {
    // Sanitized `Value`s always serialize; degrade to a well-formed JSON
    // error body rather than panicking mid-request if that ever breaks.
    let body = serde_json::to_string(&sanitize(value)).unwrap_or_else(|_| {
        r#"{"error":{"code":"internal","message":"response rendering failed"}}"#.to_string()
    });
    Response::json(status, body)
}

fn ok_json(value: serde_json::Value) -> Response {
    json_response(200, value)
}

fn dispatch(
    shared: &Arc<Shared>,
    route: &Route,
    request: &Request,
    request_id: &str,
    root: &mut TraceSpan,
) -> Result<Outcome, ApiError> {
    if let Route::JobEvents(id) = route {
        let entry = shared
            .jobs
            .get(*id)
            .ok_or_else(|| ApiError::not_found(format!("no job {id}")))?;
        shared.metrics.observe_sse_stream();
        return Ok(Outcome::StreamJobEvents(entry));
    }
    dispatch_response(shared, route, request, request_id, root).map(Outcome::Response)
}

fn dispatch_response(
    shared: &Arc<Shared>,
    route: &Route,
    request: &Request,
    request_id: &str,
    root: &mut TraceSpan,
) -> Result<Response, ApiError> {
    match route {
        Route::Health => Ok(ok_json(serde_json::json!({"status": "ok"}))),
        Route::Ready => match shared.readiness() {
            Ok(()) => Ok(ok_json(serde_json::json!({"status": "ready"}))),
            Err(reason) => Ok(json_response(
                503,
                serde_json::json!({"status": "unavailable", "reason": reason}),
            )),
        },
        Route::Metrics => {
            let text = shared.metrics.render(
                shared.registry.hits(),
                shared.registry.misses(),
                &shared.traces.stats(),
            );
            Ok(Response::text(200, text))
        }
        Route::Dashboard => Ok(Response::html(200, crate::dashboard::page())),
        Route::ListModels => {
            let models: Vec<serde_json::Value> = shared
                .registry
                .list()
                .into_iter()
                .map(|(id, versions)| {
                    serde_json::json!({
                        "id": id,
                        "latest": versions.last().cloned(),
                        "versions": versions,
                    })
                })
                .collect();
            Ok(ok_json(serde_json::json!({ "models": models })))
        }
        Route::PublishModel(id) => {
            let text = std::str::from_utf8(&request.body)
                .map_err(|_| ApiError::bad_request("artifact body is not UTF-8"))?;
            let artifact = ModelArtifact::from_json(text).map_err(ApiError::from)?;
            let (version, created) = shared.registry.publish(id, artifact)?;
            shared.logger().debug(
                "registry.publish",
                &[
                    ("request_id", request_id.into()),
                    ("model_id", id.as_str().into()),
                    ("version", version.as_str().into()),
                    ("created", created.into()),
                ],
            );
            let status = if created { 201 } else { 200 };
            Ok(json_response(
                status,
                serde_json::json!({
                    "id": id.clone(),
                    "version": version,
                    "created": created,
                }),
            ))
        }
        Route::GetModel(id) => {
            let stored = shared
                .registry
                .get(id, request.query_param("version"))
                .ok_or_else(|| no_such_model(id, request))?;
            Ok(Response::json(200, stored.artifact.to_json())
                .with_header("x-model-version", stored.version))
        }
        Route::Predict(id) => {
            let stored = shared
                .registry
                .get(id, request.query_param("version"))
                .ok_or_else(|| no_such_model(id, request))?;
            // Decoded only after the lookup, so an unknown model is a 404
            // whatever the body, and against the artifact's width.
            let body = predict::parse_predict_body(&request.body, stored.artifact.n_vars())?;
            let predictions = stored
                .artifact
                .predict_matrix(body.model_index, &body.points)
                .map_err(ApiError::from)?;
            shared.logger().debug(
                "registry.predict",
                &[
                    ("request_id", request_id.into()),
                    ("model_id", id.as_str().into()),
                    ("version", stored.version.as_str().into()),
                    ("n_points", body.points.n_points().into()),
                ],
            );
            let rendered = predict::render_predictions(id, &stored.version, &predictions);
            Ok(
                Response::json(200, rendered)
                    .with_header("x-model-version", stored.version.clone()),
            )
        }
        Route::ListJobs => {
            let state = request.query_param("state");
            if let Some(s) = state {
                if !JobEntry::STATES.contains(&s) {
                    return Err(ApiError::bad_request(format!(
                        "unknown state `{s}` (use one of {})",
                        JobEntry::STATES.join(", ")
                    )));
                }
            }
            Ok(ok_json(
                serde_json::json!({ "jobs": shared.jobs.list_json(state) }),
            ))
        }
        Route::SubmitJob => {
            let spec = JobSpec::from_json(&request.body)?;
            // Link the job's long-lived trace to this request: the job
            // trace reuses the request's trace id, so the whole lifecycle
            // (HTTP accept → queued → running → publish) is one tree.
            let parent = root.is_recording().then(|| root.context());
            let entry = shared.jobs.submit(
                spec,
                Arc::clone(&shared.registry),
                Arc::clone(&shared.metrics),
                parent,
            )?;
            shared.metrics.observe_job_submitted();
            if let Some(trace) = entry.trace_id() {
                root.attr("job.trace_id", trace);
            }
            Ok(json_response(201, entry.status_json()))
        }
        Route::GetJob(id) => {
            let entry = shared
                .jobs
                .get(*id)
                .ok_or_else(|| ApiError::not_found(format!("no job {id}")))?;
            Ok(ok_json(entry.status_json()))
        }
        Route::CancelJob(id) => {
            let entry = shared
                .jobs
                .get(*id)
                .ok_or_else(|| ApiError::not_found(format!("no job {id}")))?;
            // A job that already reached a terminal state has nothing to
            // cancel: answer 409 carrying that state, so clients can tell
            // "cancel accepted" from "too late" (a live cancel is 202).
            let outcome = entry.outcome();
            if outcome.is_terminal() {
                let state = entry.state();
                return Ok(json_response(
                    409,
                    serde_json::json!({
                        "error": {
                            "code": "already_terminal",
                            "message": format!(
                                "job {id} already reached terminal state `{state}`"
                            ),
                        },
                        "state": state,
                    }),
                ));
            }
            // Via the manager, not the controller: a job still waiting in
            // the admission queue has no driver thread and must settle
            // synchronously.
            shared.jobs.cancel(*id);
            Ok(json_response(202, entry.status_json()))
        }
        Route::ListTraces => {
            let min_duration = match request.query_param("min_duration_ms") {
                None => Duration::ZERO,
                Some(raw) => Duration::from_millis(raw.parse::<u64>().map_err(|_| {
                    ApiError::bad_request("`min_duration_ms` must be a nonnegative integer")
                })?),
            };
            let error_only = match request.query_param("error") {
                None | Some("false") => false,
                Some("true") => true,
                Some(other) => {
                    return Err(ApiError::bad_request(format!(
                        "`error` must be `true` or `false`, not `{other}`"
                    )))
                }
            };
            let job = request.query_param("job");
            let attr = job.map(|id| ("job.id", id));
            let summaries = shared.traces.list(min_duration, error_only, attr);
            let traces: Vec<serde_json::Value> = summaries.iter().map(summary_json).collect();
            Ok(ok_json(serde_json::json!({ "traces": traces })))
        }
        Route::GetTrace(id) => {
            let trace_id = parse_trace_id(id)
                .ok_or_else(|| ApiError::not_found(format!("no trace `{id}`")))?;
            let trace = shared.traces.get(trace_id).ok_or_else(|| {
                ApiError::not_found(format!(
                    "no trace `{id}` (not yet finished, not sampled, or evicted)"
                ))
            })?;
            Ok(ok_json(trace_json(&trace)))
        }
        // Dispatched before this match (it hijacks the connection for
        // streaming); reaching here is a routing bug, reported as a 500
        // instead of tearing down the worker.
        Route::JobEvents(_) => Err(ApiError::internal("job-events route missed dispatch")),
        Route::Shutdown => {
            shared.begin_shutdown();
            Ok(json_response(202, serde_json::json!({"draining": true})))
        }
    }
}

/// Parses a canonical 32-hex-digit trace id. Strict: exact length, hex
/// digits only (no signs, whitespace, or `0x`).
fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

fn summary_json(s: &TraceSummary) -> serde_json::Value {
    serde_json::json!({
        "trace_id": format!("{:032x}", s.trace_id),
        "root": s.root_name,
        "start_unix_ns": s.start_unix_ns,
        "duration_ms": s.duration_ns as f64 / 1e6,
        "n_spans": s.n_spans,
        "error": s.error,
    })
}

fn trace_json(t: &CompletedTrace) -> serde_json::Value {
    let spans: Vec<serde_json::Value> = t
        .spans
        .iter()
        .map(|s| {
            let attrs: serde_json::Value = serde_json::Value::Object(
                s.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
                    .collect(),
            );
            serde_json::json!({
                "span_id": format!("{:016x}", s.span_id),
                "parent_span_id": s.parent_span_id.map(|p| format!("{p:016x}")),
                "name": s.name,
                "kind": s.kind.as_str(),
                "start_unix_ns": s.start_unix_ns,
                // Offset from the trace's first span: small enough to stay
                // exact in JS (raw unix ns exceeds f64 precision).
                "offset_ns": s.start_unix_ns.saturating_sub(t.start_unix_ns),
                "duration_ns": s.duration_ns,
                "attrs": attrs,
                "error": s.error,
            })
        })
        .collect();
    serde_json::json!({
        "trace_id": format!("{:032x}", t.trace_id),
        "root": t.root_name,
        "start_unix_ns": t.start_unix_ns,
        "duration_ms": t.duration_ns as f64 / 1e6,
        "error": t.error,
        "n_spans": t.spans.len(),
        "spans": spans,
    })
}

fn no_such_model(id: &str, request: &Request) -> ApiError {
    match request.query_param("version") {
        Some(v) => ApiError::not_found(format!("no version `{v}` of model `{id}`")),
        None => ApiError::not_found(format!("no model `{id}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    fn bare_request(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
            http10: false,
        }
    }

    /// Satellite regression test: `DELETE` on a job that already reached
    /// a terminal state answers 409 with that state in the body, while a
    /// live cancel stays 202 — the two used to be indistinguishable.
    #[test]
    fn delete_on_a_terminal_job_is_409_with_the_state() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .unwrap();
        let shared = std::sync::Arc::clone(server.handle().shared());
        let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
        let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
        let spec = JobSpec::from_json(
            serde_json::to_string(&serde_json::json!({
                "var_names": ["x0"],
                "points": points,
                "targets": targets,
                "population": 16,
                "generations": 2,
                "grammar": "rational",
            }))
            .unwrap()
            .as_bytes(),
        )
        .unwrap();
        let entry = shared
            .jobs
            .submit(
                spec,
                std::sync::Arc::clone(&shared.registry),
                std::sync::Arc::clone(&shared.metrics),
                None,
            )
            .unwrap();
        entry.join(); // terminal (finished)

        let request = bare_request("DELETE", &format!("/v1/jobs/{}", entry.id));
        let (outcome, label) = handle(&shared, &request, "t-rid", &mut TraceSpan::noop());
        assert_eq!(label, "jobs.cancel");
        let Outcome::Response(response) = outcome else {
            panic!("cancel must not stream");
        };
        assert_eq!(response.status, 409);
        let body: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(body["state"].as_str(), Some("finished"));
        assert_eq!(body["error"]["code"].as_str(), Some("already_terminal"));
        assert!(
            body["error"]["message"]
                .as_str()
                .unwrap()
                .contains("terminal state `finished`"),
            "{body:?}"
        );

        // A live job still cancels with 202.
        let long = JobSpec::from_json(
            serde_json::to_string(&serde_json::json!({
                "var_names": ["x0"],
                "points": points,
                "targets": targets,
                "population": 16,
                "generations": 1_000_000,
                "grammar": "rational",
            }))
            .unwrap()
            .as_bytes(),
        )
        .unwrap();
        let live = shared
            .jobs
            .submit(
                long,
                std::sync::Arc::clone(&shared.registry),
                std::sync::Arc::clone(&shared.metrics),
                None,
            )
            .unwrap();
        let request = bare_request("DELETE", &format!("/v1/jobs/{}", live.id));
        let (outcome, _) = handle(&shared, &request, "t-rid", &mut TraceSpan::noop());
        let Outcome::Response(response) = outcome else {
            panic!("cancel must not stream");
        };
        assert_eq!(response.status, 202);
        live.join();

        // Unknown job: still a plain 404.
        let (outcome, _) = handle(
            &shared,
            &bare_request("DELETE", "/v1/jobs/424242"),
            "t-rid",
            &mut TraceSpan::noop(),
        );
        let Outcome::Response(response) = outcome else {
            panic!("cancel must not stream");
        };
        assert_eq!(response.status, 404);
    }

    #[test]
    fn responses_never_carry_nonstandard_json_tokens() {
        let r = json_response(
            200,
            serde_json::json!({
                "ys": [1.5, f64::INFINITY, f64::NAN, -2.0],
                "nested": { "e": f64::NEG_INFINITY },
            }),
        );
        let body = String::from_utf8(r.body).unwrap();
        assert!(!body.contains("Infinity"), "{body}");
        assert!(!body.contains("NaN"), "{body}");
        assert!(body.contains("[1.5,null,null,-2"), "{body}");
        assert!(body.contains("\"e\":null"), "{body}");
    }
}
