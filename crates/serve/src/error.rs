//! Structured API errors: every client-visible failure renders as a JSON
//! body `{"error": {"code": ..., "message": ...}}` with a 4xx/5xx status.

use caffeine_core::CaffeineError;
use caffeine_doe::DoeError;
use caffeine_runtime::RuntimeError;

use crate::http::Response;

/// A client-visible failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// When set, the response carries a `Retry-After: <secs>` header —
    /// overload answers (429/503) tell clients when to come back.
    pub retry_after: Option<u64>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 400 — the request body or parameters are invalid.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// 404 — no such resource.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    /// 405 — the path exists but not under this method.
    pub fn method_not_allowed(message: impl Into<String>) -> ApiError {
        ApiError::new(405, "method_not_allowed", message)
    }

    /// 422 — syntactically fine, semantically unusable.
    pub fn unprocessable(message: impl Into<String>) -> ApiError {
        ApiError::new(422, "unprocessable", message)
    }

    /// 429 — the bounded job store has no free slot.
    pub fn too_many_jobs(message: impl Into<String>) -> ApiError {
        ApiError::new(429, "too_many_jobs", message)
    }

    /// 500 — the server failed.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError::new(500, "internal", message)
    }

    /// Attaches a `Retry-After` hint in whole seconds (clamped to ≥ 1).
    pub fn with_retry_after(mut self, secs: u64) -> ApiError {
        self.retry_after = Some(secs.max(1));
        self
    }

    /// Renders the error as its JSON response.
    pub fn into_response(self) -> Response {
        let body = serde_json::json!({
            "error": { "code": self.code, "message": self.message }
        });
        // Serializing a `Value` of strings cannot fail, but the error
        // path of all places must not take that on faith.
        let rendered = serde_json::to_string(&body).unwrap_or_else(|_| {
            r#"{"error":{"code":"internal","message":"error rendering failed"}}"#.to_string()
        });
        let response = Response::json(self.status, rendered);
        match self.retry_after {
            Some(secs) => response.with_header("retry-after", secs.to_string()),
            None => response,
        }
    }
}

impl From<CaffeineError> for ApiError {
    /// Engine validation failures are the client's fault (bad batch, bad
    /// spec, unreadable artifact); everything else is a server error.
    fn from(e: CaffeineError) -> ApiError {
        match &e {
            CaffeineError::InvalidData(_)
            | CaffeineError::InvalidSettings(_)
            | CaffeineError::InvalidGrammar(_)
            | CaffeineError::GrammarParse { .. } => ApiError::bad_request(e.to_string()),
            CaffeineError::UnsupportedSchema { .. } | CaffeineError::ArtifactDecode(_) => {
                ApiError::unprocessable(e.to_string())
            }
            CaffeineError::Linalg(_) | CaffeineError::NoFeasibleModel => {
                ApiError::internal(e.to_string())
            }
        }
    }
}

impl From<DoeError> for ApiError {
    fn from(e: DoeError) -> ApiError {
        ApiError::bad_request(e.to_string())
    }
}

impl From<RuntimeError> for ApiError {
    fn from(e: RuntimeError) -> ApiError {
        match &e {
            RuntimeError::Engine(inner) => ApiError::from(inner.clone()),
            RuntimeError::Io(_) | RuntimeError::Corrupt(_) | RuntimeError::Cancelled => {
                ApiError::internal(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_structured_json() {
        let r = ApiError::bad_request("point 3 is ragged").into_response();
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"code\":\"bad_request\""), "{body}");
        assert!(body.contains("point 3 is ragged"), "{body}");
    }

    #[test]
    fn retry_after_renders_as_a_header() {
        let r = ApiError::too_many_jobs("queue full")
            .with_retry_after(4)
            .into_response();
        assert_eq!(r.status, 429);
        assert!(r
            .headers
            .iter()
            .any(|(n, v)| n == "retry-after" && v == "4"));
        // Clamped to at least one second.
        let r = ApiError::too_many_jobs("busy")
            .with_retry_after(0)
            .into_response();
        assert!(r
            .headers
            .iter()
            .any(|(n, v)| n == "retry-after" && v == "1"));
        // Errors without the hint carry no header.
        let r = ApiError::bad_request("nope").into_response();
        assert!(r.headers.iter().all(|(n, _)| n != "retry-after"));
    }

    #[test]
    fn engine_validation_maps_to_4xx() {
        let e: ApiError = CaffeineError::InvalidData("empty prediction batch".into()).into();
        assert_eq!(e.status, 400);
        let e: ApiError = CaffeineError::UnsupportedSchema {
            found: 9,
            supported: 1,
        }
        .into();
        assert_eq!(e.status, 422);
        let e: ApiError = CaffeineError::NoFeasibleModel.into();
        assert_eq!(e.status, 500);
    }
}
