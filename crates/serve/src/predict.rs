//! The predict route's body decoder and response encoder.
//!
//! `POST /v1/models/{id}/predict` carries most of the daemon's bytes, and
//! a generic decode (text → `Value` tree → one `Vec` per row) costs far
//! more than evaluating the batch. [`parse_predict_body`] instead scans
//! the body once, appending every number into one flat row-major buffer
//! checked against the artifact's width as it goes, and
//! [`render_predictions`] writes the response without building a tree.
//!
//! The scanner accepts exactly the bodies that the vendored `serde_json`
//! parser followed by the `{points, model}` shape check accept, and it
//! yields the same numbers:
//!
//! - whitespace between any two tokens; keys in any order, with escapes
//!   allowed in key names; unknown keys skipped, their values still
//!   well-formed JSON nested at most [`MAX_DEPTH`] deep; for a repeated
//!   key the last occurrence wins;
//! - the extension tokens `NaN`, `Infinity` and `-Infinity`;
//! - a number token is `-`? followed by `[0-9.eE+-]*`. A token without
//!   `.`, `e`, `E`, `+` or an inner `-` is an integer, parsed as `i128`
//!   and converted with `as f64` (falling back to `f64` parsing on
//!   overflow), so `-00` is `+0.0`; the token `-0` is `-0.0`; every other
//!   token goes through `str::parse::<f64>`. `model` takes only an
//!   integer token in `u64` range, or `null`.
//!
//! A syntax error rejects the body at once. A well-formed value of the
//! wrong shape, or a row of the wrong width, only invalidates its key — a
//! later duplicate of the key may still replace it — and the body is
//! rejected when the last occurrence is invalid. Every rejection is a 400.

use std::borrow::Cow;
use std::fmt::Write as _;

use caffeine_doe::PointMatrix;

use crate::error::ApiError;

/// The deepest nesting the vendored JSON parser accepts; the body object
/// itself is depth 0.
const MAX_DEPTH: usize = 192;

/// A decoded predict body.
#[derive(Debug)]
pub(crate) struct PredictBody {
    /// The batch; every point has the artifact's width.
    pub(crate) points: PointMatrix,
    /// Index into the artifact's front; `None` picks the best model.
    pub(crate) model_index: Option<usize>,
}

/// Decodes `{"points": [[…], …], "model": n}` for an artifact taking
/// `n_vars` variables.
///
/// # Errors
///
/// A 400 for every body the generic decoder rejects, and for rows whose
/// width differs from `n_vars` (naming the first such point).
pub(crate) fn parse_predict_body(body: &[u8], n_vars: usize) -> Result<PredictBody, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("predict body is not UTF-8"))?;
    Scanner { text, pos: 0 }.body(n_vars)
}

/// Renders `{"model_id":…,"version":…,"n_points":…,"predictions":[…]}`
/// byte-identically to the generic path (`json!`, non-finite values
/// replaced by `null`, compact `to_string`): floats print with `{}`, the
/// shortest round-trip form, and non-finite predictions become `null`.
pub(crate) fn render_predictions(model_id: &str, version: &str, predictions: &[f64]) -> String {
    let mut out =
        String::with_capacity(64 + model_id.len() + version.len() + 24 * predictions.len());
    out.push_str("{\"model_id\":");
    push_json_string(&mut out, model_id);
    out.push_str(",\"version\":");
    push_json_string(&mut out, version);
    // Writing into a `String` cannot fail.
    let _ = write!(out, ",\"n_points\":{},\"predictions\":[", predictions.len());
    for (i, &y) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if y.is_finite() {
            let _ = write!(out, "{y}");
        } else {
            out.push_str("null");
        }
    }
    out.push_str("]}");
    out
}

/// A JSON string literal from the vendored writer itself. Model ids are
/// limited to `[A-Za-z0-9._-]` and versions are normally hex, but a
/// version read back from a model directory is a file name, so escaping
/// can matter.
fn push_json_string(out: &mut String, s: &str) {
    // The vendored writer never fails; its `Result` mirrors serde_json.
    out.push_str(&serde_json::to_string(s).unwrap_or_default());
}

/// A number token's value, kept apart by kind because `model` accepts
/// integers only.
#[derive(Debug, Clone, Copy)]
enum Number {
    Int(i128),
    Float(f64),
}

impl Number {
    fn to_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }
}

/// The outcome of scanning one key's value: the outer error is a syntax
/// error that ends the scan; the inner one is a shape error that a later
/// duplicate key may still override.
type Field<T> = Result<Result<T, ApiError>, ApiError>;

fn points_shape_error() -> ApiError {
    ApiError::bad_request("field `points` must be an array of arrays of numbers")
}

/// A cursor over a body already known to be UTF-8. It only ever stops on
/// ASCII bytes outside strings, so every slice it takes is on a character
/// boundary.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn syntax(&self, what: &str) -> ApiError {
        ApiError::bad_request(format!(
            "predict body is not JSON: {what} at byte {}",
            self.pos
        ))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ApiError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        let found = self.rest().starts_with(kw.as_bytes());
        if found {
            self.pos += kw.len();
        }
        found
    }

    /// Consumes the `[` under the cursor; `false` (with the `]` consumed
    /// too) when the array is empty.
    fn open_array(&mut self) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(b']');
        if empty {
            self.pos += 1;
        }
        !empty
    }

    /// After an array element: `true` on `,`, `false` on the closing `]`.
    fn next_element(&mut self) -> Result<bool, ApiError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.syntax("expected `,` or `]`")),
        }
    }

    /// Consumes the `{` under the cursor; `false` (with the `}` consumed
    /// too) when the object is empty.
    fn open_object(&mut self) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(b'}');
        if empty {
            self.pos += 1;
        }
        !empty
    }

    /// After an object member: `true` on `,`, `false` on the closing `}`.
    fn next_member(&mut self) -> Result<bool, ApiError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.syntax("expected `,` or `}`")),
        }
    }

    /// `"key":` with whitespace around the colon; the key unescaped.
    fn member_key(&mut self) -> Result<Cow<'a, str>, ApiError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(key)
    }

    /// The whole body: one object, then nothing but whitespace.
    fn body(mut self, n_vars: usize) -> Result<PredictBody, ApiError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            // Any other JSON value lacks `points`, well-formed or not.
            return Err(ApiError::bad_request(
                "predict body must be a JSON object with a `points` array",
            ));
        }
        let mut values = Vec::new();
        let mut points: Option<Result<usize, ApiError>> = None;
        let mut model: Result<Option<usize>, ApiError> = Ok(None);
        if self.open_object() {
            loop {
                let key = self.member_key()?;
                match key.as_ref() {
                    "points" => points = Some(self.points_value(n_vars, &mut values)?),
                    "model" => model = self.model_value()?,
                    _ => self.skip_value(1)?,
                }
                if !self.next_member()? {
                    break;
                }
            }
        }
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.syntax("trailing characters"));
        }
        let n_points = points
            .ok_or_else(|| ApiError::bad_request("predict body needs a `points` array"))??;
        let model_index = model?;
        let points = PointMatrix::try_from_row_major(n_points, n_vars, &values)
            .map_err(|e| ApiError::internal(e.to_string()))?;
        Ok(PredictBody {
            points,
            model_index,
        })
    }

    /// The `points` value at depth 1, appended row by row into `values`
    /// (cleared first); the number of points on success.
    fn points_value(&mut self, n_vars: usize, values: &mut Vec<f64>) -> Field<usize> {
        values.clear();
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.skip_value(1)?;
            return Ok(Err(points_shape_error()));
        }
        // The first problem found; scanning continues to check syntax.
        let mut invalid: Option<ApiError> = None;
        let mut n_points = 0;
        if self.open_array() {
            loop {
                self.skip_ws();
                if self.peek() == Some(b'[') {
                    let (width, numeric) = self.row(values, invalid.is_none())?;
                    if invalid.is_none() {
                        if !numeric {
                            invalid = Some(points_shape_error());
                        } else if width != n_vars {
                            invalid = Some(ApiError::bad_request(format!(
                                "point {n_points} has {width} values but the model takes \
                                 {n_vars} variables"
                            )));
                        }
                    }
                } else {
                    self.skip_value(2)?;
                    invalid.get_or_insert_with(points_shape_error);
                }
                n_points += 1;
                if !self.next_element()? {
                    break;
                }
            }
        }
        Ok(invalid.map_or(Ok(n_points), Err))
    }

    /// One row at depth 2 whose `[` is under the cursor: its element
    /// count and whether every element was a number. Numbers are appended
    /// to `values` while `keep` holds.
    fn row(&mut self, values: &mut Vec<f64>, keep: bool) -> Result<(usize, bool), ApiError> {
        let mut width = 0;
        let mut numeric = true;
        if self.open_array() {
            loop {
                self.skip_ws();
                match self.number_like()? {
                    Some(x) if keep => values.push(x.to_f64()),
                    Some(_) => {}
                    None => {
                        self.skip_value(3)?;
                        numeric = false;
                    }
                }
                width += 1;
                if !self.next_element()? {
                    break;
                }
            }
        }
        Ok((width, numeric))
    }

    /// The `model` value at depth 1: `null` or an integer in `u64` range.
    fn model_value(&mut self) -> Field<Option<usize>> {
        self.skip_ws();
        if self.keyword("null") {
            return Ok(Ok(None));
        }
        let index = match self.number_like()? {
            Some(Number::Int(i)) => usize::try_from(i).ok(),
            Some(Number::Float(_)) => None,
            None => {
                self.skip_value(1)?;
                None
            }
        };
        Ok(index
            .map(Some)
            .ok_or_else(|| ApiError::bad_request("field `model` must be a nonnegative integer")))
    }

    /// A number or an extension token under the cursor; `None`, with
    /// nothing consumed, when the next value is something else.
    fn number_like(&mut self) -> Result<Option<Number>, ApiError> {
        match self.peek() {
            Some(b'N') if self.keyword("NaN") => Ok(Some(Number::Float(f64::NAN))),
            Some(b'I') if self.keyword("Infinity") => Ok(Some(Number::Float(f64::INFINITY))),
            Some(b'-') if self.keyword("-Infinity") => Ok(Some(Number::Float(f64::NEG_INFINITY))),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Some),
            _ => Ok(None),
        }
    }

    /// One number token (see the module docs for the rule).
    fn number(&mut self) -> Result<Number, ApiError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = self.text.get(start..self.pos).unwrap_or_default();
        let parsed = if token == "-0" {
            // An integer cannot carry the sign of zero.
            Ok(Number::Float(-0.0))
        } else if is_float {
            token.parse::<f64>().map(Number::Float)
        } else {
            token
                .parse::<i128>()
                .map(Number::Int)
                .or_else(|_| token.parse::<f64>().map(Number::Float))
        };
        parsed.map_err(|_| {
            ApiError::bad_request(format!(
                "predict body is not JSON: invalid number `{token}` at byte {start}"
            ))
        })
    }

    /// Skips one well-formed value at nesting `depth`.
    fn skip_value(&mut self, depth: usize) -> Result<(), ApiError> {
        if depth > MAX_DEPTH {
            return Err(self.syntax("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                if self.open_array() {
                    loop {
                        self.skip_value(depth + 1)?;
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'{') => {
                if self.open_object() {
                    loop {
                        self.member_key()?;
                        self.skip_value(depth + 1)?;
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b'n') if self.keyword("null") => Ok(()),
            Some(b't') if self.keyword("true") => Ok(()),
            Some(b'f') if self.keyword("false") => Ok(()),
            None => Err(self.syntax("unexpected end of input")),
            Some(_) => match self.number_like()? {
                Some(_) => Ok(()),
                None => Err(self.syntax("unexpected character")),
            },
        }
    }

    /// A string literal, unescaped; borrowed when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ApiError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        let mut segment = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err(self.syntax("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let tail = self.text.get(segment..self.pos - 1).unwrap_or_default();
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(self.text.get(segment..self.pos - 1).unwrap_or_default());
                    s.push(self.escape()?);
                    segment = self.pos;
                }
                // Anything else, control characters included, is taken
                // as is; the body is valid UTF-8, so multi-byte
                // characters never contain `"` or `\`.
                _ => {}
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, ApiError> {
        let Some(e) = self.peek() else {
            return Err(self.syntax("unterminated escape"));
        };
        self.pos += 1;
        let c = match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'u' => {
                let code = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate takes the next `\u` escape as its
                    // low half, whatever its value (as the vendored parser
                    // does).
                    if !self.keyword("\\u") {
                        return Err(self.syntax("lone surrogate"));
                    }
                    let low = self.hex4()?;
                    0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF)
                } else {
                    code
                };
                char::from_u32(scalar).ok_or_else(|| self.syntax("bad \\u escape"))?
            }
            _ => return Err(self.syntax("bad escape")),
        };
        Ok(c)
    }

    /// Four hex digits, read with `u32::from_str_radix` (which also takes a
    /// leading `+`, as the vendored parser does).
    fn hex4(&mut self) -> Result<u32, ApiError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.syntax("bad \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.syntax("bad \\u escape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caffeine_core::expr::{BasisFunction, VarCombo, WeightConfig};
    use caffeine_core::{Model, ModelArtifact};
    use proptest::prelude::*;
    use serde::Deserialize;

    /// Artifacts of width 0, 2 and 3. The rational bases make poles and
    /// NaNs reachable from ordinary inputs.
    fn artifacts() -> Vec<ModelArtifact> {
        let constant = ModelArtifact::new(
            Vec::new(),
            vec![Model::new(Vec::new(), vec![4.5], WeightConfig::default())],
        )
        .unwrap();
        let two = ModelArtifact::new(
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
        .unwrap();
        let three = ModelArtifact::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![Model::new(
                vec![
                    BasisFunction::from_vc(VarCombo::single(3, 2, -2)),
                    BasisFunction::from_vc(VarCombo::single(3, 0, 1)),
                ],
                vec![-1.0, 0.5, 3.0],
                WeightConfig::default(),
            )],
        )
        .unwrap();
        vec![constant, two, three]
    }

    /// The generic path this module replaced: `Value` tree, `Vec<Vec<f64>>`
    /// decode, the `as_u64` model rule, then row-major predict.
    fn oracle(body: &[u8], artifact: &ModelArtifact) -> Result<Vec<f64>, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let object = v.as_object().ok_or("not an object")?;
        let points: Vec<Vec<f64>> =
            Deserialize::from_value(object.get("points").ok_or("no points")?)
                .map_err(|e: serde::Error| e.to_string())?;
        let model_index = match object.get("model") {
            None | Some(serde_json::Value::Null) => None,
            Some(m) => Some(m.as_u64().ok_or("bad model")? as usize),
        };
        artifact
            .predict(model_index, &points)
            .map_err(|e| e.to_string())
    }

    fn fast(body: &[u8], artifact: &ModelArtifact) -> Result<Vec<f64>, ApiError> {
        let decoded = parse_predict_body(body, artifact.n_vars())?;
        artifact
            .predict_matrix(decoded.model_index, &decoded.points)
            .map_err(ApiError::from)
    }

    /// Same accept/reject decision as the oracle, a 400 on reject, and
    /// bit-identical predictions (NaN by class) on accept.
    fn agree(body: &[u8], artifact: &ModelArtifact) -> Result<(), String> {
        let shown = String::from_utf8_lossy(body);
        match (fast(body, artifact), oracle(body, artifact)) {
            (Ok(got), Ok(want)) => {
                if got.len() != want.len() {
                    return Err(format!(
                        "{shown}: {} vs {} predictions",
                        got.len(),
                        want.len()
                    ));
                }
                for (g, w) in got.iter().zip(&want) {
                    if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
                        return Err(format!("{shown}: scanned {g:?}, oracle {w:?}"));
                    }
                }
                Ok(())
            }
            (Err(e), Err(_)) if e.status == 400 => Ok(()),
            (Err(e), Err(_)) => Err(format!("{shown}: status {} ({})", e.status, e.message)),
            (got, want) => Err(format!(
                "{shown}: decisions differ: scanned {got:?}, oracle {want:?}"
            )),
        }
    }

    fn two() -> ModelArtifact {
        artifacts().swap_remove(1)
    }

    fn decoded(body: &str) -> (Vec<f64>, Option<usize>) {
        let b = parse_predict_body(body.as_bytes(), 2).unwrap();
        let mut row = [0.0; 2];
        let mut flat = Vec::new();
        for t in 0..b.points.n_points() {
            b.points.point_into(t, &mut row);
            flat.extend_from_slice(&row);
        }
        (flat, b.model_index)
    }

    #[test]
    fn zero_and_integer_tokens_follow_the_vendored_number_rule() {
        let (xs, _) = decoded(r#"{"points": [[-00, -0], [-0e0, 007]]}"#);
        let bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0.0f64, -0.0, -0.0, 7.0].map(f64::to_bits).to_vec());
        let huge = "123456789012345678901234567890123456789012";
        let (xs, _) = decoded(&format!(r#"{{"points": [[{huge}, -{huge}]]}}"#));
        assert_eq!(
            xs,
            vec![huge.parse::<f64>().unwrap(), -huge.parse::<f64>().unwrap()]
        );
        let (xs, _) = decoded(r#"{"points": [[NaN, -Infinity]]}"#);
        assert!(xs[0].is_nan() && xs[1] == f64::NEG_INFINITY);
        assert_eq!(decoded(r#"{"points": [[1, 2]], "model": -00}"#).1, Some(0));
        assert_eq!(decoded(r#"{"points": [[1, 2]], "model": null}"#).1, None);
        for bad in [
            "-0",
            "1.0",
            "1e0",
            "-1",
            "\"1\"",
            "18446744073709551616",
            "NaN",
        ] {
            let body = format!(r#"{{"points": [[1, 2]], "model": {bad}}}"#);
            let err = parse_predict_body(body.as_bytes(), 2).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
        }
    }

    #[test]
    fn unknown_repeated_and_escaped_keys_behave_like_a_generic_decode() {
        // `model` first, an unknown nested key, escaped key names.
        let (xs, model) = decoded(
            "{ \"model\" : 1 ,\"extra\":{\"a\":[1,\"x\",null,{\"b\":true}]},\n\
             \"po\\u0069nts\":[[1.5,2]] }",
        );
        assert_eq!((xs, model), (vec![1.5, 2.0], Some(1)));
        // The last duplicate wins, even over an invalid earlier value...
        let (xs, _) = decoded(r#"{"points": "nope", "points": [[3, 4]]}"#);
        assert_eq!(xs, vec![3.0, 4.0]);
        let (xs, _) = decoded(r#"{"points": [[1, 2, 3]], "points": [[5, 6]]}"#);
        assert_eq!(xs, vec![5.0, 6.0]);
        assert_eq!(
            decoded(r#"{"points": [[1, 2]], "model": "x", "model": 0}"#).1,
            Some(0)
        );
        // ...and an invalid last duplicate loses over a valid earlier one.
        let err = parse_predict_body(br#"{"points": [[1, 2]], "points": [[1]]}"#, 2).unwrap_err();
        assert!(
            err.message.contains("point 0 has 1 values"),
            "{}",
            err.message
        );
    }

    #[test]
    fn rejections_are_structured_400s() {
        let cases: [&[u8]; 14] = [
            b"",
            b"{",
            b"{}",
            b"[]",
            b"}{",
            br#"{"points": "nope"}"#,
            br#"{"points": [[1, 2]], "model": -2}"#,
            br#"{"points": [[1, 2],]}"#,
            br#"{"points": [[1, 2]],}"#,
            br#"{"points": [[1, 2]]} x"#,
            br#"{"points": [[1, 2], [1]]}"#,
            br#"{"points": [[1, 2], [null, 2]]}"#,
            br#"{"points": [[1, 2]], "x": "\ud800"}"#,
            &[0xff, 0xfe],
        ];
        for body in cases {
            let err = parse_predict_body(body, 2).unwrap_err();
            assert_eq!(err.status, 400, "{}", String::from_utf8_lossy(body));
            agree(body, &two()).unwrap();
        }
        let err = parse_predict_body(br#"{"points": [[1, 2], [3, 4, 5]]}"#, 2).unwrap_err();
        assert!(
            err.message
                .contains("point 1 has 3 values but the model takes 2 variables"),
            "{}",
            err.message
        );
    }

    #[test]
    fn nesting_limit_matches_the_vendored_parser() {
        for depth in 188..=196 {
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let body = format!(r#"{{"x": {nested}, "points": [[1, 2]]}}"#);
            agree(body.as_bytes(), &two()).unwrap();
            let object = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            let body = format!(r#"{{"points": [[1, 2]], "x": {object}}}"#);
            agree(body.as_bytes(), &two()).unwrap();
            let body = format!(r#"{{"points": [[1, {nested}]]}}"#);
            agree(body.as_bytes(), &two()).unwrap();
        }
        let ok = format!(
            r#"{{"x": {}{}, "points": [[1, 2]]}}"#,
            "[".repeat(192),
            "]".repeat(192)
        );
        assert!(parse_predict_body(ok.as_bytes(), 2).is_ok());
        let deep = format!(
            r#"{{"x": {}{}, "points": [[1, 2]]}}"#,
            "[".repeat(193),
            "]".repeat(193)
        );
        assert!(parse_predict_body(deep.as_bytes(), 2).is_err());
    }

    #[test]
    fn a_serving_sized_batch_matches_the_oracle() {
        let artifact = artifacts().swap_remove(2);
        let mut g = Gen(7);
        let rows: Vec<String> = (0..1024)
            .map(|_| {
                let xs: Vec<String> = (0..3).map(|_| format!("{}", g.float())).collect();
                format!("[{}]", xs.join(","))
            })
            .collect();
        let body = format!("{{\"points\":[{}]}}", rows.join(","));
        agree(body.as_bytes(), &artifact).unwrap();
        assert_eq!(fast(body.as_bytes(), &artifact).unwrap().len(), 1024);
    }

    /// A tiny splitmix64 stream for building bodies from one seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'s>(&mut self, xs: &[&'s str]) -> &'s str {
            xs[self.below(xs.len())]
        }

        /// A float over many magnitudes, either sign.
        fn float(&mut self) -> f64 {
            let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let exponent = self.below(40) as i32 - 20;
            let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 10f64.powi(exponent)
        }

        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\n\t", "\r\n  "])
        }

        fn number(&mut self) -> String {
            match self.below(12) {
                0..=4 => format!("{}", self.float()),
                5 => format!("{:e}", self.float()),
                6 => format!("{}", self.next() as i64),
                7 => format!("{}", f64::from_bits(self.next())),
                8 => self.pick(&["NaN", "Infinity", "-Infinity"]).to_string(),
                9 | 10 => self
                    .pick(&[
                        "0",
                        "-0",
                        "-00",
                        "00",
                        "007",
                        "-0e0",
                        "-0.0",
                        "1E+2",
                        "1e-2",
                        "1e400",
                        "-1e400",
                        "5e-324",
                        "2e-324",
                        "1.",
                        "-.5",
                        "00.5",
                        "1e0",
                        "123456789012345678901234567890123456789012",
                        "170141183460469231731687303715884105727",
                        "-170141183460469231731687303715884105729",
                    ])
                    .to_string(),
                _ => self
                    .pick(&[
                        "1-2", "--1", "1e", "+1", "1.2.3", "-", "0x10", ".5", "1e5e5", "-Inf",
                        "Infinit", "nan", "inf", "-NaN", "1 2",
                    ])
                    .to_string(),
            }
        }

        fn string(&mut self) -> String {
            self.pick(&[
                "\"\"",
                "\"plain\"",
                "\"a\\\"b\\\\c\\/\\b\\f\\n\\r\\t\"",
                "\"\\u00e9\\u0041\"",
                "\"\\ud83d\\ude00\"",
                "\"\\ud800\\u0041\"",
                "\"\\ud800x\"",
                "\"\\udc00\"",
                "\"\\u+041\"",
                "\"\\u12\"",
                "\"\\q\"",
                "\"raw é 日本 \u{1}\"",
                "\"unterminated",
            ])
            .to_string()
        }

        fn value(&mut self, depth: usize) -> String {
            let choice = if depth > 3 {
                self.below(5)
            } else {
                self.below(8)
            };
            match choice {
                0 | 1 => self.number(),
                2 => self.string(),
                3 => self
                    .pick(&["null", "true", "false", "nul", "tru"])
                    .to_string(),
                4 => {
                    let k = 188 + self.below(8);
                    if self.below(2) == 0 {
                        format!("{}{}", "[".repeat(k), "]".repeat(k))
                    } else {
                        format!("{}0{}", "{\"d\":".repeat(k), "}".repeat(k))
                    }
                }
                5 | 6 => {
                    let items: Vec<String> =
                        (0..self.below(4)).map(|_| self.value(depth + 1)).collect();
                    format!("[{}]", items.join(&format!(",{}", self.ws())))
                }
                _ => {
                    let members: Vec<String> = (0..self.below(4))
                        .map(|_| {
                            let (k, v) = (self.key(), self.value(depth + 1));
                            format!("{k}{}:{}{v}", self.ws(), self.ws())
                        })
                        .collect();
                    format!("{{{}}}", members.join(","))
                }
            }
        }

        fn key(&mut self) -> &'static str {
            self.pick(&[
                "\"points\"",
                "\"points\"",
                "\"model\"",
                "\"po\\u0069nts\"",
                "\"\\u006dodel\"",
                "\"extra\"",
                "\"pointsx\"",
                "\"Points\"",
                "\"\"",
            ])
        }

        fn points(&mut self, n_vars: usize) -> String {
            if self.below(10) == 0 {
                return self.value(1);
            }
            let rows: Vec<String> = (0..self.below(6))
                .map(|_| {
                    if self.below(25) == 0 {
                        return self.value(2);
                    }
                    let width = match self.below(25) {
                        0 => n_vars + 1,
                        1 => n_vars.saturating_sub(1),
                        _ => n_vars,
                    };
                    let xs: Vec<String> = (0..width)
                        .map(|_| match self.below(40) {
                            0 => self.value(3),
                            _ if self.below(8) == 0 => self.number(),
                            _ => format!("{}", self.float()),
                        })
                        .collect();
                    format!("[{}{}]", self.ws(), xs.join(&format!("{},", self.ws())))
                })
                .collect();
            format!("[{}]", rows.join(&format!(",{}", self.ws())))
        }

        fn model(&mut self) -> String {
            self.pick(&[
                "null",
                "0",
                "1",
                "2",
                "-0",
                "-00",
                "00",
                "1.0",
                "1e0",
                "\"1\"",
                "-1",
                "18446744073709551615",
                "18446744073709551616",
                "true",
                "[0]",
                "NaN",
            ])
            .to_string()
        }

        fn body(&mut self, n_vars: usize) -> Vec<u8> {
            let mut keys: Vec<&str> = (0..self.below(4)).map(|_| self.key()).collect();
            // Most bodies carry a plain `points` member somewhere.
            if self.below(4) != 0 {
                let at = self.below(keys.len() + 1);
                keys.insert(at, "\"points\"");
            }
            let members: Vec<String> = keys
                .into_iter()
                .map(|key| {
                    let value = if key.contains("oints") || key.contains("0069") {
                        self.points(n_vars)
                    } else if key.contains("odel") {
                        self.model()
                    } else {
                        self.value(1)
                    };
                    format!("{}{key}{}:{}{value}", self.ws(), self.ws(), self.ws())
                })
                .collect();
            let mut body =
                format!("{}{{{}}}{}", self.ws(), members.join(","), self.ws()).into_bytes();
            self.mutate(&mut body);
            body
        }

        /// Hostile edits on a quarter of the bodies.
        fn mutate(&mut self, body: &mut Vec<u8>) {
            const SOUP: &[u8] = b"{}[],:\"\\ \n0123456789-+.eENaIfinty\x00\xc3\xa9\xff";
            match self.below(16) {
                0 => body.truncate(self.below(body.len() + 1)),
                1 => {
                    let at = self.below(body.len());
                    body[at] = SOUP[self.below(SOUP.len())];
                }
                2 => {
                    let at = self.below(body.len() + 1);
                    body.insert(at, SOUP[self.below(SOUP.len())]);
                }
                3 => {
                    let at = self.below(body.len() + 1);
                    let soup: Vec<u8> = (0..self.below(8))
                        .map(|_| SOUP[self.below(SOUP.len())])
                        .collect();
                    body.splice(at..at, soup);
                }
                _ => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The scanner and the generic decode agree on every body: the
        /// same accept/reject decision, and identical predictions.
        #[test]
        fn scanner_agrees_with_the_generic_decoder(seed in 0u64..u64::MAX, which in 0usize..3) {
            let artifact = &artifacts()[which];
            let body = Gen(seed).body(artifact.n_vars());
            let verdict = agree(&body, artifact);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        /// The encoder matches `json!` + `sanitize` + `to_string` on
        /// arbitrary bit patterns.
        #[test]
        fn encoder_matches_the_generic_writer_on_random_bits(
            bits in collection::vec(0u64..u64::MAX, 0..40),
        ) {
            let ys: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            prop_assert_eq!(render_predictions("m", "00ff", &ys), generic_render("m", "00ff", &ys));
        }
    }

    /// The generated bodies exercise both verdicts, so the agreement
    /// property is not won by rejecting everything.
    #[test]
    fn generated_bodies_are_accepted_and_rejected_in_bulk() {
        let artifacts = artifacts();
        let mut accepted = [0usize; 3];
        for seed in 0..3000u64 {
            let which = (seed % 3) as usize;
            let body = Gen(seed).body(artifacts[which].n_vars());
            accepted[which] += usize::from(fast(&body, &artifacts[which]).is_ok());
        }
        for (which, n) in accepted.iter().enumerate() {
            assert!(
                (50..950).contains(n),
                "artifact {which}: {n} of 1000 accepted"
            );
        }
    }

    fn generic_render(id: &str, version: &str, ys: &[f64]) -> String {
        let value = serde_json::json!({
            "model_id": id,
            "version": version,
            "n_points": ys.len(),
            "predictions": ys,
        });
        serde_json::to_string(&crate::handlers::sanitize(value)).unwrap()
    }

    #[test]
    fn encoder_is_byte_identical_to_the_generic_writer() {
        let ys = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            1.0,
            -3.0,
            1e15,
            1e16,
            9007199254740993.0,
            1e300,
            -1e300,
            1e-300,
            f64::MAX,
            f64::MIN,
            0.1,
            1.0 / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let rendered = render_predictions("ota-gain.v_1", "0123456789abcdef", &ys);
        assert_eq!(
            rendered,
            generic_render("ota-gain.v_1", "0123456789abcdef", &ys)
        );
        assert!(rendered.contains("null,null,null,null]}"), "{rendered}");
        assert_eq!(
            render_predictions("m", "v", &[]),
            generic_render("m", "v", &[])
        );
        // Versions read back from a model directory are file names.
        let odd = "a\"b\\c\nd\re\tf\u{1}é";
        assert_eq!(
            render_predictions(odd, odd, &[2.5]),
            generic_render(odd, odd, &[2.5])
        );
    }
}
