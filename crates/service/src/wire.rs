//! The JSON wire forms of the typed model: one renderer and one parser
//! per message, shared by everyone who speaks JSON.
//!
//! | message            | rendered by                  | parsed by            |
//! |--------------------|------------------------------|----------------------|
//! | submit / append body | [`HttpClient`]             | daemon door, router  |
//! | submit / append reply | daemon door, router       | [`HttpClient`]       |
//! | dataset listing    | daemon (`STATS` too), router | [`HttpClient`]       |
//! | error body         | daemon door, router          | [`HttpClient`]       |
//!
//! Request bodies are validated with the line protocol's strictness:
//! unknown fields are rejected the way trailing tokens are, and the
//! arguments go through the same [`check_variant`] / [`check_batch`]
//! rules. Everything is built on the hand-rolled
//! [`variantdbscan::json`] writer and parser.
//!
//! [`HttpClient`]: crate::http::HttpClient

use variantdbscan::{parse_json, JsonArray, JsonObject, JsonValue, Variant};
use vbp_geom::Point2;

use crate::api::{check_batch, check_variant, AppendReply, BadArg, ErrorCode, SubmitReply};

/// The JSON doors' wording of a broken argument rule.
fn bad_arg(bad: BadArg) -> String {
    match bad {
        BadArg::Eps => "'eps' must be finite and positive",
        BadArg::Minpts | BadArg::MinptsTooLarge => "'minpts' must be an integer of at least 1",
        BadArg::EmptyBatch => "'points' must not be empty",
        BadArg::NonFinite => "coordinates must be finite",
    }
    .into()
}

/// Parses `body` as a JSON object whose keys all appear in `allowed`.
fn object_with_fields(body: &[u8], allowed: &[&str]) -> Result<JsonValue, String> {
    let json = parse_json(body)?;
    let fields = json.entries().ok_or("body must be a JSON object")?;
    match fields
        .iter()
        .find(|(key, _)| !allowed.contains(&key.as_str()))
    {
        Some((key, _)) => Err(format!("unknown field '{key}'")),
        None => Ok(json),
    }
}

fn str_field(json: &JsonValue, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' must be a string"))
}

fn num_field(json: &JsonValue, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("'{key}' must be a number"))
}

/// Renders a `POST /v1/submit` body.
pub(crate) fn submit_body(dataset: &str, eps: f64, minpts: usize, want_labels: bool) -> String {
    let mut body = JsonObject::new()
        .str("dataset", dataset)
        .float("eps", eps)
        .uint("minpts", minpts as u64);
    if want_labels {
        body = body.boolean("labels", true);
    }
    body.finish()
}

/// Parses and validates a [`submit_body`]: `(dataset, variant, labels)`.
pub(crate) fn parse_submit_body(body: &[u8]) -> Result<(String, Variant, bool), String> {
    let json = object_with_fields(body, &["dataset", "eps", "minpts", "labels"])?;
    let dataset = str_field(&json, "dataset")?;
    let variant =
        check_variant(num_field(&json, "eps")?, num_field(&json, "minpts")?).map_err(bad_arg)?;
    let labels = match json.get("labels") {
        None => false,
        Some(v) => v.as_bool().ok_or("'labels' must be a boolean")?,
    };
    Ok((dataset, variant, labels))
}

/// Renders a `POST /v1/append` body.
pub(crate) fn append_body(dataset: &str, points: &[Point2]) -> String {
    let mut arr = JsonArray::new();
    for p in points {
        let mut pair = JsonArray::new();
        pair.push_float(p.x);
        pair.push_float(p.y);
        arr.push_raw(&pair.finish());
    }
    JsonObject::new()
        .str("dataset", dataset)
        .raw("points", &arr.finish())
        .finish()
}

/// Parses and validates an [`append_body`]: a non-empty batch of finite
/// `[x, y]` pairs.
pub(crate) fn parse_append_body(body: &[u8]) -> Result<(String, Vec<Point2>), String> {
    let json = object_with_fields(body, &["dataset", "points"])?;
    let dataset = str_field(&json, "dataset")?;
    let items = json
        .get("points")
        .and_then(JsonValue::as_array)
        .ok_or("'points' must be an array")?;
    let mut points = Vec::with_capacity(items.len());
    for item in items {
        let Some([x, y]) = item.as_array() else {
            return Err("each point must be [x, y]".into());
        };
        let x = x.as_f64().ok_or("coordinates must be numbers")?;
        let y = y.as_f64().ok_or("coordinates must be numbers")?;
        points.push(Point2::new(x, y));
    }
    check_batch(&points).map_err(bad_arg)?;
    Ok((dataset, points))
}

/// Renders a submit reply. `report` is the daemon's pre-rendered
/// `RunReport` embed; a proxied reply has none (the typed reply does not
/// carry it).
pub(crate) fn submit_reply(reply: &SubmitReply, report: Option<&str>) -> String {
    let mut obj = JsonObject::new()
        .uint("clusters", reply.clusters as u64)
        .uint("noise", reply.noise as u64)
        .boolean("warm", reply.warm)
        .boolean("reused", reply.reused)
        .float("ms", reply.ms);
    if let Some(labels) = &reply.labels {
        let mut arr = JsonArray::new();
        for &l in labels {
            arr.push_uint(u64::from(l));
        }
        obj = obj.raw("labels", &arr.finish());
    }
    if let Some(report) = report {
        obj = obj.raw("report", report);
    }
    obj.finish()
}

fn reply_num(json: &JsonValue, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("response is missing numeric '{key}'"))
}

fn reply_bool(json: &JsonValue, key: &str) -> Result<bool, String> {
    json.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("response is missing boolean '{key}'"))
}

/// Parses a [`submit_reply`] (the `report` embed is ignored).
pub(crate) fn parse_submit_reply(json: &JsonValue) -> Result<SubmitReply, String> {
    let labels = match json.get("labels") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or("'labels' is not an array")?
                .iter()
                .map(|item| item.as_f64().map(|n| n as u32))
                .collect::<Option<Vec<u32>>>()
                .ok_or("label is not a number")?,
        ),
    };
    Ok(SubmitReply {
        clusters: reply_num(json, "clusters")? as usize,
        noise: reply_num(json, "noise")? as usize,
        warm: reply_bool(json, "warm")?,
        reused: reply_bool(json, "reused")?,
        ms: reply_num(json, "ms")?,
        labels,
    })
}

/// Renders an append reply.
pub(crate) fn append_reply(reply: &AppendReply) -> String {
    JsonObject::new()
        .uint("appended", reply.appended as u64)
        .uint("total", reply.total as u64)
        .uint("repaired", reply.repaired as u64)
        .uint("dropped", reply.dropped as u64)
        .float("ms", reply.ms)
        .finish()
}

/// Parses an [`append_reply`].
pub(crate) fn parse_append_reply(json: &JsonValue) -> Result<AppendReply, String> {
    Ok(AppendReply {
        appended: reply_num(json, "appended")? as usize,
        total: reply_num(json, "total")? as usize,
        repaired: reply_num(json, "repaired")? as usize,
        dropped: reply_num(json, "dropped")? as usize,
        ms: reply_num(json, "ms")?,
    })
}

/// Renders one dataset entry; the router adds the owning `backend`.
pub(crate) fn dataset_entry(name: &str, points: usize, backend: Option<&str>) -> String {
    let entry = JsonObject::new()
        .str("name", name)
        .uint("points", points as u64);
    match backend {
        Some(backend) => entry.str("backend", backend),
        None => entry,
    }
    .finish()
}

/// Renders a dataset listing — `(name, points, backend)` triples — as a
/// JSON array of [`dataset_entry`]s.
pub(crate) fn datasets_array<'a>(
    entries: impl IntoIterator<Item = (&'a str, usize, Option<&'a str>)>,
) -> String {
    let mut arr = JsonArray::new();
    for (name, points, backend) in entries {
        arr.push_raw(&dataset_entry(name, points, backend));
    }
    arr.finish()
}

/// Parses a `{"datasets": [...]}` listing document.
pub(crate) fn parse_datasets(json: &JsonValue) -> Result<Vec<(String, usize)>, String> {
    json.get("datasets")
        .and_then(JsonValue::as_array)
        .ok_or("'datasets' is not an array")?
        .iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("dataset entry is missing 'name'")?;
            Ok((name.to_string(), reply_num(item, "points")? as usize))
        })
        .collect()
}

/// `{"error": <wire token>, "message": …}` with the line protocol's
/// exact [`ErrorCode`] tokens.
pub(crate) fn error_body(code: ErrorCode, message: &str) -> String {
    JsonObject::new()
        .str("error", code.as_str())
        .str("message", message)
        .finish()
}

/// Parses an [`error_body`]; `None` when the code token is missing or
/// unknown.
pub(crate) fn parse_error_body(json: &JsonValue) -> Option<(ErrorCode, String)> {
    let code = json
        .get("error")
        .and_then(JsonValue::as_str)
        .and_then(ErrorCode::from_str_token)?;
    let message = json.get("message").and_then(JsonValue::as_str);
    Some((code, message.unwrap_or("").to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_body_parser_mirrors_line_protocol_strictness() {
        let ok = parse_submit_body(br#"{"dataset":"d","eps":1.5,"minpts":4}"#).unwrap();
        assert_eq!(ok, ("d".into(), Variant::new(1.5, 4), false));
        let with_labels =
            parse_submit_body(br#"{"dataset":"d","eps":0.5,"minpts":1,"labels":true}"#).unwrap();
        assert!(with_labels.2);
        // The largest minpts either door accepts, and its round trip.
        let edge = submit_body("d", 1.0, u32::MAX as usize, false);
        assert_eq!(
            parse_submit_body(edge.as_bytes()).unwrap().1.minpts,
            u32::MAX as usize
        );
        for bad in [
            &br#"{"eps":1.0,"minpts":4}"#[..],
            br#"{"dataset":"d","minpts":4}"#,
            br#"{"dataset":"d","eps":0,"minpts":4}"#,
            br#"{"dataset":"d","eps":-1,"minpts":4}"#,
            br#"{"dataset":"d","eps":1.0,"minpts":0}"#,
            br#"{"dataset":"d","eps":1.0,"minpts":2.5}"#,
            br#"{"dataset":"d","eps":1.0,"minpts":4294967296}"#,
            br#"{"dataset":"d","eps":1.0,"minpts":4,"extra":1}"#,
            br#"{"dataset":"d","eps":1.0,"minpts":4,"labels":"yes"}"#,
            br#"[1,2,3]"#,
            br#"not json"#,
        ] {
            assert!(parse_submit_body(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn append_body_parser_requires_finite_pairs() {
        let (dataset, points) =
            parse_append_body(br#"{"dataset":"d","points":[[1.0,2.0],[3,4]]}"#).unwrap();
        assert_eq!(dataset, "d");
        assert_eq!(points, vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)]);
        for bad in [
            &br#"{"dataset":"d","points":[]}"#[..],
            br#"{"dataset":"d","points":[[1.0]]}"#,
            br#"{"dataset":"d","points":[[1.0,2.0,3.0]]}"#,
            br#"{"dataset":"d","points":[["a","b"]]}"#,
            br#"{"dataset":"d"}"#,
            br#"{"points":[[1,2]]}"#,
        ] {
            assert!(parse_append_body(bad).is_err(), "accepted {bad:?}");
        }
    }
}
