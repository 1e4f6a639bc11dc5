//! Hand-rolled JSONL wire format for the service binary.
//!
//! No serde in the tree: requests only ever carry strings and unsigned
//! integers, and responses are emitted with a fixed field order, so a
//! ~100-line scanner and deterministic formatters cover the whole
//! surface. `f64` values are printed with Rust's `Display` (which never
//! produces exponent notation, so the output is always valid JSON);
//! non-finite values serialize as `null`.
//!
//! Request lines:
//!
//! ```json
//! {"id":1,"profile":"margin-tight","seed":7,"n":4,"index":0}
//! {"id":2,"tasks":"t0:500:1000:10000:3ff3333333333333:3ed06849b86a12b9"}
//! ```

use std::collections::BTreeMap;

use csa_core::MAX_TASKS;
use csa_experiments::{parse_task_list, PeriodModel};

use crate::request::{AnomalyEvent, Payload, Request, Response};

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value: `Display` digits when finite
/// (never exponent notation), `null` otherwise.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => fmt_f64(v),
        None => "null".to_string(),
    }
}

/// A scanned request-object value: requests carry only strings and
/// unsigned integers.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JsonValue {
    Str(String),
    Num(u64),
}

/// Minimal single-line JSON object scanner for request lines. A repeated
/// key is refused: which of its values counts would be a guess.
fn parse_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut out = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".to_string());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err("expected '\"' starting a key".to_string()),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(c) = chars.peek() {
                    if c.is_ascii_digit() {
                        digits.push(*c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n: u64 = digits
                    .parse()
                    .map_err(|_| format!("number out of range for key {key:?}"))?;
                JsonValue::Num(n)
            }
            _ => return Err(format!("unsupported value for key {key:?}")),
        };
        if out.contains_key(&key) {
            return Err(format!("duplicate key {key:?}"));
        }
        out.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            _ => return Err("expected ',' or '}'".to_string()),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after object".to_string());
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or_else(|| "bad \\u escape".to_string())?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?);
                }
                _ => return Err("unsupported escape".to_string()),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Parses one request line. Generated payloads carry `profile`, `seed`,
/// `n` and `index`; inline payloads carry `tasks` in the witness
/// task-list syntax. Either way a request names 1 to [`MAX_TASKS`]
/// tasks, and a key its form does not read is refused rather than
/// ignored.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let obj = parse_object(line)?;
    let num = |key: &str| -> Result<u64, String> {
        match obj.get(key) {
            Some(JsonValue::Num(n)) => Ok(*n),
            Some(_) => Err(format!("field {key:?} must be an unsigned integer")),
            None => Err(format!("missing field {key:?}")),
        }
    };
    let inline = obj.get("tasks");
    let (form, keys): (&str, &[&str]) = match inline {
        Some(_) => ("an inline", &["id", "tasks"]),
        None => ("a generated", &["id", "profile", "seed", "n", "index"]),
    };
    if let Some(key) = obj.keys().find(|k| !keys.contains(&k.as_str())) {
        return Err(format!("key {key:?} is not read by {form} request"));
    }
    let id = num("id")?;
    if let Some(list) = inline {
        let JsonValue::Str(list) = list else {
            return Err("field \"tasks\" must be a string".to_string());
        };
        let tasks =
            parse_task_list(list).map_err(|why| format!("malformed inline task list: {why}"))?;
        if tasks.is_empty() {
            return Err("inline task list is empty".to_string());
        }
        return Ok(Request {
            id,
            payload: Payload::Inline { tasks },
        });
    }
    let profile = match obj.get("profile") {
        Some(JsonValue::Str(name)) => PeriodModel::parse(name)
            .ok_or_else(|| format!("unknown period-model profile {name:?}"))?,
        Some(_) => return Err("field \"profile\" must be a string".to_string()),
        None => return Err("request needs either \"tasks\" or \"profile\"".to_string()),
    };
    let n = num("n")?;
    if !(1..=MAX_TASKS as u64).contains(&n) {
        return Err(format!(
            "field \"n\" must be a positive task count of at most {MAX_TASKS}"
        ));
    }
    Ok(Request {
        id,
        payload: Payload::Generated {
            profile,
            seed: num("seed")?,
            n: n as usize,
            index: num("index")? as usize,
        },
    })
}

/// Serializes one request as a JSONL line (the exact syntax
/// [`parse_request`] accepts).
pub fn request_line(request: &Request) -> String {
    match &request.payload {
        Payload::Generated {
            profile,
            seed,
            n,
            index,
        } => format!(
            "{{\"id\":{},\"profile\":\"{}\",\"seed\":{},\"n\":{},\"index\":{}}}",
            request.id,
            profile.name(),
            seed,
            n,
            index
        ),
        Payload::Inline { tasks } => format!(
            "{{\"id\":{},\"tasks\":\"{}\"}}",
            request.id,
            escape(&csa_experiments::format_task_list(tasks))
        ),
    }
}

/// Serializes one response with the fixed field order
/// `id, seq, verdict, n, profile, checks, truncated, slack,
/// norm_slack, anomalies, [quarantine,] lifecycle, events`.
pub fn response_line(response: &Response) -> String {
    let anomalies = response
        .anomalies
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join(",");
    let quarantine = match &response.quarantine {
        Some(detail) => format!("\"quarantine\":\"{}\",", escape(detail)),
        None => String::new(),
    };
    format!(
        "{{\"id\":{},\"seq\":{},\"verdict\":\"{}\",\"n\":{},\"profile\":\"{}\",\"checks\":{},\"truncated\":{},\"slack\":{},\"norm_slack\":{},\"anomalies\":\"{}\",{}\"lifecycle\":\"{}\",\"events\":{}}}",
        response.id,
        response.seq,
        response.verdict.name(),
        response.n,
        escape(&response.profile),
        response.checks,
        response.truncated,
        fmt_opt_f64(response.slack),
        fmt_opt_f64(response.norm_slack),
        anomalies,
        quarantine,
        response.lifecycle.name(),
        response.events.len()
    )
}

/// Serializes one anomaly event as a JSONL line.
pub fn event_line(event: &AnomalyEvent) -> String {
    format!(
        "{{\"event\":\"{}\",\"seq\":{},\"id\":{},\"value\":{},\"z\":{},\"detail\":\"{}\"}}",
        event.class.name(),
        event.seq,
        event.request_id,
        fmt_f64(event.value),
        fmt_opt_f64(event.z),
        escape(&event.detail)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_request_round_trips() {
        let line = "{\"id\":9,\"profile\":\"margin-tight\",\"seed\":7,\"n\":4,\"index\":3}";
        let req = parse_request(line).unwrap();
        assert_eq!(req.id, 9);
        assert_eq!(
            req.payload,
            Payload::Generated {
                profile: PeriodModel::MarginTight,
                seed: 7,
                n: 4,
                index: 3,
            }
        );
        assert_eq!(request_line(&req), line);
        // Whitespace-tolerant.
        let spaced =
            "{ \"id\": 9 , \"profile\": \"margin-tight\", \"seed\":7,\"n\":4,\"index\":3 }";
        assert_eq!(parse_request(spaced).unwrap(), req);
    }

    #[test]
    fn inline_request_round_trips() {
        let tasks = vec![
            csa_core::ControlTask::from_parts(0, 500, 1_000, 10_000, 1.2, 4e-6).unwrap(),
            csa_core::ControlTask::from_parts(1, 800, 2_000, 20_000, 1.5, 9e-6).unwrap(),
        ];
        let req = Request {
            id: 2,
            payload: Payload::Inline {
                tasks: tasks.clone(),
            },
        };
        let parsed = parse_request(&request_line(&req)).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "expected '{'"),
            ("{\"id\":1}", "either"),
            (
                "{\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}",
                "missing field \"id\"",
            ),
            (
                "{\"id\":1,\"profile\":\"nope\",\"seed\":1,\"n\":4,\"index\":0}",
                "unknown period-model",
            ),
            (
                "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":0,\"index\":0}",
                "positive",
            ),
            (
                "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":65,\"index\":0}",
                "positive task count of at most 64",
            ),
            (
                &format!(
                    "{{\"id\":1,\"tasks\":\"{}\"}}",
                    ["t:1:1:4:3ff0000000000000:3ff0000000000000"; 65].join(";")
                ),
                "malformed inline task list: 65 tasks exceed the limit of 64",
            ),
            ("{\"id\":1,\"tasks\":\"garbage\"}", "malformed inline"),
            ("{\"id\":1,\"tasks\":5}", "field \"tasks\" must be a string"),
            (
                "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"n\":8,\"index\":0}",
                "duplicate key \"n\"",
            ),
            (
                "{\"id\":2,\"id\":3,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}",
                "duplicate key \"id\"",
            ),
            (
                "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0,\"budget\":5}",
                "key \"budget\" is not read by a generated request",
            ),
            (
                "{\"id\":1,\"tasks\":\"t:1:1:4:3ff0000000000000:3ff0000000000000\",\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}",
                "key \"index\" is not read by an inline request",
            ),
            (
                "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}x",
                "trailing",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?} gave {err:?}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-3.0), "-3");
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
