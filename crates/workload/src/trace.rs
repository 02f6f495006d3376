//! The arrival-trace format: zero-copy line parser, validation, and
//! round-trip serialization.
//!
//! See the crate-level docs for the file-format specification.  The parser
//! borrows every string field from the input document ([`TraceRow`] is
//! `TraceRow<'a>`), so parsing a trace allocates only the row vector —
//! binding onto the model catalog ([`crate::catalog`]) is where owned data
//! first appears.

use std::fmt;

/// One parsed trace line, borrowing its string fields from the document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow<'a> {
    /// The job's identifier/label (non-empty).
    pub job_id: &'a str,
    /// Model or resource-demand class, resolved later by a
    /// [`TraceCatalog`](crate::TraceCatalog).
    pub class: &'a str,
    /// Submission time in seconds (finite, `>= 0`).
    pub submit_secs: f64,
    /// Optional expected-duration hint in seconds (finite, `> 0`).
    pub duration_hint_secs: Option<f64>,
}

/// What went wrong parsing or binding a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A line could not be parsed; `line` is 1-based in the document.
    Line {
        /// 1-based line number in the source document.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A class name no catalog mapping (and no fallback) covers.
    UnknownClass {
        /// The offending class name as written in the trace.
        class: String,
        /// 1-based position of the row in the parsed (sorted) trace.
        row: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Line { line, reason } => write!(f, "trace line {line}: {reason}"),
            TraceError::UnknownClass { class, row } => write!(
                f,
                "trace row {row}: class {class:?} is not in the catalog and no fallback is set"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

fn line_err(line: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Line {
        line,
        reason: reason.into(),
    }
}

/// Parse one data line (CSV or JSONL, detected by a leading `{`).
///
/// `line_no` is the 1-based position used in errors.  Comment/blank lines
/// must be filtered by the caller ([`ArrivalTrace::parse`] does).
pub fn parse_line(line: &str, line_no: usize) -> Result<TraceRow<'_>, TraceError> {
    if line.trim_start().starts_with('{') {
        parse_jsonl_line(line, line_no)
    } else {
        parse_csv_line(line, line_no)
    }
}

fn validate(row: TraceRow<'_>, line_no: usize) -> Result<TraceRow<'_>, TraceError> {
    // The two wire formats share one row type, so string fields must stay
    // representable in *both*: non-empty, no CSV delimiter, no JSON quote,
    // no backslash (the JSONL reader takes no escapes), no edge whitespace
    // (the CSV reader trims it), and no leading byte that would re-dispatch
    // a serialized CSV row as JSONL or a comment.  Rejecting them here
    // (with a line number) is what makes the documented
    // serialize-round-trip guarantee hold.
    for (field, name) in [(row.job_id, "job_id"), (row.class, "model")] {
        if field.is_empty() {
            return Err(line_err(line_no, format!("{name} must be non-empty")));
        }
        if field.contains([',', '"', '\\']) || field.trim() != field {
            return Err(line_err(
                line_no,
                format!(
                    "{name} must not contain ',', '\"' or '\\' nor begin or end with whitespace, got {field:?}"
                ),
            ));
        }
    }
    if row.job_id.starts_with('{') || row.job_id.starts_with('#') {
        return Err(line_err(
            line_no,
            format!(
                "job_id must not start with '{{' or '#', got {:?}",
                row.job_id
            ),
        ));
    }
    if !row.submit_secs.is_finite() || row.submit_secs < 0.0 {
        return Err(line_err(
            line_no,
            format!(
                "submit_secs must be finite and >= 0, got {}",
                row.submit_secs
            ),
        ));
    }
    if let Some(hint) = row.duration_hint_secs {
        if !hint.is_finite() || hint <= 0.0 {
            return Err(line_err(
                line_no,
                format!("duration_hint_secs must be finite and > 0, got {hint}"),
            ));
        }
    }
    Ok(row)
}

fn parse_csv_line(line: &str, line_no: usize) -> Result<TraceRow<'_>, TraceError> {
    let mut fields = line.split(',');
    let job_id = fields.next().unwrap_or("").trim();
    let class = fields
        .next()
        .ok_or_else(|| line_err(line_no, "missing field: model"))?
        .trim();
    let submit = fields
        .next()
        .ok_or_else(|| line_err(line_no, "missing field: submit_secs"))?
        .trim();
    let hint = fields.next().map(str::trim);
    if let Some(extra) = fields.next() {
        return Err(line_err(
            line_no,
            format!("too many fields (unexpected {extra:?})"),
        ));
    }
    let submit_secs: f64 = submit
        .parse()
        .map_err(|_| line_err(line_no, format!("submit_secs is not a number: {submit:?}")))?;
    let duration_hint_secs = match hint {
        None | Some("") => None,
        Some(h) => Some(h.parse::<f64>().map_err(|_| {
            line_err(
                line_no,
                format!("duration_hint_secs is not a number: {h:?}"),
            )
        })?),
    };
    validate(
        TraceRow {
            job_id,
            class,
            submit_secs,
            duration_hint_secs,
        },
        line_no,
    )
}

/// Minimal flat-object JSONL parser: string and number values, no escape
/// sequences, unknown keys ignored.  Covers exactly the trace schema
/// without pulling a JSON dependency into the workspace.
fn parse_jsonl_line(line: &str, line_no: usize) -> Result<TraceRow<'_>, TraceError> {
    let body = line.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| line_err(line_no, "JSONL line must be a single {...} object"))?;

    let mut job_id: Option<&str> = None;
    let mut class: Option<&str> = None;
    let mut submit_secs: Option<f64> = None;
    let mut duration_hint_secs: Option<f64> = None;

    let mut rest = body.trim();
    while !rest.is_empty() {
        // "key"
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| line_err(line_no, "expected a \"key\""))?;
        let key_end = after_quote
            .find('"')
            .ok_or_else(|| line_err(line_no, "unterminated key string"))?;
        let key = &after_quote[..key_end];
        // :
        let after_key = after_quote[key_end + 1..].trim_start();
        let after_colon = after_key
            .strip_prefix(':')
            .ok_or_else(|| line_err(line_no, format!("expected ':' after key {key:?}")))?
            .trim_start();
        // value: string or number/null token
        let (value, tail) = if let Some(s) = after_colon.strip_prefix('"') {
            let end = s
                .find('"')
                .ok_or_else(|| line_err(line_no, "unterminated string value"))?;
            if s[..end].contains('\\') {
                return Err(line_err(line_no, "escape sequences are not supported"));
            }
            (JsonValue::Str(&s[..end]), &s[end + 1..])
        } else {
            let end = after_colon.find([',', '}']).unwrap_or(after_colon.len());
            (
                JsonValue::Token(after_colon[..end].trim()),
                &after_colon[end..],
            )
        };

        match key {
            "job_id" => match value {
                JsonValue::Str(s) => job_id = Some(s),
                JsonValue::Token(t) => {
                    return Err(line_err(
                        line_no,
                        format!("job_id must be a string, got {t}"),
                    ))
                }
            },
            "model" => match value {
                JsonValue::Str(s) => class = Some(s),
                JsonValue::Token(t) => {
                    return Err(line_err(
                        line_no,
                        format!("model must be a string, got {t}"),
                    ))
                }
            },
            "submit_secs" => submit_secs = Some(value.number(line_no, "submit_secs")?),
            "duration_hint_secs" => match value {
                JsonValue::Token("null") => duration_hint_secs = None,
                v => duration_hint_secs = Some(v.number(line_no, "duration_hint_secs")?),
            },
            _ => {} // unknown keys are ignored for forward compatibility
        }

        rest = tail.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None => break,
        }
    }

    let row = TraceRow {
        job_id: job_id.ok_or_else(|| line_err(line_no, "missing key: job_id"))?,
        class: class.ok_or_else(|| line_err(line_no, "missing key: model"))?,
        submit_secs: submit_secs.ok_or_else(|| line_err(line_no, "missing key: submit_secs"))?,
        duration_hint_secs,
    };
    validate(row, line_no)
}

enum JsonValue<'a> {
    Str(&'a str),
    Token(&'a str),
}

impl JsonValue<'_> {
    fn number(&self, line_no: usize, field: &str) -> Result<f64, TraceError> {
        match self {
            JsonValue::Token(t) => t
                .parse()
                .map_err(|_| line_err(line_no, format!("{field} is not a number: {t:?}"))),
            JsonValue::Str(s) => Err(line_err(
                line_no,
                format!("{field} must be a number, got string {s:?}"),
            )),
        }
    }
}

/// A parsed arrival trace: validated rows sorted stably by submission time
/// (ties keep document order, mirroring `WorkloadPlan::new`).
///
/// Borrows the source document — parsing allocates only the row vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace<'a> {
    rows: Vec<TraceRow<'a>>,
}

impl<'a> ArrivalTrace<'a> {
    /// Parse a whole trace document (CSV, JSONL, or a mix; see the crate
    /// docs for the format spec).
    pub fn parse(doc: &'a str) -> Result<Self, TraceError> {
        // One counting pass up front sizes the row vector exactly once;
        // comment/blank lines overcount slightly, which only wastes a few
        // row slots — never a realloc.
        let mut rows = Vec::with_capacity(doc.lines().count());
        let mut saw_data = false;
        for (i, raw) in doc.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // An initial CSV header line is skipped.
            if !saw_data && line.split(',').next() == Some("job_id") {
                saw_data = true;
                continue;
            }
            saw_data = true;
            rows.push(parse_line(raw, i + 1)?);
        }
        // Stable: equal submit times keep their document order.
        rows.sort_by(|a, b| a.submit_secs.total_cmp(&b.submit_secs));
        Ok(ArrivalTrace { rows })
    }

    /// The validated rows, sorted by submission time.
    pub fn rows(&self) -> &[TraceRow<'a>] {
        &self.rows
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the trace holds no arrivals (a valid, empty workload).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialize as CSV (with header), parseable back by
    /// [`ArrivalTrace::parse`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from("job_id,model,submit_secs,duration_hint_secs\n");
        for r in &self.rows {
            out.push_str(r.job_id);
            out.push(',');
            out.push_str(r.class);
            out.push(',');
            out.push_str(&r.submit_secs.to_string());
            out.push(',');
            if let Some(h) = r.duration_hint_secs {
                out.push_str(&h.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Serialize as JSONL, parseable back by [`ArrivalTrace::parse`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{{\"job_id\": \"{}\", \"model\": \"{}\", \"submit_secs\": {}",
                r.job_id, r.class, r.submit_secs
            ));
            if let Some(h) = r.duration_hint_secs {
                out.push_str(&format!(", \"duration_hint_secs\": {h}"));
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_and_jsonl_lines_parse_identically() {
        let csv = parse_line("j1,vae,12.5,30", 1).unwrap();
        let jsonl = parse_line(
            "{\"job_id\": \"j1\", \"model\": \"vae\", \"submit_secs\": 12.5, \"duration_hint_secs\": 30}",
            1,
        )
        .unwrap();
        assert_eq!(csv, jsonl);
        assert_eq!(csv.job_id, "j1");
        assert_eq!(csv.duration_hint_secs, Some(30.0));
    }

    #[test]
    fn optional_hint_may_be_absent_empty_or_null() {
        for line in [
            "j1,vae,0",
            "j1,vae,0,",
            "{\"job_id\": \"j1\", \"model\": \"vae\", \"submit_secs\": 0}",
            "{\"job_id\": \"j1\", \"model\": \"vae\", \"submit_secs\": 0, \"duration_hint_secs\": null}",
        ] {
            let row = parse_line(line, 1).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(row.duration_hint_secs, None, "{line}");
        }
    }

    #[test]
    fn header_comments_and_blank_lines_are_skipped() {
        let doc = "# a comment\n\njob_id,model,submit_secs,duration_hint_secs\nj1,vae,5\n";
        let trace = ArrivalTrace::parse(doc).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.rows()[0].job_id, "j1");
    }

    #[test]
    fn unknown_jsonl_keys_are_ignored() {
        let row = parse_line(
            "{\"cluster\": \"prod-7\", \"job_id\": \"j\", \"model\": \"gru\", \"submit_secs\": 1, \"gpus\": 8}",
            1,
        )
        .unwrap();
        assert_eq!(row.class, "gru");
    }

    #[test]
    fn errors_carry_the_line_number() {
        let doc = "j1,vae,0\nj2,vae,not-a-number\n";
        let err = ArrivalTrace::parse(doc).unwrap_err();
        assert_eq!(
            err,
            TraceError::Line {
                line: 2,
                reason: "submit_secs is not a number: \"not-a-number\"".into()
            }
        );
    }

    #[test]
    fn validation_rejects_bad_rows() {
        for (line, what) in [
            (",vae,0", "empty job id"),
            ("j1,,0", "empty class"),
            ("j1,vae,-1", "negative submit"),
            ("j1,vae,inf", "non-finite submit"),
            ("j1,vae,0,0", "non-positive hint"),
            ("j1,vae,0,1,extra", "too many fields"),
            ("j1,vae", "missing submit"),
            (
                "{\"job_id\": \"a,b\", \"model\": \"vae\", \"submit_secs\": 0}",
                "comma in job id",
            ),
            (
                "{\"job_id\": \"{x\", \"model\": \"vae\", \"submit_secs\": 0}",
                "leading brace in job id",
            ),
            ("#x,vae,0", "leading hash in job id"),
            ("j\"1,vae,0", "quote in job id"),
            ("run\\1,mnist-tf,0", "backslash in job id"),
            ("j1,va\\e,0", "backslash in class"),
            (
                "{\"job_id\": \"\tj1\", \"model\": \"vae\", \"submit_secs\": 0}",
                "leading whitespace in job id",
            ),
            (
                "{\"job_id\": \"j1\", \"model\": \"vae \", \"submit_secs\": 0}",
                "trailing whitespace in class",
            ),
            (
                "{\"job_id\": \"j1\", \"model\": \"\", \"submit_secs\": 0}",
                "empty class in JSONL",
            ),
            ("{\"model\": \"vae\", \"submit_secs\": 0}", "missing job_id"),
            (
                "{\"job_id\": \"j\", \"model\": 3, \"submit_secs\": 0}",
                "non-string model",
            ),
            (
                "{\"job_id\": \"j\", \"model\": \"vae\"",
                "unterminated object",
            ),
        ] {
            assert!(parse_line(line, 7).is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn out_of_order_rows_sort_stably() {
        let doc = "late,vae,100\nb,gru,5\na,gru,5\nfirst,vae,0\n";
        let trace = ArrivalTrace::parse(doc).unwrap();
        let ids: Vec<&str> = trace.rows().iter().map(|r| r.job_id).collect();
        // Equal submit times (b, a) keep document order: the sort is stable.
        assert_eq!(ids, ["first", "b", "a", "late"]);
    }

    #[test]
    fn empty_documents_are_valid_empty_traces() {
        for doc in ["", "# only comments\n\n", "job_id,model,submit_secs\n"] {
            let trace = ArrivalTrace::parse(doc).unwrap();
            assert!(trace.is_empty(), "{doc:?}");
        }
    }

    #[test]
    fn serialization_round_trips() {
        let doc = "j2,mnist-tf,80,84.7\nj1,vae,0\n";
        let trace = ArrivalTrace::parse(doc).unwrap();
        let csv = trace.to_csv();
        let jsonl = trace.to_jsonl();
        assert_eq!(ArrivalTrace::parse(&csv).unwrap(), trace);
        assert_eq!(ArrivalTrace::parse(&jsonl).unwrap(), trace);
    }
}
