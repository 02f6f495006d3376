//! CSV and JSONL export of experiment results.
//!
//! Hand-rolled on purpose: the data is purely numeric with simple string
//! labels, so a dependency would buy nothing.  CSV fields containing
//! commas, quotes or newlines are quoted per RFC 4180; JSONL records are
//! one flat object per line with fields emitted in caller order, so the
//! output is deterministic and diffable.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::summary::RunSummary;
use crate::timeseries::{MultiSeries, TimeSeries};

/// Escape one CSV field.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render rows of fields as CSV text.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Completion-time table for a set of runs: one row per (policy, job).
pub fn completions_csv(summaries: &[&RunSummary]) -> String {
    let mut rows = Vec::new();
    for s in summaries {
        for c in &s.completions {
            rows.push(vec![
                s.policy.clone(),
                c.label.clone(),
                format!("{:.3}", c.arrival.as_secs_f64()),
                format!("{:.3}", c.finished.as_secs_f64()),
                format!("{:.3}", c.completion_secs()),
                c.exit_code.to_string(),
            ]);
        }
    }
    to_csv(
        &[
            "policy",
            "job",
            "arrival_s",
            "finished_s",
            "completion_s",
            "exit_code",
        ],
        &rows,
    )
}

/// One JSON scalar for a [`to_jsonl`] record field.
///
/// Floats are rendered with Rust's shortest round-trip formatting (so the
/// emitted document is bit-deterministic for deterministic inputs);
/// non-finite floats become `null` because JSON has no NaN/Infinity.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string, escaped per RFC 8259.
    Str(String),
    /// A finite float (non-finite renders as `null`).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A nested object, fields in the given order (for structured
    /// documents such as Chrome trace-event `args`).
    Obj(Vec<(String, JsonValue)>),
}

/// Escape one JSON string body (without the surrounding quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render records as JSON Lines: one flat object per record, fields in
/// the given order.
///
/// The format is the machine-readable twin of [`text_table`] — e.g.
/// `repro frontier` emits its p50/p95/p99-sojourn-vs-load curves this way
/// so they can be plotted without re-running the sweep.
pub fn to_jsonl<'a>(records: impl IntoIterator<Item = &'a [(&'a str, JsonValue)]>) -> String {
    let mut out = String::new();
    for record in records {
        out.push('{');
        for (i, (key, value)) in record.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", json_escape(key));
            write_value(&mut out, value);
        }
        out.push_str("}\n");
    }
    out
}

/// Append one [`JsonValue`] (recursing into [`JsonValue::Obj`]) to `out`.
pub(crate) fn write_value(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Str(s) => {
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        JsonValue::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Num(_) => out.push_str("null"),
        JsonValue::Int(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", json_escape(key));
                write_value(out, value);
            }
            out.push('}');
        }
    }
}

/// Long-format CSV of a multi-series (one row per point).
pub fn series_csv(name: &str, series: &MultiSeries) -> String {
    let mut rows = Vec::new();
    for (label, s) in series.iter() {
        push_points(&mut rows, name, label, s);
    }
    to_csv(&SERIES_HEADER, &rows)
}

/// One job's series under several policies, in the [`series_csv`] columns
/// with `series` naming the policy — one figure's job compared across
/// runs (Figs. 13–14).
pub fn policy_series_csv(label: &str, runs: &[(&str, &TimeSeries)]) -> String {
    let mut rows = Vec::new();
    for &(policy, s) in runs {
        push_points(&mut rows, policy, label, s);
    }
    to_csv(&SERIES_HEADER, &rows)
}

const SERIES_HEADER: [&str; 4] = ["series", "label", "t_s", "value"];

fn push_points(rows: &mut Vec<Vec<String>>, name: &str, label: &str, series: &TimeSeries) {
    for (t, v) in series.points() {
        rows.push(vec![
            name.to_string(),
            label.to_string(),
            format!("{t:.3}"),
            format!("{v:.6}"),
        ]);
    }
}

/// Write `content` to `path`, creating parent directories.
pub fn write_file(path: &Path, content: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, content)
}

/// Write a user-requested artifact (`--emit` / `--out` / `--trace-out`)
/// without touching the filesystem beyond the named file: a missing
/// parent directory or an unwritable path comes back as an actionable
/// message naming the path, for the CLI to print and exit with, instead
/// of a panic or a silently created directory tree.
pub fn write_artifact(path: &str, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Render a compact, aligned text table (for the repro binary's stdout).
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(ncols) {
            let _ = write!(line, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::CompletionRecord;
    use flowcon_sim::time::SimTime;

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_rendering() {
        let csv = to_csv(
            &["a", "b"],
            &[vec!["1".into(), "x,y".into()], vec!["2".into(), "z".into()]],
        );
        assert_eq!(csv, "a,b\n1,\"x,y\"\n2,z\n");
    }

    #[test]
    fn completions_csv_has_one_row_per_job() {
        let mut s = RunSummary::new("NA");
        s.completions.push(CompletionRecord {
            label: "Job-1".into(),
            arrival: SimTime::from_secs(0),
            finished: SimTime::from_secs(100),
            exit_code: 0,
        });
        let csv = completions_csv(&[&s]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("NA,Job-1,0.000,100.000,100.000,0"));
    }

    #[test]
    fn text_table_aligns_columns() {
        let table = text_table(
            &["job", "secs"],
            &[
                vec!["Job-1".into(), "85.3".into()],
                vec!["Job-10".into(), "110.0".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("job"));
        assert!(lines[2].starts_with("Job-1 "));
        assert!(lines[3].starts_with("Job-10"));
    }

    #[test]
    fn jsonl_renders_one_object_per_record_in_field_order() {
        let records: Vec<Vec<(&str, JsonValue)>> = vec![
            vec![
                ("policy", JsonValue::Str("fifo".into())),
                ("rate", JsonValue::Num(0.25)),
                ("saturated", JsonValue::Bool(false)),
            ],
            vec![
                ("policy", JsonValue::Str("fifo".into())),
                ("completed", JsonValue::Int(1024)),
            ],
        ];
        let doc = to_jsonl(records.iter().map(Vec::as_slice));
        assert_eq!(
            doc,
            "{\"policy\":\"fifo\",\"rate\":0.25,\"saturated\":false}\n\
             {\"policy\":\"fifo\",\"completed\":1024}\n"
        );
    }

    #[test]
    fn jsonl_escapes_strings_and_nulls_non_finite_floats() {
        let record: Vec<(&str, JsonValue)> = vec![
            ("label", JsonValue::Str("say \"hi\"\nback\\".into())),
            ("p99", JsonValue::Num(f64::NAN)),
        ];
        let doc = to_jsonl([record.as_slice()]);
        assert_eq!(
            doc,
            "{\"label\":\"say \\\"hi\\\"\\nback\\\\\",\"p99\":null}\n"
        );
    }

    #[test]
    fn jsonl_renders_nested_objects_recursively() {
        let record: Vec<(&str, JsonValue)> = vec![(
            "args",
            JsonValue::Obj(vec![
                ("a".to_string(), JsonValue::Int(7)),
                (
                    "inner".to_string(),
                    JsonValue::Obj(vec![("ok".to_string(), JsonValue::Bool(true))]),
                ),
            ]),
        )];
        let doc = to_jsonl([record.as_slice()]);
        assert_eq!(doc, "{\"args\":{\"a\":7,\"inner\":{\"ok\":true}}}\n");
    }

    #[test]
    fn write_artifact_reports_the_failing_path() {
        let dir = std::env::temp_dir().join("flowcon_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        // Parent directory does not exist: actionable error, no panic,
        // and nothing is created behind the caller's back.
        let missing = dir.join("nested/out.json");
        let missing = missing.to_str().unwrap();
        let err = write_artifact(missing, "{}").unwrap_err();
        assert!(err.contains("cannot write"), "{err}");
        assert!(err.contains(missing), "{err}");
        assert!(!dir.exists(), "write_artifact must not create directories");
        // A writable path succeeds.
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("out.json");
        write_artifact(ok.to_str().unwrap(), "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&ok).unwrap(), "{}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = std::env::temp_dir().join("flowcon_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        write_file(&path, "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
