//! Trace-parser contract tests: malformed input, out-of-order arrivals,
//! empty traces, property-based parse → serialize → parse round-trips in
//! both wire formats, and a parser that never panics on arbitrary bytes.

use flowcon_workload::{ArrivalTrace, TraceCatalog, TraceError};
use proptest::prelude::*;

#[test]
fn malformed_lines_fail_with_the_offending_line_number() {
    let cases = [
        ("j1,vae\n", 1, "missing field"),
        ("j1,vae,0\nj2,vae,zero\n", 2, "not a number"),
        ("# ok\nj1,vae,0\n\nj2,vae,-3\n", 4, "finite and >= 0"),
        ("{\"job_id\": \"j\"}\n", 1, "missing key"),
        (
            "{\"job_id\": \"j\", \"model\": \"vae\", \"submit_secs\": \"x\"}\n",
            1,
            "must be a number",
        ),
        ("j1,vae,0,nan\n", 1, "finite and > 0"),
    ];
    for (doc, line, needle) in cases {
        match ArrivalTrace::parse(doc) {
            Err(TraceError::Line { line: l, reason }) => {
                assert_eq!(l, line, "{doc:?}");
                assert!(reason.contains(needle), "{doc:?}: {reason}");
            }
            other => panic!("{doc:?}: expected a line error, got {other:?}"),
        }
    }
}

#[test]
fn out_of_order_arrivals_sort_stably_like_workload_plan() {
    // Shuffled submission times, with a tie (j3/j4 both at 10): parsing
    // sorts by time, keeping document order within the tie — the same
    // stability contract as `WorkloadPlan::new`.
    let doc = "j5,gru,90\nj3,gru,10\nj4,gru,10\nj1,gru,0\n";
    let trace = ArrivalTrace::parse(doc).unwrap();
    let ids: Vec<&str> = trace.rows().iter().map(|r| r.job_id).collect();
    assert_eq!(ids, ["j1", "j3", "j4", "j5"]);
    let times: Vec<f64> = trace.rows().iter().map(|r| r.submit_secs).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn empty_traces_parse_bind_and_plan_as_empty() {
    let trace = ArrivalTrace::parse("# nothing here\n").unwrap();
    assert!(trace.is_empty());
    assert_eq!(trace.len(), 0);
    let bound = TraceCatalog::table1().bind(&trace).unwrap();
    assert!(bound.is_empty());
    let plan: flowcon_dl::workload::WorkloadPlan = bound.into();
    assert!(plan.is_empty());
}

/// The class names the generator draws from (all resolvable by the default
/// catalog, exercising aliases and demand classes).
const CLASSES: [&str; 6] = ["vae", "mnist-tf", "gru", "lstm-cfc", "small", "large"];

/// What a generated `job_id` or `model` is spelled from: plain letters and
/// every character one of the wire formats treats specially.
const FIELD_ALPHABET: [&str; 11] = ["a", "b", "x", "\\", ",", "\"", "{", "#", "é", "\t", ":"];

/// Bytes the parser dispatches on, drawn about half the time so arbitrary
/// input reaches past the first character.
const STRUCTURE_BYTES: &[u8] = b"{}\",:#\\ \t\n-.e0123456789job_idmodelsubmit_secsnull";

proptest! {
    /// parse(serialize(parse(doc))) == parse(doc), for CSV and JSONL.
    #[test]
    fn parse_serialize_parse_round_trips(
        rows in prop::collection::vec(
            (0usize..1000, 0usize..CLASSES.len(), 0.0f64..5000.0, prop::option::weighted(0.4, 0.1f64..500.0)),
            0..40,
        ),
    ) {
        let doc: String = rows
            .iter()
            .map(|&(id, class, submit, hint)| {
                let hint = hint.map(|h| h.to_string()).unwrap_or_default();
                format!("job-{id},{},{submit},{hint}\n", CLASSES[class])
            })
            .collect();
        let first = ArrivalTrace::parse(&doc).expect("generated docs are valid");

        let csv = first.to_csv();
        let via_csv = ArrivalTrace::parse(&csv).expect("own CSV reparses");
        prop_assert_eq!(&via_csv, &first, "CSV round-trip");

        let jsonl = first.to_jsonl();
        let via_jsonl = ArrivalTrace::parse(&jsonl).expect("own JSONL reparses");
        prop_assert_eq!(&via_jsonl, &first, "JSONL round-trip");

        // Binding is insensitive to the wire format.
        let catalog = TraceCatalog::table1();
        prop_assert_eq!(
            catalog.bind(&via_csv).expect("all classes resolvable"),
            catalog.bind(&via_jsonl).expect("all classes resolvable")
        );
    }

    /// Whatever parses reparses, equal, from its own CSV and its own JSONL,
    /// whichever format each row came in: string fields hold only what
    /// both formats can carry.
    #[test]
    fn any_parsed_document_round_trips_through_both_formats(
        rows in prop::collection::vec(
            (
                prop::collection::vec(0usize..FIELD_ALPHABET.len(), 1..5),
                prop::collection::vec(0usize..FIELD_ALPHABET.len(), 1..5),
                0.0f64..5000.0,
                0usize..2,
            ),
            0..6,
        ),
    ) {
        let field = |picks: &[usize]| picks.iter().map(|&i| FIELD_ALPHABET[i]).collect::<String>();
        let doc: String = rows
            .iter()
            .map(|(id, model, submit, format)| {
                let (id, model) = (field(id), field(model));
                if *format == 0 {
                    format!("{id},{model},{submit}\n")
                } else {
                    format!("{{\"job_id\": \"{id}\", \"model\": \"{model}\", \"submit_secs\": {submit}}}\n")
                }
            })
            .collect();
        if let Ok(first) = ArrivalTrace::parse(&doc) {
            let (csv, jsonl) = (first.to_csv(), first.to_jsonl());
            prop_assert_eq!(ArrivalTrace::parse(&csv).as_ref(), Ok(&first), "CSV round-trip of {:?}", doc);
            prop_assert_eq!(ArrivalTrace::parse(&jsonl).as_ref(), Ok(&first), "JSONL round-trip of {:?}", doc);
        }
    }

    /// Any input at all yields a trace or an error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(
            (0u8..=255, 0usize..STRUCTURE_BYTES.len() * 2).prop_map(|(byte, pick)| {
                STRUCTURE_BYTES.get(pick).copied().unwrap_or(byte)
            }),
            0..256,
        ),
    ) {
        let _ = ArrivalTrace::parse(&String::from_utf8_lossy(&bytes));
    }
}
