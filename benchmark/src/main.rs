//! `flowcon-benchmark`: one end-to-end benchmark of the FlowCon simulator.
//!
//! ```text
//! flowcon-benchmark run     --workload NAME --seed S [--seconds N]
//! flowcon-benchmark trace   --workload NAME --seed S [--seconds N]
//! flowcon-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures the end-to-end metrics of one workload with tracing off;
//! `trace` repeats the workload with benchmark-owned probes on and reports
//! per-layer metrics; `compare` judges two sets of results against the
//! bounds in `BENCHMARK.json`.  Both measuring commands print one JSONL
//! record per metric, then a one-line JSON result as the last line of
//! standard output.  See `benchmark/README.md`.

mod check;
mod compare;
mod json;
mod probe;
mod stats;
mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flowcon_metrics::export::{text_table, to_jsonl, JsonValue};

use crate::probe::BoundarySpan;
use crate::stats::{median, quartiles};
use crate::workload::{Rep, Workload};

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in results and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What `run` reports and `BENCHMARK.json` bounds.
pub const END_TO_END: [MetricDef; 5] = [
    m("jobs_per_s", "jobs/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("sim_jct_mean_s", "s"),
    m("sim_jct_p99_s", "s"),
];

/// What `run` also prints, unbounded: `error_rate` is 0 on a correct
/// build (a bounded metric must never be 0), and the open-loop makespan is
/// set by one late job's drain, so it swings 20% from seed to seed.
const UNBOUNDED: [MetricDef; 2] = [m("error_rate", "ratio"), m("sim_makespan_s", "s")];

/// What `trace` reports.
pub const PER_LAYER: [MetricDef; 33] = [
    m("workload.plan_s", "s"),
    m("placement.place_s", "s"),
    m("executor.busy_s", "s"),
    m("executor.imbalance", "ratio"),
    m("executor.idle_frac", "ratio"),
    m("dense.worker_us_p50", "us"),
    m("dense.worker_us_p99", "us"),
    m("dense.events", "count"),
    m("session.worker_us_p50", "us"),
    m("session.worker_us_p99", "us"),
    m("session.events", "count"),
    m("session.physics_s", "s"),
    m("engine.events", "count"),
    m("engine.advance_self_s", "s"),
    m("waterfill.calls", "count"),
    m("policy.calls", "count"),
    m("policy.s", "s"),
    m("policy.call_us_p99", "us"),
    m("policy.interrupts", "count"),
    m("policy.useful_ratio", "ratio"),
    m("recorder.calls", "count"),
    m("recorder.s", "s"),
    m("sched.barriers", "count"),
    m("sched.barrier_us_p50", "us"),
    m("sched.barrier_us_p99", "us"),
    m("sched.decide_s", "s"),
    m("sched.decide_us_p99", "us"),
    m("sched.places", "count"),
    m("sched.preempts", "count"),
    m("sched.migrations", "count"),
    m("sched.useful_barrier_ratio", "ratio"),
    m("trace.overhead_frac", "ratio"),
    m("alloc.per_job", "allocs/job"),
];

/// Default measuring time per run; equal to `run_seconds` in
/// `BENCHMARK.json` (a test keeps the two in step).
const DEFAULT_SECONDS: u64 = 20;

/// Timed reps a run makes however short `--seconds` is, so that its
/// quartiles lie within the observed range.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage:
  flowcon-benchmark run     --workload NAME --seed S [--seconds N]
  flowcon-benchmark trace   --workload NAME --seed S [--seconds N]
  flowcon-benchmark compare A.jsonl B.jsonl
workloads: headless_1m recorded_deep sched_tiresias open_loop";

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

/// Counts allocations while [`count_allocs`] runs; otherwise one relaxed
/// load per allocation.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_if_enabled() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_enabled();
        // SAFETY: `ptr` came from this allocator (which is `System`) with
        // `layout`, per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f`, counting the process's allocations meanwhile.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum Cli {
    Run(Opts),
    Trace(Opts),
    Compare(String, String),
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match cmd.as_str() {
        "run" => parse_opts(rest).map(Cli::Run),
        "trace" => parse_opts(rest).map(Cli::Trace),
        "compare" => match rest {
            [a, b] if !a.starts_with("--") && !b.starts_with("--") => {
                Ok(Cli::Compare(a.clone(), b.clone()))
            }
            _ => Err("compare takes exactly two result files".into()),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds") => f,
            f => return Err(format!("unknown flag `{f}`")),
        };
        let value = it.next().ok_or(format!("{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let workload = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = flags.get("--seed").ok_or("--seed is required")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed wants a non-negative integer, got `{seed}`"))?;
    let seconds = match flags.get("--seconds") {
        None => DEFAULT_SECONDS,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("--seconds wants a positive integer, got `{s}`")),
        },
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("flowcon-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli {
        Cli::Run(o) => run(o),
        Cli::Trace(o) => trace(o),
        Cli::Compare(a, b) => compare::run(&a, &b),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flowcon-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// One measured metric of one run.
struct Measured {
    def: MetricDef,
    value: f64,
    samples: usize,
}

fn print_results(
    kind: &str,
    o: Opts,
    metrics: &[Measured],
    extra: &[Measured],
    attempted: u64,
    failed: u64,
) {
    let base = |name: &str, unit: &str, value: f64, samples: usize| {
        vec![
            ("kind", JsonValue::Str(kind.into())),
            ("workload", JsonValue::Str(o.workload.name().into())),
            ("seed", JsonValue::Int(o.seed)),
            ("metric", JsonValue::Str(name.into())),
            ("value", JsonValue::Num(value)),
            ("unit", JsonValue::Str(unit.into())),
            ("samples", JsonValue::Int(samples as u64)),
        ]
    };
    let mut records: Vec<Vec<(&str, JsonValue)>> = metrics
        .iter()
        .chain(extra)
        .map(|m| base(m.def.name, m.def.unit, m.value, m.samples))
        .collect();
    let correct = failed == 0;
    let summary: Vec<(String, JsonValue)> = metrics
        .iter()
        .map(|m| {
            (
                m.def.name.to_string(),
                JsonValue::Obj(vec![
                    ("value".into(), JsonValue::Num(m.value)),
                    ("unit".into(), JsonValue::Str(m.def.unit.into())),
                ]),
            )
        })
        .collect();
    records.push(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Int(attempted)),
        ("failed", JsonValue::Int(failed)),
        ("metrics", JsonValue::Obj(summary)),
    ]);
    print!("{}", to_jsonl(records.iter().map(Vec::as_slice)));

    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|m| {
            vec![
                m.def.name.into(),
                format!("{:.6}", m.value),
                m.def.unit.into(),
            ]
        })
        .collect();
    eprint!(
        "{} seed {} ({kind}, {} of {} jobs failed checks)\n{}",
        o.workload.name(),
        o.seed,
        failed,
        attempted,
        text_table(&["metric", "value", "unit"], &rows)
    );
}

/// Peak resident set size in MiB (`VmHWM` from `/proc/self/status`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn exit_for(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// run: end-to-end metrics, tracing off
// ---------------------------------------------------------------------------

fn jobs_per_s(rep: &Rep) -> f64 {
    rep.sim.completed as f64 / rep.run_s
}

fn run(o: Opts) -> Result<ExitCode, String> {
    let w = o.workload;
    // The warm-up rep is discarded from timing; its output is the baseline
    // every timed rep must reproduce.  Peak memory is read after it: that is
    // what a process running the workload once holds, before later reps add
    // allocator churn.
    let warm = w.rep(o.seed);
    let peak_rss = peak_rss_mib()?;
    let base = &warm.sim;
    let mut attempted = base.submitted;
    let mut failed = base.failed_jobs(None);
    let mut throughput = Vec::new();
    let mut setup = Vec::new();
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    while throughput.len() < MIN_REPS || start.elapsed() < budget {
        let rep = w.rep(o.seed);
        throughput.push(jobs_per_s(&rep));
        setup.push(rep.plan_s + rep.place_s);
        attempted += rep.sim.submitted;
        failed += rep.sim.failed_jobs(Some(base));
    }
    let reference = w.reference(o.seed, base);
    attempted += reference.compared;
    failed += reference.mismatched;

    let reps = throughput.len();
    // Interference from other tenants only ever slows a rep down, and it
    // arrives in bursts that cover whole reps, so the faster quartile of
    // reps estimates the program's own speed more steadily than the median.
    let metrics = [
        (quartiles(&throughput).map(|(_, q3)| q3), reps),
        (median(&setup), reps),
        (Some(peak_rss), 1),
        (Some(base.jct_mean_s), 1),
        (Some(base.jct_p99_s), 1),
    ];
    let metrics: Vec<Measured> = END_TO_END
        .iter()
        .zip(metrics)
        .map(|(&def, (value, samples))| Measured {
            def,
            value: value.expect("at least MIN_REPS reps"),
            samples,
        })
        .collect();
    let unbounded: Vec<Measured> = UNBOUNDED
        .iter()
        .zip([failed as f64 / attempted as f64, base.makespan_s])
        .map(|(&def, value)| Measured {
            def,
            value,
            samples: 1,
        })
        .collect();
    print_results("e2e", o, &metrics, &unbounded, attempted, failed);
    Ok(exit_for(failed))
}

// ---------------------------------------------------------------------------
// trace: per-layer metrics from a probed rep
// ---------------------------------------------------------------------------

fn trace(o: Opts) -> Result<ExitCode, String> {
    let w = o.workload;
    let (warm, allocs) = count_allocs(|| w.rep(o.seed));
    let base = &warm.sim;
    let mut attempted = base.submitted;
    let mut failed = base.failed_jobs(None);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut plan_s = Vec::new();
    let mut place_s = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    let budget = Duration::from_secs(o.seconds);
    let start = Instant::now();
    // Alternate untraced and traced reps of the same inputs, so host drift
    // lands on both sides of the overhead ratio.
    while untraced.is_empty() || start.elapsed() < budget {
        let rep = w.rep(o.seed);
        untraced.push(jobs_per_s(&rep));
        plan_s.push(rep.plan_s);
        place_s.push(rep.place_s);
        attempted += rep.sim.submitted;
        failed += rep.sim.failed_jobs(Some(base));

        let t = w.traced(o.seed);
        traced.push(t.sim.completed as f64 / t.run_s);
        attempted += t.sim.submitted;
        failed += t.sim.failed_jobs(Some(base));
        for (name, v) in t.layers {
            layers.entry(name).or_default().push(v);
        }
        spans = t.spans;
    }
    let median_of = |v: &[f64]| median(v).expect("at least one rep");
    let overhead = 1.0 - median_of(&traced) / median_of(&untraced);
    let mut value: BTreeMap<&str, (f64, usize)> = layers
        .iter()
        .map(|(&n, v)| (n, (median_of(v), v.len())))
        .collect();
    value.insert("workload.plan_s", (median_of(&plan_s), plan_s.len()));
    value.insert("placement.place_s", (median_of(&place_s), place_s.len()));
    value.insert("trace.overhead_frac", (overhead, traced.len()));
    value.insert("alloc.per_job", (allocs as f64 / base.submitted as f64, 1));
    let metrics: Vec<Measured> = PER_LAYER
        .iter()
        .map(|&def| {
            let (value, samples) = value[def.name];
            Measured {
                def,
                value,
                samples,
            }
        })
        .collect();
    write_spans(o, &spans);
    print_results("layer", o, &metrics, &[], attempted, failed);
    Ok(exit_for(failed))
}

/// Write the last traced rep's boundary spans as a Chrome trace-event file
/// (open it in Perfetto) under `benchmark/out/`.
fn write_spans(o: Opts, spans: &[BoundarySpan]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = format!("spans-{}-{}.json", o.workload.name(), o.seed);
    let path = dir.join(&file);
    let mut doc = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            if i > 0 { "," } else { "" },
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
        );
    }
    doc.push_str("]}\n");
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, doc));
    match written {
        Ok(()) => eprintln!("{} spans written to benchmark/out/{file}", spans.len()),
        Err(e) => eprintln!("warning: cannot write benchmark/out/{file}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_measuring_commands() {
        assert_eq!(
            parse_cli(&args("run --workload open_loop --seed 7")),
            Ok(Cli::Run(Opts {
                workload: Workload::OpenLoop,
                seed: 7,
                seconds: DEFAULT_SECONDS
            }))
        );
        assert_eq!(
            parse_cli(&args("trace --seconds 3 --seed 0 --workload headless_1m")),
            Ok(Cli::Trace(Opts {
                workload: Workload::Headless1m,
                seed: 0,
                seconds: 3
            }))
        );
        assert_eq!(
            parse_cli(&args("compare a.jsonl b.jsonl")),
            Ok(Cli::Compare("a.jsonl".into(), "b.jsonl".into()))
        );
    }

    #[test]
    fn rejects_bad_command_lines_with_a_message() {
        for (line, needle) in [
            ("", "missing command"),
            ("bench", "unknown command"),
            ("run --workload nope --seed 1", "unknown workload `nope`"),
            ("run --workload open_loop --seed x1", "--seed wants"),
            ("run --workload open_loop --seed -1", "--seed wants"),
            (
                "run --workload open_loop --seed 1 --sconds 3",
                "unknown flag `--sconds`",
            ),
            (
                "run --workload open_loop --seed 1 --seconds 0",
                "--seconds wants",
            ),
            ("run --workload open_loop", "--seed is required"),
            ("run --seed 1", "--workload is required"),
            ("run --workload open_loop --seed", "--seed needs a value"),
            ("run --seed 1 --seed 2 --workload open_loop", "given twice"),
            ("compare a.jsonl", "exactly two"),
        ] {
            let err = parse_cli(&args(line)).expect_err(line);
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary prints, with the same units, and the default run length.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
