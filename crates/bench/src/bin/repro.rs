//! Regenerate every table and figure of the FlowCon paper.
//!
//! ```text
//! repro [experiment ...]
//! repro bench [--out FILE] [--check BASELINE.json]
//! repro cluster [--workers N] [--jobs J] [--seed S] [--headless]
//! repro profile [--workers N] [--jobs J] [--seed S]
//! repro trace --file PATH | --synthetic {poisson,bursty,diurnal}
//!             [--jobs N] [--rate R] [--seed S] [--workers N]
//!             [--policy {flowcon,na}] [--thin P] [--compress X] [--emit PATH]
//! repro stream --synthetic {poisson,bursty,diurnal} | --file PATH [--cycle]
//!              [--until SECS] [--jobs N] [--rate R] [--seed S] [--workers N]
//!              [--policy {flowcon,na}] [--headless] [--hints] [--trace-out PATH]
//! repro sched [--policy {fifo,gandiva,tiresias}] [--compare]
//!             [--workers N] [--jobs J] [--seed S] [--quantum SECS]
//!             [--slots K] [--trace-out PATH]
//! repro frontier [--policy {fifo,gandiva,tiresias}] [--compare]
//!                [--workers N] [--jobs J] [--seed S] [--quantum SECS]
//!                [--slots K] [--rates R1,R2,...] [--emit PATH]
//! repro timeline [--policy {fifo,gandiva,tiresias}] [--workers N] [--jobs J]
//!                [--seed S] [--quantum SECS] [--slots K] [--capacity N]
//!                [--out PATH] [--summary]
//! repro fidelity [--workers N] [--jobs J] [--seed S] [--dilation D]
//!                [--chaos {straggler,churn}] [--emit PATH]
//!
//! experiments:
//!   table1 fig1 fig3 fig4 fig5 fig6 table2 fig7 fig8 fig9 fig10 fig11
//!   fig12 fig13 fig14 fig15 fig16 fig17
//!   ablation-backoff ablation-beta ablation-kappa ablation-policies
//!   ablation-resource all (default)
//! ```
//!
//! Every subcommand reads its arguments once, against its own flag table
//! (`COMMANDS`), before it does any work.  A table entry names a flag and
//! what it takes: nothing (a switch), a count ≥ 1, a seed, or a number or
//! text its validator accepts.  An unknown flag, a repeated flag, a flag
//! without its value and a value its entry rejects each exit 2 with
//! `--flag wants <what>, got <value>`, never a run of the defaults.  Rules
//! that span flags (exactly one of `--file`/`--synthetic`, flags that
//! belong to one mode, `stream`'s horizon, `--trace-out` against
//! `--compare` or a headless stream) exit 2 the same way, and `repro`
//! exits 2 on an unknown experiment name before running any.
//!
//! `repro bench` runs the fixed allocator/worker/policy/cluster micro-suite
//! and writes a machine-readable `BENCH_<date>.json` (see BENCHMARKS.md).
//! With `--check` it then compares the fresh results against the given
//! baseline file and exits non-zero on a regression (the CI perf gate).
//!
//! `repro cluster` runs one sharded cluster simulation (default 1024
//! workers, 2 jobs each) on at most `available_parallelism` OS threads and
//! prints the scale numbers, peak RSS (`VmHWM`) included.  With
//! `--headless` the workers run a `CompletionsOnly` recorder — no
//! usage/limit traces, no label clones, O(completions) memory — which is
//! the supported way to drive 10k-worker clusters (`repro cluster
//! --workers 10240 --headless`).  Headless runs
//! go through the dense arena path.
//!
//! `repro profile` is the density harness: one headless cluster run with
//! per-stage wall time (plan build, placement, simulation), allocations
//! per stage (this binary's counting allocator), allocs/worker for the
//! simulation stage, and peak RSS (`VmHWM` from `/proc/self/status`).
//! The ISSUE-6 acceptance numbers (`repro profile --workers 1000000`)
//! come from this subcommand.
//!
//! `repro trace` replays an arrival trace (`--file`, CSV or JSONL — see
//! the flowcon-workload crate docs for the format) or a synthetic arrival
//! process (`--synthetic`).  With `--workers 1` (default) it runs one
//! full-observability session and prints the completion table; with more
//! workers it streams per-worker plan slices off a `PlanSource` into a
//! headless cluster.  `--thin`/`--compress` subsample and time-compress a
//! trace file; `--emit PATH` writes the workload as a JSONL trace instead
//! of running it (how `traces/bursty_large.jsonl` was produced).
//!
//! `repro stream` runs **open-loop**: jobs keep arriving while the policy
//! reconfigures, pulled live from an unbounded per-worker `JobStream` — a
//! synthetic arrival process (`--synthetic`, per-worker `--rate` jobs/s)
//! or a trace file (`--file`; `--cycle` replays it cyclically, `--hints`
//! binds duration hints).  The run needs a horizon: `--until SECS`
//! (admission window in simulated seconds) and/or `--jobs N` (cap per
//! worker); admitted jobs always drain.  Output is the steady-state table:
//! arrival vs. completion rate, mean queue depth, utilization.  The
//! acceptance configuration `repro stream --synthetic poisson --workers
//! 1024 --until 3600 --headless` is committed as the
//! `stream/open_loop/w1024` bench row.
//!
//! `repro sched` runs the **online cluster scheduler**: one global manager
//! owns the seeded workload as a shared arrival stream and makes live
//! queueing/placement/preemption decisions at every `--quantum` barrier
//! (finite, and no finer than the clock's 1 µs tick), with per-node
//! FlowCon sims underneath (`--slots` jobs per node).  `--policy` picks
//! the discipline; `--compare` runs all three on the same workload and
//! prints the per-policy comparison table (makespan, mean queueing delay,
//! preemptions, migrations, utilization, and p50/p95/p99 sojourn and
//! queue-wait tails from the quantile sketches).  Runs are deterministic:
//! same `--seed` ⇒ bit-identical decision log.
//!
//! `repro frontier` is the capacity-planning sweep: per policy, it feeds
//! the online scheduler a cluster-wide Poisson arrival stream and climbs
//! a geometric ladder of offered rates (`--rates` overrides it with an
//! explicit strictly-increasing list), recording p50/p95/p99 sojourn and
//! queue-wait at each rung and stopping early once the completion rate
//! saturates or the time-weighted queue depth diverges — the M/G/1 view
//! of the stability frontier.  The printed table is deterministic (CI
//! diffs two runs); `--emit PATH` additionally writes the curves as
//! JSONL for plotting.  The ladder brackets the frontier by bisection to
//! within 7% before reporting it.
//!
//! `repro timeline` runs one scheduler workload with a structured tracer
//! attached (the [`flowcon_sim::trace`] flight recorder, `--capacity`
//! events) and exports the merged timeline as Chrome trace-event JSON —
//! load it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! The JSON goes to stdout unless `--out PATH`; `--summary` adds a
//! per-kind event-count table (on stderr when the JSON owns stdout, so
//! the document stays pipeable).  Exports are deterministic: the same
//! seed produces byte-identical JSON.
//! `repro sched --trace-out PATH` (single policy only) and `repro stream
//! --trace-out PATH` (single-worker full-observability runs) write the
//! same format alongside their normal tables.
//!
//! `repro fidelity` is the **differential sim↔rt harness**: the identical
//! seeded workload runs through the fluid simulation (reference) and the
//! `flowcon-rt` wall-clock backend (candidate, real OS threads behind the
//! same `Session` builder surface), per-job records are aligned by label,
//! and the divergence is reported — completion-set equality, completion-
//! order edit distance, the per-job sojourn-ratio distribution
//! (p50/p95/p99/min/max through a quantile sketch), and the makespan
//! ratio.  `--workers N` is the node capacity in cores, `--dilation D`
//! compresses D sim-seconds into each wall second on the rt side.
//! `--chaos` makes a scenario *physically real* on the rt side only
//! (straggler = one governor throttled to 25%, churn = a container thread
//! killed and relaunched): the run must still complete every job (exit 0)
//! while the report shows nonzero divergence.  `--emit PATH` writes the
//! report as JSONL.  Exits 2 when divergence breaches tolerance (or the
//! chaos-surviving completion-set invariant fails).
//!
//! Output: paper-style tables and ASCII charts on stdout; CSV artifacts
//! under `target/experiments/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flowcon_bench::experiments::fidelity::ChaosKind;
use flowcon_bench::experiments::{
    ablation, default_node, fig1, fixed, random, scale, DEFAULT_SEED,
};
use flowcon_bench::perf;
use flowcon_bench::report::{completion_table, section, write_csv};
use flowcon_cluster::{PolicyKind, SchedPolicyKind};
use flowcon_core::config::FlowConConfig;
use flowcon_dl::models::{ModelSpec, TABLE1_MODELS};
use flowcon_metrics::chart::{bar_chart, line_chart};
use flowcon_metrics::export::{completions_csv, series_csv, text_table, to_csv};
use flowcon_metrics::summary::RunSummary;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::FlightRecorder;
use flowcon_workload::synthetic::MAX_RATE;
use flowcon_workload::{ArrivalTrace, BoundTrace, TraceCatalog};

/// Counting allocator so `repro bench` can report allocs/op.
///
/// Counting is off by default and enabled only by the `bench` subcommand,
/// so figure-reproduction runs (parallel, allocation-heavy) don't pay a
/// contended atomic per allocation for a counter nobody reads.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count_if_enabled() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_enabled();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match COMMANDS
        .iter()
        .find(|(cmd, _, _)| argv.first().is_some_and(|a| a == cmd))
    {
        Some(&(cmd, table, run)) => run(&Args::parse(cmd, &argv[1..], table)),
        None => run_experiments(&argv),
    }
}

/// Every paper table and figure `repro` regenerates, as `(name, run by
/// all, run)`.  A figure printed together with its partner (`fig8` with
/// `fig7`) runs by name but not a second time under `all`.
const EXPERIMENTS: &[(&str, bool, fn())] = &[
    ("table1", true, table1),
    ("fig1", true, run_fig1),
    ("fig3", true, || {
        let sweep = fixed::fig3(default_node());
        fixed_sweep("Fig. 3 (alpha=5%, itval sweep)", sweep, "fig3")
    }),
    ("fig4", true, || {
        let sweep = fixed::fig4(default_node());
        fixed_sweep("Fig. 4 (alpha=10%, itval sweep)", sweep, "fig4")
    }),
    ("fig5", true, || {
        let sweep = fixed::fig5(default_node());
        fixed_sweep("Fig. 5 (itval=20, alpha sweep)", sweep, "fig5")
    }),
    ("fig6", true, || {
        let sweep = fixed::fig6(default_node());
        fixed_sweep("Fig. 6 (itval=30, alpha sweep)", sweep, "fig6")
    }),
    ("table2", true, table2),
    ("fig7", true, fig7_fig8),
    ("fig8", false, fig7_fig8),
    ("fig9", true, fig9),
    ("fig10", true, fig10_fig11),
    ("fig11", false, fig10_fig11),
    ("fig12", true, || fig12_fig15_fig16(false)),
    ("fig13", true, fig13_fig14),
    ("fig14", false, fig13_fig14),
    ("fig15", true, || fig12_fig15_fig16(true)),
    ("fig16", false, || fig12_fig15_fig16(true)),
    ("fig17", true, fig17),
    ("ablation-backoff", true, ablation_backoff),
    ("ablation-beta", true, ablation_beta),
    ("ablation-kappa", true, ablation_kappa),
    ("ablation-policies", true, ablation_policies),
    ("ablation-resource", true, ablation_resource),
];

/// `repro [experiment ...]`: run the named experiments in order, or every
/// one for `all` or no argument.  Every name is checked before anything
/// runs, so a typo exits 2 instead of costing a partial run first.
fn run_experiments(args: &[String]) {
    let mut wanted = Vec::new();
    for name in args.iter().filter(|a| *a != "all") {
        match EXPERIMENTS.iter().find(|(known, _, _)| known == name) {
            Some(&(_, _, run)) => wanted.push(run),
            None => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|&(known, _, _)| known).collect();
                usage(format_args!(
                    "repro: unknown experiment {name:?} (valid: {} all)",
                    valid.join(" ")
                ));
            }
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "all") {
        wanted = EXPERIMENTS
            .iter()
            .filter(|&&(_, in_all, _)| in_all)
            .map(|&(_, _, run)| run)
            .collect();
    }
    for run in wanted {
        run();
    }
}

/// A subcommand as `(name, flag table, run)`: `repro <name>` checks and
/// parses its arguments against the table before `run` starts.
type Command = (&'static str, &'static [Flag], fn(&Args));

/// Every subcommand.
const COMMANDS: &[Command] = &[
    ("bench", &[path("--out"), path("--check")], run_bench),
    (
        "cluster",
        &[WORKERS, JOBS, SEED, switch("--headless")],
        run_cluster,
    ),
    ("profile", &[WORKERS, JOBS, SEED], run_profile),
    (
        "trace",
        &[
            path("--file"),
            SYNTHETIC,
            JOBS,
            RATE,
            SEED,
            WORKERS,
            NODE_POLICY,
            Flag(
                "--thin",
                Takes::Num("a keep probability in (0, 1]", |x| x > 0.0 && x <= 1.0),
            ),
            Flag(
                "--compress",
                Takes::Num("a finite factor > 0", finite_positive),
            ),
            path("--emit"),
        ],
        run_trace,
    ),
    (
        "stream",
        &[
            SYNTHETIC,
            path("--file"),
            switch("--cycle"),
            Flag(
                "--until",
                Takes::Num(
                    "finite simulated seconds > 0 within the clock's range",
                    |x| finite_positive(x) && SimTime::from_secs_f64(x) < SimTime::MAX,
                ),
            ),
            JOBS,
            RATE,
            SEED,
            WORKERS,
            NODE_POLICY,
            switch("--headless"),
            switch("--hints"),
            path("--trace-out"),
        ],
        run_stream,
    ),
    (
        "sched",
        &[
            SCHED_POLICY,
            switch("--compare"),
            WORKERS,
            JOBS,
            SEED,
            QUANTUM,
            SLOTS,
            path("--trace-out"),
        ],
        run_sched,
    ),
    (
        "frontier",
        &[
            SCHED_POLICY,
            switch("--compare"),
            WORKERS,
            JOBS,
            SEED,
            QUANTUM,
            SLOTS,
            Flag(
                "--rates",
                Takes::Text(
                    "a strictly increasing list R1,R2,... of rates > 0 and at most 1e6 jobs/s",
                    |list| rate_ladder(list).is_some(),
                ),
            ),
            path("--emit"),
        ],
        run_frontier,
    ),
    (
        "timeline",
        &[
            SCHED_POLICY,
            WORKERS,
            JOBS,
            SEED,
            QUANTUM,
            SLOTS,
            Flag("--capacity", Takes::Count(u64::MAX)),
            path("--out"),
            switch("--summary"),
        ],
        run_timeline,
    ),
    (
        "fidelity",
        &[
            // Node cores: the rt backend takes them as a `u32`.
            Flag("--workers", Takes::Count(u32::MAX as u64)),
            JOBS,
            SEED,
            Flag(
                "--dilation",
                Takes::Num("finite sim-seconds per wall second > 0", finite_positive),
            ),
            Flag(
                "--chaos",
                Takes::Text("straggler or churn", |name| chaos_kind(name).is_some()),
            ),
            path("--emit"),
        ],
        run_fidelity,
    ),
];

const WORKERS: Flag = Flag("--workers", Takes::Count(u64::MAX));
const JOBS: Flag = Flag("--jobs", Takes::Count(u64::MAX));
const SLOTS: Flag = Flag("--slots", Takes::Count(u64::MAX));
const SEED: Flag = Flag("--seed", Takes::Seed);
/// The scheduler's barrier spacing, no finer than the clock's 1 µs tick.
const QUANTUM: Flag = Flag(
    "--quantum",
    Takes::Num("finite seconds, at least 1e-6 (one clock tick)", |q| {
        q.is_finite() && q >= 1e-6
    }),
);
/// A synthetic preset's long-run mean rate: every preset must be able to
/// sample it, and the bursty one bursts at 4× it.
const RATE: Flag = Flag(
    "--rate",
    Takes::Num(
        "a finite arrival rate > 0 and at most 250000 jobs/s (the bursty preset bursts at 4x it, up to one arrival per 1 us tick)",
        flowcon_bench::experiments::trace::presets_run_at,
    ),
);
/// The cluster scheduler's discipline (`sched`, `frontier`, `timeline`).
const SCHED_POLICY: Flag = Flag(
    "--policy",
    Takes::Text("fifo, gandiva or tiresias", |name| {
        SchedPolicyKind::parse(name).is_some()
    }),
);
/// The node policy (`trace`, `stream`).
const NODE_POLICY: Flag = Flag(
    "--policy",
    Takes::Text("flowcon or na", |name| node_policy(name).is_some()),
);
const SYNTHETIC: Flag = Flag(
    "--synthetic",
    Takes::Text("poisson, bursty or diurnal", |name| {
        flowcon_bench::experiments::trace::preset(name, 1.0, 0, 0).is_some()
    }),
);

/// A flag that takes no value.
const fn switch(name: &'static str) -> Flag {
    Flag(name, Takes::Switch)
}

/// A flag that takes a file path.
const fn path(name: &'static str) -> Flag {
    Flag(name, Takes::Text("a path", |_| true))
}

/// One entry of a flag table: the flag and what it takes.
#[derive(Clone, Copy)]
struct Flag(&'static str, Takes);

/// What a flag takes.  A value is checked here, before any work starts:
/// the simulation asserts the same bounds deep inside, so an unchecked
/// value would panic or run a degenerate workload instead.
#[derive(Clone, Copy)]
enum Takes {
    /// No value: the flag is a switch.
    Switch,
    /// A count from 1 to the given maximum: zero workers, jobs or slots
    /// is always a typo'd or miscomputed script variable.
    Count(u64),
    /// Any `u64`.
    Seed,
    /// A number the validator accepts, described by the text.
    Num(&'static str, fn(f64) -> bool),
    /// Text the validator accepts, described by the text.
    Text(&'static str, fn(&str) -> bool),
}

impl Takes {
    /// What the flag wants, for the usage message.
    fn wants(self) -> String {
        match self {
            Takes::Switch => "no value".into(),
            Takes::Count(u64::MAX) => "a count >= 1".into(),
            Takes::Count(max) => format!("a count in 1..={max}"),
            Takes::Seed => "a seed in 0..=18446744073709551615".into(),
            Takes::Num(wants, _) | Takes::Text(wants, _) => wants.into(),
        }
    }

    /// Whether `value` is one this flag takes.
    fn accepts(self, value: &str) -> bool {
        match self {
            Takes::Switch => false,
            Takes::Count(max) => value.parse().is_ok_and(|n: u64| (1..=max).contains(&n)),
            Takes::Seed => value.parse::<u64>().is_ok(),
            Takes::Num(_, valid) => value.parse().is_ok_and(valid),
            Takes::Text(_, valid) => valid(value),
        }
    }
}

/// A subcommand's flags, read once from argv and checked against its
/// table.
struct Args {
    /// Every flag given, with its value (empty for a switch).
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Read `argv` against `table`, or exit 2 at the first flag that is
    /// unknown, repeated, missing its value or given one its entry
    /// rejects.  A value never starts with `--`: that is the next flag.
    fn parse(cmd: &str, argv: &[String], table: &[Flag]) -> Args {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(&Flag(name, takes)) = table.iter().find(|flag| flag.0 == *arg) else {
                let known: Vec<&str> = table.iter().map(|flag| flag.0).collect();
                usage(format_args!(
                    "repro {cmd} wants one of {}, got {arg}",
                    known.join(" ")
                ));
            };
            if given.iter().any(|(seen, _)| *seen == name) {
                usage(format_args!("{name} wants to be given once, got it twice"));
            }
            let value = match takes {
                Takes::Switch => String::new(),
                _ => match argv.next() {
                    Some(v) if !v.starts_with("--") && takes.accepts(v) => v.clone(),
                    got => usage(format_args!(
                        "{name} wants {}, got {}",
                        takes.wants(),
                        got.map_or("nothing", String::as_str)
                    )),
                },
            };
            given.push((name, value));
        }
        Args { given }
    }

    /// Whether `name` was given.
    fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value given for `name`, as written.
    fn text(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(given, _)| *given == name)
            .map(|(_, value)| value.as_str())
    }

    /// The value given for `name`, parsed: the table has already checked
    /// that it parses.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let value = self.text(name)?;
        Some(value.parse().ok().expect("checked by the flag table"))
    }
}

/// Print `msg` and exit 2: how `repro` reports every input mistake.
fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A rate, compression factor or time span: finite and `> 0`.
fn finite_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// `--rates R1,R2,...`: a non-empty, strictly increasing list of positive
/// rates that a Poisson rung can sample (at most [`MAX_RATE`], one
/// arrival per 1 µs tick).  Anything else is a script bug that would
/// silently sweep garbage (a descending ladder "finds" the frontier at its
/// first rung) or never end.
fn rate_ladder(list: &str) -> Option<Vec<f64>> {
    let rates: Vec<f64> = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    let valid = !rates.is_empty()
        && rates.iter().all(|&r| finite_positive(r) && r <= MAX_RATE)
        && rates.windows(2).all(|w| w[0] < w[1]);
    valid.then_some(rates)
}

/// The node policy `--policy` names: `flowcon` (the default) or `na`.
fn node_policy(name: &str) -> Option<PolicyKind> {
    match name {
        "flowcon" => Some(PolicyKind::FlowCon(FlowConConfig::default())),
        "na" => Some(PolicyKind::Baseline),
        _ => None,
    }
}

/// The cluster scheduler `--policy` names (`fifo` by default).
fn sched_policy(args: &Args) -> SchedPolicyKind {
    SchedPolicyKind::parse(args.text("--policy").unwrap_or("fifo"))
        .expect("checked by the flag table")
}

/// The chaos scenario `--chaos` names.
fn chaos_kind(name: &str) -> Option<ChaosKind> {
    [ChaosKind::Straggler, ChaosKind::Churn]
        .into_iter()
        .find(|kind| kind.name() == name)
}

/// Write `doc` to `path`, or exit 2 if it cannot be written.
fn write_or_exit(path: &str, doc: &str) {
    flowcon_metrics::export::write_artifact(path, doc).unwrap_or_else(|e| usage(e));
}

/// Write `recorder`'s timeline to `path` as Chrome trace-event JSON and
/// say how many events it held.
fn write_timeline(path: &str, recorder: &FlightRecorder) {
    let events = recorder.events();
    let doc = flowcon_metrics::tracelog::chrome_trace_json(&events, recorder.dropped());
    write_or_exit(path, &doc);
    println!(
        "wrote {} trace events ({} dropped) to {path}",
        events.len(),
        recorder.dropped()
    );
}

/// Read, parse and bind the trace file at `path` with `catalog`, or exit
/// 2 naming the file.
fn bind_trace_file(path: &str, catalog: TraceCatalog) -> BoundTrace {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(format_args!("cannot read trace {path}: {e}")));
    let trace = ArrivalTrace::parse(&doc).unwrap_or_else(|e| usage(format_args!("{path}: {e}")));
    catalog
        .bind(&trace)
        .unwrap_or_else(|e| usage(format_args!("{path}: {e}")))
}

/// `repro bench [--out FILE] [--check BASELINE]`: run the micro-suite,
/// print a table, write the machine-readable trajectory file, and — with
/// `--check` — gate the fresh numbers against a committed baseline.
fn run_bench(args: &Args) {
    let out_path = args.text("--out").map_or_else(
        || format!("BENCH_{}.json", perf::today_utc()),
        str::to_owned,
    );
    // Stat the baseline up front: a bad gate invocation must fail before
    // the suite spends its ~15 s, not after.
    let check_path = args.text("--check");
    if let Some(p) = check_path {
        if !std::path::Path::new(p).is_file() {
            usage(format_args!("cannot read baseline {p}: not a file"));
        }
    }
    let mode = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    section(&format!("Perf micro-suite ({mode})"));
    COUNTING.store(true, Ordering::Relaxed);
    let counter = || ALLOCATIONS.load(Ordering::Relaxed);
    let results = perf::run_micro_suite(Some(&counter));
    COUNTING.store(false, Ordering::Relaxed);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}", r.ns_per_op),
                r.allocs_per_op.map_or("-".into(), |a| format!("{a:.2}")),
                r.events_per_sec.map_or("-".into(), |e| format!("{e:.0}")),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(&["benchmark", "ns/op", "allocs/op", "events/s"], &rows)
    );

    // Headline ratios at n=64: warm scratch vs the seed (v0) allocator and
    // vs today's cold allocating wrapper.
    let ns_of = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.ns_per_op);
    if let (Some(seed), Some(cold), Some(warm)) = (
        ns_of("waterfill/seed/n64"),
        ns_of("waterfill/cold/n64"),
        ns_of("waterfill/warm/n64"),
    ) {
        if warm > 0.0 {
            println!(
                "waterfill n=64: warm scratch is {:.2}x faster than the seed (v0) and {:.2}x faster than the cold path",
                seed / warm,
                cold / warm
            );
        }
    }

    write_or_exit(
        &out_path,
        &perf::to_json(&results, &perf::today_utc(), mode),
    );
    println!("wrote {out_path}");

    if let Some(baseline_path) = check_path {
        check_gate(&results, baseline_path, mode);
    }
}

/// The CI perf gate: compare fresh results against `baseline_path`, print
/// the verdict, and exit non-zero on any violation.
fn check_gate(results: &[perf::PerfResult], baseline_path: &str, mode: &str) {
    section(&format!("Bench regression gate vs {baseline_path}"));
    if mode != "release" {
        eprintln!("warning: gating {mode} numbers against a committed (release) baseline");
    }
    let doc = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| usage(format_args!("cannot read baseline {baseline_path}: {e}")));
    let Some(baseline) = perf::parse_results(&doc) else {
        usage(format_args!(
            "{baseline_path} is not a flowcon-bench/v1 document"
        ));
    };
    let violations = perf::check_regression(results, &baseline);
    if violations.is_empty() {
        println!(
            "gate passed: no warm-path allocations, no events/s regression > {:.0}%, no allocs/op growth > {:.0}% vs {} baseline rows",
            100.0 * perf::EVENTS_REGRESSION_TOLERANCE,
            100.0 * perf::ALLOCS_REGRESSION_TOLERANCE,
            baseline.len()
        );
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        eprintln!("bench gate FAILED with {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

/// `repro cluster [--workers N] [--jobs J] [--seed S] [--headless]`: one
/// sharded cluster run — N workers on at most `available_parallelism` OS
/// threads.
///
/// Defaults (2 jobs/worker, plan seed [`perf::CLUSTER_BENCH_PLAN_SEED`],
/// node seed [`perf::CLUSTER_BENCH_NODE_SEED`]) replicate the
/// `cluster/sharded/w<N>` (or, with `--headless`, `cluster/headless/w<N>`)
/// bench case exactly, so any committed `BENCH_*.json` point can be
/// reproduced by hand; `--seed` reseeds the workload plan.
fn run_cluster(args: &Args) {
    use flowcon_cluster::{executor, ClusterSession};
    use flowcon_core::config::NodeConfig;
    use flowcon_core::recorder::FullRecorder;
    use flowcon_dl::workload::WorkloadPlan;
    use flowcon_metrics::summary::makespan_over;

    let workers: usize = args.get("--workers").unwrap_or(1024);
    let jobs = args.get("--jobs").unwrap_or(2 * workers);
    let seed = args.get("--seed").unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);
    let headless = args.has("--headless");

    let shards = executor::shard_count(workers);
    let mode = if headless { "headless" } else { "full" };
    section(&format!(
        "Sharded cluster ({mode}): {workers} workers, {jobs} jobs, {shards} OS threads"
    ));
    let plan = WorkloadPlan::random_n(jobs, seed);
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let session = || {
        ClusterSession::builder()
            .nodes(workers, node)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(plan.clone())
    };
    let start = std::time::Instant::now();
    // (placed, completed, makespan, events)
    let (placed, completed, makespan, events) = if headless {
        let run = session().build().run();
        (
            run.placements.len(),
            run.completed_jobs(),
            run.makespan_secs(),
            run.events_processed(),
        )
    } else {
        let result = session().recorder(|_| FullRecorder::new()).build().run();
        let events = result.events_processed();
        let completed = result
            .workers
            .iter()
            .map(|w| w.output.completions.len())
            .sum::<usize>();
        let makespan = makespan_over(result.workers.iter().map(|w| w.output.makespan_secs()));
        (result.placements.len(), completed, makespan, events)
    };
    let wall = start.elapsed();

    let rows = vec![
        vec!["workers".to_string(), workers.to_string()],
        vec![
            "recorder".to_string(),
            if headless {
                "CompletionsOnly"
            } else {
                "FullRecorder"
            }
            .to_string(),
        ],
        vec!["OS threads (shards)".to_string(), shards.to_string()],
        vec!["jobs placed".to_string(), placed.to_string()],
        vec!["jobs completed".to_string(), completed.to_string()],
        vec![
            "cluster makespan (sim s)".to_string(),
            format!("{makespan:.1}"),
        ],
        vec!["events processed".to_string(), events.to_string()],
        vec![
            "wall time (ms)".to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ],
        vec![
            "events/s (wall)".to_string(),
            format!("{:.0}", events as f64 / wall.as_secs_f64()),
        ],
        vec!["peak RSS (MiB)".to_string(), peak_rss_mib()],
    ];
    print!("{}", text_table(&["metric", "value"], &rows));
}

/// Peak resident set size in kiB (`VmHWM` from `/proc/self/status`), or
/// `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The `peak RSS (MiB)` table cell: [`peak_rss_kib`] in MiB, or `-`.
fn peak_rss_mib() -> String {
    peak_rss_kib().map_or("-".into(), |kib| format!("{:.1}", kib as f64 / 1024.0))
}

/// `repro profile [--workers N] [--jobs J] [--seed S]`: the
/// density harness — one headless cluster run clocked per stage (plan
/// build, placement, simulation), with allocation counts from the counting
/// allocator and the kernel's peak RSS as each stage ends, so a run shows
/// which stage holds the memory.
///
/// Defaults match `repro cluster --headless` (2 jobs/worker, the committed
/// bench seeds) at 100k workers, so the printed numbers line up with the
/// `cluster/headless/w100000` bench row.
fn run_profile(args: &Args) {
    use flowcon_cluster::{executor, ClusterSession};
    use flowcon_core::config::NodeConfig;
    use flowcon_core::dense::QueueKind;
    use flowcon_dl::workload::WorkloadPlan;
    use std::time::Instant;

    let workers: usize = args.get("--workers").unwrap_or(100_000);
    let jobs = args.get("--jobs").unwrap_or(2 * workers);
    let seed = args.get("--seed").unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);

    let shards = executor::shard_count(workers);
    section(&format!(
        "Density profile: {workers} workers, {jobs} jobs, {shards} OS threads"
    ));

    COUNTING.store(true, Ordering::Relaxed);
    let allocs = || ALLOCATIONS.load(Ordering::Relaxed);

    let (a0, t0) = (allocs(), Instant::now());
    let plan = WorkloadPlan::random_n(jobs, seed);
    let (plan_secs, plan_allocs) = (t0.elapsed().as_secs_f64(), allocs() - a0);
    let plan_rss = peak_rss_mib();

    // Session construction (the per-worker NodeConfig vector) is part of
    // standing the cluster up, so it bills the placement stage.
    let (a1, t1) = (allocs(), Instant::now());
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let placed = ClusterSession::builder()
        .nodes(workers, node)
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(plan)
        .build()
        .place();
    let (place_secs, place_allocs) = (t1.elapsed().as_secs_f64(), allocs() - a1);
    let place_rss = peak_rss_mib();

    let (a2, t2) = (allocs(), Instant::now());
    let run = placed.run(QueueKind::Heap);
    let (sim_secs, sim_allocs) = (t2.elapsed().as_secs_f64(), allocs() - a2);
    COUNTING.store(false, Ordering::Relaxed);
    let sim_rss = peak_rss_mib();

    let per_worker = |n: u64| n as f64 / workers as f64;
    let stage_rows: Vec<Vec<String>> = [
        ("plan build", plan_secs, plan_allocs, plan_rss),
        ("placement", place_secs, place_allocs, place_rss),
        ("simulation", sim_secs, sim_allocs, sim_rss.clone()),
        (
            "total",
            plan_secs + place_secs + sim_secs,
            plan_allocs + place_allocs + sim_allocs,
            sim_rss,
        ),
    ]
    .into_iter()
    .map(|(name, secs, a, rss)| {
        vec![
            name.to_string(),
            format!("{:.1}", secs * 1e3),
            a.to_string(),
            format!("{:.2}", per_worker(a)),
            rss,
        ]
    })
    .collect();
    print!(
        "{}",
        text_table(
            &[
                "stage",
                "time (ms)",
                "allocs",
                "allocs/worker",
                "peak RSS (MiB)"
            ],
            &stage_rows
        )
    );

    let events = run.events_processed();
    let rows = vec![
        vec![
            "jobs completed".to_string(),
            run.completed_jobs().to_string(),
        ],
        vec!["events processed".to_string(), events.to_string()],
        vec![
            "events/s (wall)".to_string(),
            format!("{:.0}", events as f64 / sim_secs),
        ],
        vec![
            // The ISSUE-6 acceptance number: the marginal cluster cost —
            // placement + simulation, the plan is the caller's input.
            "allocs/worker (place + simulate)".to_string(),
            format!("{:.2}", per_worker(place_allocs + sim_allocs)),
        ],
        vec!["peak RSS (MiB)".to_string(), peak_rss_mib()],
    ];
    print!("{}", text_table(&["metric", "value"], &rows));
}

/// Exit 2 unless exactly one of `--file` and `--synthetic` is given, or
/// if a flag that belongs to the other mode is: silently ignoring
/// `--compress` would report results for the wrong workload.
fn workload_mode(cmd: &str, args: &Args, file_only: &[&str], synthetic_only: &[&str]) {
    if args.has("--file") == args.has("--synthetic") {
        usage(format_args!(
            "{cmd} wants exactly one of --file PATH or --synthetic {{poisson,bursty,diurnal}}"
        ));
    }
    for (flags, mode, allowed) in [
        (file_only, "--file", args.has("--file")),
        (synthetic_only, "--synthetic", args.has("--synthetic")),
    ] {
        if let Some(flag) = flags.iter().find(|&&flag| !allowed && args.has(flag)) {
            usage(format_args!("{flag} only applies to {mode} workloads"));
        }
    }
}

/// `repro trace`: replay an arrival-trace file or a synthetic arrival
/// process end to end (see the module docs for the flags).
fn run_trace(args: &Args) {
    use flowcon_bench::experiments::trace as exp;
    use flowcon_core::config::NodeConfig;
    use flowcon_workload::{SyntheticSource, TraceSource};

    workload_mode(
        "trace",
        args,
        &["--thin", "--compress"],
        &["--jobs", "--rate"],
    );
    let workers: usize = args.get("--workers").unwrap_or(1);
    let seed = args.get("--seed").unwrap_or(DEFAULT_SEED);
    let emit = args.text("--emit");
    let policy =
        node_policy(args.text("--policy").unwrap_or("flowcon")).expect("checked by the flag table");
    // Cluster replays are headless: bind without labels so streaming a
    // 10k-worker cluster allocates no label strings.  Emission always
    // keeps labels — a transformed trace must not lose its job ids.
    let labeled = workers == 1 || emit.is_some();

    // Resolve the workload: a bound trace (file) or a synthetic template
    // (materialized only where a whole plan is actually needed).
    enum Load {
        File(BoundTrace),
        Synthetic(flowcon_workload::Synthetic),
    }
    let (what, load) = if let Some(path) = args.text("--file") {
        let mut catalog = TraceCatalog::table1();
        if let Some(keep) = args.get("--thin") {
            catalog = catalog.thin(keep, seed);
        }
        if let Some(factor) = args.get("--compress") {
            catalog = catalog.compress(factor);
        }
        if !labeled {
            catalog = catalog.unlabeled();
        }
        (
            format!("trace {path}"),
            Load::File(bind_trace_file(path, catalog)),
        )
    } else {
        let jobs = args.get("--jobs").unwrap_or(50);
        let rate = args.get("--rate").unwrap_or(0.1);
        let name = args.text("--synthetic").expect("checked above");
        let template = exp::preset(name, rate, jobs, seed).expect("checked by the flag table");
        (
            format!("synthetic {name} (rate {rate}/s)"),
            Load::Synthetic(template),
        )
    };
    let whole_trace = |load: Load| match load {
        Load::File(bound) => bound,
        Load::Synthetic(template) => BoundTrace::from_plan(template.plan()),
    };

    if let Some(path) = emit {
        let bound = whole_trace(load);
        write_or_exit(path, &bound.to_jsonl());
        println!("wrote {} arrivals to {path}", bound.len());
        return;
    }

    let node = NodeConfig::default().with_seed(seed);
    if workers == 1 {
        let bound = whole_trace(load);
        section(&format!(
            "Trace replay: {what}, 1 worker, {} jobs",
            bound.len()
        ));
        let start = std::time::Instant::now();
        let result = exp::replay_session(&bound, node, policy);
        let wall = start.elapsed();
        let labels: Vec<String> = result
            .output
            .completions
            .iter()
            .map(|c| c.label.clone())
            .collect();
        print!("{}", completion_table(&[&result.output], &labels));
        println!(
            "makespan {:.1}s, {} events, wall {:.1} ms",
            result.output.makespan_secs(),
            result.events_processed,
            wall.as_secs_f64() * 1e3
        );
    } else {
        section(&format!(
            "Trace replay: {what}, {workers}-worker headless cluster"
        ));
        let start = std::time::Instant::now();
        let run = match load {
            Load::File(bound) => {
                let source = TraceSource::new(bound, workers);
                exp::replay_cluster(&source, workers, node, policy)
            }
            Load::Synthetic(template) => {
                // Synthetic cluster mode streams independent per-worker
                // plans: --jobs becomes jobs per worker.
                let source = SyntheticSource::new(template.process, template.jobs, template.seed)
                    .unlabeled();
                exp::replay_cluster(&source, workers, node, policy)
            }
        };
        let wall = start.elapsed();
        let rows = vec![
            vec!["workers".to_string(), workers.to_string()],
            vec![
                "jobs completed".to_string(),
                run.completed_jobs().to_string(),
            ],
            vec![
                "cluster makespan (sim s)".to_string(),
                format!("{:.1}", run.makespan_secs()),
            ],
            vec![
                "mean completion (sim s)".to_string(),
                run.mean_completion_secs()
                    .map_or("-".into(), |m| format!("{m:.1}")),
            ],
            vec![
                "events processed".to_string(),
                run.events_processed().to_string(),
            ],
            vec![
                "wall time (ms)".to_string(),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
            ],
        ];
        print!("{}", text_table(&["metric", "value"], &rows));
    }
}

/// `repro sched [--policy P] [--compare] ...`: run the online cluster
/// scheduler over a seeded random workload and print the per-policy
/// outcome table (see the module docs for the flags).
fn run_sched(args: &Args) {
    use flowcon_cluster::ClusterSession;
    use flowcon_core::config::NodeConfig;
    use flowcon_dl::workload::WorkloadPlan;
    use flowcon_sim::time::SimDuration;
    use flowcon_sim::trace::DEFAULT_CAPACITY;

    let workers: usize = args.get("--workers").unwrap_or(16);
    let jobs = args.get("--jobs").unwrap_or(4 * workers);
    let seed = args.get("--seed").unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);
    let slots = args.get("--slots").unwrap_or(2);
    let quantum = args.get("--quantum").unwrap_or(10.0);
    let compare = args.has("--compare");
    let trace_out = args.text("--trace-out");
    if trace_out.is_some() && compare {
        usage("--trace-out records one run's timeline; drop --compare or pick one --policy");
    }
    let kinds: Vec<SchedPolicyKind> = if compare {
        SchedPolicyKind::ALL.to_vec()
    } else {
        vec![sched_policy(args)]
    };

    section(&format!(
        "Online cluster scheduler: {workers} nodes x {slots} slots, {jobs} jobs, {quantum:.0}s quantum"
    ));
    let plan = WorkloadPlan::random_n(jobs, seed);
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|&kind| {
            let builder = ClusterSession::builder()
                .nodes(workers, node)
                .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                .plan(plan.clone())
                .scheduler(kind)
                .quantum(SimDuration::from_secs_f64(quantum))
                .slots_per_node(slots);
            let out = match trace_out {
                None => builder.build().run(),
                Some(path) => {
                    let (out, recorder) = builder
                        .tracer(FlightRecorder::with_capacity(DEFAULT_CAPACITY))
                        .build()
                        .run_traced();
                    write_timeline(path, &recorder);
                    out
                }
            };
            assert_eq!(
                out.completed_jobs(),
                out.submitted,
                "{} lost jobs",
                out.policy
            );
            // Every column is simulated-time derived, so the table is
            // bit-identical across runs — the determinism the acceptance
            // check diffs on.
            vec![
                out.policy.to_string(),
                format!("{:.1}", out.makespan_secs()),
                format!("{:.1}", out.mean_queueing_delay_secs()),
                out.completed_jobs().to_string(),
                out.preemptions.to_string(),
                out.migrations.to_string(),
                out.algorithm_runs.to_string(),
                format!("{:.1}%", 100.0 * out.stream.utilization()),
                format!("{:.3}", out.stream.mean_queue_depth()),
                tail_cell(&out.sojourn_percentiles()),
                tail_cell(&out.queue_wait_percentiles()),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &[
                "policy",
                "makespan (s)",
                "mean q-delay (s)",
                "done",
                "preempt",
                "migrate",
                "rounds",
                "util",
                "mean depth",
                "sojourn p50/p95/p99 (s)",
                "q-wait p50/p95/p99 (s)"
            ],
            &rows
        )
    );
}

/// Render a p50/p95/p99 triple as one compact table cell.
fn tail_cell(p: &flowcon_metrics::sojourn::Percentiles) -> String {
    format!("{:.1}/{:.1}/{:.1}", p.p50, p.p95, p.p99)
}

/// `repro frontier [--policy P | --compare] [--rates R1,R2,..] ...`:
/// sweep offered arrival rate per policy up to the stability frontier and
/// print p50/p95/p99 sojourn vs. load (see the module docs for the
/// flags).
fn run_frontier(args: &Args) {
    use flowcon_bench::experiments::frontier;
    use flowcon_sim::time::SimDuration;

    let workers: usize = args.get("--workers").unwrap_or(16);
    let jobs = args.get("--jobs").unwrap_or(16 * workers);
    let seed = args.get("--seed").unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);
    let slots = args.get("--slots").unwrap_or(2);
    let quantum = args.get("--quantum").unwrap_or(10.0);
    let config = frontier::FrontierConfig {
        nodes: workers,
        slots_per_node: slots,
        jobs,
        seed,
        quantum: SimDuration::from_secs_f64(quantum),
    };
    let rates = match args.text("--rates") {
        None => frontier::default_ladder(&config),
        Some(list) => rate_ladder(list).expect("checked by the flag table"),
    };
    let kinds: Vec<SchedPolicyKind> = if args.has("--compare") {
        SchedPolicyKind::ALL.to_vec()
    } else {
        vec![sched_policy(args)]
    };

    section(&format!(
        "Capacity frontier: {workers} nodes x {slots} slots, {jobs} jobs/rung, {quantum:.0}s quantum, {} rung ladder",
        rates.len()
    ));
    let mut curves = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let curve = frontier::sweep(kind, &config, &rates);
        let rows: Vec<Vec<String>> = curve
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.4}", p.rate),
                    format!("{:.4}", p.completion_rate),
                    format!("{:.1}%", 100.0 * p.utilization),
                    format!("{:.2}", p.mean_queue_depth),
                    tail_cell(&p.sojourn),
                    tail_cell(&p.queue_wait),
                    if p.saturated { "SATURATED" } else { "stable" }.to_string(),
                ]
            })
            .collect();
        println!("policy: {}", curve.policy);
        print!(
            "{}",
            text_table(
                &[
                    "offered (jobs/s)",
                    "completed (jobs/s)",
                    "util",
                    "mean depth",
                    "sojourn p50/p95/p99 (s)",
                    "q-wait p50/p95/p99 (s)",
                    "verdict"
                ],
                &rows
            )
        );
        match (curve.last_stable_rate(), curve.frontier_rate()) {
            (Some(lo), Some(hi)) => {
                println!(
                    "stability frontier: between {lo:.4} and {hi:.4} jobs/s ({:.2}x bracket)",
                    hi / lo
                )
            }
            (Some(lo), None) => {
                println!("stability frontier: above {lo:.4} jobs/s (ladder exhausted while stable)")
            }
            (None, Some(hi)) => {
                println!("stability frontier: below {hi:.4} jobs/s (first rung already saturated)")
            }
            (None, None) => println!("stability frontier: no rungs ran"),
        }
        curves.push(curve);
    }
    if let Some(path) = args.text("--emit") {
        let doc = frontier::curves_jsonl(&curves);
        write_or_exit(path, &doc);
        println!("wrote {} curve points to {path}", doc.lines().count());
    }
}

/// `repro timeline`: run one scheduler workload with the flight recorder
/// attached and export the merged timeline as Chrome trace-event JSON
/// (Perfetto-loadable; see the module docs for the flags).
fn run_timeline(args: &Args) {
    use flowcon_cluster::ClusterSession;
    use flowcon_core::config::NodeConfig;
    use flowcon_dl::workload::WorkloadPlan;
    use flowcon_metrics::tracelog;
    use flowcon_sim::time::SimDuration;
    use flowcon_sim::trace::DEFAULT_CAPACITY;

    let workers: usize = args.get("--workers").unwrap_or(16);
    let jobs = args.get("--jobs").unwrap_or(4 * workers);
    let seed = args.get("--seed").unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);
    let slots = args.get("--slots").unwrap_or(2);
    let capacity = args.get("--capacity").unwrap_or(DEFAULT_CAPACITY);
    let quantum = args.get("--quantum").unwrap_or(10.0);
    let out = args.text("--out");
    let kind = sched_policy(args);

    // Without --out the JSON document owns stdout (pipeable straight into
    // a file or a viewer), so the banner and any summary go to stderr.
    if out.is_some() {
        section(&format!(
            "Timeline: {} on {workers} nodes x {slots} slots, {jobs} jobs, {quantum:.0}s quantum",
            kind.name()
        ));
    }
    let plan = WorkloadPlan::random_n(jobs, seed);
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let (outcome, recorder) = ClusterSession::builder()
        .nodes(workers, node)
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(plan)
        .scheduler(kind)
        .quantum(SimDuration::from_secs_f64(quantum))
        .slots_per_node(slots)
        .tracer(FlightRecorder::with_capacity(capacity))
        .build()
        .run_traced();
    assert_eq!(
        outcome.completed_jobs(),
        outcome.submitted,
        "{} lost jobs",
        outcome.policy
    );
    match out {
        Some(path) => write_timeline(path, &recorder),
        None => print!(
            "{}",
            tracelog::chrome_trace_json(&recorder.events(), recorder.dropped())
        ),
    }
    if args.has("--summary") {
        let events = recorder.events();
        let rows: Vec<Vec<String>> = tracelog::kind_counts(&events)
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(kind, n)| {
                vec![
                    kind.name().to_string(),
                    kind.layer().to_string(),
                    n.to_string(),
                ]
            })
            .collect();
        let mut table = text_table(&["event", "layer", "count"], &rows);
        if let Some((first, last)) = tracelog::time_span(&events) {
            table.push_str(&format!(
                "timeline: {} events over {:.1}s of simulated time, {} dropped\n",
                events.len(),
                last.saturating_since(first).as_secs_f64(),
                recorder.dropped()
            ));
        }
        if out.is_some() {
            print!("{table}");
        } else {
            eprint!("{table}");
        }
    }
}

/// `repro stream`: run an open-loop arrival stream end to end (see the
/// module docs for the flags).
fn run_stream(args: &Args) {
    use flowcon_bench::experiments::stream as exp;
    use flowcon_cluster::{Horizon, StreamSource, TraceStreamSource};
    use flowcon_core::config::NodeConfig;
    use flowcon_sim::trace::DEFAULT_CAPACITY;

    workload_mode("stream", args, &["--cycle", "--hints"], &["--rate"]);
    let workers: usize = args.get("--workers").unwrap_or(1);
    let seed = args.get("--seed").unwrap_or(DEFAULT_SEED);
    let policy =
        node_policy(args.text("--policy").unwrap_or("flowcon")).expect("checked by the flag table");
    // The horizon: --until (admission window, simulated seconds) and/or
    // --jobs (per-worker admission cap).  An unbounded open-loop run
    // would never terminate, so at least one is mandatory.
    let horizon = Horizon {
        until: args.get("--until").map(SimTime::from_secs_f64),
        max_jobs: args.get("--jobs"),
    };
    if horizon.until.is_none() && horizon.max_jobs.is_none() {
        usage("stream needs a horizon: --until SECS and/or --jobs N");
    }
    // Cluster streams run headless (accepting the flag explicitly too);
    // a single worker records the full paper traces.
    let headless = workers > 1 || args.has("--headless");
    // The structured tracer rides the full-observability session; the
    // headless cluster path has no per-job identity to trace against.
    let trace_out = args.text("--trace-out");
    if trace_out.is_some() && headless {
        usage(
            "--trace-out only applies to the single-worker full-observability run \
             (use --workers 1 and drop --headless)",
        );
    }

    // Resolve the stream source.
    enum Source {
        Synthetic(flowcon_workload::SyntheticStreamSource),
        Trace(TraceStreamSource),
    }
    let (what, source) = if let Some(name) = args.text("--synthetic") {
        let rate = args.get("--rate").unwrap_or(exp::DEFAULT_STREAM_RATE);
        let mut src = exp::stream_preset(name, rate, seed).expect("checked by the flag table");
        if headless {
            src = src.unlabeled();
        }
        (
            format!("synthetic {name} ({rate}/s per worker)"),
            Source::Synthetic(src),
        )
    } else {
        let path = args.text("--file").expect("checked above");
        let mut catalog = TraceCatalog::table1();
        if args.has("--hints") {
            catalog = catalog.with_duration_hints();
        }
        if headless {
            catalog = catalog.unlabeled();
        }
        let mut src = TraceStreamSource::new(bind_trace_file(path, catalog), workers);
        let mut what = format!("trace {path}");
        if args.has("--cycle") {
            src = src.cyclic();
            what.push_str(" (cyclic)");
        }
        (what, Source::Trace(src))
    };

    let node = NodeConfig::default().with_seed(seed);
    let describe_horizon = {
        let mut parts = Vec::new();
        if let Some(t) = horizon.until {
            parts.push(format!("until {t}"));
        }
        if let Some(n) = horizon.max_jobs {
            parts.push(format!("{n} jobs/worker"));
        }
        parts.join(", ")
    };

    let start = std::time::Instant::now();
    let (totals, events, full) = if workers == 1 && !headless {
        let result = if let Some(path) = trace_out {
            let mut recorder = FlightRecorder::with_capacity(DEFAULT_CAPACITY);
            let result = match source {
                Source::Synthetic(src) => exp::stream_session_traced(
                    src.stream_for(0),
                    horizon,
                    node,
                    policy,
                    &mut recorder,
                ),
                Source::Trace(src) => exp::stream_session_traced(
                    src.stream_for(0),
                    horizon,
                    node,
                    policy,
                    &mut recorder,
                ),
            };
            write_timeline(path, &recorder);
            result
        } else {
            match source {
                Source::Synthetic(src) => {
                    exp::stream_session(src.stream_for(0), horizon, node, policy)
                }
                Source::Trace(src) => exp::stream_session(src.stream_for(0), horizon, node, policy),
            }
        };
        (result.stream, result.events_processed, Some(result.output))
    } else {
        let run = match source {
            Source::Synthetic(src) => exp::stream_cluster(&src, workers, horizon, node, policy),
            Source::Trace(src) => exp::stream_cluster(&src, workers, horizon, node, policy),
        };
        (run.stream_totals(), run.events_processed(), None)
    };
    let wall = start.elapsed();

    section(&format!(
        "Open-loop stream: {what}, {workers} worker{}, {describe_horizon}",
        if workers == 1 { "" } else { "s" }
    ));
    if let Some(summary) = &full {
        // List completions positionally, not by label lookup: a cyclic
        // replay legitimately admits the same label several times, and a
        // by-label table would repeat the first instance's time.
        let rows: Vec<Vec<String>> = summary
            .completions
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{:.1}", c.arrival.as_secs_f64()),
                    format!("{:.1}", c.completion_secs()),
                ]
            })
            .collect();
        print!(
            "{}",
            text_table(
                &["job (exit order)", "arrival (s)", "completion (s)"],
                &rows
            )
        );
    }
    print!("{}", stream_stats_table(&totals, events, wall));
}

/// The steady-state metrics table every `repro stream` mode prints.
fn stream_stats_table(
    s: &flowcon_metrics::stream::StreamStats,
    events: u64,
    wall: std::time::Duration,
) -> String {
    let rows = vec![
        vec!["jobs submitted".to_string(), s.submitted.to_string()],
        vec!["jobs completed".to_string(), s.completed.to_string()],
        vec![
            "run duration (sim s)".to_string(),
            format!("{:.1}", s.duration_secs),
        ],
        vec![
            "arrival rate (jobs/s)".to_string(),
            format!("{:.4}", s.arrival_rate()),
        ],
        vec![
            "completion rate (jobs/s)".to_string(),
            format!("{:.4}", s.completion_rate()),
        ],
        vec![
            "mean queue depth (jobs)".to_string(),
            format!("{:.3}", s.mean_queue_depth()),
        ],
        vec![
            "utilization".to_string(),
            format!("{:.1}%", 100.0 * s.utilization()),
        ],
        vec!["events processed".to_string(), events.to_string()],
        vec![
            "wall time (ms)".to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ],
    ];
    text_table(&["metric", "value"], &rows)
}

fn table1() {
    section("Table 1: Tested Deep Learning Models");
    let rows: Vec<Vec<String>> = TABLE1_MODELS
        .iter()
        .map(|&id| {
            let m = ModelSpec::of(id);
            vec![
                m.label(),
                m.eval.kind.name().to_string(),
                format!("{:?}", m.framework),
                format!("{:.0}", m.total_work),
                format!("{:.2}", m.demand),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &[
                "Model",
                "Eval. Function",
                "Platform",
                "Work (cpu-s)",
                "Demand"
            ],
            &rows
        )
    );
}

fn run_fig1() {
    section("Fig. 1: Training progress of five models (NA, one node)");
    let fig = fig1::run(default_node());
    let mut rows = Vec::new();
    for c in &fig.curves {
        let t90 = fig1::time_fraction_to_quality(&fig, &c.label, 0.9);
        rows.push(vec![
            c.label.clone(),
            t90.map_or("-".into(), |t| format!("{:.1}%", t * 100.0)),
        ]);
        let csv_rows: Vec<Vec<String>> = c
            .points
            .iter()
            .map(|&(t, a)| vec![c.label.clone(), format!("{t:.4}"), format!("{a:.4}")])
            .collect();
        write_csv(
            &format!("fig1_{}.csv", c.label.replace([' ', '(', ')'], "_")),
            &to_csv(&["model", "time_frac", "accuracy"], &csv_rows),
        );
    }
    print!(
        "{}",
        text_table(&["Model", "time to 90% of final accuracy"], &rows)
    );
    println!(
        "(makespan {:.1}s; CSVs under target/experiments/)",
        fig.makespan_secs
    );
}

fn fixed_sweep(title: &str, sweep: fixed::FixedSweep, file: &str) {
    section(title);
    let labels: Vec<String> = sweep
        .baseline
        .completions
        .iter()
        .map(|c| c.label.clone())
        .collect();
    let mut runs: Vec<&RunSummary> = sweep.cells.iter().map(|c| &c.summary).collect();
    runs.push(&sweep.baseline);
    print!("{}", completion_table(&runs, &labels));
    write_csv(&format!("{file}.csv"), &completions_csv(&runs));
}

fn table2() {
    section("Table 2: Completion-time reduction of MNIST (Tensorflow)");
    let (fig4_col, fig5_col) = fixed::table2(default_node());
    let n = fig4_col.len().max(fig5_col.len());
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let left = fig4_col.get(i);
            let right = fig5_col.get(i);
            vec![
                left.map_or(String::new(), |(n, _)| n.clone()),
                left.map_or(String::new(), |(_, r)| format!("{r:.1}%")),
                right.map_or(String::new(), |(n, _)| n.clone()),
                right.map_or(String::new(), |(_, r)| format!("{r:.1}%")),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &[
                "alpha,itval (Fig.4)",
                "Reduction",
                "alpha,itval (Fig.5)",
                "Reduction"
            ],
            &rows
        )
    );
    let csv_rows: Vec<Vec<String>> = fig4_col
        .iter()
        .chain(fig5_col.iter())
        .map(|(name, red)| vec![name.clone(), format!("{red:.2}")])
        .collect();
    write_csv(
        "table2.csv",
        &to_csv(&["setting", "reduction_pct"], &csv_rows),
    );
}

fn cpu_chart(title: &str, summary: &RunSummary, file: &str) {
    section(title);
    let series: Vec<(&str, &flowcon_metrics::TimeSeries)> = summary.cpu_usage.iter().collect();
    print!("{}", line_chart("CPU usage", &series, Some(1.0), 100, 14));
    write_csv(
        &format!("{file}.csv"),
        &series_csv("cpu_usage", &summary.cpu_usage),
    );
}

fn fig7_fig8() {
    let (fc, na) = fixed::fig7_fig8(default_node());
    cpu_chart(
        "Fig. 7: CPU usage, FlowCon (alpha=5%, itval=20, 3 jobs)",
        &fc,
        "fig7",
    );
    cpu_chart("Fig. 8: CPU usage, NA (3 jobs)", &na, "fig8");
}

fn fig9() {
    section("Fig. 9: Five jobs, random submission");
    let cmp = random::fig9(default_node(), DEFAULT_SEED);
    let labels = cmp.labels();
    let mut runs: Vec<&RunSummary> = cmp.flowcon.iter().collect();
    runs.push(&cmp.baseline);
    print!("{}", completion_table(&runs, &labels));
    for (policy, wins, losses) in cmp.win_loss_rows() {
        println!("{policy}: {wins} wins / {losses} losses vs NA");
    }
    write_csv("fig9.csv", &completions_csv(&runs));
}

fn fig10_fig11() {
    let (fc, na) = random::fig10_fig11(default_node(), DEFAULT_SEED);
    cpu_chart(
        "Fig. 10: CPU usage, FlowCon (alpha=3%, itval=30, 5 jobs)",
        &fc,
        "fig10",
    );
    cpu_chart("Fig. 11: CPU usage, NA (5 jobs)", &na, "fig11");
}

fn fig12_fig15_fig16(charts: bool) {
    let cmp = scale::fig12(default_node(), DEFAULT_SEED);
    if charts {
        cpu_chart(
            "Fig. 15: CPU usage, FlowCon (alpha=10%, itval=20, 10 jobs)",
            &cmp.flowcon,
            "fig15",
        );
        cpu_chart("Fig. 16: CPU usage, NA (10 jobs)", &cmp.baseline, "fig16");
        return;
    }
    section("Fig. 12: Ten jobs, random submission (FlowCon-10%-20 vs NA)");
    let labels = cmp.labels();
    let runs = [&cmp.flowcon, &cmp.baseline];
    print!("{}", completion_table(&runs, &labels));
    let (wins, losses) = cmp.wins_losses();
    println!("FlowCon wins {wins} / loses {losses} of 10 jobs");
    if let Some((job, red)) = cmp.biggest_winner() {
        println!("largest improvement: {job} ({red:.1}%)");
    }
    write_csv("fig12.csv", &completions_csv(&runs));
}

fn fig13_fig14() {
    let cmp = scale::fig12(default_node(), DEFAULT_SEED);
    let (loser, winner) = cmp.exemplars();
    for (figure, job, file) in [("Fig. 13", &loser, "fig13"), ("Fig. 14", &winner, "fig14")] {
        section(&format!(
            "{figure}: Growth efficiency of {job} (FlowCon vs NA)"
        ));
        print!(
            "{}",
            line_chart("Growth efficiency", &cmp.growth_traces(job), None, 100, 12)
        );
        write_csv(&format!("{file}.csv"), &cmp.growth_csv(job));
    }
}

fn fig17() {
    section("Fig. 17: Fifteen jobs, random submission (FlowCon-10%-40 vs NA)");
    let cmp = scale::fig17(default_node(), DEFAULT_SEED);
    let labels = cmp.labels();
    let runs = [&cmp.flowcon, &cmp.baseline];
    print!("{}", completion_table(&runs, &labels));
    let (wins, losses) = cmp.wins_losses();
    println!("FlowCon wins {wins} / loses {losses} of 15 jobs");
    write_csv("fig17.csv", &completions_csv(&runs));
}

fn ablation_backoff() {
    section("Ablation: exponential back-off");
    let ab = ablation::backoff(default_node());
    print!(
        "{}",
        text_table(
            &["variant", "algorithm runs", "makespan (s)"],
            &[
                vec![
                    "back-off on".into(),
                    ab.runs_with.to_string(),
                    format!("{:.1}", ab.makespan_with)
                ],
                vec![
                    "back-off off".into(),
                    ab.runs_without.to_string(),
                    format!("{:.1}", ab.makespan_without)
                ],
            ]
        )
    );
}

fn ablation_beta() {
    section("Ablation: beta lower-bound sweep (5 random jobs)");
    let rows = ablation::beta_sweep(default_node(), DEFAULT_SEED, &[1.0, 2.0, 4.0, 8.0]);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(b, makespan, worst)| {
            vec![
                format!("{b}"),
                format!("{makespan:.1}"),
                format!("{worst:.1}%"),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &["beta", "makespan (s)", "worst per-job reduction"],
            &table_rows
        )
    );
}

fn ablation_kappa() {
    section("Ablation: contention coefficient sweep (fixed schedule)");
    let rows = ablation::kappa_sweep(default_node(), &[0.0, 0.01, 0.02, 0.05, 0.10]);
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|(k, imp)| (format!("kappa={k}"), imp.max(0.0)))
        .collect();
    print!(
        "{}",
        bar_chart("makespan improvement vs NA (%)", &bars, "%", 40)
    );
    for (k, imp) in rows {
        println!("kappa={k}: {imp:+.2}%");
    }
}

fn ablation_resource() {
    section("Ablation: growth efficiency per resource kind (Eq. 2)");
    let rows = ablation::resource_sweep(default_node(), DEFAULT_SEED);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(res, makespan, wins)| {
            vec![
                res.clone(),
                format!("{makespan:.1}"),
                format!("{wins} of 5"),
            ]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &["driving resource", "makespan (s)", "wins vs NA"],
            &table_rows
        )
    );
}

fn ablation_policies() {
    section("Ablation: policy zoo (5 random jobs)");
    let rows = ablation::policy_zoo(default_node(), DEFAULT_SEED);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, makespan, mean)| {
            vec![name.clone(), format!("{makespan:.1}"), format!("{mean:.1}")]
        })
        .collect();
    print!(
        "{}",
        text_table(
            &["policy", "makespan (s)", "mean completion (s)"],
            &table_rows
        )
    );
}

/// `repro fidelity [--workers N] [--jobs J] [--seed S] [--dilation D]
/// [--chaos {straggler,churn}] [--emit PATH]`: run the identical seeded
/// workload through the fluid simulation and the wall-clock rt backend,
/// align per-job records, report the divergence, and exit 2 on tolerance
/// breach (see the module docs).
fn run_fidelity(args: &Args) {
    use flowcon_bench::experiments::fidelity::{self, FidelityConfig};
    use flowcon_metrics::export::JsonValue;
    use flowcon_metrics::fidelity::FidelityTolerance;

    let defaults = FidelityConfig::default();
    let config = FidelityConfig {
        workers: args.get("--workers").unwrap_or(defaults.workers),
        jobs: args.get("--jobs").unwrap_or(defaults.jobs),
        seed: args.get("--seed").unwrap_or(defaults.seed),
        dilation: args.get("--dilation").unwrap_or(defaults.dilation),
        chaos: args.text("--chaos").and_then(chaos_kind),
    };
    let FidelityConfig {
        workers,
        jobs,
        seed,
        dilation,
        chaos,
    } = config;
    let chaos_name = chaos.map_or("none", ChaosKind::name);
    println!("Differential fidelity: sim (reference) vs rt (candidate)");
    println!(
        "workload: {jobs} jobs, seed {seed:#x}, {workers}-core node, dilation {dilation:.0}x, chaos {chaos_name}"
    );

    let outcome = fidelity::run(&config);
    let report = &outcome.report;
    println!("policy: {}", outcome.policy);
    if report.completion_set_equal {
        println!(
            "completion set: equal ({}/{} jobs)",
            report.matched, report.reference_jobs
        );
    } else {
        println!(
            "completion set: DIVERGED ({} sim jobs, {} rt jobs; missing {:?}, extra {:?})",
            report.reference_jobs,
            report.candidate_jobs,
            report.missing_labels,
            report.extra_labels
        );
    }
    println!(
        "completion-order edit distance: {}",
        report.order_edit_distance
    );
    let (p50, p95, p99, rmin, rmax) = match report.sojourn_ratio_percentiles() {
        Some(p) => (
            p.p50,
            p.p95,
            p.p99,
            report.sojourn_ratios.quantile(0.0).unwrap_or(f64::NAN),
            report.sojourn_ratios.quantile(1.0).unwrap_or(f64::NAN),
        ),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };
    println!(
        "sojourn ratio (rt/sim): p50 {p50:.3}  p95 {p95:.3}  p99 {p99:.3}  min {rmin:.3}  max {rmax:.3}"
    );
    println!(
        "makespan ratio (rt/sim): {:.3} (sim {:.1}s, rt {:.1}s)",
        report.makespan_ratio(),
        report.makespan_reference,
        report.makespan_candidate
    );
    if report.divergent() {
        println!(
            "divergence: nonzero (order distance {}, sojourn p50 {p50:.3}, makespan ratio {:.3})",
            report.order_edit_distance,
            report.makespan_ratio()
        );
    } else {
        println!("divergence: none");
    }

    // A node of C cores can only run in real time if the host actually has
    // C cores free: on an oversubscribed host the wall run is legitimately
    // ~C/nproc slower than the fluid model, with no divergence of the
    // *control* behaviour.  Widen the upper ratio bands by that physical
    // floor so the gate measures fidelity, not host size.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let oversub = (f64::from(workers) / host_cores).max(1.0);
    let base = FidelityTolerance::default();
    let tolerance = FidelityTolerance {
        sojourn_p50: (base.sojourn_p50.0, base.sojourn_p50.1 * oversub),
        makespan: (base.makespan.0, base.makespan.1 * oversub),
        ..base
    };
    println!(
        "tolerance: sojourn p50 <= {:.1}, makespan ratio <= {:.1} ({}-core node on a {:.0}-core host)",
        tolerance.sojourn_p50.1, tolerance.makespan.1, workers, host_cores
    );
    let violations = report.violations(&tolerance);
    for v in &violations {
        eprintln!("tolerance breach: {v}");
    }

    if let Some(path) = args.text("--emit") {
        let record: Vec<(&str, JsonValue)> = vec![
            ("experiment", JsonValue::Str("fidelity".into())),
            ("policy", JsonValue::Str(outcome.policy.clone())),
            ("workers", JsonValue::Int(workers as u64)),
            ("jobs", JsonValue::Int(jobs as u64)),
            ("seed", JsonValue::Int(seed)),
            ("dilation", JsonValue::Num(dilation)),
            ("chaos", JsonValue::Str(chaos_name.into())),
            (
                "completion_set_equal",
                JsonValue::Bool(report.completion_set_equal),
            ),
            (
                "reference_jobs",
                JsonValue::Int(report.reference_jobs as u64),
            ),
            (
                "candidate_jobs",
                JsonValue::Int(report.candidate_jobs as u64),
            ),
            ("matched", JsonValue::Int(report.matched as u64)),
            (
                "order_edit_distance",
                JsonValue::Int(report.order_edit_distance as u64),
            ),
            ("sojourn_ratio_p50", JsonValue::Num(p50)),
            ("sojourn_ratio_p95", JsonValue::Num(p95)),
            ("sojourn_ratio_p99", JsonValue::Num(p99)),
            ("sojourn_ratio_min", JsonValue::Num(rmin)),
            ("sojourn_ratio_max", JsonValue::Num(rmax)),
            (
                "makespan_sim_secs",
                JsonValue::Num(report.makespan_reference),
            ),
            (
                "makespan_rt_secs",
                JsonValue::Num(report.makespan_candidate),
            ),
            ("makespan_ratio", JsonValue::Num(report.makespan_ratio())),
            ("divergent", JsonValue::Bool(report.divergent())),
            ("violations", JsonValue::Int(violations.len() as u64)),
        ];
        write_or_exit(
            path,
            &flowcon_metrics::export::to_jsonl([record.as_slice()]),
        );
        println!("wrote fidelity report to {path}");
    }

    let code = report.exit_code(&tolerance, chaos.is_some());
    if code != 0 {
        std::process::exit(code);
    }
}
