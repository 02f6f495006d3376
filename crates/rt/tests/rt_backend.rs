//! Integration tests for the wall-clock backend.
//!
//! # Flakiness policy
//!
//! These tests run real OS threads on shared CI runners, so every timing
//! assertion follows three rules:
//!
//! 1. **Ratios and coarse bounds, never tight absolute milliseconds** — a
//!    bound is either a large multiple of the relevant period (e.g. "well
//!    under one 400 ms refill period" asserts < 200 ms against an expected
//!    ~0 ms) or a ratio with ≥ 4× headroom.
//! 2. **Tiny workloads** — fractions of a CPU-second of spin per job, so
//!    an oversubscribed runner stretches wall time without changing any
//!    asserted *logical* outcome (completion sets, thread accounting,
//!    ledger decisions).
//! 3. **One shared workload helper** — [`rt_test_workload`] is the single
//!    source of job sizing; shrinking it to fix one flaky test fixes them
//!    all identically.  The exception is
//!    `rt_measures_through_the_container_monitor`, which needs wall time
//!    at dilation 1 and asserts only logical rules.
//!
//! Logical invariants (set equality, join accounting, ledger rejection,
//! the no-sleep grep) carry the correctness weight; timing asserts only
//! guard against order-of-magnitude regressions like a shutdown path
//! sitting out a full refill period.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowcon_container::ContainerId;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::session::Session;
use flowcon_dl::models::{ModelId, ModelSpec};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_dl::TrainingJob;
use flowcon_rt::governor::RefillMath;
use flowcon_rt::{RtChaos, RtConfig, RtJob, RtOutcome, RtRuntime, RtSessionBuilder};
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::{ResourceVec, RESOURCE_KINDS};
use proptest::prelude::*;

/// The one shared tiny workload: `jobs` seeded jobs compressed to
/// CI-scale wall time by a high dilation.  Integration tests size their
/// work through here (see the flakiness policy above).
fn rt_test_workload(jobs: usize, seed: u64) -> RtOutcome {
    rt_test_workload_with(jobs, seed, None)
}

fn rt_test_workload_with(jobs: usize, seed: u64, chaos: Option<RtChaos>) -> RtOutcome {
    let spec = Session::builder()
        .node(NodeConfig::default().with_seed(seed))
        .plan(WorkloadPlan::random_n(jobs, seed))
        .into_spec();
    let mut builder = RtSessionBuilder::from_spec(spec).config(RtConfig {
        dilation: 2000.0,
        ..RtConfig::default()
    });
    if let Some(chaos) = chaos {
        builder = builder.chaos(chaos);
    }
    builder.build().run_outcome()
}

/// Regression (ISSUE 10 satellite): the governor used to `thread::sleep`
/// its full refill period, so even a zero-job run couldn't shut down
/// faster than one period.  With the condvar shutdown signal, teardown
/// must complete in *well under* one (deliberately huge) period.
#[test]
fn zero_job_run_shuts_down_well_under_one_refill_period() {
    let config = RtConfig {
        refill_period: Duration::from_millis(400),
        ..RtConfig::default()
    };
    let started = Instant::now();
    let outcome = RtRuntime::new(config, Box::new(FairSharePolicy::new())).run_outcome(vec![]);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "shutdown took {elapsed:?}, at least half a 400 ms refill period — \
         the governor is sleeping through shutdown again"
    );
    assert_eq!(outcome.threads_spawned, 1, "the governor did spawn");
    assert_eq!(outcome.threads_joined, 1);
}

/// The push-based coordination invariant, grep-enforced: no
/// `thread::sleep` anywhere in this crate's sources.  Blocking waits are
/// condvars (woken by deposits / shutdown) or channel receives (woken by
/// completions); a sleep would reintroduce polling latency unbounded by
/// any signal.
#[test]
fn no_thread_sleep_in_crate_sources() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source");
            for (lineno, line) in text.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                assert!(
                    !code.contains("thread::sleep") && !code.contains("sleep("),
                    "{}:{} contains a sleep call: {line:?}",
                    path.display(),
                    lineno + 1
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "expected to scan the crate sources, saw {checked}"
    );
}

/// Every spawned thread is joined before the runtime returns — no leaks,
/// asserted via the join-handle accounting the runtime itself keeps.
#[test]
fn shutdown_joins_every_spawned_thread() {
    let jobs = 3;
    let outcome = rt_test_workload(jobs, 21);
    assert_eq!(outcome.summary.completions.len(), jobs);
    assert_eq!(
        outcome.threads_spawned,
        outcome.threads_joined,
        "leaked {} thread(s)",
        outcome.threads_spawned - outcome.threads_joined
    );
    assert_eq!(
        outcome.threads_spawned,
        jobs as u64 + 1,
        "one thread per container plus the governor"
    );
    assert_eq!(outcome.completions_rejected, 0);
}

/// A straggler run still completes every job (slower, never fewer).
#[test]
fn straggler_chaos_preserves_the_completion_set() {
    let jobs = 3;
    let outcome = rt_test_workload_with(jobs, 33, Some(RtChaos::Straggler { factor: 0.25 }));
    assert_eq!(outcome.summary.completions.len(), jobs);
    assert_eq!(outcome.threads_spawned, outcome.threads_joined);
}

/// A churn kill/restart is physically real — a thread dies and a new one
/// resumes the job — and the completion set still holds.
#[test]
fn churn_chaos_kills_restarts_and_still_completes_every_job() {
    let jobs = 3;
    let outcome = rt_test_workload_with(
        jobs,
        44,
        Some(RtChaos::Churn {
            at: Duration::from_millis(10),
            down: Duration::from_millis(10),
        }),
    );
    assert_eq!(outcome.summary.completions.len(), jobs);
    assert_eq!(outcome.chaos_kills, 1, "the kill happened");
    assert!(
        outcome.chaos_kills >= outcome.chaos_restarts,
        "restarts never exceed kills"
    );
    assert_eq!(
        outcome.threads_spawned, outcome.threads_joined,
        "killed and relaunched threads are all joined"
    );
    assert_eq!(outcome.completions_rejected, 0);
}

/// Every reading rt handed its policy: when, and the measurements.
type Readings = Arc<Mutex<Vec<(SimTime, Vec<GrowthMeasurement>)>>>;

/// FlowCon, keeping a copy of every measurement rt hands it.
struct Recording {
    inner: FlowConPolicy,
    readings: Readings,
}

impl ResourcePolicy for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        self.inner.initial_interval()
    }

    fn reconfigure_into(
        &mut self,
        now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        self.readings.lock().unwrap().push((now, measures.to_vec()));
        self.inner.reconfigure_into(now, measures, updates)
    }

    fn on_pool_change(&mut self, now: SimTime, pool_ids: &[ContainerId]) -> bool {
        self.inner.on_pool_change(now, pool_ids)
    }
}

/// rt measures through the simulation's Container Monitor
/// (`MonitorSlot`): a container's first reading only sets its baseline
/// (no progress, zero usage), and a reading taken less than 0.1 virtual s
/// after the container's last fresh reading repeats that reading's
/// progress and usage bit for bit instead of scoring the short interval.
///
/// A 50 ms policy interval without back-off at dilation 1 puts readings
/// inside that window; [`rt_test_workload`]'s dilation would shrink it to
/// microseconds of wall time.  The assertions are logical, not timed: they
/// hold however the host delays the coordinator.
#[test]
fn rt_measures_through_the_container_monitor() {
    let readings: Readings = Arc::default();
    let policy = Recording {
        inner: FlowConPolicy::new(FlowConConfig {
            initial_interval: SimDuration::from_millis(50),
            backoff: false,
            ..FlowConConfig::default()
        }),
        readings: Arc::clone(&readings),
    };
    let job = |label: &str, seed| {
        let mut spec = ModelSpec::of(ModelId::Gru);
        spec.total_work = 0.2;
        RtJob {
            job: TrainingJob::with_label(spec, label, &mut SimRng::new(seed)),
            arrival: Duration::ZERO,
        }
    };
    let config = RtConfig {
        dilation: 1.0,
        ..RtConfig::default()
    };
    let summary = RtRuntime::new(config, Box::new(policy)).run(vec![job("a", 1), job("b", 2)]);
    assert_eq!(summary.completions.len(), 2);

    let bits = |m: &GrowthMeasurement| {
        (
            m.progress.map(f64::to_bits),
            RESOURCE_KINDS.map(|kind| m.avg_usage.get(kind).to_bits()),
        )
    };
    // Per container: the time and the bits of its last fresh reading.
    let mut fresh = HashMap::new();
    let mut repeats = 0;
    for (now, measures) in readings.lock().unwrap().iter() {
        for m in measures {
            match fresh.get(&m.id) {
                None => {
                    assert_eq!(m.progress, None, "{:?}'s first reading at {now}", m.id);
                    assert_eq!(m.avg_usage, ResourceVec::ZERO, "{:?} at {now}", m.id);
                }
                Some(&(at, last)) if now.saturating_since(at).as_secs_f64() < 0.1 => {
                    assert_eq!(
                        bits(m),
                        last,
                        "{:?} at {now} rescored {} s after its reading at {at}",
                        m.id,
                        now.saturating_since(at).as_secs_f64()
                    );
                    repeats += 1;
                    continue;
                }
                Some(_) => {}
            }
            fresh.insert(m.id, (*now, bits(m)));
        }
    }
    assert_eq!(fresh.len(), 2, "both containers were measured");
    assert!(repeats > 0, "no reading fell inside a 0.1 s window");
}

proptest! {
    /// Refill conservation: across an *arbitrary* sequence of rate
    /// reconfigurations, the whole-microsecond deposits stay within one
    /// microsecond of the exact fractional total — forever, because the
    /// carry never discards remainder.
    #[test]
    fn refill_conserves_rate_across_arbitrary_reconfigures(
        segments in prop::collection::vec((0.0f64..8.0, 1usize..40), 1..20),
        period_us in 500u64..20_000,
    ) {
        let period = Duration::from_micros(period_us);
        let mut math = RefillMath::new();
        let mut deposited = 0u64;
        let mut exact = 0.0f64;
        for (rate, periods) in segments {
            for _ in 0..periods {
                deposited += math.deposit_for(rate, period);
                exact += rate * period.as_secs_f64() * 1e6;
                prop_assert!(
                    (0.0..1.0).contains(&math.carry_us()),
                    "carry {} left [0,1)", math.carry_us()
                );
            }
        }
        let drift = deposited as f64 - exact;
        prop_assert!(
            drift.abs() < 1.0,
            "deposits drifted {drift} µs from exact over the sequence"
        );
    }

    /// Refill monotonicity: from identical carry state, a higher rate
    /// never deposits less for the same period.
    #[test]
    fn refill_is_monotone_in_rate(
        lo in 0.0f64..8.0,
        delta in 0.0f64..4.0,
        carry in 0.0f64..0.999,
        period_us in 500u64..20_000,
    ) {
        let period = Duration::from_micros(period_us);
        let mut a = RefillMath::new();
        let mut b = RefillMath::new();
        // Drive both to the same carry state first.
        let prime = carry / (period.as_secs_f64() * 1e6);
        a.deposit_for(prime, period);
        b.deposit_for(prime, period);
        let low = a.deposit_for(lo, period);
        let high = b.deposit_for(lo + delta, period);
        prop_assert!(
            high >= low,
            "rate {} deposited {high} < rate {} deposited {low}",
            lo + delta, lo
        );
    }
}
