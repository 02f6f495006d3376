//! Failure injection: crashed containers must be detected by the
//! Finished-Cons listener, their resources released, and the rest of the
//! workload must proceed — under both FlowCon and NA.  Golden digests pin
//! every outcome: the completion records and the event count.

#[path = "support/fnv.rs"]
mod fnv;

use flowcon_core::config::FlowConConfig;
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy};
use flowcon_core::session::{SessionBuilder, SessionResult};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::RunSummary;
use flowcon_sim::time::{SimDuration, SimTime};
use fnv::Fnv;

/// Assert a run's completion records and event count against a golden
/// digest.
fn assert_digest(result: &SessionResult<RunSummary>, want: u64, what: &str) {
    let mut h = Fnv::new();
    h.records(&result.output.completions);
    h.word(result.events_processed);
    let got = h.0;
    assert_eq!(got, want, "{what} drifted: digest {got:#018x}");
}

/// A session builder preconfigured with the default FlowCon policy.
fn flowcon(plan: WorkloadPlan) -> SessionBuilder {
    flowcon_core::session::Session::builder()
        .plan(plan)
        .policy(FlowConPolicy::new(FlowConConfig::default()))
}

#[test]
fn crashed_job_reports_its_exit_code() {
    let plan = WorkloadPlan::fixed_three();
    let result = flowcon(plan)
        .failure("VAE (Pytorch)", SimTime::from_secs(100), 137)
        .build()
        .run();
    assert_digest(&result, 0x4802_247d_5465_c2c3, "crashed VAE");
    let s = &result.output;
    assert_eq!(s.completions.len(), 3, "all three containers exit");
    let vae = s
        .completions
        .iter()
        .find(|c| c.label == "VAE (Pytorch)")
        .unwrap();
    assert_eq!(vae.exit_code, 137);
    assert!(
        (vae.completion_secs() - 100.0).abs() < 1.0,
        "crash time {:.1}",
        vae.completion_secs()
    );
    // The survivors still converge cleanly.
    assert!(s
        .completions
        .iter()
        .filter(|c| c.label != "VAE (Pytorch)")
        .all(|c| c.exit_code == 0));
}

#[test]
fn survivors_speed_up_after_a_crash() {
    // Killing the long VAE at t=100 frees most of the node; MNIST-PyTorch
    // (which would otherwise share until ~220 s) must finish earlier.
    let plan = WorkloadPlan::fixed_three();
    let na = |plan: WorkloadPlan| {
        flowcon_core::session::Session::builder()
            .plan(plan)
            .policy(FairSharePolicy::new())
    };
    let healthy = na(plan.clone()).build().run();
    let crashed = na(plan)
        .failure("VAE (Pytorch)", SimTime::from_secs(100), 137)
        .build()
        .run();
    assert_digest(&healthy, 0xf5f8_f3c7_5909_570b, "healthy NA");
    assert_digest(&crashed, 0x2306_8a90_8b45_a347, "crashed NA");
    let healthy_mnist = healthy
        .output
        .completion_of("MNIST (Pytorch)")
        .expect("completes");
    let crashed_mnist = crashed
        .output
        .completion_of("MNIST (Pytorch)")
        .expect("completes");
    assert!(
        crashed_mnist < healthy_mnist - 10.0,
        "MNIST-P should reclaim the crashed VAE's share: {crashed_mnist:.1} vs {healthy_mnist:.1}"
    );
}

#[test]
fn crash_of_a_watched_container_does_not_wedge_flowcon() {
    // Crash the job FlowCon is actively throttling; the lists must purge it
    // and later reconfigurations must not reference it.
    let plan = WorkloadPlan::random_five(3);
    let victim = plan.jobs[0].label.clone();
    let result = flowcon(plan)
        .failure(&victim, SimTime::from_secs(300), 139)
        .build()
        .run();
    assert_digest(&result, 0xb2b1_a54e_6088_0173, "crashed watched job");
    assert_eq!(result.output.completions.len(), 5);
    let crashed = result
        .output
        .completions
        .iter()
        .find(|c| c.label == victim)
        .unwrap();
    assert_eq!(crashed.exit_code, 139);
    // The run terminates (this assertion is the absence of a hang) and the
    // makespan is still dominated by a real job, not the crash.
    assert!(result.output.makespan_secs() > 300.0);
}

#[test]
fn failure_before_first_measurement_is_handled() {
    // Crash a job during warm-up (it has never produced an eval value):
    // the fresh-container path of Algorithm 1 must tolerate the removal.
    let plan = WorkloadPlan::fixed_three();
    let result = flowcon(plan)
        .failure("MNIST (Tensorflow)", SimTime::from_secs(81), 1)
        .build()
        .run();
    assert_digest(&result, 0xe51a_ca92_3516_7448, "warm-up crash");
    assert_eq!(result.output.completions.len(), 3);
    let mnist = result
        .output
        .completions
        .iter()
        .find(|c| c.label == "MNIST (Tensorflow)")
        .unwrap();
    assert_eq!(mnist.exit_code, 1);
    assert!(mnist.completion_secs() < 2.0);
}

#[test]
fn failure_targeting_unknown_label_is_a_noop() {
    let plan = WorkloadPlan::fixed_three();
    let result = flowcon(plan)
        .failure("No Such Job", SimTime::from_secs(50), 9)
        .build()
        .run();
    assert_digest(&result, 0x1110_514b_ca10_2dc1, "unknown target");
    assert_eq!(result.output.completions.len(), 3);
    assert!(result.output.completions.iter().all(|c| c.exit_code == 0));
}

#[test]
fn unsorted_plan_and_faults_dispatch_by_time_then_listing_order() {
    // A plan listed latest first, with two jobs at one instant, and faults
    // listed out of time order, two at one instant: arrivals dispatch in
    // (time, plan index) order and faults in (time, listing) order.
    let mut jobs = WorkloadPlan::random_n(8, 0xD6).jobs;
    jobs[4].arrival = jobs[3].arrival;
    jobs.reverse();
    let at = jobs[0].arrival + SimDuration::from_secs(40);
    let result = flowcon(WorkloadPlan { jobs })
        .failure("Job-6", at + SimDuration::from_secs(60), 137)
        .failure("Job-4", at, 139)
        .failure("Job-2", at, 9)
        .build()
        .run();
    let s = &result.output;
    assert_eq!(s.completions.len(), 8);
    let code = |label: &str| {
        s.completions
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.exit_code)
    };
    assert_eq!(
        (code("Job-2"), code("Job-4"), code("Job-6")),
        (Some(9), Some(139), Some(137))
    );
    assert_digest(&result, 0x5959_b3fb_60a8_0b01, "unsorted plan and faults");
}
