//! The token-bucket CPU governor.
//!
//! A user-space reimplementation of what cgroups' CFS bandwidth controller
//! does for Docker: each container owns a bucket holding *CPU-microseconds*
//! of budget.  A governor thread deposits budget at the container's granted
//! rate (its water-filled share of node capacity); the container's worker
//! thread withdraws one quantum before each compute burst, blocking when
//! the bucket is empty — which is exactly how a throttled container
//! experiences its limit.
//!
//! # Coordination is push-based
//!
//! Nothing in this module sleeps or polls.  Container threads block on the
//! bucket's condvar and are woken by deposits (or released by
//! [`TokenBucket::close`]); the governor thread blocks on a
//! [`ShutdownSignal`] condvar with a *timed* wait — the refill period is
//! the one place a timed wait is semantically required, and triggering
//! shutdown wakes it immediately instead of letting it finish the period.
//! A unit test in `crates/rt/tests/` greps this crate's sources to keep
//! `thread::sleep` out of the coordination paths for good.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `mutex`, taking the data of a poisoned one as it stands.
///
/// A container thread that panics while holding its job or a bucket must
/// not take the coordinator or the governor down with it, so no lock in
/// this crate propagates poisoning.  That is sound because every update
/// made under these locks leaves the data valid at each step: single-field
/// stores on a bucket, a signal or a job, and `Vec::push`/`retain` on the
/// governor's targets.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A closable token bucket measured in CPU-microseconds.
pub struct TokenBucket {
    state: Mutex<State>,
    available: Condvar,
    /// Burst ceiling: deposits beyond this are dropped (a throttled
    /// container must not bank unbounded credit while idle).
    burst_us: u64,
}

struct State {
    tokens_us: u64,
    closed: bool,
}

impl TokenBucket {
    /// A bucket with the given burst ceiling.
    pub fn new(burst_us: u64) -> Arc<Self> {
        Arc::new(TokenBucket {
            state: Mutex::new(State {
                tokens_us: 0,
                closed: false,
            }),
            available: Condvar::new(),
            burst_us: burst_us.max(1),
        })
    }

    /// Deposit budget (governor side), saturating at the burst ceiling.
    pub fn deposit(&self, us: u64) {
        let mut s = lock(&self.state);
        s.tokens_us = (s.tokens_us + us).min(self.burst_us);
        drop(s);
        self.available.notify_all();
    }

    /// Withdraw `us` of budget, blocking until available.
    ///
    /// Returns `false` if the bucket was closed (shutdown or a chaos kill)
    /// before the budget could be satisfied — the container thread's one
    /// exit signal, so the thread needs no shutdown flag to poll.
    pub fn withdraw(&self, us: u64) -> bool {
        let mut s = self
            .available
            .wait_while(lock(&self.state), |s| !s.closed && s.tokens_us < us)
            .unwrap_or_else(PoisonError::into_inner);
        if s.closed {
            return false;
        }
        s.tokens_us -= us;
        true
    }

    /// Close the bucket: blocked and future withdrawals return `false`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.available.notify_all();
    }

    /// Current balance (for tests/diagnostics).
    pub fn balance_us(&self) -> u64 {
        lock(&self.state).tokens_us
    }
}

/// Pure refill arithmetic: converts a granted rate into whole-microsecond
/// deposits while conserving the fractional remainder.
///
/// A rate of `r` cores over a refill period of `p` µs is worth `r·p` µs of
/// budget — rarely an integer.  Truncating every period would silently
/// under-deliver up to one microsecond *per period* (at a 5 ms period
/// that is 0.02% per container, compounding across reconfigures); the
/// carry keeps the running total within one microsecond of exact *forever*,
/// across arbitrary rate reconfiguration sequences.  The conservation and
/// monotonicity contracts are proptested in `crates/rt/tests/`.
#[derive(Debug, Clone, Default)]
pub struct RefillMath {
    /// Fractional microseconds earned but not yet deposited, in `[0, 1)`.
    carry_us: f64,
}

impl RefillMath {
    /// Fresh math with no carried remainder.
    pub fn new() -> Self {
        RefillMath::default()
    }

    /// Whole microseconds to deposit for one period at `rate_cores`.
    ///
    /// Non-finite or negative rates deposit nothing (and clear the carry —
    /// a poisoned rate must not leak stale credit).
    pub fn deposit_for(&mut self, rate_cores: f64, period: Duration) -> u64 {
        if !rate_cores.is_finite() || rate_cores <= 0.0 {
            self.carry_us = 0.0;
            return 0;
        }
        let exact = rate_cores * period.as_secs_f64() * 1e6 + self.carry_us;
        let whole = exact.floor();
        self.carry_us = (exact - whole).clamp(0.0, 1.0 - f64::EPSILON);
        whole as u64
    }

    /// The carried fractional microseconds (diagnostics/tests).
    pub fn carry_us(&self) -> f64 {
        self.carry_us
    }
}

/// A shutdown flag the governor thread waits on instead of sleeping.
///
/// `wait_period` blocks for one refill period *or* until [`trigger`] is
/// called, whichever comes first — so a runtime tearing down never waits
/// out a refill period it no longer needs (the regression test pins a
/// zero-job run shutting down in well under one period).
///
/// [`trigger`]: ShutdownSignal::trigger
#[derive(Default)]
pub struct ShutdownSignal {
    down: Mutex<bool>,
    cv: Condvar,
}

impl ShutdownSignal {
    /// A fresh, un-triggered signal.
    pub fn new() -> Arc<Self> {
        Arc::new(ShutdownSignal::default())
    }

    /// Flip the flag and wake every waiter immediately.
    pub fn trigger(&self) {
        *lock(&self.down) = true;
        self.cv.notify_all();
    }

    /// Block for `period` or until triggered; returns `true` on shutdown.
    pub fn wait_period(&self, period: Duration) -> bool {
        let (down, _) = self
            .cv
            .wait_timeout_while(lock(&self.down), period, |down| !*down)
            .unwrap_or_else(PoisonError::into_inner);
        *down
    }
}

/// An `f64` stored in an atomic (rate cells shared governor ↔ coordinator).
#[derive(Debug, Default)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// A new cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Load the value.
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Store a value.
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta`, returning the new value (CAS loop).
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(new),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn deposit_then_withdraw() {
        let b = TokenBucket::new(10_000);
        b.deposit(5_000);
        assert!(b.withdraw(3_000));
        assert_eq!(b.balance_us(), 2_000);
    }

    #[test]
    fn burst_ceiling_caps_balance() {
        let b = TokenBucket::new(1_000);
        b.deposit(50_000);
        assert_eq!(b.balance_us(), 1_000);
    }

    #[test]
    fn withdraw_blocks_until_deposit() {
        // Deposit-before-withdraw and withdraw-blocked-then-deposit both
        // resolve to `true`; no sleep needed to force an interleaving
        // because the contract holds either way.
        let b = TokenBucket::new(10_000);
        let b2 = Arc::clone(&b);
        let waiter = thread::spawn(move || b2.withdraw(1_000));
        b.deposit(1_000);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn close_releases_blocked_waiters() {
        let b = TokenBucket::new(10_000);
        let b2 = Arc::clone(&b);
        let waiter = thread::spawn(move || b2.withdraw(1_000));
        b.close();
        assert!(!waiter.join().unwrap());
        assert!(!b.withdraw(1), "closed bucket refuses new withdrawals");
    }

    #[test]
    fn close_wins_over_remaining_balance() {
        // Closing is a kill: a killed container must stop even with budget
        // left, otherwise churn teardown could run one extra quantum.
        let b = TokenBucket::new(10_000);
        b.deposit(5_000);
        b.close();
        assert!(!b.withdraw(1_000));
    }

    #[test]
    fn refill_math_carries_fractions_exactly() {
        let mut m = RefillMath::new();
        let period = Duration::from_millis(5);
        // 0.3 cores × 5000 µs = 1500 µs exactly: no carry accumulates.
        assert_eq!(m.deposit_for(0.3, period), 1_500);
        assert!(m.carry_us() < 1e-9, "carry {}", m.carry_us());
        // 0.333 cores × 5000 µs = 1665 µs exactly representable too; use a
        // genuinely fractional rate instead.
        let mut m = RefillMath::new();
        let mut total = 0u64;
        for _ in 0..1000 {
            total += m.deposit_for(1.0 / 3.0, period);
        }
        let exact = (1.0 / 3.0) * 5_000.0 * 1000.0;
        assert!(
            (total as f64 - exact).abs() < 1.0,
            "total {total} vs exact {exact}"
        );
    }

    #[test]
    fn refill_math_rejects_poisoned_rates() {
        let mut m = RefillMath::new();
        assert_eq!(m.deposit_for(f64::NAN, Duration::from_millis(5)), 0);
        assert_eq!(m.deposit_for(-1.0, Duration::from_millis(5)), 0);
        assert_eq!(m.deposit_for(f64::INFINITY, Duration::from_millis(5)), 0);
        assert_eq!(m.carry_us(), 0.0, "poisoned rates clear the carry");
    }

    #[test]
    fn shutdown_signal_wakes_waiters_immediately() {
        let s = ShutdownSignal::new();
        let s2 = Arc::clone(&s);
        let started = Instant::now();
        let waiter = thread::spawn(move || s2.wait_period(Duration::from_secs(30)));
        s.trigger();
        assert!(waiter.join().unwrap(), "triggered wait reports shutdown");
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "waiter must not sit out the period"
        );
    }

    #[test]
    fn shutdown_signal_times_out_false_when_idle() {
        let s = ShutdownSignal::new();
        assert!(!s.wait_period(Duration::from_millis(5)));
    }

    #[test]
    fn atomic_f64_roundtrip_and_add() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(2.25);
        assert_eq!(a.load(), 2.25);
        assert_eq!(a.fetch_add(0.75), 3.0);
    }
}
