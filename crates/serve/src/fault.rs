//! Deterministic fault injection for the daemon.
//!
//! Robustness claims that are never exercised rot. The daemon therefore
//! carries its chaos monkey with it: a [`FaultPlan`], derived
//! deterministically from `LSML_FAULT_SEED`, that makes workers panic on a
//! schedule, stalls requests past their deadlines, corrupts snapshot
//! writes, and abandons snapshot writes mid-way. The integration tests
//! (`tests/daemon_faults.rs`, concurrent clients included) run the daemon
//! *with faults on* and assert it keeps serving — the same seed always
//! injects the same faults, so a CI failure replays locally.
//!
//! The five injected failure classes (mirroring `tests/daemon_faults.rs`):
//!
//! 1. **Panics** inside request execution (every `panic_period`-th request).
//! 2. **Stalls** (`slow_ms` sleeps) that push requests past their deadline.
//! 3. **Malformed frames** — driven by the fuzzer/client, not the plan.
//! 4. **Snapshot corruption** — a bit flip in the written snapshot.
//! 5. **Mid-write kill** — a snapshot write abandoned half-way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The injection schedule. `Default`/[`FaultPlan::none`] injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for [`FaultPlan::none`]).
    pub seed: u64,
    /// Every Nth executed request panics (0 = never).
    pub panic_period: u64,
    /// Every Nth executed request stalls for `slow_ms` first (0 = never).
    pub slow_period: u64,
    /// Stall length in milliseconds.
    pub slow_ms: u64,
    /// Corrupt one bit of every snapshot write.
    pub snapshot_corrupt: bool,
    /// Abandon every snapshot write half-way (no rename).
    pub snapshot_kill_mid_write: bool,
    /// Every Nth sweep circuit panics inside its isolation boundary
    /// (0 = never). Consumed by `lsml-suite`, not the daemon.
    pub circuit_panic_period: u64,
    /// Every Nth sweep circuit stalls until its deadline fires (0 = never).
    pub circuit_stall_period: u64,
    /// Hard-kill the sweep *before* processing this 0-based circuit index
    /// (0 = never) — the crash the resumable checkpoints exist for.
    pub circuit_kill_after: u64,
}

impl FaultPlan {
    /// No faults — the production plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derives a plan from a seed. Panics and stalls are always on (that is
    /// the point of a fault seed); periods and the snapshot faults vary with
    /// the seed so different seeds explore different schedules.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000F_A017_5EED);
        // New draws append after the existing ones so a given seed keeps
        // injecting the same daemon schedule it always has.
        FaultPlan {
            seed,
            panic_period: rng.gen_range(3u64..9),
            slow_period: rng.gen_range(4u64..11),
            slow_ms: rng.gen_range(20u64..60),
            snapshot_corrupt: rng.gen::<u64>() % 2 == 0,
            snapshot_kill_mid_write: rng.gen::<u64>() % 2 == 0,
            circuit_panic_period: rng.gen_range(11u64..31),
            circuit_stall_period: rng.gen_range(17u64..47),
            circuit_kill_after: rng.gen_range(40u64..400),
        }
    }

    /// Reads `LSML_FAULT_SEED`; unset, empty or `0` means no faults.
    pub fn from_env() -> FaultPlan {
        match std::env::var("LSML_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            Some(seed) if seed != 0 => FaultPlan::from_seed(seed),
            _ => FaultPlan::none(),
        }
    }

    /// Whether any request-path fault is armed.
    pub fn armed(&self) -> bool {
        self.panic_period != 0 || self.slow_period != 0
    }
}

/// What the injector decided for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute normally.
    None,
    /// Panic inside the (caught) execution boundary.
    Panic,
    /// Sleep this many milliseconds before executing.
    Slow(u64),
}

/// Per-server injector: counts executed requests and applies the plan's
/// periods. The counter is a facade atomic so the whole crate stays
/// model-checkable.
pub struct FaultInjector {
    plan: FaultPlan,
    counter: loom::sync::atomic::AtomicU64,
}

impl FaultInjector {
    /// An injector following `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            counter: loom::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The plan this injector follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fault for the next request. Panics win over stalls when
    /// both periods hit (a panicking request has no use for a stall).
    pub fn on_request(&self) -> FaultAction {
        if !self.plan.armed() {
            return FaultAction::None;
        }
        let n = self
            .counter
            .fetch_add(1, loom::sync::atomic::Ordering::Relaxed)
            + 1;
        if self.plan.panic_period != 0 && n.is_multiple_of(self.plan.panic_period) {
            return FaultAction::Panic;
        }
        if self.plan.slow_period != 0 && n.is_multiple_of(self.plan.slow_period) {
            return FaultAction::Slow(self.plan.slow_ms);
        }
        FaultAction::None
    }
}

#[cfg(all(test, not(lsml_loom)))]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::from_seed(17);
        let b = FaultPlan::from_seed(17);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.armed());
        // A fault seed always arms the per-circuit sweep faults too.
        assert!(a.circuit_panic_period != 0);
        assert!(a.circuit_stall_period != 0);
        assert!(a.circuit_kill_after != 0);
        let c = FaultPlan::from_seed(18);
        // Different seeds give different schedules (period ranges overlap,
        // so compare the whole plan).
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert!(!FaultPlan::none().armed());
    }

    #[test]
    fn injector_follows_the_periods() {
        let plan = FaultPlan {
            seed: 1,
            panic_period: 3,
            slow_period: 4,
            slow_ms: 10,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan);
        let acts: Vec<FaultAction> = (0..12).map(|_| inj.on_request()).collect();
        // Request 3, 6, 9, 12 panic; 4, 8 stall (12 is claimed by the panic).
        assert_eq!(acts[2], FaultAction::Panic);
        assert_eq!(acts[3], FaultAction::Slow(10));
        assert_eq!(acts[5], FaultAction::Panic);
        assert_eq!(acts[7], FaultAction::Slow(10));
        assert_eq!(acts[11], FaultAction::Panic);
        assert_eq!(acts[0], FaultAction::None);
        let none = FaultInjector::new(FaultPlan::none());
        assert!((0..8).all(|_| none.on_request() == FaultAction::None));
    }
}
