//! Property test pinning the optimization pipeline's output to be
//! independent of the worker count (see [`crate::par`] for the knob
//! table). The only in-pass fan-out is the NPN lane walk in
//! [`crate::npn`]; the pipeline drives it through rewriting.
//!
//! The pool's width is latched process-wide, so this test drives the
//! serial/parallel decision through the thread-local
//! [`crate::par::TEST_FORCE_WORKERS`] override — workers `1` versus `4`
//! within one process.
//!
//! Each leg runs on a fresh `std::thread` so the thread-local NPN memo and
//! sweep signature cache start cold on both sides of every comparison.

use crate::aig::Aig;
use crate::lit::Lit;
use crate::opt::{BalancePass, CleanupPass, Pipeline, RewritePass, SweepPass};
use crate::par::TEST_FORCE_WORKERS;
use proptest::prelude::*;

const NUM_INPUTS: usize = 6;

/// Deterministically folds a generated op list into an AIG over
/// [`NUM_INPUTS`] inputs. XOR ops make the graph multi-level quickly, OR
/// and inverted-AND ops seed complement edges, and the last four literals
/// become outputs so cleanup cannot erase the whole graph.
fn build(ops: &[(u8, u16, u16)]) -> Aig {
    let mut g = Aig::new(NUM_INPUTS);
    let mut pool: Vec<Lit> = g.inputs();
    for &(kind, a, b) in ops {
        let x = pool[a as usize % pool.len()];
        let y = pool[b as usize % pool.len()];
        let lit = match kind % 4 {
            0 => g.and(x, y),
            1 => g.and(x, !y),
            2 => g.xor(x, y),
            _ => !g.and(!x, !y),
        };
        pool.push(lit);
    }
    for &l in pool.iter().rev().take(4) {
        g.add_output(l);
    }
    g
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<(u8, u16, u16)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..max)
}

/// Runs `f` on a fresh thread with the worker-gate override set to `n`.
fn on_thread_with_workers<T: Send + 'static>(
    n: usize,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    std::thread::spawn(move || {
        TEST_FORCE_WORKERS.with(|c| c.set(n));
        f()
    })
    .join()
    .expect("worker-gated leg panicked")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-pipeline identity under worker gates 1 versus 4: balance,
    /// rewrite (`-z` included), sweep and cleanup produce node-identical
    /// output at k = 4 and k = 6, and the result stays equivalent to the
    /// input graph.
    #[test]
    fn pipeline_identical_across_worker_gate(
        ops in arb_ops(200),
        k in (0usize..2).prop_map(|i| if i == 0 { 4 } else { 6 }),
        zero_gain in any::<bool>(),
        seed in 0u64..8,
    ) {
        let g = build(&ops);
        let run = move |g: &Aig| {
            let rewrite = if zero_gain {
                RewritePass::zero_gain()
            } else {
                RewritePass::default()
            };
            Pipeline::new()
                .then(BalancePass)
                .then(rewrite.with_cut_size(k))
                .then(SweepPass::seeded(seed))
                .then(CleanupPass)
                .run(g)
        };
        let g2 = g.clone();
        let one = on_thread_with_workers(1, move || run(&g2));
        let g2 = g.clone();
        let four = on_thread_with_workers(4, move || run(&g2));
        prop_assert_eq!(
            one.structural_fingerprint(),
            four.structural_fingerprint(),
            "pipeline output diverged at k={} zero_gain={}", k, zero_gain
        );
        crate::testutil::equivalent_exhaustive(&g, &one);
    }
}
