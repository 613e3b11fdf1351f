//! Portfolio selection.
//!
//! The paper's headline observation: "there is no approach which is
//! consistently better across all the considered benchmarks. Thus, applying
//! several approaches and deciding which one to use ... seems to be the best
//! strategy." Every team with a top score ran a portfolio and selected by
//! validation accuracy under the node limit; this module is that selector.

use lsml_pla::Dataset;
use rayon::prelude::*;

use crate::problem::LearnedCircuit;

/// One deferred *raw* candidate construction for the batched compile path:
/// the builder returns an uncompiled graph plus its method label, and the
/// caller feeds the results into a [`crate::compile::CompileBatch`] so every
/// candidate lands in one shared strashed graph before optimization.
pub type RawCandidateTask<'a> = Box<dyn FnOnce() -> Option<(lsml_aig::Aig, String)> + Send + 'a>;

/// Runs raw candidate *constructions* in parallel over the work-stealing
/// pool. Tasks execute via recursive `join` splitting, so nesting inside an
/// already-parallel context (one learner per benchmark, one benchmark per
/// team) reuses the same fixed worker set. Results come back in task order
/// with `None`s dropped, which keeps every downstream tie-break identical
/// to a sequential construction.
pub fn construct_raw(tasks: Vec<RawCandidateTask<'_>>) -> Vec<(lsml_aig::Aig, String)> {
    let mut slots: Vec<Option<RawCandidateTask<'_>>> = tasks.into_iter().map(Some).collect();
    let mut out: Vec<Option<(lsml_aig::Aig, String)>> = vec![None; slots.len()];
    fan_out(&mut slots, &mut out);
    out.into_iter().flatten().collect()
}

fn fan_out(
    tasks: &mut [Option<RawCandidateTask<'_>>],
    out: &mut [Option<(lsml_aig::Aig, String)>],
) {
    match tasks.len() {
        0 => {}
        1 => out[0] = (tasks[0].take().expect("task present"))(),
        n => {
            let mid = n / 2;
            let (t_lo, t_hi) = tasks.split_at_mut(mid);
            let (o_lo, o_hi) = out.split_at_mut(mid);
            rayon::join(|| fan_out(t_lo, o_lo), || fan_out(t_hi, o_hi));
        }
    }
}

/// Picks the candidate with the best validation accuracy among those within
/// `node_limit`, breaking ties towards fewer gates. When *no* candidate
/// fits, returns the constant circuit matching the validation majority (the
/// safe fallback every team kept in its pocket).
///
/// Candidates are scored in parallel against the validation set's cached
/// bit columns (the scan is embarrassingly parallel and read-only); the
/// winner is then chosen by a sequential pass so tie-breaking stays
/// deterministic and identical to the serial order. The fan-out rides the
/// work-stealing pool, so calling this from inside an already-parallel
/// context (one learner per benchmark, one benchmark per team) reuses the
/// same fixed worker set instead of oversubscribing threads.
pub fn select_best(
    mut candidates: Vec<LearnedCircuit>,
    valid: &Dataset,
    node_limit: usize,
) -> LearnedCircuit {
    // Materialize the columns once before fanning out, so workers share the
    // cached transpose instead of racing to build it.
    let _ = valid.bit_columns();
    let scored: Vec<Option<(f64, usize)>> = candidates
        .par_iter()
        .map(|c| {
            if c.fits(node_limit) {
                Some((c.accuracy(valid), c.and_gates()))
            } else {
                None
            }
        })
        .collect();
    let mut best: Option<(f64, usize, usize)> = None;
    for (i, &score) in scored.iter().enumerate() {
        let Some((acc, size)) = score else { continue };
        let better = match &best {
            None => true,
            Some((bacc, bsize, _)) => {
                acc > *bacc + 1e-12 || ((acc - *bacc).abs() <= 1e-12 && size < *bsize)
            }
        };
        if better {
            best = Some((acc, size, i));
        }
    }
    match best {
        Some((_, _, i)) => candidates.swap_remove(i),
        None => {
            let majority = valid.majority();
            LearnedCircuit::new(
                lsml_aig::Aig::constant(valid.num_inputs(), majority),
                "constant-fallback",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_aig::Aig;
    use lsml_pla::Pattern;

    fn target() -> Dataset {
        let mut ds = Dataset::new(2);
        for m in 0..4u64 {
            ds.push(Pattern::from_index(m, 2), m == 3);
        }
        ds
    }

    fn and_circuit() -> LearnedCircuit {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.and(a, b);
        aig.add_output(f);
        LearnedCircuit::new(aig, "and")
    }

    fn or_circuit() -> LearnedCircuit {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.input(0), aig.input(1));
        let f = aig.or(a, b);
        aig.add_output(f);
        LearnedCircuit::new(aig, "or")
    }

    #[test]
    fn picks_highest_validation_accuracy() {
        let best = select_best(vec![or_circuit(), and_circuit()], &target(), 5000);
        assert_eq!(best.method, "and");
    }

    #[test]
    fn respects_node_limit() {
        // The perfect circuit is over budget; the weaker one fits.
        let best = select_best(vec![and_circuit(), or_circuit()], &target(), 0);
        assert_eq!(best.method, "constant-fallback");
        let best = select_best(vec![and_circuit()], &target(), 1);
        assert_eq!(best.method, "and");
    }

    #[test]
    fn ties_break_to_smaller() {
        // Two circuits with equal accuracy: constant-false (0 gates) and a
        // false-ish bigger one.
        let mut big = Aig::new(2);
        let (a, b) = (big.input(0), big.input(1));
        let x = big.and(a, b);
        let y = big.and(x, !a); // constant false the long way
        big.add_output(y);
        let c_small = LearnedCircuit::new(Aig::constant(2, false), "small");
        let c_big = LearnedCircuit::new(big, "big");
        let best = select_best(vec![c_big, c_small], &target(), 5000);
        assert_eq!(best.method, "small");
    }

    #[test]
    fn empty_candidates_fall_back_to_majority() {
        let best = select_best(vec![], &target(), 5000);
        assert_eq!(best.method, "constant-fallback");
        // Majority of AND truth table is false.
        assert_eq!(best.aig.eval(&[true, true]), vec![false]);
    }
}
