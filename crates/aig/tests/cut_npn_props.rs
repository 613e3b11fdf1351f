//! Property tests for the k ≤ 6 cut/NPN rewriting engine:
//!
//! * every enumerated cut's 64-bit truth table agrees with word-parallel
//!   simulation (`sim::eval_patterns_multi`) on the cut cone, at k = 4 and
//!   k = 6;
//! * the semi-canonical NPN form maps every function of a class to the
//!   same key as the exact canonizer at ≤ 4 inputs, and its recorded
//!   transform is always valid;
//! * the arena's CSR layout and the rewritten graphs satisfy their
//!   structural verifiers, and k = 6 rewriting preserves semantics.

use lsml_aig::aig::Aig;
use lsml_aig::cut::{eval_cut, CutArena, CutConfig};
use lsml_aig::npn::{apply, apply6, broadcast16, canonize, semi_canonize, NpnTransform};
use lsml_aig::rewrite::{rewrite, RewriteConfig};
use lsml_aig::sim::eval_patterns_multi;
use lsml_aig::Lit;
use lsml_pla::Pattern;
use proptest::prelude::*;

/// A recipe for building a random AIG: a list of gate ops over existing
/// lits (same shape as the pipeline property suite).
#[derive(Clone, Debug)]
enum Op {
    And(u8, bool, u8, bool),
    Xor(u8, bool, u8, bool),
    Mux(u8, u8, u8),
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::And(a, ca, b, cb)),
            (any::<u8>(), any::<bool>(), any::<u8>(), any::<bool>())
                .prop_map(|(a, ca, b, cb)| Op::Xor(a, ca, b, cb)),
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(s, t, e)| Op::Mux(s, t, e)),
        ],
        1..n,
    )
}

fn build(ops: &[Op], ni: usize) -> Aig {
    let mut g = Aig::new(ni);
    let mut lits: Vec<Lit> = g.inputs();
    for op in ops {
        let pick = |i: u8, lits: &[Lit]| lits[i as usize % lits.len()];
        let l = match *op {
            Op::And(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.and(x, y)
            }
            Op::Xor(a, ca, b, cb) => {
                let x = pick(a, &lits).complement_if(ca);
                let y = pick(b, &lits).complement_if(cb);
                g.xor(x, y)
            }
            Op::Mux(s, t, e) => {
                let sv = pick(s, &lits);
                let tv = pick(t, &lits);
                let ev = pick(e, &lits);
                g.mux(sv, tv, ev)
            }
        };
        lits.push(l);
    }
    g.add_output(*lits.last().expect("at least one literal"));
    g.add_output(!lits[lits.len() / 2]);
    g
}

const NARROW: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every cut truth table is consistent with simulation: on every input
    /// pattern, evaluating the table at the leaves' simulated values yields
    /// the root's simulated value. Simulation runs through
    /// `eval_patterns_multi` with one output per node.
    #[test]
    fn cut_tables_agree_with_eval_patterns_multi(ops in arb_ops(30)) {
        let g = build(&ops, NARROW);
        // Expose every node as an output for the word-parallel simulator.
        let mut probe = g.clone();
        probe.clear_outputs();
        for n in 0..probe.num_nodes() as u32 {
            probe.add_output(Lit::new(n, false));
        }
        let ni = g.num_inputs();
        let patterns: Vec<Pattern> = (0..(1u64 << ni))
            .map(|m| Pattern::from_index(m, ni))
            .collect();
        let values = eval_patterns_multi(&probe, &patterns);

        for k in [4usize, 6] {
            let mut arena = CutArena::new();
            arena.enumerate(&g, &CutConfig { k, max_cuts: 8 });
            for n in 0..g.num_nodes() {
                for view in arena.cuts(n as u32) {
                    let cut = view.to_cut();
                    #[allow(clippy::needless_range_loop)] // `p` indexes every node's row
                    for p in 0..patterns.len() {
                        let leaf_values: Vec<bool> = cut
                            .leaves()
                            .iter()
                            .map(|&l| values[l as usize][p])
                            .collect();
                        prop_assert_eq!(
                            eval_cut(&cut, &leaf_values),
                            values[n][p],
                            "k={} node {} cut {:?} pattern {}",
                            k, n, cut, p
                        );
                    }
                }
            }
        }
    }

    /// At ≤ 4 inputs the semi-canonical key equals the exact canonizer's
    /// key for *every* member of an NPN class.
    #[test]
    fn semi_canonical_matches_exact_canonizer_at_4_inputs(
        tt in any::<u16>(),
        perm_pick in 0usize..24,
        input_neg in 0u8..16,
        output_neg in any::<bool>(),
    ) {
        // Rebuild the lexicographic 4-var permutation list locally.
        let mut perms = Vec::new();
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    for d in 0..4u8 {
                        if a != b && a != c && a != d && b != c && b != d && c != d {
                            perms.push([a, b, c, d]);
                        }
                    }
                }
            }
        }
        let t = NpnTransform { perm: perms[perm_pick], input_neg, output_neg };
        let variant = apply(tt, &t);
        let expect = broadcast16(canonize(tt).canon);
        let semi_a = semi_canonize(broadcast16(tt));
        let semi_b = semi_canonize(broadcast16(variant));
        prop_assert_eq!(semi_a.key, expect);
        prop_assert_eq!(semi_b.key, expect, "class member diverged: {:04x}", variant);
        // Recorded transforms actually map onto the key.
        prop_assert_eq!(apply6(broadcast16(tt), &semi_a.transform), semi_a.key);
        prop_assert_eq!(apply6(broadcast16(variant), &semi_b.transform), semi_b.key);
    }

    /// The greedy wide form always records a valid transform and is a
    /// fixpoint of itself (key canonizes to key).
    #[test]
    fn semi_canonical_transform_is_valid_at_6_inputs(tt in any::<u64>()) {
        let semi = semi_canonize(tt);
        prop_assert_eq!(apply6(tt, &semi.transform), semi.key);
        prop_assert_eq!(semi_canonize(semi.key).key, semi.key);
    }

    /// The arena's CSR layout verifier holds after cold, warm-incremental
    /// and shrunken re-enumerations at k ∈ {4, 6}, and the rewritten graph
    /// itself satisfies the full structural verifier (including after the
    /// zero-gain reshaping variant).
    #[test]
    fn arena_csr_and_graph_invariants_hold(ops in arb_ops(40)) {
        let g = build(&ops, NARROW);
        let mut arena = CutArena::new();
        for k in [4usize, 6] {
            arena.enumerate(&g, &CutConfig { k, max_cuts: 8 });
            prop_assert!(arena.check_csr().is_ok(),
                "cold enumeration (k={}): {:?}", k, arena.check_csr());
            // Warm re-enumeration of an extended graph reuses the prefix;
            // the CSR must stay coherent across the truncate-and-extend.
            let mut ext = g.clone();
            let exti = ext.inputs();
            let extra = ext.xor(exti[0], *ext.outputs().first().expect("output"));
            ext.add_output(extra);
            arena.enumerate(&ext, &CutConfig { k, max_cuts: 8 });
            prop_assert!(arena.check_csr().is_ok(),
                "warm extension (k={}): {:?}", k, arena.check_csr());
            // Rewritten graphs satisfy the full structural verifier.
            for zero_gain in [false, true] {
                let cfg = RewriteConfig { zero_gain, cut_size: k, ..RewriteConfig::default() };
                let h = rewrite(&g, &cfg);
                prop_assert!(h.check_invariants().is_ok(),
                    "rewrite k={} zero_gain={}: {:?}", k, zero_gain, h.check_invariants());
            }
        }
    }

    /// k = 6 rewriting preserves semantics exactly and never grows the
    /// graph (the k = 4 variant is covered by the pipeline property suite).
    #[test]
    fn k6_rewrite_preserves_semantics(ops in arb_ops(40)) {
        let g = build(&ops, NARROW);
        let ni = g.num_inputs();
        let patterns: Vec<Pattern> = (0..(1u64 << ni))
            .map(|m| Pattern::from_index(m, ni))
            .collect();
        let before = eval_patterns_multi(&g, &patterns);
        let mut cleaned = g.clone();
        cleaned.cleanup();
        for zero_gain in [false, true] {
            let cfg = RewriteConfig { zero_gain, ..RewriteConfig::k6() };
            let h = rewrite(&g, &cfg);
            prop_assert!(h.num_ands() <= cleaned.num_ands());
            prop_assert_eq!(eval_patterns_multi(&h, &patterns), before.clone());
        }
    }
}
