//! Property tests for the BDD package.

use lsml_bdd::{BddManager, BddRef, MinimizeStyle};
use lsml_pla::{Dataset, Pattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[path = "../src/row_major.rs"]
mod row_major;
use row_major::from_dataset_row_major;

const NV: usize = 6;

/// Builds a random function as a BDD plus its reference truth vector.
fn random_function(seed: u64, mgr: &mut BddManager) -> (BddRef, Vec<bool>) {
    let truth: Vec<bool> = (0..(1u64 << NV))
        .map(|m| (m.wrapping_mul(seed | 1)).count_ones() % 2 == 1)
        .collect();
    let mut f = mgr.constant(false);
    for (m, &on) in truth.iter().enumerate() {
        if on {
            let t = mgr.minterm(&Pattern::from_index(m as u64, NV));
            f = mgr.or(f, t);
        }
    }
    (f, truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ops_match_truth_semantics(sa in any::<u64>(), sb in any::<u64>()) {
        let mut mgr = BddManager::new(NV);
        let (f, tf) = random_function(sa, &mut mgr);
        let (g, tg) = random_function(sb, &mut mgr);
        let fg_and = mgr.and(f, g);
        let fg_or = mgr.or(f, g);
        let fg_xor = mgr.xor(f, g);
        let nf = mgr.not(f);
        for m in 0..(1u64 << NV) {
            let p = Pattern::from_index(m, NV);
            let i = m as usize;
            prop_assert_eq!(mgr.eval(fg_and, &p), tf[i] && tg[i]);
            prop_assert_eq!(mgr.eval(fg_or, &p), tf[i] || tg[i]);
            prop_assert_eq!(mgr.eval(fg_xor, &p), tf[i] ^ tg[i]);
            prop_assert_eq!(mgr.eval(nf, &p), !tf[i]);
        }
    }

    #[test]
    fn canonicity_same_function_same_node(seed in any::<u64>()) {
        let mut mgr = BddManager::new(NV);
        let (f, _) = random_function(seed, &mut mgr);
        // Rebuild the same function in a different construction order.
        let nf = mgr.not(f);
        let g = mgr.not(nf);
        prop_assert_eq!(f, g);
    }

    #[test]
    fn minimize_agrees_on_care_set(seed in any::<u64>(), n in 5usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut minterms: Vec<u64> = (0..(1u64 << NV)).collect();
        minterms.shuffle(&mut rng);
        let mut ds = Dataset::new(NV);
        for &m in minterms.iter().take(n) {
            ds.push(Pattern::from_index(m, NV), (m.wrapping_mul(seed | 1)) % 3 == 0);
        }
        for style in [MinimizeStyle::OneSided, MinimizeStyle::TwoSided,
                      MinimizeStyle::ComplementedTwoSided] {
            let mut mgr = BddManager::new(NV);
            let (onset, care) = mgr.from_dataset(&ds);
            let f = mgr.minimize(onset, care, style);
            for (p, o) in ds.iter() {
                prop_assert_eq!(mgr.eval(f, p), o, "style {:?} on {}", style, p);
            }
            prop_assert!(mgr.size(f) <= mgr.size(onset));
        }
    }

    #[test]
    fn columnar_from_dataset_is_node_identical(seed in any::<u64>(), n in 1usize..60) {
        // Canonical manager ⇒ the columnar cofactor construction and the
        // row-major minterm OR must return the very same node refs, and
        // duplicated/contradictory rows must not disturb that.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut minterms: Vec<u64> = (0..(1u64 << NV)).collect();
        minterms.shuffle(&mut rng);
        let mut ds = Dataset::new(NV);
        for &m in minterms.iter().take(n) {
            ds.push(Pattern::from_index(m, NV), (m.wrapping_mul(seed | 3)) % 3 == 0);
            if m % 5 == 0 {
                // Duplicate row, sometimes with the opposite label: the
                // onset is an OR of positives, so both constructions must
                // treat it identically.
                ds.push(Pattern::from_index(m, NV), (m.wrapping_mul(seed | 3)) % 2 == 0);
            }
        }
        let mut mgr = BddManager::new(NV);
        let (on_rows, care_rows) = from_dataset_row_major(&mut mgr, &ds);
        let (on_cols, care_cols) = mgr.from_dataset(&ds);
        prop_assert_eq!(on_cols, on_rows);
        prop_assert_eq!(care_cols, care_rows);
    }

    #[test]
    fn to_aig_equivalent(seed in any::<u64>()) {
        let mut mgr = BddManager::new(NV);
        let (f, truth) = random_function(seed, &mut mgr);
        let aig = mgr.to_aig(f);
        for m in 0..(1u64 << NV) {
            let bits: Vec<bool> = (0..NV).map(|i| (m >> i) & 1 == 1).collect();
            prop_assert_eq!(aig.eval(&bits)[0], truth[m as usize]);
        }
    }
}
