//! Property tests: the minimizer always implements the care set, its covers
//! match the row-major reference (`src/row_major.rs`) cube for cube, and the
//! synthesized AIG matches the cover.

use lsml_espresso::{cover_to_aig, minimize_dataset, supercube, EspressoConfig};
use lsml_pla::{Dataset, Pattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[path = "../src/row_major.rs"]
mod row_major;
use row_major::minimize_dataset_row_major;

const NV: usize = 7;

/// Random incompletely specified function: a random subset of minterms with
/// random consistent labels.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (any::<u64>(), 1usize..80).prop_map(|(seed, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut minterms: Vec<u64> = (0..(1u64 << NV)).collect();
        minterms.shuffle(&mut rng);
        let mut ds = Dataset::new(NV);
        for &m in minterms.iter().take(n) {
            // Deterministic but arbitrary labelling derived from the seed.
            let label = (m.wrapping_mul(seed | 1).count_ones() & 1) == 1;
            ds.push(Pattern::from_index(m, NV), label);
        }
        ds
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn result_implements_care_set(ds in arb_dataset()) {
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        for (p, o) in ds.iter() {
            prop_assert_eq!(cover.eval(p), o, "wrong on {}", p);
        }
    }

    #[test]
    fn first_irredundant_implements_care_set(ds in arb_dataset()) {
        let cfg = EspressoConfig { first_irredundant: true, ..EspressoConfig::default() };
        let cover = minimize_dataset(&ds, &cfg);
        for (p, o) in ds.iter() {
            prop_assert_eq!(cover.eval(p), o, "wrong on {}", p);
        }
    }

    #[test]
    fn cube_count_never_exceeds_positives(ds in arb_dataset()) {
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        prop_assert!(cover.len() <= ds.count_positive());
    }

    #[test]
    fn columnar_scan_is_cube_identical_to_row_major(ds in arb_dataset()) {
        // The columnar engine replays the row-major greedy with the same
        // integer counts and orders, so the covers must be identical cube
        // for cube — in both espresso modes.
        for first_irredundant in [false, true] {
            let cfg = EspressoConfig { first_irredundant, ..EspressoConfig::default() };
            let cols = minimize_dataset(&ds, &cfg);
            let rows = minimize_dataset_row_major(&ds, &cfg);
            prop_assert_eq!(
                cols.cubes(), rows.cubes(),
                "diverged with first_irredundant={}", first_irredundant
            );
        }
    }

    #[test]
    fn synthesized_aig_matches_cover(ds in arb_dataset()) {
        let cover = minimize_dataset(&ds, &EspressoConfig::default());
        let aig = cover_to_aig(&cover);
        for m in 0..(1u64 << NV) {
            let p = Pattern::from_index(m, NV);
            let bits: Vec<bool> = p.iter().collect();
            prop_assert_eq!(aig.eval(&bits)[0], cover.eval(&p));
        }
    }
}
