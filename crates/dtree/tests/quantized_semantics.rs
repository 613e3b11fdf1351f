//! Property tests pinning the boosted ensemble's quantized semantics:
//! `predict_quantized(p)` must equal simulating `to_aig()` on `p` for every
//! pattern, dataset, and round count — including `n_rounds = 0` (the empty
//! forest compiles to the constant prior) and tree counts that are not
//! multiples of 5 (uneven final majority chunks).

use lsml_dtree::{GradientBoost, GradientBoostConfig};
use lsml_pla::{Dataset, Pattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_dataset(seed: u64, len: usize, arity: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(arity);
    for _ in 0..len {
        let p = Pattern::random(&mut rng, arity);
        let label = (p.get(0) && p.get(1)) ^ (rng.gen::<f64>() < 0.25);
        ds.push(p, label);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn quantized_predictor_matches_compiled_circuit(
        seed in any::<u64>(),
        len in 1usize..120,
        rounds_index in 0usize..4,
    ) {
        // 0 exercises the empty forest; 1 a lone tree; 17 a non-multiple
        // of 5, so the final majority layer gets uneven chunks.
        let rounds = [0usize, 1, 5, 17][rounds_index];
        let arity = 5;
        let ds = random_dataset(seed, len, arity);
        let cfg = GradientBoostConfig {
            n_rounds: rounds,
            max_depth: 3,
            min_child_weight: 0.05,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        prop_assert_eq!(gb.n_trees(), rounds);
        let aig = gb.to_aig();
        for m in 0..(1u64 << arity) {
            let p = Pattern::from_index(m, arity);
            let bits: Vec<bool> = p.iter().collect();
            prop_assert_eq!(
                aig.eval(&bits)[0],
                gb.predict_quantized(&p),
                "AIG and quantized predictor disagree at {:05b} (rounds = {})",
                m,
                rounds
            );
        }
    }
}
