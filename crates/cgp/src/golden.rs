//! Golden outputs of the evolution strategy.
//!
//! Each case evolves at a fixed seed and hashes (FNV-1a) the winner's genes
//! and output connection together with the run's accuracy, generation count
//! and final mutation rate. The datasets end in a partial word, so a change
//! to column evaluation or scoring that lets dead tail bits count (an
//! inverter sets them) changes a hash. The hashes were recorded on the
//! pattern-by-pattern column packing and bit-by-bit scoring that preceded
//! the `BitColumns` path, which must reproduce them exactly.

use lsml_aig::fxhash::{fnv1a_mix, FNV_OFFSET};
use lsml_aig::Aig;
use lsml_pla::{Dataset, Pattern};

use crate::evolve::{evolve, evolve_bootstrapped, CgpConfig, CgpResult};
use crate::genome::NodeFn;

/// Seeded patterns labelled by a mix of XOR, AND and OR of the inputs.
fn dataset(nv: usize, len: usize, seed: u64) -> Dataset {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ds = Dataset::new(nv);
    for _ in 0..len {
        let bits: Vec<bool> = (0..nv).map(|_| next() & 1 == 1).collect();
        let label = (bits[0] ^ bits[nv - 1]) || (bits[1] && bits[nv / 2]);
        ds.push(Pattern::from_bools(&bits), label);
    }
    ds
}

/// Hash of the winner's genome and the run's summary numbers.
fn digest(r: &CgpResult) -> u64 {
    let g = &r.genome;
    let mut h = fnv1a_mix(FNV_OFFSET, g.num_inputs as u64);
    for gene in &g.genes {
        let func = match gene.func {
            NodeFn::And => 0,
            NodeFn::Xor => 1,
            NodeFn::Not => 2,
        };
        h = fnv1a_mix(h, func);
        h = fnv1a_mix(h, u64::from(gene.a));
        h = fnv1a_mix(h, u64::from(gene.b));
    }
    h = fnv1a_mix(h, u64::from(g.output));
    h = fnv1a_mix(h, r.train_accuracy.to_bits());
    h = fnv1a_mix(h, r.generations as u64);
    fnv1a_mix(h, r.final_mutation_rate.to_bits())
}

/// Whether the winner's phenotype contains an inverter, i.e. some evaluated
/// column has its dead tail bits set.
fn has_active_inverter(r: &CgpResult) -> bool {
    let g = &r.genome;
    let active = g.active_mask();
    g.genes
        .iter()
        .zip(&active)
        .any(|(gene, &a)| a && gene.func == NodeFn::Not)
}

#[test]
fn xaig_evolution_on_a_partial_word() {
    let ds = dataset(7, 100, 1);
    let cfg = CgpConfig {
        n_nodes: 60,
        generations: 300,
        use_xor: true,
        seed: 11,
        ..CgpConfig::default()
    };
    let r = evolve(&ds, &cfg);
    assert!(
        has_active_inverter(&r),
        "the case must exercise dead tail bits"
    );
    assert_eq!(
        digest(&r),
        0x7d0b_4981_3d74_6832,
        "hash {:#018x}",
        digest(&r)
    );
}

#[test]
fn minibatch_evolution_with_short_refresh() {
    let ds = dataset(6, 150, 2);
    let cfg = CgpConfig {
        n_nodes: 40,
        generations: 250,
        batch_size: Some(37),
        batch_refresh: 20,
        seed: 5,
        ..CgpConfig::default()
    };
    let r = evolve(&ds, &cfg);
    assert_eq!(
        digest(&r),
        0xc45c_03d2_aac6_238c,
        "hash {:#018x}",
        digest(&r)
    );
}

#[test]
fn bootstrapped_evolution() {
    let ds = dataset(6, 90, 3);
    // Seed: x0 XOR x5, missing the AND term of the label.
    let mut seed = Aig::new(6);
    let (a, b) = (seed.input(0), seed.input(5));
    let f = seed.xor(a, b);
    seed.add_output(f);
    let cfg = CgpConfig {
        generations: 200,
        seed: 7,
        ..CgpConfig::default()
    };
    let r = evolve_bootstrapped(&ds, &seed, &cfg);
    assert!(
        has_active_inverter(&r),
        "the case must exercise dead tail bits"
    );
    assert_eq!(
        digest(&r),
        0xb9df_6b41_95cd_5aaf,
        "hash {:#018x}",
        digest(&r)
    );
}
