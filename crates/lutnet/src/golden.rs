//! Golden outputs of LUT-network training and the beam search.
//!
//! Each case trains at a fixed seed and hashes (FNV-1a) every LUT's sources
//! and truth table together with the network's accuracy on its training set
//! and on a held-out set. The datasets end in a partial word, and the empty
//! dataset is pinned too. The hashes were recorded on the pattern-by-pattern
//! column packing and per-example table lookups that preceded the
//! `BitColumns` path, which must reproduce them exactly.

use lsml_aig::fxhash::{fnv1a_mix, FNV_OFFSET};
use lsml_pla::{Dataset, Pattern};

use crate::network::{LutNetConfig, LutNetwork, Wiring};
use crate::search::beam_search;

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

/// Hash of every LUT's sources and table, then the accuracy on each of
/// `sets`.
fn digest(net: &LutNetwork, sets: &[&Dataset]) -> u64 {
    let mut h = fnv1a_mix(FNV_OFFSET, net.num_inputs() as u64);
    for layer in &net.layers {
        h = fnv1a_mix(h, layer.len() as u64);
        for lut in layer {
            for &s in &lut.sources {
                h = fnv1a_mix(h, u64::from(s));
            }
            for m in 0..1u32 << lut.table.num_vars() {
                h = fnv1a_mix(h, u64::from(lut.table.get(m)));
            }
        }
    }
    for ds in sets {
        h = fnv1a_mix(h, net.accuracy(ds).to_bits());
    }
    h
}

#[test]
fn training_on_a_partial_word() {
    let train = dataset(8, 100, 1);
    let valid = dataset(8, 70, 2);
    let cases = [
        (Wiring::Random, 4, 0x64b2_5966_2ddc_3066),
        (Wiring::Random, 6, 0x6444_b036_c053_7a3c),
        (Wiring::UniqueRandom, 4, 0x94c7_949d_38c3_e04a),
        (Wiring::UniqueRandom, 6, 0x1627_718a_52a9_f8a8),
    ];
    for (wiring, k, want) in cases {
        let cfg = LutNetConfig {
            lut_inputs: k,
            luts_per_layer: 12,
            layers: 2,
            wiring,
            seed: 3,
        };
        let net = LutNetwork::train(&train, &cfg);
        let got = digest(&net, &[&train, &valid]);
        assert_eq!(got, want, "{wiring:?} k={k}: hash {got:#018x}");
    }
}

#[test]
fn training_on_the_empty_dataset() {
    let empty = Dataset::new(5);
    let cases = [
        (Wiring::Random, 4, 0x5ffb_f2ba_73a4_27d4),
        (Wiring::Random, 6, 0x4b50_0ad5_f639_8214),
        (Wiring::UniqueRandom, 4, 0xed0d_44dc_783c_e5b0),
        (Wiring::UniqueRandom, 6, 0xf3a0_0177_e41c_b798),
    ];
    for (wiring, k, want) in cases {
        let cfg = LutNetConfig {
            lut_inputs: k,
            luts_per_layer: 6,
            wiring,
            seed: 9,
            ..LutNetConfig::default()
        };
        let net = LutNetwork::train(&empty, &cfg);
        let got = digest(&net, &[&empty]);
        assert_eq!(got, want, "{wiring:?} k={k}: hash {got:#018x}");
    }
}

#[test]
fn beam_search_result() {
    let train = dataset(9, 130, 4);
    let valid = dataset(9, 75, 5);
    let seed_cfg = LutNetConfig {
        lut_inputs: 3,
        luts_per_layer: 4,
        layers: 1,
        wiring: Wiring::Random,
        seed: 2,
    };
    let r = beam_search(&train, &valid, &seed_cfg, 4);
    let mut h = digest(&r.network, &[&train, &valid]);
    h = fnv1a_mix(h, r.config.lut_inputs as u64);
    h = fnv1a_mix(h, r.config.luts_per_layer as u64);
    h = fnv1a_mix(h, r.config.layers as u64);
    h = fnv1a_mix(h, u64::from(r.config.wiring == Wiring::UniqueRandom));
    h = fnv1a_mix(h, r.config.seed);
    h = fnv1a_mix(h, r.validation_accuracy.to_bits());
    h = fnv1a_mix(h, r.candidates_tried as u64);
    assert_eq!(h, 0xd1c2_a893_f2f6_c52d, "hash {h:#018x}");
}
