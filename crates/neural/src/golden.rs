//! Golden outputs of training, pruning and enumeration.
//!
//! Each case trains a network at a fixed seed and hashes (FNV-1a) the bits of
//! its live weights and biases together with its `predict_quantized` and
//! `to_truth_table` outputs; the newer cases also hash the exact output
//! probabilities. Each hash was recorded on the kernels that preceded the
//! rewrite it guards, and any rewrite must reproduce them exactly, which pins
//! both the float summation order and the set of weights that training
//! touches.

use lsml_pla::{Dataset, Pattern};

use crate::mlp::{Activation, Mlp, MlpConfig};
use crate::synth::prune_to_fanin;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Seeded patterns with a label mixing a majority (of the first five inputs,
/// or all of them when fewer), an XOR and an AND, so that every case trains
/// to non-trivial weights.
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
        let voters = nv.min(5);
        let majority = bits[..voters].iter().filter(|&&b| b).count() * 2 > voters;
        let label = (majority ^ bits[nv - 1]) || (bits[2] && bits[nv / 2]);
        ds.push(Pattern::from_bools(&bits), label);
    }
    ds
}

/// Hash of the network (live weights and biases), its input importance, and
/// its outputs on the dataset's patterns and, when it fits, on every input
/// vertex.
fn digest(mlp: &Mlp, ds: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for layer in &mlp.layers {
        h.word(layer.n_in as u64);
        h.word(layer.n_out as u64);
        for o in 0..layer.n_out {
            h.word(layer.fanin(o) as u64);
            h.word(u64::from(layer.bias(o).to_bits()));
            for i in 0..layer.n_in {
                // Dead weights read as 0.0, whatever their stale value.
                h.word(u64::from(layer.live_weight(o, i).to_bits()));
            }
        }
    }
    for v in mlp.input_importance() {
        h.word(v.to_bits());
    }
    for p in ds.patterns() {
        h.word(u64::from(mlp.predict_quantized(p)));
    }
    match mlp.to_truth_table() {
        Some(table) => {
            for m in 0..1u32 << table.num_vars() {
                h.word(u64::from(table.get(m)));
            }
        }
        None => h.word(u64::MAX),
    }
    h.0
}

/// Hash of the exact output probabilities on the dataset's patterns, which
/// pins the float forward pass beyond the 0.5 threshold.
fn probabilities(mlp: &Mlp, ds: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for p in ds.patterns() {
        h.word(u64::from(mlp.predict_proba(p).to_bits()));
    }
    h.0
}

fn cfg(hidden: &[usize], activation: Activation, epochs: usize, seed: u64) -> MlpConfig {
    MlpConfig {
        hidden: hidden.to_vec(),
        activation,
        epochs,
        seed,
        ..MlpConfig::default()
    }
}

#[test]
fn golden_sigmoid_24_12() {
    let ds = dataset(12, 300, 1);
    let mlp = Mlp::train(&ds, &cfg(&[24, 12], Activation::Sigmoid, 30, 11));
    assert_eq!(digest(&mlp, &ds), 0xe4df0a48a9f8cd1a);
}

#[test]
fn golden_relu_8() {
    let ds = dataset(10, 300, 2);
    let mlp = Mlp::train(&ds, &cfg(&[8], Activation::Relu, 40, 12));
    assert_eq!(digest(&mlp, &ds), 0x039810897a3b9d0a);
}

#[test]
fn golden_sine_16_8() {
    let ds = dataset(8, 200, 3);
    let mut c = cfg(&[16, 8], Activation::Sine, 40, 13);
    c.learning_rate = 0.2;
    let mlp = Mlp::train(&ds, &c);
    assert_eq!(digest(&mlp, &ds), 0xa629ecc9f46b8e8e);
}

#[test]
fn golden_pruned_64_inputs() {
    let ds = dataset(64, 256, 4);
    let c = cfg(&[24, 12], Activation::Sigmoid, 20, 14);
    let mut mlp = Mlp::train(&ds, &c);
    let rounds = prune_to_fanin(&mut mlp, &ds, &c, 8);
    assert!(rounds > 0 && mlp.max_fanin() <= 8);
    assert_eq!(digest(&mlp, &ds), 0x2115dca5bf7f98af);
}

#[test]
fn golden_pruned_12_inputs() {
    // Small enough to enumerate: pins to_truth_table on partially live rows.
    let ds = dataset(12, 300, 5);
    let c = cfg(&[8, 4], Activation::Sigmoid, 30, 15);
    let mut mlp = Mlp::train(&ds, &c);
    prune_to_fanin(&mut mlp, &ds, &c, 5);
    assert!(mlp.max_fanin() <= 5);
    assert_eq!(digest(&mlp, &ds), 0x1ea866bc3a79489b);
}

#[test]
fn golden_team4_shape() {
    // Team 4's approximator: sigmoid [32,16] on 14 selected inputs, then the
    // full 2^14-cell table.
    let ds = dataset(14, 533, 6);
    let mlp = Mlp::train(&ds, &cfg(&[32, 16], Activation::Sigmoid, 40, 16));
    assert_eq!(
        (digest(&mlp, &ds), probabilities(&mlp, &ds)),
        (0xec31d368e0b7bfa8, 0x55ff0c44a7095200)
    );
}

#[test]
fn golden_three_inputs() {
    // A table shorter than one batch of cells and widths that are not
    // multiples of a lane block.
    let ds = dataset(3, 64, 7);
    let mut c = cfg(&[5, 3], Activation::Sigmoid, 80, 17);
    c.batch_size = 8;
    let mlp = Mlp::train(&ds, &c);
    assert_eq!(
        (digest(&mlp, &ds), probabilities(&mlp, &ds)),
        (0x17925c514a51f7d3, 0x91e73ae1e3e4b6ae)
    );
}

#[test]
fn golden_pruned_relu_12_6() {
    // ReLU puts zero activations into the next layer and negative sums
    // through the pruned (masked) weights.
    let ds = dataset(10, 300, 8);
    let c = cfg(&[12, 6], Activation::Relu, 30, 18);
    let mut mlp = Mlp::train(&ds, &c);
    prune_to_fanin(&mut mlp, &ds, &c, 4);
    assert!(mlp.max_fanin() <= 4);
    assert_eq!(
        (digest(&mlp, &ds), probabilities(&mlp, &ds)),
        (0xbded45ec56dbe155, 0x860a7a62ab600939)
    );
}

#[test]
fn golden_pruned_sine() {
    let ds = dataset(9, 300, 9);
    let mut c = cfg(&[10, 5], Activation::Sine, 30, 19);
    c.learning_rate = 0.2;
    let mut mlp = Mlp::train(&ds, &c);
    prune_to_fanin(&mut mlp, &ds, &c, 3);
    assert!(mlp.max_fanin() <= 3);
    assert_eq!(
        (digest(&mlp, &ds), probabilities(&mlp, &ds)),
        (0x8bfe410997d5557e, 0x86a2b2cc75e56302)
    );
}
