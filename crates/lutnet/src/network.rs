//! The LUT network itself.

use lsml_aig::circuits::truth_table_cone;
use lsml_aig::{Aig, Lit};
use lsml_pla::{BitColumns, Dataset, Pattern, TruthTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Connection discipline between consecutive layers (Team 6's two schemes).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Wiring {
    /// Every LUT input is drawn uniformly at random from the previous layer.
    #[default]
    Random,
    /// Every output of the previous layer is used once before any output is
    /// connected twice ("unique but random set of inputs").
    UniqueRandom,
}

/// LUT-network shape and wiring configuration.
#[derive(Clone, Debug)]
pub struct LutNetConfig {
    /// LUT fan-in `k`. Team 6 found 4 to give the best average accuracy.
    pub lut_inputs: usize,
    /// LUTs per hidden layer.
    pub luts_per_layer: usize,
    /// Number of hidden layers (a final single-LUT output layer is always
    /// appended).
    pub layers: usize,
    /// Wiring discipline.
    pub wiring: Wiring,
    /// RNG seed for the wiring.
    pub seed: u64,
}

impl Default for LutNetConfig {
    fn default() -> Self {
        LutNetConfig {
            lut_inputs: 4,
            luts_per_layer: 32,
            layers: 2,
            wiring: Wiring::UniqueRandom,
            seed: 0,
        }
    }
}

/// One lookup table: `k` source indices into the previous layer plus its
/// (trained) truth table.
#[derive(Clone, Debug)]
pub(crate) struct Lut {
    pub(crate) sources: Vec<u32>,
    pub(crate) table: TruthTable,
}

/// A trained LUT network.
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct LutNetwork {
    num_inputs: usize,
    /// Hidden layers followed by a single-LUT output layer.
    pub(crate) layers: Vec<Vec<Lut>>,
}

impl LutNetwork {
    /// Builds the random wiring and memorizes the training set layer by
    /// layer: each truth-table entry becomes the majority label of the
    /// examples reaching it (empty entries fall back to the layer-input
    /// majority label).
    pub fn train(ds: &Dataset, cfg: &LutNetConfig) -> Self {
        assert!(cfg.lut_inputs >= 1, "LUTs need at least one input");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cols = ds.bit_columns();
        let global_majority = ds.majority();

        // Packed signal columns of the current layer (initially inputs).
        let mut signals = input_signals(&cols);
        let mut masks = Vec::new();
        let mut layers = Vec::with_capacity(cfg.layers + 1);
        for layer_idx in 0..=cfg.layers {
            let is_output = layer_idx == cfg.layers;
            let width = if is_output { 1 } else { cfg.luts_per_layer };
            let n_sources = signals.len() / cols.words_per_column();
            let mut dealer = Dealer::new(n_sources, cfg.wiring, &mut rng);
            let mut next_signals = Vec::new();
            let layer = (0..width)
                .map(|_| {
                    let sources: Vec<u32> =
                        (0..cfg.lut_inputs).map(|_| dealer.deal(&mut rng)).collect();
                    entry_masks(&sources, &signals, &cols, &mut masks);
                    let table = memorize(&masks, cols.labels(), global_majority);
                    push_column(&table, &masks, &mut next_signals);
                    Lut { sources, table }
                })
                .collect();
            signals = next_signals;
            layers.push(layer);
        }
        LutNetwork {
            num_inputs: ds.num_inputs(),
            layers,
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Total number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Number of layers including the output layer.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Predicts one pattern by forward evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the pattern arity differs from the training inputs.
    pub fn predict(&self, p: &Pattern) -> bool {
        assert_eq!(p.len(), self.num_inputs, "pattern arity mismatch");
        let mut values: Vec<bool> = p.iter().collect();
        for layer in &self.layers {
            values = layer
                .iter()
                .map(|lut| {
                    let mut idx = 0u32;
                    for (b, &s) in lut.sources.iter().enumerate() {
                        if values[s as usize] {
                            idx |= 1 << b;
                        }
                    }
                    lut.table.get(idx)
                })
                .collect();
        }
        values[0]
    }

    /// Accuracy over a dataset of the training arity, by one forward pass
    /// over its packed [`Dataset::bit_columns`].
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        assert_eq!(ds.num_inputs(), self.num_inputs, "dataset arity mismatch");
        let cols = ds.bit_columns();
        let mut signals = input_signals(&cols);
        let mut masks = Vec::new();
        for layer in &self.layers {
            let mut next_signals = Vec::new();
            for lut in layer {
                entry_masks(&lut.sources, &signals, &cols, &mut masks);
                push_column(&lut.table, &masks, &mut next_signals);
            }
            signals = next_signals;
        }
        cols.accuracy_of_packed(&signals[..cols.words_per_column()])
    }

    /// Compiles the network to an AIG: every LUT becomes a Shannon-expanded
    /// mux cone over its source literals.
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new(self.num_inputs);
        let mut lits: Vec<Lit> = aig.inputs();
        for layer in &self.layers {
            lits = layer
                .iter()
                .map(|lut| {
                    let srcs: Vec<Lit> = lut.sources.iter().map(|&s| lits[s as usize]).collect();
                    truth_table_cone(&mut aig, &lut.table, &srcs)
                })
                .collect();
        }
        aig.add_output(lits[0]);
        aig.cleanup();
        aig
    }
}

/// The input columns of `cols`, concatenated: the signals of the first layer.
fn input_signals(cols: &BitColumns) -> Vec<u64> {
    (0..cols.num_inputs())
        .flat_map(|f| cols.column(f))
        .copied()
        .collect()
}

/// Builds a LUT's `2^k` entry masks into `masks` by splitting: starting from
/// the full mask, source `b` (a column of `signals`) splits every mask `m`
/// into `m & !s_b` (entry `m`) and `m & s_b` (entry `m | 1 << b`). Entry `m`
/// then selects the examples whose source bits spell `m`, as
/// [`LutNetwork::predict`] indexes the table.
fn entry_masks(sources: &[u32], signals: &[u64], cols: &BitColumns, masks: &mut Vec<u64>) {
    let words = cols.words_per_column();
    cols.full_mask_into(masks);
    for (b, &s) in sources.iter().enumerate() {
        let col = &signals[s as usize * words..][..words];
        let half = words << b;
        masks.resize(2 * half, 0);
        let (lo, hi) = masks.split_at_mut(half);
        for (lo, hi) in lo.chunks_exact_mut(words).zip(hi.chunks_exact_mut(words)) {
            for ((l, h), c) in lo.iter_mut().zip(hi).zip(col) {
                *h = *l & c;
                *l &= !c;
            }
        }
    }
}

/// Appends a LUT's output column to `out`: the OR of the entry masks whose
/// table bit is set.
fn push_column(table: &TruthTable, masks: &[u64], out: &mut Vec<u64>) {
    let words = masks.len() / table.num_entries();
    let start = out.len();
    out.resize(start + words, 0);
    for (m, mask) in masks.chunks_exact(words).enumerate() {
        if table.get(m as u32) {
            out[start..].iter_mut().zip(mask).for_each(|(o, x)| *o |= x);
        }
    }
}

/// Memorizes one LUT's table from its entry masks: each entry takes the
/// majority label of the examples it selects; ties and unseen entries
/// (don't-cares) take `fallback`.
fn memorize(masks: &[u64], labels: &[u64], fallback: bool) -> TruthTable {
    let words = labels.len();
    let k = (masks.len() / words).trailing_zeros() as usize;
    TruthTable::from_fn(k, |m| {
        let mask = &masks[m as usize * words..][..words];
        let pos = BitColumns::count_and(mask, labels);
        let seen = BitColumns::count_ones(mask);
        2 * pos > seen || (2 * pos == seen && fallback)
    })
}

/// Deals source indices according to the wiring discipline.
struct Dealer {
    pool: Vec<u32>,
    at: usize,
    wiring: Wiring,
}

impl Dealer {
    fn new(n_sources: usize, wiring: Wiring, rng: &mut StdRng) -> Self {
        assert!(n_sources > 0, "a layer needs at least one source signal");
        let mut pool: Vec<u32> = (0..n_sources as u32).collect();
        pool.shuffle(rng);
        Dealer {
            pool,
            at: 0,
            wiring,
        }
    }

    fn deal(&mut self, rng: &mut StdRng) -> u32 {
        match self.wiring {
            Wiring::Random => self.pool[rng.gen_range(0..self.pool.len())],
            Wiring::UniqueRandom => {
                if self.at == self.pool.len() {
                    self.pool.shuffle(rng);
                    self.at = 0;
                }
                let v = self.pool[self.at];
                self.at += 1;
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn memorizes_simple_function_well() {
        let ds = full_dataset(|m| m & 1 == 1, 5);
        let net = LutNetwork::train(&ds, &LutNetConfig::default());
        assert!(net.accuracy(&ds) > 0.9, "acc {}", net.accuracy(&ds));
    }

    #[test]
    fn aig_matches_network_predictions() {
        let ds = full_dataset(|m| (m * 3) % 7 < 3, 5);
        let cfg = LutNetConfig {
            luts_per_layer: 8,
            ..LutNetConfig::default()
        };
        let net = LutNetwork::train(&ds, &cfg);
        let aig = net.to_aig();
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], net.predict(&p), "mismatch at {m:05b}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = full_dataset(|m| m % 3 == 0, 6);
        let cfg = LutNetConfig {
            seed: 5,
            ..LutNetConfig::default()
        };
        let a = LutNetwork::train(&ds, &cfg);
        let b = LutNetwork::train(&ds, &cfg);
        for m in 0..64u64 {
            let p = Pattern::from_index(m, 6);
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn unique_wiring_covers_all_sources_before_reuse() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dealer = Dealer::new(6, Wiring::UniqueRandom, &mut rng);
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(dealer.deal(&mut rng));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn layer_and_lut_counts() {
        let ds = full_dataset(|m| m > 10, 4);
        let cfg = LutNetConfig {
            layers: 3,
            luts_per_layer: 7,
            ..LutNetConfig::default()
        };
        let net = LutNetwork::train(&ds, &cfg);
        assert_eq!(net.layer_count(), 4); // 3 hidden + output
        assert_eq!(net.lut_count(), 3 * 7 + 1);
    }

    #[test]
    fn columnar_accuracy_matches_predict_across_word_boundaries() {
        let train = full_dataset(|m| (m * 5) % 11 < 5, 7);
        for k in [1, 6] {
            let cfg = LutNetConfig {
                lut_inputs: k,
                luts_per_layer: 9,
                ..LutNetConfig::default()
            };
            let net = LutNetwork::train(&train, &cfg);
            for n in [1u64, 63, 64, 65, 130] {
                let mut ds = Dataset::new(7);
                for m in 0..n {
                    ds.push(Pattern::from_index(m * 53 % 128, 7), m % 3 != 0);
                }
                let want = ds.accuracy_of(|p| net.predict(p));
                assert_eq!(net.accuracy(&ds), want, "k={k}, n={n}");
            }
        }
    }

    #[test]
    fn handles_empty_dataset() {
        let ds = Dataset::new(3);
        let net = LutNetwork::train(&ds, &LutNetConfig::default());
        // All entries fall back to the (false) majority.
        assert!(!net.predict(&Pattern::from_index(5, 3)));
    }
}
