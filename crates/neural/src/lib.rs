//! Small multi-layer perceptrons with logic synthesis.
//!
//! Several teams trained MLPs and then had to turn floating-point networks
//! into AIGs under the 5000-node budget. This crate reproduces that tool
//! chain:
//!
//! * [`Mlp`] — dense feed-forward networks with sigmoid, ReLU or **sine**
//!   activations (Team 8's periodic activation for parity-like functions),
//!   trained by minibatch SGD on the logistic loss.
//! * [`prune_to_fanin`] — Team 3's magnitude-based connection pruning with
//!   retraining, iterated until every neuron has at most `max_fanin` live
//!   inputs (they used 12).
//! * [`Mlp::to_aig_quantized`] — neuron-to-LUT synthesis: each neuron's
//!   activation is rounded to a bit and enumerated into a truth table over
//!   its live binary inputs (Chatterjee's LUT conversion as used by Team 3).
//! * [`Mlp::to_truth_table`] — full input enumeration for small networks
//!   (Team 8's approach for benchmarks with under ~20 inputs).
//! * [`Mlp::input_importance`] — first-layer weight magnitudes, Team 5's
//!   NN-guided feature selection.
//!
//! # Live weights and bit-identity
//!
//! Each neuron keeps the ascending list of the inputs it still reads.
//! Pruning removes entries from these lists, and nothing else records it.
//! Training, prediction, enumeration and synthesis read only listed weights,
//! so a pruned weight is never read or written again (retraining leaves it
//! bit-unchanged) and a pruned neuron costs time in proportion to its live
//! fanin, not to its layer width.
//!
//! The kernels are fast without being approximate. Every neuron sums its
//! bias and then weight × input over its live inputs in ascending input
//! order, and an input of 0.0 is still multiplied, not skipped: skipping
//! would keep a -0.0 sum that adding `w * 0.0` turns into +0.0, and a branch
//! on random 0/1 inputs mispredicts. Weights, predictions and truth tables
//! are therefore bit-identical to the plain dense loops with a pruning mask,
//! and golden hashes in the crate's tests pin them.
//!
//! # Examples
//!
//! ```
//! use lsml_neural::{Mlp, MlpConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let mut ds = Dataset::new(2);
//! for m in 0..4u64 {
//!     ds.push(Pattern::from_index(m, 2), m == 0b11); // AND
//! }
//! let cfg = MlpConfig { hidden: vec![4], epochs: 400, ..MlpConfig::default() };
//! let mlp = Mlp::train(&ds, &cfg);
//! assert!(mlp.accuracy(&ds) > 0.99);
//! ```

mod mlp;
mod synth;

#[cfg(test)]
mod golden;

pub use mlp::{Activation, Mlp, MlpConfig};
pub use synth::prune_to_fanin;
