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
//! # Lanes, live weights and bit-identity
//!
//! Each neuron keeps the ascending list of the inputs it still reads.
//! Pruning removes entries from these lists, and nothing else records it.
//!
//! Every kernel gives each SIMD lane one independent, in-order sum, so the
//! vector code computes exactly what a scalar loop would:
//!
//! * **Training** stores a layer's weights input-major, the neuron axis
//!   padded to blocks of eight lanes. The forward pass broadcasts each input
//!   in ascending order, multiplies it by the block of its weights and adds
//!   the products into one accumulator per neuron. Up to four blocks run side
//!   by side, so their add chains overlap instead of waiting on each other.
//!   The weight update is elementwise. The gradient at a hidden layer's
//!   inputs runs eight inputs as lanes and sums each in ascending neuron
//!   order.
//! * **Enumeration and prediction** run 64 table cells (or dataset patterns)
//!   as lanes through every layer, in two reused `[width][64]` buffers; one
//!   batch of cells is one word of the truth table.
//!
//! A pruned weight is a masked lane, and the mask is derived from the live
//! lists for each fit. Where a lane is masked, a select keeps the old sum or
//! weight. Whatever the stale weight holds (even a NaN) never reaches a
//! result, and retraining never changes it. In the input gradient, where
//! eight inputs share a lane group, a masked term is selected as -0.0, and
//! adding -0.0 leaves every sum bit-unchanged. Adding `0.0 * x` instead
//! would not be exact: it turns a -0.0 sum into +0.0, and it turns a NaN
//! weight into a NaN sum. Enumeration walks the live lists, so it never
//! reads a pruned weight.
//!
//! The kernels are fast without being approximate. Every neuron sums its
//! bias and then weight × input over its live inputs in ascending input
//! order. An input of 0.0 is still multiplied, not skipped: skipping would
//! keep a -0.0 sum that adding `w * 0.0` turns into +0.0. The code never
//! calls `mul_add` and never reorders a sum, so no ISA, FMA unit or vector
//! width changes a result. Weights, predictions and truth tables are
//! therefore bit-identical to the plain dense loops with a pruning mask.
//! Golden hashes in the crate's tests pin them, and CI checks them both with
//! the host's native code generation and with baseline x86-64.
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
