//! Cartesian Genetic Programming for Boolean circuit learning (Team 9).
//!
//! Team 9's "Bootstrapped CGP" flow evolves a single-row grid of
//! AND/XOR/INV nodes with a (1+4) evolution strategy, self-adjusting the
//! mutation rate with the 1/5-th success rule, preferring phenotypically
//! larger individuals on fitness ties (Milano & Nolfi), and optionally
//! seeding the population with an AIG produced by another method (decision
//! trees or ESPRESSO) — in which case the genome is sized at *twice* the
//! seed AIG, leaving non-functional genes as mutation headroom.
//!
//! # Examples
//!
//! ```
//! use lsml_cgp::{evolve, CgpConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let mut ds = Dataset::new(2);
//! for m in 0..4u64 {
//!     ds.push(Pattern::from_index(m, 2), (m ^ (m >> 1)) & 1 == 1); // XOR
//! }
//! let cfg = CgpConfig { generations: 300, n_nodes: 12, ..CgpConfig::default() };
//! let result = evolve(&ds, &cfg);
//! assert!(result.train_accuracy > 0.99);
//! ```

mod evolve;
mod genome;

#[cfg(test)]
mod golden;

pub use evolve::{evolve, evolve_bootstrapped, CgpConfig, CgpResult};
pub use genome::{Genome, NodeFn};
