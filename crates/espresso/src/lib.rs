//! ESPRESSO-style heuristic two-level minimization.
//!
//! The contest's functions are *incompletely specified*: the care set is the
//! finite list of labelled training minterms and everything else is don't
//! care. This crate implements the classic EXPAND → IRREDUNDANT → REDUCE
//! loop of ESPRESSO (Brayton et al., 1984) specialized to that setting:
//!
//! * a cover is valid iff it contains every positive example and no negative
//!   example;
//! * EXPAND enlarges cubes literal-by-literal against the explicit offset;
//! * IRREDUNDANT drops cubes whose positive examples are covered elsewhere;
//! * REDUCE shrinks each cube to the supercube of the examples only it
//!   covers, giving EXPAND room to move in a different direction.
//!
//! Team 1 ran ESPRESSO "with an option to finish optimization after the
//! first irredundant operation" — exposed here as
//! [`EspressoConfig::first_irredundant`].
//!
//! # Examples
//!
//! ```
//! use lsml_espresso::{minimize_dataset, EspressoConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! // Noise-free samples of f = x0 (x1 irrelevant).
//! let mut ds = Dataset::new(2);
//! ds.push(Pattern::from_index(0b01, 2), true);
//! ds.push(Pattern::from_index(0b11, 2), true);
//! ds.push(Pattern::from_index(0b00, 2), false);
//!
//! let cover = minimize_dataset(&ds, &EspressoConfig::default());
//! assert_eq!(cover.len(), 1);           // one cube: x0
//! assert_eq!(cover[0].to_string(), "1-");
//! ```

mod minimize;
#[cfg(test)]
mod row_major;
mod synth;

pub use minimize::{minimize_cover, minimize_dataset, supercube, EspressoConfig};
pub use synth::cover_to_aig;
