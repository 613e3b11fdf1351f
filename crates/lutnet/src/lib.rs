//! LUT-network learning by memorization (Chatterjee, ICML 2018).
//!
//! A LUT network is a layered feed-forward network of `k`-input lookup
//! tables with *randomly chosen* connections. Training is pure
//! memorization — no gradients, no search: each LUT's truth table entry is
//! set to the majority label of the training examples that reach that entry.
//! Teams 1 and 6 used exactly this scheme, exploring the number of layers,
//! LUTs per layer, LUT fan-in (4 was Team 6's sweet spot) and the wiring
//! discipline between layers.
//!
//! The two wiring schemes of Team 6 are both implemented:
//! [`Wiring::Random`] draws each LUT input uniformly from the previous
//! layer, while [`Wiring::UniqueRandom`] deals every previous-layer output
//! once before any is duplicated.
//!
//! # Examples
//!
//! ```
//! use lsml_lutnet::{LutNetwork, LutNetConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let mut ds = Dataset::new(4);
//! for m in 0..16u64 {
//!     ds.push(Pattern::from_index(m, 4), (m & 3) == 3);
//! }
//! let net = LutNetwork::train(&ds, &LutNetConfig::default());
//! let acc = net.accuracy(&ds);
//! assert!(acc > 0.7, "memorization should beat chance, got {acc}");
//! ```

mod network;
mod search;

#[cfg(test)]
mod golden;

pub use network::{LutNetConfig, LutNetwork, Wiring};
pub use search::{beam_search, BeamSearchResult};
