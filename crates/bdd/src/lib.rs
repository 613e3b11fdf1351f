//! Reduced ordered binary decision diagrams with don't-care minimization.
//!
//! Team 1's post-contest exploration (paper appendix, §I.D.2) learns
//! incompletely specified functions by building the BDD of the training
//! onset and *minimizing it against the care set*: a BDD node whose one
//! branch is entirely don't-care collapses into the other (one-sided
//! matching / sibling substitution, the classic `restrict` operator), two
//! children that agree on the common care set merge (two-sided matching),
//! and children that are complements on the common care set turn the node
//! into an XOR (complemented two-sided matching). They report 98% accuracy
//! on adder MSBs when the variable order interleaves the operands from the
//! MSB down — an experiment reproduced in this workspace's benchmark
//! harness.
//!
//! # Examples
//!
//! ```
//! use lsml_bdd::{BddManager, MinimizeStyle};
//! use lsml_pla::{Dataset, Pattern};
//!
//! // Care set: four minterms of f = x1 over 3 variables.
//! let mut ds = Dataset::new(3);
//! ds.push(Pattern::from_index(0b010, 3), true);
//! ds.push(Pattern::from_index(0b111, 3), true);
//! ds.push(Pattern::from_index(0b000, 3), false);
//! ds.push(Pattern::from_index(0b101, 3), false);
//!
//! let mut mgr = BddManager::new(3);
//! let (onset, care) = mgr.from_dataset(&ds);
//! let f = mgr.minimize(onset, care, MinimizeStyle::OneSided);
//! // The minimized BDD generalizes to the whole space: f = x1.
//! assert!(mgr.eval(f, &Pattern::from_index(0b011, 3)));
//! assert!(!mgr.eval(f, &Pattern::from_index(0b100, 3)));
//! ```

mod manager;
#[cfg(test)]
mod row_major;

pub use manager::{BddManager, BddRef, MinimizeStyle};
