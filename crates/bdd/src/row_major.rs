//! The row-major reference construction: one minterm BDD per row, OR-ed in
//! dataset order. Test-only: the columnar [`BddManager::from_dataset`] must
//! return the very same node refs. It uses only the crate's public API, so
//! the unit tests (`mod row_major` under `cfg(test)`) and
//! `tests/properties.rs` (through `#[path]`) compile the same file.

use super::{BddManager, BddRef};
use lsml_pla::Dataset;

/// Builds the (onset, care set) pair of `ds` row by row.
pub fn from_dataset_row_major(mgr: &mut BddManager, ds: &Dataset) -> (BddRef, BddRef) {
    let mut onset = mgr.constant(false);
    let mut care = onset;
    for (p, o) in ds.iter() {
        let m = mgr.minterm(p);
        care = mgr.or(care, m);
        if o {
            onset = mgr.or(onset, m);
        }
    }
    (onset, care)
}
