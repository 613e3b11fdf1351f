//! An independent reference for output checks: a plain node-by-node AIG
//! interpreter that shares no code with the library's bit-parallel
//! simulator, and the accuracy it implies.

use lsml_aig::{Aig, Lit};
use lsml_pla::Dataset;

/// Evaluates the single output of `aig` on one input assignment.
fn eval(aig: &Aig, bits: impl Fn(usize) -> bool) -> bool {
    let mut value = vec![false; aig.num_nodes()];
    for n in 1..aig.num_nodes() as u32 {
        value[n as usize] = if aig.is_input(n) {
            bits(n as usize - 1)
        } else {
            let (a, b) = aig.fanins(n);
            lit(&value, a) && lit(&value, b)
        };
    }
    lit(&value, aig.outputs()[0])
}

fn lit(value: &[bool], l: Lit) -> bool {
    value[l.node() as usize] ^ l.is_complemented()
}

/// Share of `ds` on which the circuit's output equals the label, computed as
/// the library computes it (correct count over example count), so the two
/// must agree bit for bit.
pub fn accuracy(aig: &Aig, ds: &Dataset) -> f64 {
    if ds.is_empty() {
        return 1.0;
    }
    let correct = ds
        .iter()
        .filter(|(p, label)| eval(aig, |i| p.get(i)) == *label)
        .count();
    correct as f64 / ds.len() as f64
}
