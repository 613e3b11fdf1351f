//! Word-parallel AIG simulation (64 patterns per machine word).
//!
//! Two families of entry points:
//!
//! * pattern-fed ([`eval_patterns`], [`eval_patterns_multi`],
//!   [`pattern_one_counts`]) — transpose a row-major `&[Pattern]` batch into
//!   simulation words on the fly;
//! * column-fed ([`eval_columns`], [`accuracy_columns`]) — consume a
//!   [`BitColumns`] view whose word layout *is* the stimulus format (bit
//!   `k % 64` of word `k / 64` = example `k`), so evaluation involves no
//!   per-call transposition at all. Datasets cache that view
//!   (`Dataset::bit_columns`), making repeated candidate scoring against the
//!   same split almost pure popcount work.

use lsml_pla::{kernels, BitColumns, Pattern};
use rand::Rng;

use crate::aig::Aig;

/// Simulates the AIG on up to 64 patterns at once. `input_words[i]` packs the
/// value of primary input `i` across the patterns (bit `k` = pattern `k`).
/// Returns one packed word per output.
///
/// # Panics
///
/// Panics if `input_words.len() != aig.num_inputs()`.
pub fn simulate_words(aig: &Aig, input_words: &[u64]) -> Vec<u64> {
    let values = node_values_words(aig, input_words);
    aig.outputs()
        .iter()
        .map(|o| {
            let v = values[o.node() as usize];
            if o.is_complemented() {
                !v
            } else {
                v
            }
        })
        .collect()
}

/// Simulates and returns the packed value word of *every node* (indexed by
/// node id), used by passes that inspect internal signal statistics.
///
/// # Panics
///
/// Panics if `input_words.len() != aig.num_inputs()`.
pub fn node_values_words(aig: &Aig, input_words: &[u64]) -> Vec<u64> {
    assert_eq!(
        input_words.len(),
        aig.num_inputs(),
        "input word count mismatch"
    );
    let mut values = vec![0u64; aig.num_nodes()];
    for (i, &w) in input_words.iter().enumerate() {
        values[i + 1] = w;
    }
    for n in (aig.num_inputs() + 1)..aig.num_nodes() {
        let (f0, f1) = aig.fanins(n as u32);
        let v0 = values[f0.node() as usize] ^ if f0.is_complemented() { u64::MAX } else { 0 };
        let v1 = values[f1.node() as usize] ^ if f1.is_complemented() { u64::MAX } else { 0 };
        values[n] = v0 & v1;
    }
    values
}

/// Evaluates an AIG (any output count) on a batch of patterns, 64 at a
/// time. Returns one prediction vector per output, each with one entry per
/// pattern.
///
/// # Panics
///
/// Panics if a pattern's arity differs from the AIG's input count.
pub fn eval_patterns_multi(aig: &Aig, patterns: &[Pattern]) -> Vec<Vec<bool>> {
    let num_outputs = aig.outputs().len();
    let mut out = vec![Vec::with_capacity(patterns.len()); num_outputs];
    let mut input_words = vec![0u64; aig.num_inputs()];
    for chunk in patterns.chunks(64) {
        for w in input_words.iter_mut() {
            *w = 0;
        }
        for (k, p) in chunk.iter().enumerate() {
            assert_eq!(p.len(), aig.num_inputs(), "pattern arity mismatch");
            for (i, word) in input_words.iter_mut().enumerate() {
                if p.get(i) {
                    *word |= 1u64 << k;
                }
            }
        }
        let res = simulate_words(aig, &input_words);
        for (o, word) in res.iter().enumerate() {
            for k in 0..chunk.len() {
                out[o].push((word >> k) & 1 == 1);
            }
        }
    }
    out
}

/// Single-output convenience wrapper over [`eval_patterns_multi`]: returns
/// one prediction per pattern.
///
/// # Panics
///
/// Panics if the AIG does not have exactly one output or a pattern's arity
/// differs from the AIG's input count.
pub fn eval_patterns(aig: &Aig, patterns: &[Pattern]) -> Vec<bool> {
    assert_eq!(aig.outputs().len(), 1, "eval_patterns needs 1 output");
    eval_patterns_multi(aig, patterns)
        .pop()
        .expect("one output")
}

/// Evaluates an AIG against a cached column view, with no per-call
/// transposition: word `w` of input column `i` is already the stimulus word
/// for examples `64w..64w+63`. Returns one packed prediction column per
/// output (same layout as [`BitColumns`]; tail bits cleared).
///
/// # Panics
///
/// Panics if the column view's input count differs from the AIG's.
pub fn eval_columns(aig: &Aig, cols: &BitColumns) -> Vec<Vec<u64>> {
    assert_eq!(
        cols.num_inputs(),
        aig.num_inputs(),
        "column/input count mismatch"
    );
    let stride = cols.words_per_column();
    let num_outputs = aig.outputs().len();
    let mut out = vec![vec![0u64; stride]; num_outputs];
    if cols.num_examples() == 0 {
        return out;
    }
    let mut input_words = vec![0u64; aig.num_inputs()];
    #[allow(clippy::needless_range_loop)] // `w` indexes every column in lockstep
    for w in 0..stride {
        for (i, word) in input_words.iter_mut().enumerate() {
            *word = cols.column(i)[w];
        }
        let mask = if w + 1 == stride {
            cols.tail_mask()
        } else {
            u64::MAX
        };
        let res = simulate_words(aig, &input_words);
        for (o, &word) in res.iter().enumerate() {
            out[o][w] = word & mask;
        }
    }
    out
}

/// Accuracy of a single-output AIG against a column view's labels (fraction
/// of examples predicted correctly; 1.0 on an empty view).
///
/// # Panics
///
/// Panics if the AIG does not have exactly one output or the column view's
/// input count differs from the AIG's.
pub fn accuracy_columns(aig: &Aig, cols: &BitColumns) -> f64 {
    assert_eq!(aig.outputs().len(), 1, "accuracy_columns needs 1 output");
    let preds = eval_columns(aig, cols).pop().expect("one output");
    cols.accuracy_of_packed(&preds)
}

/// Accuracy of arbitrary output cones of one shared graph against a column
/// view's labels: the graph is simulated **once** per stimulus word and every
/// cone's packed prediction column is scored by popcount. This is the batched
/// candidate scorer — for a single-output AIG whose output equals `cones[c]`,
/// entry `c` is exactly [`accuracy_columns`] of that AIG (same packed words,
/// same division), so selection decisions made on shared-graph scores match
/// per-candidate scoring bit for bit.
///
/// # Panics
///
/// Panics if the column view's input count differs from the AIG's.
pub fn cone_accuracies(aig: &Aig, cones: &[crate::lit::Lit], cols: &BitColumns) -> Vec<f64> {
    assert_eq!(
        cols.num_inputs(),
        aig.num_inputs(),
        "column/input count mismatch"
    );
    let stride = cols.words_per_column();
    let mut preds = vec![vec![0u64; stride]; cones.len()];
    if cols.num_examples() > 0 {
        let mut input_words = vec![0u64; aig.num_inputs()];
        #[allow(clippy::needless_range_loop)] // `w` indexes every column in lockstep
        for w in 0..stride {
            for (i, word) in input_words.iter_mut().enumerate() {
                *word = cols.column(i)[w];
            }
            let mask = if w + 1 == stride {
                cols.tail_mask()
            } else {
                u64::MAX
            };
            let values = node_values_words(aig, &input_words);
            for (c, lit) in cones.iter().enumerate() {
                let v =
                    values[lit.node() as usize] ^ if lit.is_complemented() { u64::MAX } else { 0 };
                preds[c][w] = v & mask;
            }
        }
    }
    preds.iter().map(|p| cols.accuracy_of_packed(p)).collect()
}

/// Counts, for every node, how many of the given patterns drive it to one.
/// Returns `(counts, total_patterns)`.
///
/// # Panics
///
/// Panics if a pattern's arity differs from the AIG's input count.
pub fn pattern_one_counts(aig: &Aig, patterns: &[Pattern]) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; aig.num_nodes()];
    let mut input_words = vec![0u64; aig.num_inputs()];
    for chunk in patterns.chunks(64) {
        for w in input_words.iter_mut() {
            *w = 0;
        }
        for (k, p) in chunk.iter().enumerate() {
            assert_eq!(p.len(), aig.num_inputs(), "pattern arity mismatch");
            for (i, word) in input_words.iter_mut().enumerate() {
                if p.get(i) {
                    *word |= 1u64 << k;
                }
            }
        }
        let mask = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let values = node_values_words(aig, &input_words);
        kernels::accumulate_and_counts(&values, mask, &mut counts);
    }
    (counts, patterns.len() as u64)
}

/// Counts, for every node, how many of `rounds * 64` random patterns drive it
/// to one. Returns `(counts, total_patterns)`.
pub fn random_one_counts<R: Rng + ?Sized>(
    aig: &Aig,
    rounds: usize,
    rng: &mut R,
) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; aig.num_nodes()];
    let mut input_words = vec![0u64; aig.num_inputs()];
    for _ in 0..rounds {
        for w in input_words.iter_mut() {
            *w = rng.gen();
        }
        let values = node_values_words(aig, &input_words);
        kernels::accumulate_and_counts(&values, u64::MAX, &mut counts);
    }
    (counts, rounds as u64 * 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_aig() -> Aig {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.xor(a, b);
        g.add_output(x);
        g
    }

    #[test]
    fn words_match_scalar_eval() {
        let g = xor_aig();
        // Patterns 0..4 in one word: a = 0101, b = 0011.
        let res = simulate_words(&g, &[0b0101, 0b0011]);
        assert_eq!(res[0] & 0xF, 0b0110);
    }

    #[test]
    fn eval_patterns_agrees_with_eval() {
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor_many(&ins);
        let y = g.and(ins[0], x);
        g.add_output(y);
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Pattern> = (0..200).map(|_| Pattern::random(&mut rng, 5)).collect();
        let batch = eval_patterns(&g, &patterns);
        for (p, &got) in patterns.iter().zip(batch.iter()) {
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(g.eval(&bits)[0], got);
        }
    }

    #[test]
    fn eval_patterns_handles_odd_chunks() {
        let g = xor_aig();
        let patterns: Vec<Pattern> = (0..67).map(|i| Pattern::from_index(i % 4, 2)).collect();
        let preds = eval_patterns(&g, &patterns);
        assert_eq!(preds.len(), 67);
        for (i, p) in patterns.iter().enumerate() {
            assert_eq!(preds[i], p.get(0) ^ p.get(1));
        }
    }

    #[test]
    fn multi_output_eval_matches_scalar() {
        // Two outputs: XOR and AND of the same pair.
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.xor(a, b);
        let y = g.and(a, b);
        g.add_output(x);
        g.add_output(y);
        let patterns: Vec<Pattern> = (0..100).map(|i| Pattern::from_index(i % 4, 2)).collect();
        let multi = eval_patterns_multi(&g, &patterns);
        assert_eq!(multi.len(), 2);
        for (k, p) in patterns.iter().enumerate() {
            assert_eq!(multi[0][k], p.get(0) ^ p.get(1));
            assert_eq!(multi[1][k], p.get(0) && p.get(1));
        }
    }

    #[test]
    fn eval_columns_matches_eval_patterns() {
        use lsml_pla::Dataset;
        let mut g = Aig::new(5);
        let ins = g.inputs();
        let x = g.xor_many(&ins);
        let y = g.and(ins[0], x);
        g.add_output(y);
        let mut rng = StdRng::seed_from_u64(21);
        for n in [0usize, 1, 64, 67, 200, 1000] {
            let mut ds = Dataset::new(5);
            for _ in 0..n {
                ds.push(Pattern::random(&mut rng, 5), rng.gen());
            }
            let cols = ds.bit_columns();
            let packed = eval_columns(&g, &cols).pop().unwrap();
            let row = eval_patterns(&g, ds.patterns());
            for (k, &want) in row.iter().enumerate() {
                let got = (packed[k / 64] >> (k % 64)) & 1 == 1;
                assert_eq!(got, want, "example {k} of {n}");
            }
            // Accuracy path agrees bitwise with the row-major scalar one.
            let acc_cols = accuracy_columns(&g, &cols);
            let acc_rows = ds.accuracy_of_slice(&row);
            assert_eq!(acc_cols.to_bits(), acc_rows.to_bits(), "accuracy of {n}");
        }
    }

    #[test]
    fn one_counts_track_bias() {
        // f = a AND b is one on ~25% of random patterns.
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.and(a, b);
        g.add_output(x);
        let mut rng = StdRng::seed_from_u64(3);
        let (counts, total) = random_one_counts(&g, 64, &mut rng);
        let frac = counts[x.node() as usize] as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn complemented_output_counts() {
        let mut g = Aig::new(1);
        let a = g.input(0);
        g.add_output(!a);
        let res = simulate_words(&g, &[0b01]);
        assert_eq!(res[0] & 0b11, 0b10);
    }
}
