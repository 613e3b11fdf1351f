//! Explicit truth tables for small functions.

use std::fmt;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::pattern::Pattern;
use crate::{last_word_mask, words_for};

/// Maximum variable count supported by [`TruthTable`].
pub const MAX_TRUTH_VARS: usize = 24;

/// An explicit single-output truth table over up to [`MAX_TRUTH_VARS`]
/// variables, bit-packed into `u64` words (minterm `m` lives at bit `m % 64`
/// of word `m / 64`).
///
/// Truth tables are the working representation for LUT contents and for
/// enumerating small neural-network neurons into logic.
///
/// # Examples
///
/// ```
/// use lsml_pla::TruthTable;
///
/// let xor2 = TruthTable::from_fn(2, |m| (m.count_ones() & 1) == 1);
/// assert!(!xor2.get(0b00) && xor2.get(0b01) && xor2.get(0b10) && !xor2.get(0b11));
/// assert_eq!(xor2.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// The constant-false table over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_TRUTH_VARS`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(
            num_vars <= MAX_TRUTH_VARS,
            "truth tables support at most {MAX_TRUTH_VARS} variables"
        );
        TruthTable {
            num_vars,
            words: vec![0; words_for(1usize << num_vars)],
        }
    }

    /// The constant-true table over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = TruthTable::zeros(num_vars);
        for w in t.words.iter_mut() {
            *w = u64::MAX;
        }
        t.mask_tail();
        t
    }

    /// Builds a table by evaluating `f` on every minterm index.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u32) -> bool) -> Self {
        let mut t = TruthTable::zeros(num_vars);
        for m in 0..(1u32 << num_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table a word at a time: `f(w)` returns word `w`, whose bit
    /// `b` is the value on minterm `64 * w + b`. Bits past the last minterm
    /// are ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use lsml_pla::TruthTable;
    ///
    /// let t = TruthTable::from_word_fn(3, |_| 0b1110_1000);
    /// assert_eq!(t, TruthTable::from_fn(3, |m| m.count_ones() >= 2));
    /// ```
    pub fn from_word_fn(num_vars: usize, mut f: impl FnMut(usize) -> u64) -> Self {
        let mut t = TruthTable::zeros(num_vars);
        for (w, word) in t.words.iter_mut().enumerate() {
            *word = f(w);
        }
        t.mask_tail();
        t
    }

    /// The projection table of input variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn variable(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        TruthTable::from_fn(num_vars, |m| (m >> var) & 1 == 1)
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterm entries (`2^num_vars`).
    #[inline]
    pub fn num_entries(&self) -> usize {
        1 << self.num_vars
    }

    /// Value on minterm `m` (variable 0 is the least significant bit of `m`).
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^num_vars`.
    #[inline]
    pub fn get(&self, m: u32) -> bool {
        assert!((m as usize) < self.num_entries(), "minterm out of range");
        (self.words[(m / 64) as usize] >> (m % 64)) & 1 == 1
    }

    /// Sets the value on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^num_vars`.
    #[inline]
    pub fn set(&mut self, m: u32, value: bool) {
        assert!((m as usize) < self.num_entries(), "minterm out of range");
        let mask = 1u64 << (m % 64);
        if value {
            self.words[(m / 64) as usize] |= mask;
        } else {
            self.words[(m / 64) as usize] &= !mask;
        }
    }

    /// Number of onset minterms (via the shared [`crate::kernels`]
    /// popcount).
    pub fn count_ones(&self) -> u64 {
        crate::kernels::popcount(&self.words)
    }

    /// Whether the table is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the table is constant true.
    pub fn is_one(&self) -> bool {
        self.count_ones() == self.num_entries() as u64
    }

    /// Complemented table.
    pub fn complement(&self) -> TruthTable {
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask_tail();
        t
    }

    /// Evaluates the table on a pattern over exactly `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_vars`.
    pub fn eval(&self, p: &Pattern) -> bool {
        assert_eq!(p.len(), self.num_vars, "pattern arity mismatch");
        self.get(p.to_index() as u32)
    }

    /// Positive and negative cofactors with respect to `var`, each over
    /// `num_vars - 1` variables (remaining variables renumbered densely).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars == 0`.
    pub fn cofactors(&self, var: usize) -> (TruthTable, TruthTable) {
        assert!(var < self.num_vars, "variable index out of range");
        let n = self.num_vars - 1;
        let mut neg = TruthTable::zeros(n);
        let mut pos = TruthTable::zeros(n);
        for m in 0..(1u32 << n) {
            let low = m & ((1 << var) - 1);
            let high = (m >> var) << (var + 1);
            let m0 = high | low;
            let m1 = m0 | (1 << var);
            if self.get(m0) {
                neg.set(m, true);
            }
            if self.get(m1) {
                pos.set(m, true);
            }
        }
        (neg, pos)
    }

    /// Whether the function depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        let (neg, pos) = self.cofactors(var);
        neg != pos
    }

    /// Onset cover: one full-care cube per onset minterm.
    pub fn to_minterm_cover(&self) -> Cover {
        let mut cover = Cover::new(self.num_vars);
        for m in 0..(1u32 << self.num_vars) {
            if self.get(m) {
                cover.push(Cube::from_pattern(&Pattern::from_index(
                    m as u64,
                    self.num_vars,
                )));
            }
        }
        cover
    }

    /// Builds a table from a cover (cover arity must be small enough).
    ///
    /// # Panics
    ///
    /// Panics if `cover.num_vars() > MAX_TRUTH_VARS`.
    pub fn from_cover(cover: &Cover) -> TruthTable {
        TruthTable::from_fn(cover.num_vars(), |m| {
            cover.eval(&Pattern::from_index(m as u64, cover.num_vars()))
        })
    }

    fn mask_tail(&mut self) {
        let bits = self.num_entries();
        if let Some(last) = self.words.last_mut() {
            *last &= last_word_mask(bits);
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, ", self.num_vars)?;
        if self.num_vars <= 6 {
            for m in (0..self.num_entries() as u32).rev() {
                f.write_str(if self.get(m) { "1" } else { "0" })?;
            }
        } else {
            write!(f, "{} ones", self.count_ones())?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_word_fn_matches_from_fn() {
        let f = |m: u32| (m * 7) % 5 < 2;
        for nv in [0, 3, 6, 7] {
            let words = TruthTable::from_word_fn(nv, |w| {
                (0..64).fold(0, |acc, b| acc | u64::from(f(64 * w as u32 + b)) << b)
            });
            assert_eq!(words, TruthTable::from_fn(nv, f), "{nv} vars");
        }
    }

    #[test]
    fn from_fn_and_get_agree() {
        let maj3 = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert!(!maj3.get(0b001));
        assert!(maj3.get(0b011));
        assert!(maj3.get(0b111));
        assert_eq!(maj3.count_ones(), 4);
    }

    #[test]
    fn ones_and_complement() {
        let t = TruthTable::ones(5);
        assert!(t.is_one());
        assert!(t.complement().is_zero());
        let xor = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
        assert_eq!(xor.complement().count_ones(), 2);
        assert_eq!(xor.complement().complement(), xor);
    }

    #[test]
    fn big_table_masks_tail() {
        // 7 vars => 128 entries => exactly 2 words; 3 vars => 8 bits in one word.
        let t = TruthTable::ones(3);
        assert_eq!(t.count_ones(), 8);
    }

    #[test]
    fn cofactors_split_correctly() {
        // f = x0 XOR x1 over 2 vars: f|x1=0 = x0, f|x1=1 = !x0.
        let xor = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
        let (neg, pos) = xor.cofactors(1);
        assert_eq!(neg, TruthTable::variable(1, 0));
        assert_eq!(pos, TruthTable::variable(1, 0).complement());
    }

    #[test]
    fn cofactors_of_middle_var() {
        // f(m) = bit 1 of m, over 3 vars.
        let f = TruthTable::variable(3, 1);
        let (neg, pos) = f.cofactors(1);
        assert!(neg.is_zero());
        assert!(pos.is_one());
    }

    #[test]
    fn depends_on_detects_support() {
        let f = TruthTable::variable(4, 2);
        assert!(f.depends_on(2));
        assert!(!f.depends_on(0));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn cover_roundtrip() {
        let maj3 = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let cover = maj3.to_minterm_cover();
        assert_eq!(cover.len(), 4);
        assert_eq!(TruthTable::from_cover(&cover), maj3);
    }

    #[test]
    fn eval_matches_get() {
        let f = TruthTable::from_fn(4, |m| m % 3 == 0);
        for m in 0..16u64 {
            assert_eq!(f.eval(&Pattern::from_index(m, 4)), f.get(m as u32));
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_vars_panics() {
        TruthTable::zeros(MAX_TRUTH_VARS + 1);
    }
}
