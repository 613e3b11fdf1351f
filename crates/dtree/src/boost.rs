//! Second-order gradient boosting (Team 7's XGBoost substitute).
//!
//! Binary logistic boosting with Newton-step leaf values, exactly the parts
//! of XGBoost that matter for circuit synthesis: 125 depth-≤5 regression
//! trees whose leaf values are quantized to one bit and aggregated by a
//! 3-layer network of 5-input majority gates (125 = 5³), reproducing Team
//! 7's implementation of an efficient AIG for the boosted ensemble.
//!
//! Split search is bit-sliced over the dataset's cached columns. A
//! row-major reference trainer, kept only in the test module, checks it
//! bitwise.

use lsml_aig::{circuits, Aig, Lit};
use lsml_pla::{BitColumns, Dataset, Pattern};

/// Gradient-boosting configuration.
#[derive(Clone, Debug)]
pub struct GradientBoostConfig {
    /// Number of boosting rounds (trees). Team 7 used 125.
    pub n_rounds: usize,
    /// Maximum regression-tree depth. Team 7 used 5.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// L2 regularization on leaf weights (XGBoost's lambda).
    pub lambda: f64,
    /// Minimum hessian sum per child (XGBoost's min_child_weight).
    pub min_child_weight: f64,
    /// Minimum gain for a split to be kept (XGBoost's gamma).
    pub gamma: f64,
}

impl Default for GradientBoostConfig {
    fn default() -> Self {
        GradientBoostConfig {
            n_rounds: 125,
            max_depth: 5,
            learning_rate: 0.3,
            lambda: 1.0,
            min_child_weight: 1.0,
            gamma: 0.0,
        }
    }
}

/// One regression-tree node.
#[derive(Clone, Debug, PartialEq)]
enum RegNode {
    Leaf { value: f64 },
    Split { feature: u32, lo: u32, hi: u32 },
}

/// A regression tree over binary features.
#[derive(Clone, Debug, PartialEq)]
struct RegTree {
    nodes: Vec<RegNode>,
    root: u32,
}

impl RegTree {
    fn score(&self, p: &Pattern) -> f64 {
        let mut at = self.root;
        loop {
            match &self.nodes[at as usize] {
                RegNode::Leaf { value } => return *value,
                RegNode::Split { feature, lo, hi } => {
                    at = if p.get(*feature as usize) { *hi } else { *lo };
                }
            }
        }
    }

    /// Builds the AIG computing the sign bit of this tree's leaf values
    /// (leaf > 0 → 1), Team 7's one-bit quantization.
    fn quantized_lit(&self, aig: &mut Aig) -> Lit {
        self.build(self.root, aig)
    }

    fn build(&self, at: u32, aig: &mut Aig) -> Lit {
        match &self.nodes[at as usize] {
            RegNode::Leaf { value } => Lit::constant(*value > 0.0),
            RegNode::Split { feature, lo, hi } => {
                let sel = aig.input(*feature as usize);
                let l = self.build(*lo, aig);
                let h = self.build(*hi, aig);
                aig.mux(sel, h, l)
            }
        }
    }
}

/// A boosted ensemble for binary classification.
///
/// # Examples
///
/// ```
/// use lsml_dtree::{GradientBoost, GradientBoostConfig};
/// use lsml_pla::{Dataset, Pattern};
///
/// let mut ds = Dataset::new(3);
/// for m in 0..8u64 {
///     ds.push(Pattern::from_index(m, 3), m.count_ones() >= 2);
/// }
/// // min_child_weight is relaxed because the toy dataset is tiny.
/// let cfg = GradientBoostConfig {
///     n_rounds: 25,
///     min_child_weight: 0.05,
///     ..GradientBoostConfig::default()
/// };
/// let gb = GradientBoost::train(&ds, &cfg);
/// assert!(gb.accuracy(&ds) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct GradientBoost {
    trees: Vec<RegTree>,
    base_score: f64,
    num_inputs: usize,
    learning_rate: f64,
}

impl GradientBoost {
    /// Trains with logistic loss and second-order (Newton) leaf values.
    ///
    /// The weighted split search runs bit-sliced: each node's example subset
    /// is a packed mask over the dataset's cached [`BitColumns`], the
    /// per-feature ⟨grad, hess⟩ sums gather over the set bits of
    /// `mask ∧ column`, and the candidate-feature scan fans out over
    /// `rayon::join`. Examples are visited in ascending order, so every
    /// floating-point accumulation happens in the same order as a row-by-row
    /// scan.
    pub fn train(ds: &Dataset, cfg: &GradientBoostConfig) -> Self {
        let cols = ds.bit_columns();
        // Mask buffers survive across rounds: the grower checks them out of
        // this pool instead of allocating fresh `Vec<u64>`s per node.
        let mut scratch: Vec<Vec<u64>> = Vec::new();
        let mut root_mask: Vec<u64> = Vec::new();
        Self::boost(ds, cfg, |grad, hess| {
            cols.full_mask_into(&mut root_mask);
            let mut builder = RegBuilder {
                cols: &cols,
                grad,
                hess,
                cfg,
                nodes: Vec::new(),
                scratch: std::mem::take(&mut scratch),
            };
            let root = builder.grow(&root_mask, ds.len() as u64, 0);
            scratch = builder.scratch;
            RegTree {
                nodes: builder.nodes,
                root,
            }
        })
    }

    /// The boosting rounds: per-example gradients and hessians of the
    /// logistic loss, one regression tree from `grow_tree` per round, and
    /// the shrunken margin update.
    fn boost(
        ds: &Dataset,
        cfg: &GradientBoostConfig,
        mut grow_tree: impl FnMut(&[f64], &[f64]) -> RegTree,
    ) -> Self {
        let n = ds.len();
        let prior = ds.positive_rate().clamp(1e-6, 1.0 - 1e-6);
        let base_score = (prior / (1.0 - prior)).ln();
        let mut scores = vec![base_score; n];
        let mut trees = Vec::with_capacity(cfg.n_rounds);
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];

        for _ in 0..cfg.n_rounds {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                let y = f64::from(u8::from(ds.output(i)));
                grad[i] = p - y;
                hess[i] = (p * (1.0 - p)).max(1e-16);
            }
            let tree = grow_tree(&grad, &hess);
            for (i, s) in scores.iter_mut().enumerate() {
                *s += cfg.learning_rate * tree.score(ds.pattern(i));
            }
            trees.push(tree);
        }
        GradientBoost {
            trees,
            base_score,
            num_inputs: ds.num_inputs(),
            learning_rate: cfg.learning_rate,
        }
    }

    /// Number of boosting rounds actually trained.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The raw margin (log-odds) for a pattern.
    pub fn score(&self, p: &Pattern) -> f64 {
        self.base_score + self.learning_rate * self.trees.iter().map(|t| t.score(p)).sum::<f64>()
    }

    /// Exact (floating-point) classification: margin > 0.
    pub fn predict(&self, p: &Pattern) -> bool {
        self.score(p) > 0.0
    }

    /// Classification by the quantized majority circuit semantics (what the
    /// synthesized AIG computes): majority over per-tree leaf-sign bits,
    /// grouped 5-at-a-time in up to three layers.
    pub fn predict_quantized(&self, p: &Pattern) -> bool {
        if self.trees.is_empty() {
            // Mirror `to_aig`, which compiles the empty forest to the
            // constant prior `base_score > 0.0`: before this fallback the
            // quantized predictor answered `false` while the circuit
            // answered the prior, and the two disagreed whenever
            // `n_rounds = 0` with a positive-majority training set.
            return self.base_score > 0.0;
        }
        let mut bits: Vec<bool> = self.trees.iter().map(|t| t.score(p) > 0.0).collect();
        while bits.len() > 1 {
            bits = bits
                .chunks(5)
                .map(|c| {
                    let ones = c.iter().filter(|&&b| b).count();
                    2 * ones > c.len()
                })
                .collect();
        }
        bits[0]
    }

    /// Accuracy of the exact classifier over a dataset.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        ds.accuracy_of(|p| self.predict(p))
    }

    /// Emits the vote circuit of the first `rounds` trees into a
    /// caller-supplied builder and returns the aggregated majority literal.
    ///
    /// Consecutive round prefixes share every per-tree MUX cone through the
    /// builder's structural hashing, so emitting rounds 1..=T into one
    /// builder costs O(T) tree cones instead of the O(T²) a fresh
    /// [`GradientBoost::to_aig`] per prefix would pay. The builder must have
    /// at least `self.num_inputs` inputs; no output is registered and no
    /// cleanup runs — the caller owns the graph.
    pub fn emit_into(&self, aig: &mut Aig, rounds: usize) -> Lit {
        let rounds = rounds.min(self.trees.len());
        let mut bits: Vec<Lit> = self.trees[..rounds]
            .iter()
            .map(|t| t.quantized_lit(aig))
            .collect();
        if bits.is_empty() {
            bits.push(Lit::constant(self.base_score > 0.0));
        }
        while bits.len() > 1 {
            bits = bits.chunks(5).map(|c| circuits::majority(aig, c)).collect();
        }
        bits[0]
    }

    /// Compiles the first `rounds` trees to a standalone AIG (per-tree MUX
    /// trees with one-bit quantized leaves, aggregated through layers of
    /// 5-input majority gates).
    pub fn to_aig_rounds(&self, rounds: usize) -> Aig {
        let mut aig = Aig::new(self.num_inputs);
        let out = self.emit_into(&mut aig, rounds);
        aig.add_output(out);
        aig.cleanup();
        aig
    }

    /// Compiles to an AIG: per-tree MUX trees with one-bit quantized leaves,
    /// aggregated through layers of 5-input majority gates.
    pub fn to_aig(&self) -> Aig {
        self.to_aig_rounds(self.trees.len())
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The bit-sliced regression-tree builder: node subsets are packed masks
/// over the dataset's [`BitColumns`]; the weighted split search accumulates
/// ⟨grad, hess⟩ per (feature, side) by gathering over set bits of
/// `mask ∧ column`, with the candidate-feature scan fanned out over
/// `rayon::join`.
struct RegBuilder<'a> {
    cols: &'a BitColumns,
    grad: &'a [f64],
    hess: &'a [f64],
    cfg: &'a GradientBoostConfig,
    nodes: Vec<RegNode>,
    /// Free list of mask buffers, recycled across nodes and rounds so the
    /// recursive split never allocates in steady state.
    scratch: Vec<Vec<u64>>,
}

/// The winning candidate of a split search.
#[derive(Copy, Clone)]
struct SplitCand {
    feature: usize,
    gain: f64,
}

/// Shared read-only context for the parallel feature scan of one node.
struct SplitCtx<'a> {
    cols: &'a BitColumns,
    mask: &'a [u64],
    grad: &'a [f64],
    hess: &'a [f64],
    cfg: &'a GradientBoostConfig,
    /// Parent ⟨grad, hess⟩ sums over `mask`.
    g: f64,
    h: f64,
    parent_obj: f64,
}

/// Feature ranges at most this wide are scanned serially; wider ranges
/// split via `join` so idle workers can steal half the scan.
const SPLIT_SCAN_GRAIN: usize = 8;

/// Best split over features `lo..hi`, lowest feature index winning ties
/// (the same tie-break as a serial ascending scan, independent of how the
/// range was split).
fn best_split(ctx: &SplitCtx<'_>, lo: usize, hi: usize) -> Option<SplitCand> {
    if hi - lo > SPLIT_SCAN_GRAIN {
        let mid = lo + (hi - lo) / 2;
        let (left, right) = rayon::join(|| best_split(ctx, lo, mid), || best_split(ctx, mid, hi));
        return match (left, right) {
            (Some(a), Some(b)) => Some(if b.gain > a.gain { b } else { a }),
            (a, None) => a,
            (None, b) => b,
        };
    }
    let mut best: Option<SplitCand> = None;
    for f in lo..hi {
        let (gh, hh) = ctx
            .cols
            .masked_column_weight_sums(f, ctx.mask, ctx.grad, ctx.hess);
        let gl = ctx.g - gh;
        let hl = ctx.h - hh;
        if hh < ctx.cfg.min_child_weight || hl < ctx.cfg.min_child_weight {
            continue;
        }
        let gain = 0.5
            * (gl * gl / (hl + ctx.cfg.lambda) + gh * gh / (hh + ctx.cfg.lambda) - ctx.parent_obj)
            - ctx.cfg.gamma;
        if gain > 1e-12 && best.is_none_or(|b| gain > b.gain) {
            best = Some(SplitCand { feature: f, gain });
        }
    }
    best
}

impl RegBuilder<'_> {
    fn grow(&mut self, mask: &[u64], count: u64, depth: usize) -> u32 {
        let (g, h) = BitColumns::masked_weight_sums(mask, self.grad, self.hess);
        let leaf = |nodes: &mut Vec<RegNode>| {
            nodes.push(RegNode::Leaf {
                value: -g / (h + self.cfg.lambda),
            });
            (nodes.len() - 1) as u32
        };
        if depth >= self.cfg.max_depth || count < 2 {
            return leaf(&mut self.nodes);
        }
        let ctx = SplitCtx {
            cols: self.cols,
            mask,
            grad: self.grad,
            hess: self.hess,
            cfg: self.cfg,
            g,
            h,
            parent_obj: g * g / (h + self.cfg.lambda),
        };
        let Some(SplitCand { feature, .. }) = best_split(&ctx, 0, self.cols.num_inputs()) else {
            return leaf(&mut self.nodes);
        };
        let mut lo_mask = self.scratch.pop().unwrap_or_default();
        let mut hi_mask = self.scratch.pop().unwrap_or_default();
        self.cols
            .split_mask_into(feature, mask, &mut lo_mask, &mut hi_mask);
        let hi_count = BitColumns::count_ones(&hi_mask);
        let lo_count = count - hi_count;
        if lo_count == 0 || hi_count == 0 {
            self.scratch.push(lo_mask);
            self.scratch.push(hi_mask);
            return leaf(&mut self.nodes);
        }
        let lo = self.grow(&lo_mask, lo_count, depth + 1);
        let hi = self.grow(&hi_mask, hi_count, depth + 1);
        self.scratch.push(lo_mask);
        self.scratch.push(hi_mask);
        self.nodes.push(RegNode::Split {
            feature: feature as u32,
            lo,
            hi,
        });
        (self.nodes.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference trainer: the production boosting rounds with the
    /// pre-columnar split search (row-by-row `Pattern::get` scans per
    /// candidate feature).
    fn train_row_major(ds: &Dataset, cfg: &GradientBoostConfig) -> GradientBoost {
        let indices: Vec<u32> = (0..ds.len() as u32).collect();
        GradientBoost::boost(ds, cfg, |grad, hess| {
            let mut builder = RegBuilderRows {
                ds,
                grad,
                hess,
                cfg,
                nodes: Vec::new(),
            };
            let root = builder.grow(&indices, 0);
            RegTree {
                nodes: builder.nodes,
                root,
            }
        })
    }

    /// The row-major reference builder behind [`train_row_major`]:
    /// per-example `Pattern::get` scans, subsets as sorted index slices.
    struct RegBuilderRows<'a> {
        ds: &'a Dataset,
        grad: &'a [f64],
        hess: &'a [f64],
        cfg: &'a GradientBoostConfig,
        nodes: Vec<RegNode>,
    }

    impl RegBuilderRows<'_> {
        fn grow(&mut self, subset: &[u32], depth: usize) -> u32 {
            let g: f64 = subset.iter().map(|&i| self.grad[i as usize]).sum();
            let h: f64 = subset.iter().map(|&i| self.hess[i as usize]).sum();
            let leaf = |nodes: &mut Vec<RegNode>| {
                nodes.push(RegNode::Leaf {
                    value: -g / (h + self.cfg.lambda),
                });
                (nodes.len() - 1) as u32
            };
            if depth >= self.cfg.max_depth || subset.len() < 2 {
                return leaf(&mut self.nodes);
            }
            let parent_obj = g * g / (h + self.cfg.lambda);
            let mut best: Option<(usize, f64)> = None;
            for f in 0..self.ds.num_inputs() {
                let mut gh = 0.0;
                let mut hh = 0.0;
                for &i in subset {
                    if self.ds.pattern(i as usize).get(f) {
                        gh += self.grad[i as usize];
                        hh += self.hess[i as usize];
                    }
                }
                let gl = g - gh;
                let hl = h - hh;
                if hh < self.cfg.min_child_weight || hl < self.cfg.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.cfg.lambda) + gh * gh / (hh + self.cfg.lambda)
                        - parent_obj)
                    - self.cfg.gamma;
                if gain > 1e-12 && best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((f, gain));
                }
            }
            let Some((feature, _)) = best else {
                return leaf(&mut self.nodes);
            };
            let (lo_set, hi_set): (Vec<u32>, Vec<u32>) = subset
                .iter()
                .partition(|&&i| !self.ds.pattern(i as usize).get(feature));
            if lo_set.is_empty() || hi_set.is_empty() {
                return leaf(&mut self.nodes);
            }
            let lo = self.grow(&lo_set, depth + 1);
            let hi = self.grow(&hi_set, depth + 1);
            self.nodes.push(RegNode::Split {
                feature: feature as u32,
                lo,
                hi,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn boosting_fits_conjunction() {
        let ds = full_dataset(|m| m & 0b101 == 0b101, 5);
        let cfg = GradientBoostConfig {
            n_rounds: 30,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        assert!((gb.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boosting_handles_noise_better_than_memorizing() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut train = Dataset::new(8);
        for _ in 0..400 {
            let p = Pattern::random(&mut rng, 8);
            let label = p.get(2) ^ (rng.gen::<f64>() < 0.15);
            train.push(p, label);
        }
        let mut test = Dataset::new(8);
        for _ in 0..400 {
            let p = Pattern::random(&mut rng, 8);
            test.push(p.clone(), p.get(2));
        }
        let cfg = GradientBoostConfig {
            n_rounds: 40,
            max_depth: 3,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&train, &cfg);
        assert!(gb.accuracy(&test) > 0.8);
    }

    #[test]
    fn aig_matches_quantized_semantics() {
        let ds = full_dataset(|m| (m * 3) % 5 < 2, 5);
        let cfg = GradientBoostConfig {
            n_rounds: 25,
            max_depth: 3,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        let aig = gb.to_aig();
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(
                aig.eval(&bits)[0],
                gb.predict_quantized(&p),
                "mismatch at {m:05b}"
            );
        }
    }

    #[test]
    fn quantized_tracks_exact_on_separable_data() {
        let ds = full_dataset(|m| m & 1 == 1, 4);
        // Tiny dataset: hessian sums are far below XGBoost's default
        // min_child_weight, so relax it or every late tree degenerates to a
        // constant stump and out-votes the informative ones.
        let cfg = GradientBoostConfig {
            n_rounds: 25,
            min_child_weight: 0.05,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        let agreement = (0..16u64)
            .filter(|&m| {
                let p = Pattern::from_index(m, 4);
                gb.predict(&p) == gb.predict_quantized(&p)
            })
            .count();
        assert!(agreement >= 14, "agreement {agreement}/16");
    }

    #[test]
    fn n_trees_matches_rounds() {
        let ds = full_dataset(|m| m > 7, 4);
        let cfg = GradientBoostConfig {
            n_rounds: 10,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        assert_eq!(gb.n_trees(), 10);
    }

    #[test]
    fn empty_forest_quantized_matches_compiled_circuit() {
        // Regression: with n_rounds = 0 and a positive-majority training
        // set, predict_quantized used to answer `false` while to_aig()
        // compiled the constant prior `true`.
        let ds = full_dataset(|m| m != 0, 3); // 7/8 positive -> base_score > 0
        let cfg = GradientBoostConfig {
            n_rounds: 0,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        assert_eq!(gb.n_trees(), 0);
        let aig = gb.to_aig();
        for m in 0..8u64 {
            let p = Pattern::from_index(m, 3);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], gb.predict_quantized(&p));
            assert!(gb.predict_quantized(&p), "positive prior must predict 1");
        }
        // And the negative-majority prior still predicts 0 on both paths.
        let ds = full_dataset(|m| m == 0, 3);
        let gb = GradientBoost::train(&ds, &cfg);
        let aig = gb.to_aig();
        for m in 0..8u64 {
            let p = Pattern::from_index(m, 3);
            let bits: Vec<bool> = p.iter().collect();
            assert_eq!(aig.eval(&bits)[0], gb.predict_quantized(&p));
            assert!(!gb.predict_quantized(&p));
        }
    }

    #[test]
    fn bit_sliced_split_search_is_bitwise_identical_to_row_major() {
        // The masked ⟨grad, hess⟩ gather visits examples in the same
        // ascending order as the row-major subset scan, so the two trainers
        // must agree bitwise: identical trees (leaf values included) and
        // identical raw margins on every pattern.
        let mut rng = StdRng::seed_from_u64(77);
        for (n, arity, rounds) in [
            (0usize, 4usize, 2usize),
            (1, 3, 3),
            (130, 9, 6),
            (257, 17, 4),
        ] {
            let mut ds = Dataset::new(arity);
            for _ in 0..n {
                let p = Pattern::random(&mut rng, arity);
                let label = p.get(0) ^ (rng.gen::<f64>() < 0.2);
                ds.push(p, label);
            }
            let cfg = GradientBoostConfig {
                n_rounds: rounds,
                max_depth: 4,
                min_child_weight: 0.05,
                ..GradientBoostConfig::default()
            };
            let columnar = GradientBoost::train(&ds, &cfg);
            let rows = train_row_major(&ds, &cfg);
            assert_eq!(
                columnar.trees, rows.trees,
                "trees diverge at n={n} arity={arity}"
            );
            for _ in 0..32 {
                let p = Pattern::random(&mut rng, arity);
                assert_eq!(
                    columnar.score(&p).to_bits(),
                    rows.score(&p).to_bits(),
                    "margin diverges at n={n} arity={arity}"
                );
            }
        }
    }

    fn random_dataset(seed: u64, len: usize, arity: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(arity);
        for _ in 0..len {
            let p = Pattern::random(&mut rng, arity);
            let label = (p.get(0) && p.get(1)) ^ (rng.gen::<f64>() < 0.25);
            ds.push(p, label);
        }
        ds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On random datasets the bit-sliced trainer reproduces the
        /// row-major reference bitwise: identical raw margins and identical
        /// quantized predictions on every 7-input pattern.
        #[test]
        fn bit_sliced_trainer_matches_row_major_reference(
            seed in any::<u64>(),
            len in 0usize..150,
            rounds_index in 0usize..3,
        ) {
            let rounds = [0usize, 1, 5][rounds_index];
            let arity = 7;
            let ds = random_dataset(seed, len, arity);
            let cfg = GradientBoostConfig {
                n_rounds: rounds,
                max_depth: 4,
                min_child_weight: 0.05,
                ..GradientBoostConfig::default()
            };
            let columnar = GradientBoost::train(&ds, &cfg);
            let reference = train_row_major(&ds, &cfg);
            for m in 0..(1u64 << arity) {
                let p = Pattern::from_index(m, arity);
                prop_assert_eq!(
                    columnar.score(&p).to_bits(),
                    reference.score(&p).to_bits(),
                    "margins diverge at {:07b}",
                    m
                );
                prop_assert_eq!(columnar.predict_quantized(&p), reference.predict_quantized(&p));
            }
        }
    }

    #[test]
    fn empty_dataset_predicts_prior() {
        let ds = Dataset::new(3);
        let cfg = GradientBoostConfig {
            n_rounds: 2,
            ..GradientBoostConfig::default()
        };
        let gb = GradientBoost::train(&ds, &cfg);
        // Empty prior is 0.5 -> log-odds 0 -> predict false (not > 0).
        assert!(!gb.predict(&Pattern::from_index(0, 3)));
    }
}
