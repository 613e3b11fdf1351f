//! Dense MLPs trained with minibatch SGD.

use lsml_pla::{Dataset, Pattern};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hidden-layer activation function.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Activation {
    /// Logistic sigmoid (Team 3's 3-layer network).
    #[default]
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Sine — Team 8's periodic activation, good at latent-frequency
    /// functions such as parity.
    Sine,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::Sine => x.sin(),
        }
    }

    /// Derivative expressed in terms of the pre-activation `x` and the
    /// activation value `y`.
    fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sine => x.cos(),
        }
    }
}

/// MLP architecture and training hyper-parameters.
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Hidden layer widths (the output layer is always a single sigmoid
    /// unit). Team 8 halved the width between layers.
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32, 16],
            activation: Activation::Sigmoid,
            epochs: 60,
            learning_rate: 0.5,
            batch_size: 32,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// Neurons per weight block: training runs one neuron per lane.
const LANES: usize = 8;

/// One lane per neuron of a block.
type Block = [f32; LANES];

/// Per lane of a [`Block`], all ones if the weight is live, else zero.
type Mask = [u32; LANES];

/// Cells (or patterns) per inference batch: inference runs one cell per lane,
/// so a batch of table cells yields one `u64` word of the table.
pub(crate) const CELLS: usize = u64::BITS as usize;

/// One lane per cell of a batch.
type Cells = [f32; CELLS];

/// `new` where the lane is live, else `old`: a pruned lane keeps its value.
#[inline(always)]
fn select(live: u32, new: f32, old: f32) -> f32 {
    f32::from_bits((new.to_bits() & live) | (old.to_bits() & !live))
}

/// One dense layer and, per neuron, the ascending list of the inputs it still
/// reads.
///
/// Weights are input-major with the neuron axis padded to whole blocks: the
/// weight `i -> o` is lane `o % LANES` of block `i * blocks + o / LANES`.
/// The input axis is padded to whole groups of `LANES` rows. Padding holds
/// 0.0 and is never live.
///
/// The live lists are the only record of pruning. A weight missing from its
/// neuron's list never affects a result and is never written again: it keeps
/// the value it had when it was pruned.
#[derive(Clone, Debug)]
pub(crate) struct Dense {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    weights: Vec<Block>,
    pub(crate) live: Vec<Vec<usize>>,
    /// One bias per neuron, padded like a row of weights.
    bias: Vec<Block>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, gain: f32, rng: &mut StdRng) -> Self {
        let scale = gain * (2.0 / (n_in + n_out) as f32).sqrt();
        let blocks = n_out.div_ceil(LANES);
        let mut layer = Dense {
            n_in,
            n_out,
            weights: vec![[0.0; LANES]; n_in.next_multiple_of(LANES) * blocks],
            live: vec![(0..n_in).collect(); n_out],
            bias: vec![[0.0; LANES]; blocks],
        };
        // Draw in neuron-major order, as the seeded initialization always has.
        for o in 0..n_out {
            for i in 0..n_in {
                *layer.weight_mut(o, i) = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        layer
    }

    /// Blocks per input row.
    fn blocks(&self) -> usize {
        self.bias.len()
    }

    /// Weight `i -> o`, live or not.
    pub(crate) fn weight(&self, o: usize, i: usize) -> f32 {
        self.weights[i * self.blocks() + o / LANES][o % LANES]
    }

    /// Weight `i -> o` for writing, live or not.
    pub(crate) fn weight_mut(&mut self, o: usize, i: usize) -> &mut f32 {
        let b = i * self.blocks() + o / LANES;
        &mut self.weights[b][o % LANES]
    }

    /// Bias of neuron `o`.
    pub(crate) fn bias(&self, o: usize) -> f32 {
        self.bias[o / LANES][o % LANES]
    }

    /// Weight `i -> o`, or 0.0 if pruned.
    #[cfg(test)]
    pub(crate) fn live_weight(&self, o: usize, i: usize) -> f32 {
        if self.live[o].binary_search(&i).is_ok() {
            self.weight(o, i)
        } else {
            0.0
        }
    }

    /// The live lists as lane masks in the weights' layout.
    fn masks(&self) -> Vec<Mask> {
        let blocks = self.blocks();
        let mut masks = vec![[0; LANES]; self.weights.len()];
        for (o, live) in self.live.iter().enumerate() {
            for &i in live {
                masks[i * blocks + o / LANES][o % LANES] = u32::MAX;
            }
        }
        masks
    }

    /// Pre-activations of all neurons, written over `out` (`blocks` long).
    /// Each lane sums its bias and then weight × input over its live inputs
    /// in ascending input order; up to four blocks run side by side so that
    /// their add chains overlap.
    fn forward(&self, masks: &[Mask], input: &[f32], out: &mut [Block]) {
        let mut b = 0;
        while b < self.blocks() {
            b += match self.blocks() - b {
                1 => self.forward_blocks::<1>(masks, b, input, out),
                2 => self.forward_blocks::<2>(masks, b, input, out),
                3 => self.forward_blocks::<3>(masks, b, input, out),
                _ => self.forward_blocks::<4>(masks, b, input, out),
            };
        }
    }

    /// [`Dense::forward`] on the `G` blocks from `b0`; returns `G`.
    #[inline(always)]
    fn forward_blocks<const G: usize>(
        &self,
        masks: &[Mask],
        b0: usize,
        input: &[f32],
        out: &mut [Block],
    ) -> usize {
        let blocks = self.blocks();
        let mut acc: [Block; G] = std::array::from_fn(|g| self.bias[b0 + g]);
        for (i, &x) in input.iter().enumerate() {
            let r = i * blocks + b0;
            let (w, m) = (&self.weights[r..r + G], &masks[r..r + G]);
            for g in 0..G {
                for l in 0..LANES {
                    acc[g][l] = select(m[g][l], acc[g][l] + w[g][l] * x, acc[g][l]);
                }
            }
        }
        out[b0..b0 + G].copy_from_slice(&acc);
        G
    }

    /// One SGD update of the live weights and the biases from `delta`, the
    /// loss gradient at each neuron's pre-activation (zero in padding lanes).
    /// When given, `prev` (one lane per input, padded to whole blocks)
    /// receives the gradient at the inputs, computed from the weights before
    /// the update.
    fn backward(
        &mut self,
        masks: &[Mask],
        delta: &[Block],
        input: &[f32],
        prev: Option<&mut [Block]>,
        lr: f32,
        decay: f32,
    ) {
        if let Some(prev) = prev {
            self.input_gradient(masks, delta, prev);
        }
        let mut b = 0;
        while b < self.blocks() {
            b += match self.blocks() - b {
                1 => self.update_blocks::<1>(masks, delta, b, input, lr, decay),
                2 => self.update_blocks::<2>(masks, delta, b, input, lr, decay),
                3 => self.update_blocks::<3>(masks, delta, b, input, lr, decay),
                _ => self.update_blocks::<4>(masks, delta, b, input, lr, decay),
            };
        }
        for (b, d) in self.bias.iter_mut().zip(delta) {
            for l in 0..LANES {
                b[l] -= lr * d[l];
            }
        }
    }

    /// The SGD update of the `G` blocks from `b0`; returns `G`.
    #[inline(always)]
    fn update_blocks<const G: usize>(
        &mut self,
        masks: &[Mask],
        delta: &[Block],
        b0: usize,
        input: &[f32],
        lr: f32,
        decay: f32,
    ) -> usize {
        let blocks = self.blocks();
        let d: &[Block; G] = delta[b0..b0 + G].try_into().expect("G blocks");
        for (i, &x) in input.iter().enumerate() {
            let r = i * blocks + b0;
            let (w, m) = (&mut self.weights[r..r + G], &masks[r..r + G]);
            for g in 0..G {
                // Read the block whole before writing it back, so that the
                // lanes vectorize.
                let (old, m, d) = (w[g], m[g], d[g]);
                let mut new = old;
                for l in 0..LANES {
                    new[l] = select(m[l], old[l] - lr * (d[l] * x + decay * old[l]), old[l]);
                }
                w[g] = new;
            }
        }
        G
    }

    /// The loss gradient at the inputs, one lane per input: for input `i`,
    /// `delta[o]` times weight `i -> o` over the live `o`, summed in
    /// ascending neuron order. Runs `LANES` inputs side by side; a pruned
    /// weight contributes -0.0, which leaves every sum bit-unchanged.
    fn input_gradient(&self, masks: &[Mask], delta: &[Block], prev: &mut [Block]) {
        let blocks = self.blocks();
        for (group, p) in prev.iter_mut().enumerate() {
            let mut acc = [0.0f32; LANES];
            for (b, d) in delta.iter().enumerate() {
                let mut terms = [[0.0f32; LANES]; LANES];
                for (k, t) in terms.iter_mut().enumerate() {
                    let r = (group * LANES + k) * blocks + b;
                    let (w, m) = (self.weights[r], masks[r]);
                    for l in 0..LANES {
                        t[l] = select(m[l], d[l] * w[l], -0.0);
                    }
                }
                for l in 0..LANES {
                    for (a, t) in acc.iter_mut().zip(&terms) {
                        *a += t[l];
                    }
                }
            }
            *p = acc;
        }
    }

    /// Live fanin of neuron `o`.
    pub(crate) fn fanin(&self, o: usize) -> usize {
        self.live[o].len()
    }
}

/// The buffers of the per-sample training kernel, allocated once per fit.
struct Scratch {
    /// Each layer's live lists as lane masks.
    masks: Vec<Vec<Mask>>,
    /// Pre-activations of each layer.
    pres: Vec<Vec<Block>>,
    /// Activations of each layer.
    acts: Vec<Vec<Block>>,
    /// Loss gradient at the current layer's outputs.
    delta: Vec<Block>,
    /// Loss gradient at the current layer's inputs.
    prev: Vec<Block>,
}

/// The buffers of batched inference: one row of cells per neuron.
#[derive(Default)]
pub(crate) struct Batch {
    /// The current layer's inputs; fill with the network's inputs.
    pub(crate) cur: Vec<Cells>,
    next: Vec<Cells>,
}

/// The network's encoding of a Boolean input.
pub(crate) fn bit(b: bool) -> f32 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// A feed-forward binary classifier.
///
/// See the crate docs for a training example.
#[derive(Clone, Debug)]
pub struct Mlp {
    pub(crate) layers: Vec<Dense>,
    pub(crate) activation: Activation,
    num_inputs: usize,
}

impl Mlp {
    /// Trains a fresh network on the dataset.
    pub fn train(ds: &Dataset, cfg: &MlpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![ds.num_inputs()];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let n_layers = dims.len() - 1;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                // Sine hidden units need larger initial weights to leave the
                // linear regime of sin(x) ~ x (SIREN's first-layer scaling);
                // the sigmoid output layer keeps the standard Xavier gain.
                let gain = if cfg.activation == Activation::Sine && l + 1 < n_layers {
                    8.0
                } else {
                    1.0
                };
                Dense::new(w[0], w[1], gain, &mut rng)
            })
            .collect();
        let mut mlp = Mlp {
            layers,
            activation: cfg.activation,
            num_inputs: ds.num_inputs(),
        };
        mlp.fit(ds, cfg, &mut rng);
        mlp
    }

    /// Continues training an existing network (used after pruning).
    pub fn retrain(&mut self, ds: &Dataset, cfg: &MlpConfig) {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_beef);
        self.fit(ds, cfg, &mut rng);
    }

    fn fit(&mut self, ds: &Dataset, cfg: &MlpConfig, rng: &mut StdRng) {
        if ds.is_empty() {
            return;
        }
        let n = self.num_inputs;
        let inputs: Vec<f32> = ds
            .patterns()
            .iter()
            .flat_map(|p| p.iter().map(bit))
            .collect();
        let targets: Vec<f32> = ds.outputs().iter().map(|&o| bit(o)).collect();
        let mut order: Vec<usize> = (0..ds.len()).collect();
        let blocks = || self.layers.iter().map(|l| vec![[0.0; LANES]; l.blocks()]);
        let mut scratch = Scratch {
            masks: self.layers.iter().map(Dense::masks).collect(),
            pres: blocks().collect(),
            acts: blocks().collect(),
            delta: Vec::new(),
            prev: Vec::new(),
        };

        for _ in 0..cfg.epochs {
            order.shuffle(rng);
            for batch in order.chunks(cfg.batch_size.max(1)) {
                // Minibatch-averaged step size, applied sample by sample.
                let lr = cfg.learning_rate / batch.len() as f32;
                for &idx in batch {
                    let x = &inputs[idx * n..(idx + 1) * n];
                    self.sgd_sample(x, targets[idx], lr, cfg.weight_decay, &mut scratch);
                }
            }
        }
    }

    /// The activation of layer `l`: the output layer is always a sigmoid.
    pub(crate) fn activation_of(&self, l: usize) -> Activation {
        if l + 1 == self.layers.len() {
            Activation::Sigmoid
        } else {
            self.activation
        }
    }

    /// One SGD update from one sample `x` with label `target`.
    fn sgd_sample(&mut self, x: &[f32], target: f32, lr: f32, decay: f32, s: &mut Scratch) {
        let n_layers = self.layers.len();
        // Forward pass keeping pre-activations and activations.
        for l in 0..n_layers {
            let (done, rest) = s.acts.split_at_mut(l);
            let input = if l == 0 {
                x
            } else {
                &done[l - 1].as_flattened()[..self.layers[l - 1].n_out]
            };
            let layer = &self.layers[l];
            layer.forward(&s.masks[l], input, &mut s.pres[l]);
            let act = self.activation_of(l);
            let pres = &s.pres[l].as_flattened()[..layer.n_out];
            for (y, &p) in rest[0].as_flattened_mut().iter_mut().zip(pres) {
                *y = act.apply(p);
            }
        }
        // Backward pass: logistic loss gives (p - y) at the output.
        s.delta.clear();
        s.delta.push([0.0; LANES]);
        s.delta[0][0] = s.acts[n_layers - 1][0][0] - target;
        for l in (0..n_layers).rev() {
            let layer = &mut self.layers[l];
            // delta holds dL/d(activation); fold in the activation
            // derivative except at the sigmoid output, where (p - y)
            // already includes it.
            if l + 1 < n_layers {
                let act = self.activation;
                let pres = s.pres[l].as_flattened();
                let acts = s.acts[l].as_flattened();
                let delta = &mut s.delta.as_flattened_mut()[..layer.n_out];
                for ((d, &pre), &y) in delta.iter_mut().zip(pres).zip(acts) {
                    *d *= act.derivative(pre, y);
                }
            }
            if l == 0 {
                // Nothing reads the gradient at the primary inputs.
                layer.backward(&s.masks[0], &s.delta, x, None, lr, decay);
            } else {
                s.prev.resize(self.layers[l - 1].blocks(), [0.0; LANES]);
                let input = &s.acts[l - 1].as_flattened()[..self.layers[l].n_in];
                let prev = Some(&mut s.prev[..]);
                self.layers[l].backward(&s.masks[l], &s.delta, input, prev, lr, decay);
                std::mem::swap(&mut s.delta, &mut s.prev);
            }
        }
    }

    /// Runs the network on the `CELLS` inputs in `b.cur` (one row per
    /// network input, one lane per cell) and returns the output
    /// probabilities. Each lane sums exactly as a single-input pass would.
    pub(crate) fn run_batch<'a>(&self, b: &'a mut Batch) -> &'a Cells {
        for (l, layer) in self.layers.iter().enumerate() {
            let act = self.activation_of(l);
            b.next.resize(layer.n_out, [0.0; CELLS]);
            for (o, (out, live)) in b.next.iter_mut().zip(&layer.live).enumerate() {
                let mut acc = [layer.bias(o); CELLS];
                for &i in live {
                    let w = layer.weight(o, i);
                    for (a, &x) in acc.iter_mut().zip(&b.cur[i]) {
                        *a += w * x;
                    }
                }
                for (y, a) in out.iter_mut().zip(acc) {
                    *y = act.apply(a);
                }
            }
            std::mem::swap(&mut b.cur, &mut b.next);
        }
        &b.cur[0]
    }

    /// Output probabilities of the dataset's patterns, `CELLS` at a time:
    /// calls `f` with each batch's patterns and their probabilities.
    fn for_each_batch(&self, patterns: &[Pattern], mut f: impl FnMut(&[Pattern], &Cells)) {
        let mut b = Batch::default();
        for chunk in patterns.chunks(CELLS) {
            b.cur.clear();
            b.cur.extend((0..self.num_inputs).map(|i| {
                let mut row = [0.0; CELLS];
                for (x, p) in row.iter_mut().zip(chunk) {
                    *x = bit(p.get(i));
                }
                row
            }));
            f(chunk, self.run_batch(&mut b));
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of layers (hidden + output).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The probability of class 1 for one pattern.
    pub fn predict_proba(&self, p: &Pattern) -> f32 {
        let mut proba = 0.0;
        self.for_each_batch(std::slice::from_ref(p), |_, out| proba = out[0]);
        proba
    }

    /// Hard classification at threshold 0.5.
    pub fn predict(&self, p: &Pattern) -> bool {
        self.predict_proba(p) > 0.5
    }

    /// Accuracy over a dataset.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        if ds.is_empty() {
            return 1.0;
        }
        let mut labels = ds.outputs().iter();
        let mut correct = 0usize;
        self.for_each_batch(ds.patterns(), |chunk, out| {
            for (&p, &y) in out[..chunk.len()].iter().zip(labels.by_ref()) {
                correct += usize::from((p > 0.5) == y);
            }
        });
        correct as f64 / ds.len() as f64
    }

    /// Team 5's importance proxy: the summed first-layer |weight| feeding
    /// out of each input.
    pub fn input_importance(&self) -> Vec<f64> {
        let first = &self.layers[0];
        let mut importance = vec![0.0; first.n_in];
        for (o, live) in first.live.iter().enumerate() {
            for &i in live {
                importance[i] += f64::from(first.weight(o, i).abs());
            }
        }
        importance
    }

    /// Maximum live fanin over all neurons.
    pub fn max_fanin(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| (0..l.n_out).map(|o| l.fanin(o)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_dataset(f: impl Fn(u64) -> bool, nv: usize) -> Dataset {
        let mut ds = Dataset::new(nv);
        for m in 0..(1u64 << nv) {
            ds.push(Pattern::from_index(m, nv), f(m));
        }
        ds
    }

    #[test]
    fn learns_linear_separable() {
        let ds = full_dataset(|m| m & 1 == 1, 4);
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 200,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        assert!((mlp.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let ds = full_dataset(|m| (m ^ (m >> 1)) & 1 == 1, 2);
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 2000,
            learning_rate: 1.0,
            seed: 3,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        assert!(
            (mlp.accuracy(&ds) - 1.0).abs() < 1e-12,
            "acc {}",
            mlp.accuracy(&ds)
        );
    }

    #[test]
    fn sine_activation_can_learn_parity() {
        // Team 8's observation: the sine activation captures periodic
        // structure like parity. Training is seed-sensitive (the paper cites
        // its "exponential increase in local minima"), so take the best of a
        // few restarts — what their grid search effectively did.
        let ds = full_dataset(|m| m.count_ones() % 2 == 1, 4);
        let best = (0..6)
            .map(|seed| {
                let cfg = MlpConfig {
                    hidden: vec![12],
                    epochs: 800,
                    learning_rate: 1.0,
                    activation: Activation::Sine,
                    seed,
                    ..MlpConfig::default()
                };
                Mlp::train(&ds, &cfg).accuracy(&ds)
            })
            .fold(0.0f64, f64::max);
        assert!(best > 0.9, "best sine accuracy {best}");
    }

    #[test]
    fn deterministic_under_seed() {
        let ds = full_dataset(|m| m % 3 == 0, 5);
        let cfg = MlpConfig {
            epochs: 20,
            ..MlpConfig::default()
        };
        let a = Mlp::train(&ds, &cfg);
        let b = Mlp::train(&ds, &cfg);
        for m in 0..32u64 {
            let p = Pattern::from_index(m, 5);
            assert_eq!(a.predict(&p), b.predict(&p));
        }
    }

    #[test]
    fn importance_highlights_live_input() {
        let ds = full_dataset(|m| m & 0b10 != 0, 4);
        let cfg = MlpConfig {
            hidden: vec![6],
            epochs: 300,
            ..MlpConfig::default()
        };
        let mlp = Mlp::train(&ds, &cfg);
        let imp = mlp.input_importance();
        let max = imp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i);
        assert_eq!(max, Some(1));
    }

    #[test]
    fn pruned_lanes_keep_sums_and_never_read_their_weight() {
        // Neuron 0 reads only input 1; its pruned weight from input 0 is NaN.
        // With a -0.0 bias and a -0.0 product the exact sum is -0.0: adding
        // 0.0 * x for the pruned weight would make it +0.0, and multiplying
        // the stale NaN would make it NaN.
        let mut layer = Dense::new(2, 1, 1.0, &mut StdRng::seed_from_u64(0));
        layer.live[0] = vec![1];
        *layer.weight_mut(0, 0) = f32::NAN;
        *layer.weight_mut(0, 1) = -1.0;
        layer.bias[0][0] = -0.0;
        let masks = layer.masks();
        let input = [1.0, 0.0];

        let mut pre = vec![[0.0; LANES]];
        layer.forward(&masks, &input, &mut pre);
        assert_eq!(pre[0][0].to_bits(), (-0.0f32).to_bits());
        let mlp = Mlp {
            layers: vec![layer.clone()],
            activation: Activation::Sigmoid,
            num_inputs: 2,
        };
        assert_eq!(mlp.predict_proba(&Pattern::from_bools(&[true, false])), 0.5);

        let mut delta = [[0.0; LANES]];
        delta[0][0] = 0.5;
        let mut prev = vec![[f32::NAN; LANES]];
        layer.input_gradient(&masks, &delta, &mut prev);
        assert_eq!(prev[0][..2], [0.0, -0.5]);

        layer.backward(&masks, &delta, &input, None, 0.1, 0.0);
        assert!(layer.weight(0, 0).is_nan());
        assert_eq!(layer.weight(0, 1), -1.0);
        assert_eq!(layer.bias(0), -0.05);
    }

    #[test]
    fn empty_dataset_is_harmless() {
        let ds = Dataset::new(3);
        let mlp = Mlp::train(&ds, &MlpConfig::default());
        let _ = mlp.predict(&Pattern::from_index(0, 3));
    }
}
