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

/// One dense layer: row-major weights `[out][in]` and, per neuron, the
/// ascending list of the inputs it still reads.
///
/// The live lists are the only record of pruning. A weight missing from its
/// neuron's list is never read or written again and keeps the value it had
/// when it was pruned.
#[derive(Clone, Debug)]
pub(crate) struct Dense {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    pub(crate) weights: Vec<f32>,
    pub(crate) live: Vec<Vec<usize>>,
    pub(crate) bias: Vec<f32>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, gain: f32, rng: &mut StdRng) -> Self {
        let scale = gain * (2.0 / (n_in + n_out) as f32).sqrt();
        Dense {
            n_in,
            n_out,
            weights: (0..n_in * n_out)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect(),
            live: vec![(0..n_in).collect(); n_out],
            bias: vec![0.0; n_out],
        }
    }

    /// All `n_in` weights of neuron `o`, live or not.
    pub(crate) fn row(&self, o: usize) -> &[f32] {
        &self.weights[o * self.n_in..(o + 1) * self.n_in]
    }

    /// Weight `i -> o`, or 0.0 if pruned.
    #[cfg(test)]
    pub(crate) fn weight(&self, o: usize, i: usize) -> f32 {
        if self.live[o].binary_search(&i).is_ok() {
            self.row(o)[i]
        } else {
            0.0
        }
    }

    /// Pre-activation of neuron `o`: the bias plus every live weight times
    /// its input, summed in ascending input order.
    fn pre(&self, o: usize, input: &[f32]) -> f32 {
        let row = self.row(o);
        let live = &self.live[o];
        let mut acc = self.bias[o];
        if live.len() == self.n_in {
            for (&w, &x) in row.iter().zip(input) {
                acc += w * x;
            }
        } else {
            for &i in live {
                acc += row[i] * input[i];
            }
        }
        acc
    }

    /// Pre-activations of all neurons, written over `out`.
    fn forward(&self, input: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend((0..self.n_out).map(|o| self.pre(o, input)));
    }

    /// One SGD update of the live weights and the biases from `local`, the
    /// loss gradient at each neuron's pre-activation. When given, `prev`
    /// (zeroed, `n_in` long) receives the gradient at the inputs, computed
    /// from the weights before the update.
    fn backward(
        &mut self,
        local: &[f32],
        input: &[f32],
        mut prev: Option<&mut [f32]>,
        lr: f32,
        decay: f32,
    ) {
        let n_in = self.n_in;
        for (o, &lo) in local.iter().enumerate() {
            let row = &mut self.weights[o * n_in..(o + 1) * n_in];
            let live = &self.live[o];
            match (live.len() == n_in, prev.as_deref_mut()) {
                (true, Some(prev)) => {
                    for ((w, &x), p) in row.iter_mut().zip(input).zip(prev) {
                        *p += lo * *w;
                        *w -= lr * (lo * x + decay * *w);
                    }
                }
                (true, None) => {
                    for (w, &x) in row.iter_mut().zip(input) {
                        *w -= lr * (lo * x + decay * *w);
                    }
                }
                (false, Some(prev)) => {
                    for &i in live {
                        prev[i] += lo * row[i];
                        row[i] -= lr * (lo * input[i] + decay * row[i]);
                    }
                }
                (false, None) => {
                    for &i in live {
                        row[i] -= lr * (lo * input[i] + decay * row[i]);
                    }
                }
            }
            self.bias[o] -= lr * lo;
        }
    }

    /// Live fanin of neuron `o`.
    pub(crate) fn fanin(&self, o: usize) -> usize {
        self.live[o].len()
    }
}

/// The buffers of the per-sample training kernel, allocated once per fit.
struct Scratch {
    /// Pre-activations of each layer.
    pres: Vec<Vec<f32>>,
    /// Activations of each layer.
    acts: Vec<Vec<f32>>,
    /// Loss gradient at the current layer's outputs.
    delta: Vec<f32>,
    /// Loss gradient at the current layer's inputs.
    prev: Vec<f32>,
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
        let widths = || self.layers.iter().map(|l| Vec::with_capacity(l.n_out));
        let mut scratch = Scratch {
            pres: widths().collect(),
            acts: widths().collect(),
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
            let input = if l == 0 { x } else { &done[l - 1] };
            self.layers[l].forward(input, &mut s.pres[l]);
            let act = self.activation_of(l);
            rest[0].clear();
            rest[0].extend(s.pres[l].iter().map(|&p| act.apply(p)));
        }
        // Backward pass: logistic loss gives (p - y) at the output.
        s.delta.clear();
        s.delta.push(s.acts[n_layers - 1][0] - target);
        for l in (0..n_layers).rev() {
            // delta holds dL/d(activation); fold in the activation
            // derivative except at the sigmoid output, where (p - y)
            // already includes it.
            if l + 1 < n_layers {
                let act = self.activation;
                for ((d, &pre), &y) in s.delta.iter_mut().zip(&s.pres[l]).zip(&s.acts[l]) {
                    *d *= act.derivative(pre, y);
                }
            }
            let layer = &mut self.layers[l];
            if l == 0 {
                // Nothing reads the gradient at the primary inputs.
                layer.backward(&s.delta, x, None, lr, decay);
            } else {
                s.prev.clear();
                s.prev.resize(layer.n_in, 0.0);
                layer.backward(&s.delta, &s.acts[l - 1], Some(&mut s.prev), lr, decay);
                std::mem::swap(&mut s.delta, &mut s.prev);
            }
        }
    }

    /// Runs the network on the input held in `cur`, using `next` as the
    /// second buffer, and returns the output probability. Both buffers are
    /// overwritten.
    pub(crate) fn run(&self, cur: &mut Vec<f32>, next: &mut Vec<f32>) -> f32 {
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(cur, next);
            let act = self.activation_of(l);
            for v in next.iter_mut() {
                *v = act.apply(*v);
            }
            std::mem::swap(cur, next);
        }
        cur[0]
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
        let mut cur: Vec<f32> = p.iter().map(bit).collect();
        self.run(&mut cur, &mut Vec::new())
    }

    /// Hard classification at threshold 0.5.
    pub fn predict(&self, p: &Pattern) -> bool {
        self.predict_proba(p) > 0.5
    }

    /// Accuracy over a dataset.
    pub fn accuracy(&self, ds: &Dataset) -> f64 {
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        ds.accuracy_of(|p| {
            cur.clear();
            cur.extend(p.iter().map(bit));
            self.run(&mut cur, &mut next) > 0.5
        })
    }

    /// Team 5's importance proxy: the summed first-layer |weight| feeding
    /// out of each input.
    pub fn input_importance(&self) -> Vec<f64> {
        let first = &self.layers[0];
        let mut importance = vec![0.0; first.n_in];
        for (o, live) in first.live.iter().enumerate() {
            let row = first.row(o);
            for &i in live {
                importance[i] += f64::from(row[i].abs());
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
    fn empty_dataset_is_harmless() {
        let ds = Dataset::new(3);
        let mlp = Mlp::train(&ds, &MlpConfig::default());
        let _ = mlp.predict(&Pattern::from_index(0, 3));
    }
}
