//! Beam-style hyper-parameter exploration (Team 1).
//!
//! Team 1 incremented the LUT-network shape parameters "like a beam search
//! as long as the accuracy is improved". [`beam_search`] reproduces that
//! loop: starting from a seed configuration it repeatedly tries increasing
//! each of (layers, LUTs per layer, LUT fan-in), keeps the best move while
//! validation accuracy improves, and stops at a local optimum.

use lsml_pla::Dataset;

use crate::network::{LutNetConfig, LutNetwork};

/// Outcome of [`beam_search`].
#[derive(Clone, Debug)]
pub struct BeamSearchResult {
    /// The best network found.
    pub network: LutNetwork,
    /// Its configuration.
    pub config: LutNetConfig,
    /// Validation accuracy of the best network.
    pub validation_accuracy: f64,
    /// Number of candidate networks trained.
    pub candidates_tried: usize,
}

/// Grows the network shape greedily while validation accuracy improves.
///
/// `max_rounds` bounds the number of growth steps; each round trains up to
/// three candidate networks (one per incremented parameter).
pub fn beam_search(
    train: &Dataset,
    valid: &Dataset,
    seed_cfg: &LutNetConfig,
    max_rounds: usize,
) -> BeamSearchResult {
    let mut best_cfg = seed_cfg.clone();
    let mut best_net = LutNetwork::train(train, &best_cfg);
    let mut best_acc = best_net.accuracy(valid);
    let mut tried = 1usize;

    for _ in 0..max_rounds {
        let mut round_best: Option<(LutNetConfig, LutNetwork, f64)> = None;
        for candidate in grow_moves(&best_cfg) {
            let net = LutNetwork::train(train, &candidate);
            tried += 1;
            let acc = net.accuracy(valid);
            if acc > best_acc && round_best.as_ref().is_none_or(|(_, _, a)| acc > *a) {
                round_best = Some((candidate, net, acc));
            }
        }
        let Some((cfg, net, acc)) = round_best else {
            break;
        };
        best_cfg = cfg;
        best_net = net;
        best_acc = acc;
    }
    BeamSearchResult {
        network: best_net,
        config: best_cfg,
        validation_accuracy: best_acc,
        candidates_tried: tried,
    }
}

/// The three growth moves of one beam round.
fn grow_moves(cfg: &LutNetConfig) -> Vec<LutNetConfig> {
    let mut moves = Vec::with_capacity(3);
    moves.push(LutNetConfig {
        layers: cfg.layers + 1,
        ..cfg.clone()
    });
    moves.push(LutNetConfig {
        luts_per_layer: cfg.luts_per_layer * 2,
        ..cfg.clone()
    });
    if cfg.lut_inputs < 6 {
        moves.push(LutNetConfig {
            lut_inputs: cfg.lut_inputs + 1,
            ..cfg.clone()
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsml_pla::Pattern;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampled_dataset(f: impl Fn(&Pattern) -> bool, nv: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(nv);
        for _ in 0..n {
            let p = Pattern::random(&mut rng, nv);
            let label = f(&p);
            ds.push(p, label);
        }
        ds
    }

    #[test]
    fn search_never_degrades_seed_accuracy() {
        let f = |p: &Pattern| p.get(0) && (p.get(1) || p.get(2));
        let train = sampled_dataset(f, 8, 300, 1);
        let valid = sampled_dataset(f, 8, 300, 2);
        let seed_cfg = LutNetConfig {
            luts_per_layer: 4,
            layers: 1,
            ..LutNetConfig::default()
        };
        let seed_net = LutNetwork::train(&train, &seed_cfg);
        let seed_acc = seed_net.accuracy(&valid);
        let result = beam_search(&train, &valid, &seed_cfg, 3);
        assert!(result.validation_accuracy >= seed_acc);
        assert!(result.candidates_tried >= 1);
    }

    #[test]
    fn search_stops_at_local_optimum() {
        let f = |p: &Pattern| p.get(3);
        let train = sampled_dataset(f, 6, 200, 3);
        let valid = sampled_dataset(f, 6, 200, 4);
        let result = beam_search(&train, &valid, &LutNetConfig::default(), 10);
        // An easy function: accuracy should be near-perfect quickly.
        assert!(result.validation_accuracy > 0.9);
    }
}
