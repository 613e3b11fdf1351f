//! Regenerates **Table IV** (Team 3): average train/valid/test accuracy and
//! circuit size of the plain DT, the fringe DT, the pruned-and-LUT-ized NN,
//! the randomly wired LUT-Net baseline, and the 3-model ensemble.
//!
//! The paper's finding to reproduce: Fr-DT beats DT by ~5 points *with a
//! smaller circuit*, NN beats the randomly wired LUT-Net, and the ensemble
//! tops everything.
//!
//! ```text
//! cargo run -p lsml-bench --bin table4_team3_methods --release
//! ```

use lsml_bench::{run_team, RunScale};
use lsml_core::teams::Team3;
use lsml_core::Problem;
use lsml_dtree::{train_fringe_tree, Criterion, DecisionTree, FringeConfig, TreeConfig};
use lsml_lutnet::{LutNetConfig, LutNetwork, Wiring};
use lsml_neural::{prune_to_fanin, Mlp, MlpConfig};

struct Row {
    train: f64,
    valid: f64,
    test: f64,
    size: f64,
}

fn main() {
    let scale = RunScale::from_env();
    eprintln!(
        "table4: {} benchmarks x {} samples/split",
        scale.count, scale.samples
    );
    let mut dt = Vec::new();
    let mut fr = Vec::new();
    let mut nn = Vec::new();
    let mut lutnet = Vec::new();

    for bench in scale.benchmarks() {
        let data = scale.sample(&bench);
        let problem = Problem::new(data.train.clone(), data.valid.clone(), scale.seed);
        let tree_cfg = TreeConfig {
            criterion: Criterion::Entropy,
            max_depth: Some(12),
            ..TreeConfig::default()
        };

        let t = DecisionTree::train(&problem.train, &tree_cfg);
        dt.push(Row {
            train: t.accuracy(&data.train),
            valid: t.accuracy(&data.valid),
            test: t.accuracy(&data.test),
            size: t.to_aig().num_ands() as f64,
        });

        let f = train_fringe_tree(
            &problem.train,
            &FringeConfig {
                tree: tree_cfg.clone(),
                max_iterations: 4,
                max_features: problem.num_inputs() + 128,
            },
        );
        fr.push(Row {
            train: f.accuracy(&data.train),
            valid: f.accuracy(&data.valid),
            test: f.accuracy(&data.test),
            size: f.to_aig().num_ands() as f64,
        });

        if problem.num_inputs() <= 256 {
            let nn_cfg = MlpConfig {
                hidden: vec![24, 12],
                epochs: 30,
                ..MlpConfig::default()
            };
            let mut mlp = Mlp::train(&problem.train, &nn_cfg);
            prune_to_fanin(&mut mlp, &problem.train, &nn_cfg, 8);
            let aig = mlp.to_aig_quantized(8);
            nn.push(Row {
                train: mlp.accuracy_quantized(&data.train),
                valid: mlp.accuracy_quantized(&data.valid),
                test: mlp.accuracy_quantized(&data.test),
                size: aig.num_ands() as f64,
            });
        }

        // LUT-Net baseline: same spirit, random (not learnt) connections.
        let net = LutNetwork::train(
            &problem.train,
            &LutNetConfig {
                luts_per_layer: 64,
                layers: 4,
                wiring: Wiring::Random,
                ..LutNetConfig::default()
            },
        );
        lutnet.push(Row {
            train: data.train.accuracy_of(|p| net.predict(p)),
            valid: data.valid.accuracy_of(|p| net.predict(p)),
            test: data.test.accuracy_of(|p| net.predict(p)),
            size: net.to_aig().num_ands() as f64,
        });
    }

    // The full Team 3 ensemble via the team pipeline.
    let ensemble = run_team(&Team3::default(), &scale);
    let erow = ensemble.table_row();

    println!("== Table IV (ours) ==");
    println!("method      train%   valid%   test%    avg_size");
    for (name, rows) in [
        ("DT", &dt),
        ("Fr-DT", &fr),
        ("NN", &nn),
        ("LUT-Net", &lutnet),
    ] {
        let n = rows.len().max(1) as f64;
        println!(
            "{name:<10} {:>7.2} {:>8.2} {:>7.2} {:>11.2}",
            100.0 * rows.iter().map(|r| r.train).sum::<f64>() / n,
            100.0 * rows.iter().map(|r| r.valid).sum::<f64>() / n,
            100.0 * rows.iter().map(|r| r.test).sum::<f64>() / n,
            rows.iter().map(|r| r.size).sum::<f64>() / n,
        );
    }
    println!(
        "{:<10} {:>7} {:>8.2} {:>7.2} {:>11.2}",
        "ensemble",
        "-",
        100.0 * erow.valid_accuracy,
        100.0 * erow.test_accuracy,
        erow.and_gates as f64
    );
}
