//! Regenerates **Table V** (Team 3): accuracy degradation of the NN through
//! its synthesis pipeline — initial float network, after connection
//! pruning, after neuron-to-LUT conversion. The paper reports roughly a 2%
//! total drop from pruning plus synthesis.
//!
//! ```text
//! cargo run -p lsml-bench --bin table5_nn_degradation --release
//! ```

use lsml_bench::RunScale;
use lsml_neural::{prune_to_fanin, Mlp, MlpConfig};

fn main() {
    let scale = RunScale::from_env();
    eprintln!(
        "table5: {} benchmarks x {} samples/split",
        scale.count, scale.samples
    );
    let mut initial = [0.0f64; 3];
    let mut pruned = [0.0f64; 3];
    let mut synthesized = [0.0f64; 3];
    let mut counted = 0usize;

    for bench in scale.benchmarks() {
        if bench.num_inputs > 256 {
            continue;
        }
        let data = scale.sample(&bench);
        let cfg = MlpConfig {
            hidden: vec![24, 12],
            epochs: 30,
            ..MlpConfig::default()
        };
        let mut mlp = Mlp::train(&data.train, &cfg);
        let accs = |m: &Mlp| {
            [
                m.accuracy(&data.train),
                m.accuracy(&data.valid),
                m.accuracy(&data.test),
            ]
        };
        let a0 = accs(&mlp);
        prune_to_fanin(&mut mlp, &data.train, &cfg, 8);
        let a1 = accs(&mlp);
        let a2 = [
            mlp.accuracy_quantized(&data.train),
            mlp.accuracy_quantized(&data.valid),
            mlp.accuracy_quantized(&data.test),
        ];
        for i in 0..3 {
            initial[i] += a0[i];
            pruned[i] += a1[i];
            synthesized[i] += a2[i];
        }
        counted += 1;
        eprintln!(
            "{}: test {:.2}% -> {:.2}% -> {:.2}%",
            bench.name,
            100.0 * a0[2],
            100.0 * a1[2],
            100.0 * a2[2]
        );
    }

    let n = counted.max(1) as f64;
    println!("== Table V (ours, {counted} benchmarks) ==");
    println!("stage            train%   valid%   test%");
    for (name, a) in [
        ("initial", initial),
        ("after pruning", pruned),
        ("after synthesis", synthesized),
    ] {
        println!(
            "{name:<16} {:>7.2} {:>8.2} {:>7.2}",
            100.0 * a[0] / n,
            100.0 * a[1] / n,
            100.0 * a[2] / n
        );
    }
}
