//! `sweep`: `lsml_suite::run` over the five default families plus a small
//! seeded ingested corpus, with checkpoints at the engine's default cadence.

use std::fs;
use std::path::PathBuf;

use lsml_aig::Aig;
use lsml_dtree::{DecisionTree, TreeConfig};
use lsml_pla::{Dataset, Pattern};
use lsml_serve::FaultPlan;
use lsml_suite::checkpoint::{self, Checkpoint};
use lsml_suite::stats::FamilyStats;
use lsml_suite::{default_families, ingest, run, RunOutcome, SuiteConfig, SuiteStats};

use crate::metrics::{fnv1a, median, Metrics};
use crate::trace::{self, Span};
use crate::{mix, Pass, SplitMix};

/// Generated units per family and pass. Short passes give a run many of
/// them, and their median shrugs off seconds-long stalls of a shared host.
const UNITS_PER_FAMILY: u64 = 300;
const SAMPLES: usize = 1024;
/// Ingested files, cycling through `.aag`, `.aig` and `.bench`. Learning them
/// makes set-up mostly computation, so its time does not hinge on file
/// system noise.
const CORPUS_FILES: u64 = 48;
const FAMILIES: [&str; 5] = ["adder", "comparator", "cone", "symmetric", "dnf"];

pub struct Sweep {
    seed: u64,
    dir: PathBuf,
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A learned circuit, as an external dump of learner output holds: a
/// depth-8 decision tree trained on samples of a seeded unit function of
/// one of the default families.
fn learned_circuit(seed: u64, index: u64) -> Aig {
    let families = default_families();
    let oracle = families[index as usize % families.len()].oracle(seed, index);
    let ni = oracle.num_inputs();
    let mut rng = SplitMix(mix(seed, index));
    let mut train = Dataset::new(ni);
    for _ in 0..SAMPLES {
        let p = Pattern::from_index(rng.next(), ni);
        let label = oracle.eval(&p);
        train.push(p, label);
    }
    let cfg = TreeConfig {
        max_depth: Some(8),
        seed,
        ..TreeConfig::default()
    };
    DecisionTree::train(&train, &cfg).to_aig()
}

pub fn setup(seed: u64, out: &std::path::Path) -> std::io::Result<Sweep> {
    let dir = out.join(format!("sweep-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("corpus"))?;
    let sweep = Sweep { seed, dir };
    let corpus_seed = mix(seed, 0xC0_4905);
    for i in 0..CORPUS_FILES {
        let aig = learned_circuit(corpus_seed, i);
        let mut bytes = Vec::new();
        let ext = match i % 3 {
            0 => lsml_aig::aiger::write_aag(&aig, &mut bytes).map(|_| "aag"),
            1 => lsml_aig::aiger::write_aig(&aig, &mut bytes).map(|_| "aig"),
            _ => lsml_aig::bench::write_bench(&aig, &mut bytes).map(|_| "bench"),
        }?;
        fs::write(
            sweep.dir.join("corpus").join(format!("c{i:02}.{ext}")),
            bytes,
        )?;
    }
    Ok(sweep)
}

fn completed(outcome: std::io::Result<RunOutcome>) -> SuiteStats {
    match outcome {
        Ok(RunOutcome::Completed(stats)) => stats,
        Ok(RunOutcome::Killed { processed }) => {
            panic!("no fault is armed, yet the sweep died at {processed}")
        }
        Err(e) => panic!("sweep environment failure: {e}"),
    }
}

impl Sweep {
    fn config(&self, index: u64) -> SuiteConfig {
        SuiteConfig {
            units_per_family: UNITS_PER_FAMILY,
            external_dir: Some(self.dir.join("corpus")),
            seed: mix(self.seed, index),
            // Generous, so that host noise never times a unit out.
            deadline_ms: 60_000,
            samples: SAMPLES,
            checkpoint_path: Some(self.dir.join(format!("pass{index}.ckpt"))),
            fault: FaultPlan::none(),
            ..SuiteConfig::default()
        }
    }

    /// One sweep. Traced, it calls `run` once per family and once for the
    /// corpus: unit seeds hash the family name, so the units are the same.
    pub fn pass(&self, index: u64) -> Pass {
        let cfg = self.config(index);
        let start = std::time::Instant::now();
        let stats = trace::span("perfbench.sweep", "", 0, || {
            if trace::enabled() {
                let mut stats = SuiteStats::default();
                let mut parts: Vec<SuiteConfig> = default_families()
                    .into_iter()
                    .map(|fam| SuiteConfig {
                        families: vec![fam],
                        external_dir: None,
                        ..cfg.clone()
                    })
                    .collect();
                parts.push(SuiteConfig {
                    families: Vec::new(),
                    ..cfg.clone()
                });
                for (i, part) in parts.iter().enumerate() {
                    let name = part
                        .families
                        .first()
                        .map_or("external", |f| f.name.as_str());
                    let part_stats =
                        trace::span("suite.run", name, i as u64, || completed(run(part)));
                    stats.families.extend(part_stats.families);
                    stats.quarantined += part_stats.quarantined;
                    stats.quarantine_log.extend(part_stats.quarantine_log);
                }
                stats
            } else {
                completed(run(&cfg))
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(ckpt) = &cfg.checkpoint_path {
            let _ = fs::remove_file(ckpt);
        }
        if trace::enabled() {
            self.time_io(&cfg, &stats);
        }

        let mut pass = Pass {
            wall_s,
            attempted: stats.total_units() + stats.quarantined,
            ..Pass::default()
        };
        let expected = FAMILIES.len() as u64 * UNITS_PER_FAMILY + CORPUS_FILES;
        if pass.attempted != expected {
            pass.mismatches
                .push(format!("{} of {expected} units classified", pass.attempted));
        }
        let sum = |f: fn(&FamilyStats) -> u64| stats.families.values().map(f).sum::<u64>();
        let classes = [
            ("ok", sum(|f| f.ok)),
            ("approximated", sum(|f| f.approximated)),
            ("over_budget", sum(|f| f.over_budget)),
            ("failed", sum(|f| f.failed)),
            ("timed_out", sum(|f| f.timed_out)),
            ("skipped", sum(|f| f.skipped)),
        ];
        for (class, n) in classes {
            pass.layer
                .put(format!("suite.units.{class}"), n as f64, "count");
        }
        pass.layer
            .put("suite.quarantined", stats.quarantined as f64, "count");
        pass.failed = classes[3].1 + classes[4].1 + stats.quarantined;
        let largest = stats
            .families
            .values()
            .map(|f| f.size_max)
            .max()
            .unwrap_or(0);
        if largest > lsml_core::problem::NODE_LIMIT as u64 {
            pass.mismatches.push(format!("a circuit of {largest} ANDs"));
        }
        // Sweep stats keep sums, not per-unit values: one mean each.
        let acc_n = sum(|f| f.acc_n);
        if acc_n > 0 {
            let acc_sum: f64 = stats.families.values().map(|f| f.acc_sum).sum();
            pass.accuracy.push(100.0 * acc_sum / acc_n as f64);
        }
        let size_n = sum(|f| f.size_n);
        if size_n > 0 {
            pass.gates.push(sum(|f| f.size_sum) as f64 / size_n as f64);
        }
        let json = stats.to_json();
        pass.digest = fnv1a(json.as_bytes());
        pass.report = json;
        pass
    }

    /// Times the corpus reads and checkpoint writes of a traced pass from
    /// outside `run`, which does both internally.
    fn time_io(&self, cfg: &SuiteConfig, stats: &SuiteStats) {
        let mut files: Vec<PathBuf> = fs::read_dir(self.dir.join("corpus"))
            .map(|d| d.filter_map(|e| e.ok()).map(|e| e.path()).collect())
            .unwrap_or_default();
        files.sort();
        for (i, f) in files.iter().enumerate() {
            let name = f
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let _ = trace::span("ingest.read_circuit", name, i as u64, || {
                ingest::read_circuit(f, cfg.ingest_max_bytes)
            });
        }
        let path = self.dir.join("io.ckpt");
        let cp = Checkpoint {
            config_fingerprint: 0,
            cursor: stats.total_units(),
            stats: stats.clone(),
        };
        for i in 0..5 {
            let _ = trace::span("checkpoint.save", "", i, || {
                checkpoint::save(&path, &cp, &FaultPlan::none())
            });
        }
        let _ = fs::remove_file(path);
    }
}

pub fn layer_metrics(spans: &[Span], m: &mut Metrics) {
    let ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| 1e3 * s.dur_s())
            .collect()
    };
    for fam in FAMILIES {
        let s: f64 = spans
            .iter()
            .filter(|s| s.name == "suite.run" && s.detail == fam)
            .map(Span::dur_s)
            .sum();
        m.put(format!("suite.family_s.{fam}"), s, "s");
    }
    m.put("ingest.read_ms", median(&ms("ingest.read_circuit")), "ms");
    m.put("checkpoint.save_ms", median(&ms("checkpoint.save")), "ms");
}
