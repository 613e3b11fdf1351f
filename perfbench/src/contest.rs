//! `contest`: ten teams × one benchmark per Table I category, mirroring the
//! nested `run_teams` fan-out through `Benchmark::sample` → `Learner::learn`
//! → `eval::evaluate` → `report::table3`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lsml_aig::Aig;
use lsml_benchgen::{suite, BenchData, Benchmark, SampleConfig};
use lsml_core::problem::NODE_LIMIT;
use lsml_core::report::{table3, TeamResults};
use lsml_core::{eval, teams, LearnedCircuit, Learner, Problem, Score};
use rayon::prelude::*;

use crate::metrics::{fnv1a, median, tail, Metrics};
use crate::trace::{self, Span};
use crate::{mix, reference, Pass};

/// Examples per train/valid/test split.
const SAMPLES: usize = 400;

/// One benchmark per category. The ids are fixed, not drawn from the seed:
/// learner cost and accuracy differ by an order of magnitude between the
/// benchmarks of one category, so a seeded pick would make wall time and
/// QoR depend on which benchmarks a seed lands on. The seed draws the
/// samples and the learners' seeds instead.
const BENCH_IDS: [usize; 10] = [5, 15, 25, 35, 45, 55, 65, 75, 85, 95];

pub struct Contest {
    seed: u64,
    teams: Vec<Box<dyn Learner>>,
    benches: Vec<Benchmark>,
}

/// What one (team, benchmark) task left behind for the checks.
struct Task {
    data: BenchData,
    circuit: Option<LearnedCircuit>,
    score: Score,
}

pub fn setup(seed: u64) -> Contest {
    Contest {
        seed,
        teams: teams::all_teams(),
        benches: benchmarks(),
    }
}

/// The contest's benchmarks, shared with `serve` for its session datasets.
pub fn benchmarks() -> Vec<Benchmark> {
    let all = suite();
    BENCH_IDS.iter().map(|&id| all[id].clone()).collect()
}

fn task(team: &dyn Learner, bench: &Benchmark, seed: u64, request: u64) -> Task {
    let cfg = SampleConfig {
        samples_per_split: SAMPLES,
        seed,
    };
    let data = trace::span("benchgen.sample", &bench.name, request, || {
        bench.sample(&cfg)
    });
    let problem = Problem::new(data.train.clone(), data.valid.clone(), seed);
    let learned = trace::span("teams.learn", team.name(), request, || {
        catch_unwind(AssertUnwindSafe(|| team.learn(&problem)))
    });
    // A panicking or over-limit learner counts as failed and is scored as
    // the constant circuit the contest harness substitutes.
    let circuit = learned.ok().filter(|c| c.fits(NODE_LIMIT));
    let scored = circuit
        .clone()
        .unwrap_or_else(|| LearnedCircuit::new(Aig::constant(bench.num_inputs, false), "failed"));
    let score = trace::span("eval.evaluate", team.name(), request, || {
        eval::evaluate(&scored, &data)
    });
    Task {
        data,
        circuit,
        score,
    }
}

impl Contest {
    pub fn pass(&self, index: u64) -> Pass {
        let seed = mix(self.seed, index);
        let start = std::time::Instant::now();
        let (tasks, table) = trace::span("perfbench.contest", "", 0, || {
            let tasks: Vec<Vec<Task>> = self
                .teams
                .par_iter()
                .enumerate()
                .map(|(t, team)| {
                    self.benches
                        .par_iter()
                        .enumerate()
                        .map(|(b, bench)| task(team.as_ref(), bench, seed, (t * 10 + b) as u64))
                        .collect()
                })
                .collect();
            let results: Vec<TeamResults> = self
                .teams
                .iter()
                .zip(&tasks)
                .map(|(team, row)| TeamResults {
                    team: team.name().to_owned(),
                    scores: row.iter().map(|t| t.score.clone()).collect(),
                })
                .collect();
            let table = trace::span("report.table3", "", 0, || table3(&results));
            (tasks, table)
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass {
            wall_s,
            ..Pass::default()
        };
        let mut digest = table.clone().into_bytes();
        for (team, row) in self.teams.iter().zip(&tasks) {
            let mut acc = Vec::new();
            let mut gates = Vec::new();
            for t in row {
                pass.attempted += 1;
                let s = &t.score;
                digest.extend_from_slice(&s.test_accuracy.to_bits().to_le_bytes());
                digest.extend_from_slice(&(s.and_gates as u64).to_le_bytes());
                digest.extend_from_slice(&s.levels.to_le_bytes());
                let Some(c) = &t.circuit else {
                    pass.failed += 1;
                    continue;
                };
                let reference = reference::accuracy(&c.aig, &t.data.test);
                if reference != s.test_accuracy || c.and_gates() != s.and_gates {
                    pass.mismatches.push(format!(
                        "{}: reference accuracy {reference} and {} ANDs, reported {} and {}",
                        team.name(),
                        c.and_gates(),
                        s.test_accuracy,
                        s.and_gates
                    ));
                }
                acc.push(100.0 * s.test_accuracy);
                gates.push(s.and_gates as f64);
            }
            pass.layer.put(
                format!("teams.test_accuracy.{}", team.name()),
                crate::metrics::mean(&acc),
                "%",
            );
            pass.layer.put(
                format!("teams.and_gates.{}", team.name()),
                crate::metrics::mean(&gates),
                "count",
            );
            pass.accuracy.extend(acc);
            pass.gates.extend(gates);
        }
        pass.digest = fnv1a(&digest);
        pass.report = table;
        pass
    }
}

/// Per-layer metrics from the spans of one traced pass.
pub fn layer_metrics(spans: &[Span], m: &mut Metrics) {
    let sum = |name: &str, detail: Option<&str>| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(Span::dur_s)
            .sum()
    };
    let total = sum("teams.learn", None);
    for t in 1..=10 {
        let team = format!("team{t}");
        m.put(
            format!("teams.learn_s.{team}"),
            sum("teams.learn", Some(&team)),
            "s",
        );
    }
    let neural: f64 = ["team3", "team4", "team5"]
        .iter()
        .map(|t| sum("teams.learn", Some(t)))
        .sum();
    m.put("teams.learn_s.total", total, "s");
    m.put(
        "neural.share",
        if total > 0.0 { neural / total } else { 0.0 },
        "ratio",
    );
    let learn_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "teams.learn")
        .map(|s| 1e3 * s.dur_s())
        .collect();
    let (pct, value) = tail(&learn_ms);
    m.put("teams.learn_p50_ms", median(&learn_ms), "ms");
    m.put("teams.learn_tail_ms", value, "ms");
    m.put("teams.learn_tail_pct", pct, "%");
    m.put("benchgen.sample_s", sum("benchgen.sample", None), "s");
    m.put("eval.evaluate_s", sum("eval.evaluate", None), "s");
    m.put("report.table3_s", sum("report.table3", None), "s");
}
