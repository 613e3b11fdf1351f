//! The repository benchmark: the `contest`, `sweep` and `serve` workloads,
//! end-to-end metrics with `--trace 0` and per-layer metrics with
//! `--trace 1`, every output checked against an independent reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload contest --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run it from the repository root; trace files land in `perfbench/out/`.
//! The last line of standard output is the result object. `workloads.json`
//! documents each workload and holds the expected output digest of its
//! default seed.

mod contest;
mod metrics;
mod reference;
mod serve;
mod sweep;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use metrics::{geomean, host_json, mean, median, num, Metrics};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 7;
const OUT_DIR: &str = "perfbench/out";
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// The per-layer metrics every workload reports with `--trace 1`; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("teams.learn_s.team1", "s"),
    ("teams.learn_s.team2", "s"),
    ("teams.learn_s.team3", "s"),
    ("teams.learn_s.team4", "s"),
    ("teams.learn_s.team5", "s"),
    ("teams.learn_s.team6", "s"),
    ("teams.learn_s.team7", "s"),
    ("teams.learn_s.team8", "s"),
    ("teams.learn_s.team9", "s"),
    ("teams.learn_s.team10", "s"),
    ("teams.learn_s.total", "s"),
    ("neural.share", "ratio"),
    ("teams.learn_p50_ms", "ms"),
    ("teams.learn_tail_ms", "ms"),
    ("teams.learn_tail_pct", "%"),
    ("benchgen.sample_s", "s"),
    ("eval.evaluate_s", "s"),
    ("report.table3_s", "s"),
    ("teams.test_accuracy.team1", "%"),
    ("teams.test_accuracy.team2", "%"),
    ("teams.test_accuracy.team3", "%"),
    ("teams.test_accuracy.team4", "%"),
    ("teams.test_accuracy.team5", "%"),
    ("teams.test_accuracy.team6", "%"),
    ("teams.test_accuracy.team7", "%"),
    ("teams.test_accuracy.team8", "%"),
    ("teams.test_accuracy.team9", "%"),
    ("teams.test_accuracy.team10", "%"),
    ("teams.and_gates.team1", "count"),
    ("teams.and_gates.team2", "count"),
    ("teams.and_gates.team3", "count"),
    ("teams.and_gates.team4", "count"),
    ("teams.and_gates.team5", "count"),
    ("teams.and_gates.team6", "count"),
    ("teams.and_gates.team7", "count"),
    ("teams.and_gates.team8", "count"),
    ("teams.and_gates.team9", "count"),
    ("teams.and_gates.team10", "count"),
    ("suite.family_s.adder", "s"),
    ("suite.family_s.comparator", "s"),
    ("suite.family_s.cone", "s"),
    ("suite.family_s.symmetric", "s"),
    ("suite.family_s.dnf", "s"),
    ("ingest.read_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("suite.units.ok", "count"),
    ("suite.units.approximated", "count"),
    ("suite.units.over_budget", "count"),
    ("suite.units.failed", "count"),
    ("suite.units.timed_out", "count"),
    ("suite.units.skipped", "count"),
    ("suite.quarantined", "count"),
    ("serve.op_p50_ms.ping", "ms"),
    ("serve.op_p50_ms.load_dataset", "ms"),
    ("serve.op_p50_ms.learn", "ms"),
    ("serve.op_p50_ms.accuracies", "ms"),
    ("serve.op_p50_ms.select_best", "ms"),
    ("serve.op_tail_ms.ping", "ms"),
    ("serve.op_tail_ms.load_dataset", "ms"),
    ("serve.op_tail_ms.learn", "ms"),
    ("serve.op_tail_ms.accuracies", "ms"),
    ("serve.op_tail_ms.select_best", "ms"),
    ("serve.select_best_p50_ms.cold", "ms"),
    ("serve.select_best_p50_ms.warm", "ms"),
    ("serve.session_p50_ms", "ms"),
    ("serve.session_tail_ms", "ms"),
    ("serve.tail_pct", "%"),
    ("serve.stats.accepted", "count"),
    ("serve.stats.completed", "count"),
    ("serve.stats.shed", "count"),
    ("serve.stats.deadline_exceeded", "count"),
    ("serve.stats.panics_caught", "count"),
    ("serve.stats.malformed", "count"),
    ("serve.errors.status", "count"),
    ("serve.errors.transport", "count"),
    ("compile.cache_hits", "count"),
    ("compile.cache_misses", "count"),
    ("compile.cache_evictions", "count"),
    ("compile.cache_hit_ratio", "ratio"),
    ("opt.fixpoint_entries", "count"),
    ("opt.fixpoint_evictions", "count"),
    ("rayon.busy_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// SplitMix64 finaliser: derives independent seeds from (seed, index).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream for the benchmark's own input generation.
pub struct SplitMix(pub u64);

impl SplitMix {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What one pass over a workload's fixed job produced.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Circuits, units or sessions attempted, and how many failed or were
    /// refused.
    pub attempted: u64,
    pub failed: u64,
    /// Test accuracy (%) and AND count of each returned circuit.
    pub accuracy: Vec<f64>,
    pub gates: Vec<f64>,
    /// Output-check mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    pub digest: u64,
    /// Human-readable result (Table III, sweep stats).
    pub report: String,
    /// Per-layer counters and QoR rows measured by the pass itself.
    pub layer: Metrics,
}

enum Workload {
    Contest(contest::Contest),
    Sweep(sweep::Sweep),
    Serve(serve::Serve),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Result<Workload, String> {
        match name {
            "contest" => Ok(Workload::Contest(contest::setup(seed))),
            "sweep" => sweep::setup(seed, Path::new(OUT_DIR))
                .map(Workload::Sweep)
                .map_err(|e| format!("sweep set-up: {e}")),
            "serve" => serve::setup(seed)
                .map(Workload::Serve)
                .map_err(|e| format!("serve set-up: {e}")),
            other => Err(format!(
                "unknown workload `{other}` (contest, sweep, serve)"
            )),
        }
    }

    fn pass(&mut self, index: u64) -> Pass {
        match self {
            Workload::Contest(w) => w.pass(index),
            Workload::Sweep(w) => w.pass(index),
            Workload::Serve(w) => w.pass(index),
        }
    }

    /// Passes a traced run makes: enough sessions for a serve tail.
    fn traced_passes(&self) -> u64 {
        match self {
            Workload::Serve(_) => 4,
            _ => 1,
        }
    }

    /// Passes whose circuits make up a run's QoR, so that QoR depends on the
    /// seed alone, not on how many passes the host fits into the run. Each
    /// takes well under the run's seconds.
    fn qor_passes(&self) -> usize {
        match self {
            Workload::Contest(_) => 1,
            Workload::Sweep(_) => 4,
            Workload::Serve(_) => 40,
        }
    }

    fn layer_metrics(&self, spans: &[trace::Span], m: &mut Metrics) {
        match self {
            Workload::Contest(_) => contest::layer_metrics(spans, m),
            Workload::Sweep(_) => sweep::layer_metrics(spans, m),
            Workload::Serve(_) => serve::layer_metrics(spans, m),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as the traced or untraced child of a `--trace 1` run.
    child: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30,
        trace: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--child" => args.child = Some(value()? == "traced"),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(
            "usage: --workload <contest|sweep|serve> --seed <n> --seconds <s> --trace <0|1>".into(),
        );
    }
    Ok(args)
}

/// The `"key": value` that follows `"name": "<workload>"` in
/// `workloads.json`, unquoted.
fn documented(workload: &str, key: &str) -> Option<String> {
    let block = WORKLOADS_JSON
        .split(&format!("\"name\": \"{workload}\""))
        .nth(1)?;
    let block = block.split("\"name\":").next()?;
    let rest = block.split(&format!("\"{key}\":")).nth(1)?;
    let value = rest.split([',', '}', '\n']).next()?;
    Some(value.trim().trim_matches('"').to_owned())
}

/// Runs set-up `SETUPS` times and keeps the last; returns the median time.
fn timed_setup(name: &str, seed: u64) -> Result<(f64, Workload), String> {
    let mut times = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(Workload::setup(name, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&times), workload.expect("SETUPS > 0")))
}

struct Cache {
    hits: u64,
    misses: u64,
    evictions: u64,
    cpu_s: f64,
}

fn cache_now() -> Cache {
    let d = lsml_core::compile::compile_cache_detail();
    Cache {
        hits: d.hits,
        misses: d.misses,
        evictions: d.evictions,
        cpu_s: metrics::cpu_seconds(),
    }
}

/// Adds the process-wide cache counters and pool busy ratio accumulated
/// since `before` over `wall_s` seconds of passes.
fn put_process_layers(m: &mut Metrics, before: &Cache, wall_s: f64) {
    let now = cache_now();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    m.put("compile.cache_hits", hits as f64, "count");
    m.put("compile.cache_misses", misses as f64, "count");
    m.put(
        "compile.cache_evictions",
        (now.evictions - before.evictions) as f64,
        "count",
    );
    let lookups = hits + misses;
    m.put(
        "compile.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        "ratio",
    );
    let (entries, evictions) = lsml_aig::opt::fixpoint_cache_stats();
    m.put("opt.fixpoint_entries", entries as f64, "count");
    m.put("opt.fixpoint_evictions", evictions as f64, "count");
    let width = rayon::current_num_threads().max(1) as f64;
    m.put(
        "rayon.busy_ratio",
        (now.cpu_s - before.cpu_s) / (wall_s * width),
        "ratio",
    );
}

fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    let default_seed: u64 = documented(workload, "default_seed")?.parse().ok()?;
    let digest = documented(workload, "digest").filter(|d| !d.is_empty())?;
    (seed == default_seed).then_some(digest)
}

fn check_digest(workload: &str, seed: u64, digest: u64, mismatches: &mut Vec<String>) {
    if let Some(want) = expected_digest(workload, seed) {
        let got = format!("{digest:016x}");
        if want != got {
            mismatches.push(format!(
                "{workload} digest {got}, workloads.json records {want}"
            ));
        }
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    )
}

/// `--trace 0`: passes over distinct inputs for `seconds`.
fn measure(args: &Args) -> Result<bool, String> {
    let (setup_s, mut w) = timed_setup(&args.workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let qor_passes = w.qor_passes();
    let mut peak_rss_mb = 0.0;
    // No pass starts that would, at the last pass's pace, end past the budget.
    while passes.len() < qor_passes
        || start.elapsed() + Duration::from_secs_f64(passes.last().map_or(0.0, |p| p.wall_s))
            < budget
    {
        passes.push(w.pass(passes.len() as u64));
        // Caches grow with every pass: the peak after a fixed number of
        // passes does not depend on how many more the host fits in.
        if passes.len() == qor_passes {
            peak_rss_mb = metrics::peak_rss_mb();
        }
    }
    drop(w);
    let mut mismatches: Vec<String> = passes.iter().flat_map(|p| p.mismatches.clone()).collect();
    check_digest(&args.workload, args.seed, passes[0].digest, &mut mismatches);
    println!("{}", passes[0].report.trim_end());
    println!(
        "digest {:016x} (pass 0 of {})",
        passes[0].digest,
        passes.len()
    );
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    println!("pass wall seconds {walls:.3?}");

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let accuracy: Vec<f64> = passes[..qor_passes]
        .iter()
        .flat_map(|p| p.accuracy.clone())
        .collect();
    let gates: Vec<f64> = passes[..qor_passes]
        .iter()
        .flat_map(|p| p.gates.clone())
        .collect();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", median(&walls), "s");
    m.put(
        "items_per_s",
        attempted as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    m.put("test_accuracy", mean(&accuracy), "%");
    m.put("and_gates", geomean(&gates), "count");
    m.put(
        "ok_share",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    report_mismatches(&mismatches);
    println!(
        "{}",
        result_line(mismatches.is_empty(), attempted, failed, &m)
    );
    Ok(mismatches.is_empty())
}

fn report_mismatches(mismatches: &[String]) {
    for m in mismatches.iter().take(20) {
        println!("MISMATCH {m}");
    }
}

/// A child of a `--trace 1` run: a fresh process, so caches start cold.
/// Prints `child <key> <value>` and `layer <name> <value>` lines.
fn child(args: &Args, traced: bool) -> Result<bool, String> {
    let mut w = Workload::setup(&args.workload, args.seed)?;
    if traced {
        trace::enable();
    }
    let passes: Vec<Pass> = (0..w.traced_passes()).map(|i| w.pass(i)).collect();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    println!("child wall {wall}");
    println!("child digest {}", passes[0].digest);
    println!(
        "child attempted {}",
        passes.iter().map(|p| p.attempted).sum::<u64>()
    );
    println!(
        "child failed {}",
        passes.iter().map(|p| p.failed).sum::<u64>()
    );
    for p in &passes {
        for m in &p.mismatches {
            println!("child mismatch {m}");
        }
    }
    if traced {
        let spans = trace::take();
        let mut m = Metrics::default();
        w.layer_metrics(&spans, &mut m);
        // Share of the pass wall time during which some layer span is open.
        let self_s = trace::self_times(&spans);
        let (mut root, mut uncovered) = (0.0, 0.0);
        for (s, own) in spans.iter().zip(&self_s) {
            if s.name.starts_with("perfbench.") {
                root += s.dur_s();
                uncovered += own;
            }
        }
        m.put("trace.coverage", 1.0 - uncovered / root, "ratio");
        for (name, value, _) in &m.0 {
            println!("layer {name} {}", num(*value));
        }
        let rollup = trace::rollup(&spans);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
        std::fs::write(format!("{stem}.trace.json"), trace::chrome_json(&spans))
            .and_then(|()| {
                std::fs::write(format!("{stem}.rollup.json"), trace::rollup_json(&rollup))
            })
            .map_err(|e| format!("writing {stem}: {e}"))?;
        println!("child files {stem}.trace.json {stem}.rollup.json");
        println!("child rollup {}", trace::rollup_json(&rollup));
    }
    Ok(true)
}

struct ChildResult {
    wall: f64,
    digest: u64,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    layers: Metrics,
    lines: Vec<String>,
}

fn spawn_child(args: &Args, traced: bool, width1: bool) -> Result<std::process::Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--child", if traced { "traced" } else { "untraced" }])
    .stdout(std::process::Stdio::piped());
    if width1 {
        cmd.env("LSML_NUM_THREADS", "1");
    }
    cmd.spawn().map_err(|e| format!("spawning child: {e}"))
}

/// Waits for a child and parses what it printed.
fn child_result(child: std::process::Child) -> Result<ChildResult, String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let mut r = ChildResult {
        wall: 0.0,
        digest: 0,
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        layers: Metrics::default(),
        lines: Vec::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut f = line.splitn(3, ' ');
        let (kind, key, value) = (f.next(), f.next().unwrap_or(""), f.next().unwrap_or(""));
        match (kind, key) {
            (Some("child"), "wall") => r.wall = value.parse().unwrap_or(0.0),
            (Some("child"), "digest") => r.digest = value.parse().unwrap_or(0),
            (Some("child"), "attempted") => r.attempted = value.parse().unwrap_or(0),
            (Some("child"), "failed") => r.failed = value.parse().unwrap_or(0),
            (Some("child"), "mismatch") => r.mismatches.push(value.to_owned()),
            (Some("layer"), name) => {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| u);
                r.layers.put(name, value.parse().unwrap_or(0.0), unit);
            }
            _ => r.lines.push(line.to_owned()),
        }
    }
    Ok(r)
}

/// `--trace 1`: fixed passes (not `--seconds`) untraced here at the default
/// pool width for the process-wide counters, then the same passes in an
/// untraced and a traced child (pool width 1 for `contest`, so spans nest on
/// one thread). All three must produce the same digest; the traced child's
/// wall over the untraced child's is the tracing overhead.
fn traced(args: &Args) -> Result<bool, String> {
    let mut w = Workload::setup(&args.workload, args.seed)?;
    let before = cache_now();
    let passes: Vec<Pass> = (0..w.traced_passes()).map(|i| w.pass(i)).collect();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let mut m = Metrics::default();
    put_process_layers(&mut m, &before, wall);
    drop(w);
    // The width-1 children run side by side, one per core, so both see the
    // same host conditions; wider children take turns.
    let width1 = args.workload == "contest";
    let (plain, traced) = if width1 {
        let plain = spawn_child(args, false, true)?;
        let traced = spawn_child(args, true, true);
        // Wait for both before reporting either one's failure.
        let plain = child_result(plain);
        let traced = traced.and_then(child_result);
        (plain?, traced?)
    } else {
        let plain = child_result(spawn_child(args, false, false)?)?;
        (plain, child_result(spawn_child(args, true, false)?)?)
    };

    let mut mismatches: Vec<String> = passes.iter().flat_map(|p| p.mismatches.clone()).collect();
    mismatches.extend(plain.mismatches.iter().cloned());
    mismatches.extend(traced.mismatches.iter().cloned());
    check_digest(&args.workload, args.seed, passes[0].digest, &mut mismatches);
    let width = rayon::current_num_threads();
    let child_width = if width1 { 1 } else { width };
    for (what, d) in [("untraced", plain.digest), ("traced", traced.digest)] {
        if d != passes[0].digest {
            mismatches.push(format!(
                "{what} child at width {child_width}: digest {d:016x}, not {:016x} as at width {width}",
                passes[0].digest
            ));
        }
    }
    for line in &traced.lines {
        println!("{line}");
    }
    // Counters add up over passes; contest, whose Table III rows are means,
    // makes a single pass.
    for p in &passes {
        for (name, value, unit) in &p.layer.0 {
            let before = if *unit == "count" {
                m.get(name).unwrap_or(0.0)
            } else {
                0.0
            };
            m.put(name.clone(), before + value, unit);
        }
    }
    for (name, value, unit) in &traced.layers.0 {
        m.put(name.clone(), *value, unit);
    }
    m.put("trace.overhead", traced.wall / plain.wall, "ratio");
    if args.workload == "contest" {
        let coverage = m.get("trace.coverage").unwrap_or(0.0);
        if coverage < 0.95 {
            mismatches.push(format!(
                "span self times cover {coverage} of the traced wall time"
            ));
        }
        println!(
            "neural.share {} = teams 3-5 learn time over {} s of summed learn time (width 1, {} learn calls)",
            num(m.get("neural.share").unwrap_or(0.0)),
            num(m.get("teams.learn_s.total").unwrap_or(0.0)),
            passes[0].attempted
        );
    }
    println!(
        "tracing overhead {} = traced {} s / untraced {} s",
        num(traced.wall / plain.wall),
        num(traced.wall),
        num(plain.wall)
    );
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        out.put(*name, m.get(name).unwrap_or(0.0), unit);
    }
    report_mismatches(&mismatches);
    let attempted =
        passes.iter().map(|p| p.attempted).sum::<u64>() + plain.attempted + traced.attempted;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + plain.failed + traced.failed;
    println!(
        "{}",
        result_line(mismatches.is_empty(), attempted, failed, &out)
    );
    Ok(mismatches.is_empty())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.child.is_none() {
            println!("host {}", host_json());
        }
        match args.child {
            Some(traced) => child(&args, traced),
            None if args.trace => traced(&args),
            None => measure(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
