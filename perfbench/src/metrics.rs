//! Metric collection, summary statistics, process probes and the host block.

use std::process::Command;

/// Metrics in insertion order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile; 0 for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest whole percentile with at least ten samples beyond it, and its
/// value. Below eleven samples no percentile qualifies and the median is
/// returned with percentile 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    for pct in (50..=99).rev() {
        let rank = ((pct as f64 / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (pct as f64, percentile(values, pct as f64));
        }
    }
    (50.0, median(values))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of `x + 1`, minus 1: the typical size of circuits whose
/// sizes span orders of magnitude (and may be 0), which an arithmetic mean
/// lets the few largest decide.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| (v + 1.0).ln()).sum::<f64>() / values.len() as f64).exp() - 1.0
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat`, whose tick is fixed at 1/100 s.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block printed with every result, as one JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lsml_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("LSML_"))
        .collect();
    lsml_env.sort();
    let env: Vec<String> = lsml_env
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "_")))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"rayon_threads\": {}, \"kernel_backend\": \"{}\", \"lsml_env\": {{{}}}, \
         \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        rayon::current_num_threads(),
        lsml_pla::kernels::active_backend().name(),
        env.join(", "),
        // Outside a git checkout, git would report an enclosing repository.
        if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown (not a git checkout)".to_owned()
        },
        command_line("rustc", &["-V"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
