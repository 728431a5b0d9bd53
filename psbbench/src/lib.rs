//! End-to-end and per-layer host-time benchmark of the PSB simulator.
//!
//! `psb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workload::Workload`]), checks every
//! simulation's output, and prints its metrics; README.md in this
//! directory documents the workloads and every metric.

#![forbid(unsafe_code)]

pub mod layers;
pub mod oracle;
pub mod probe;
pub mod workload;

use layers::LayerTimes;
use workload::{Pass, SimRun};

/// Largest share of a workload's traced time, in percent, that may fall
/// outside every bracketed layer before its traced runs count as failed.
/// The only unbracketed work is building the memory system and
/// collecting the statistics, well under 1% of a run.
pub const UNATTRIBUTED_MAX_PCT: f64 = 2.0;

/// Runs attempted and failed, with a line per failure.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that panicked or whose output did not match.
    pub failed: u64,
    /// What went wrong, one line per failed simulation.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Records one simulation and whatever went wrong with it.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.push(format!("{what}: {}", problems.join("; ")));
        }
    }
}

/// Checks every run of every pass against `reference`, the expected
/// cell entry per canonical cell index.
pub fn check_passes(labels: &[String], passes: &[Pass], reference: &[Option<String>]) -> Verdict {
    let mut verdict = Verdict::default();
    for (p, pass) in passes.iter().enumerate() {
        for ((label, run), want) in labels.iter().zip(&pass.runs).zip(reference) {
            let mut problems = Vec::new();
            match (run, want) {
                (None, _) => problems.push("simulation panicked".to_owned()),
                (_, None) => problems.push("no reference output".to_owned()),
                (Some(run), Some(want)) if run.entry != *want => {
                    problems.push("cell entry differs from the reference".to_owned())
                }
                _ => {}
            }
            verdict.record(&format!("pass {} {label}", p + 1), problems);
        }
    }
    verdict
}

/// Compares a traced run with its untraced twin: the statistics must be
/// rendered identically, the rendered artifacts must be identical, and
/// the engine wrapper must have seen no tick the unwrapped simulator
/// would have skipped. Returns what differs.
pub fn exactness(untraced: &SimRun, traced: &SimRun) -> Vec<String> {
    let mut problems = Vec::new();
    if traced.entry != untraced.entry {
        problems.push("traced statistics differ from untraced".to_owned());
    }
    if traced.artifacts != untraced.artifacts {
        problems.push("traced artifacts differ from untraced".to_owned());
    }
    problems.extend(tick_audit(traced.layers.as_ref()));
    problems
}

/// The quiescence audit of one traced run's layer figures.
fn tick_audit(layers: Option<&LayerTimes>) -> Option<String> {
    match layers {
        None => Some("run was not traced".to_owned()),
        Some(l) if l.redundant_ticks > 0 => Some(format!(
            "{} engine ticks the untraced simulator skips (quiescent() not honoured)",
            l.redundant_ticks
        )),
        Some(_) => None,
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status`.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
