//! `cargo xtask mutants` — zero-dependency mutation testing.
//!
//! The bench-gate asks "did the numbers regress?"; this gate asks "do
//! the tests actually *check* anything?". The engine lexes the hot-path
//! files of `psb-core`, `psb-mem`, `psb-cpu` and `psb-obs` (see
//! [`TARGETS`]), generates deterministic, stably-numbered mutants (see
//! [`ops`]), applies each
//! in a scratch copy of the workspace and runs that crate's test suite
//! per mutant (see [`runner`]). A mutant the suite fails to kill is a
//! survivor; survivors must appear, with a one-line justification, in
//! the committed `MUTANTS.toml` baseline (see [`baseline`]) or the run
//! exits nonzero. New blind spots therefore cannot land silently — the
//! same lock-in pattern the bench gate uses for performance.
//!
//! Everything is plain `std`: the workspace's minimal Rust lexer
//! ([`crate::lexer`], shared with `cargo xtask analyze`) instead of a
//! parser crate, `std::thread` instead of a job-queue dependency, a tiny
//! TOML subset reader for the baseline. The engine runs fully offline.

pub mod baseline;
pub mod ops;
pub mod runner;

use baseline::Baseline;
use ops::Mutant;
use psb_obs::json::Json;
use runner::{Config, KillSuite, MutantResult, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The mutated files: the hot-path arenas, the two modern engines, the
/// event-driven pipeline and the Chrome trace sink with its JSON
/// writer, keyed by the package whose suite forms the kill suite.
/// `psb-core`, `psb-mem`, `psb-cpu` and `psb-obs` sit below the crates
/// that depend on them (see the layering table), so a mutant in one
/// never needs another's tests.
pub const TARGETS: &[(&str, &str)] = &[
    ("psb-core", "crates/core/src/predictor/stride.rs"),
    ("psb-core", "crates/core/src/predictor/markov.rs"),
    ("psb-core", "crates/core/src/predictor/pangloss.rs"),
    ("psb-core", "crates/core/src/predictor/dspatch.rs"),
    ("psb-core", "crates/core/src/stream/buffer.rs"),
    ("psb-mem", "crates/mem/src/cache.rs"),
    ("psb-cpu", "crates/cpu/src/pipeline.rs"),
    ("psb-obs", "crates/obs/src/json.rs"),
    ("psb-obs", "crates/obs/src/trace.rs"),
];

/// Parsed command line.
struct Opts {
    krate: Option<String>,
    filter: Vec<String>,
    sample: Option<usize>,
    seed: u64,
    timeout: Duration,
    jobs: usize,
    list: bool,
    baseline: PathBuf,
    report: Option<PathBuf>,
}

/// Entry point for `cargo xtask mutants`.
pub fn mutants(args: &[String]) -> ExitCode {
    let root = crate::repo_root();
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask mutants: {e}");
            return ExitCode::from(2);
        }
    };

    // Generate the full deterministic mutant set for the selected
    // crates. IDs and order depend only on the committed sources.
    let mut all: Vec<Mutant> = Vec::new();
    for &(krate, rel) in TARGETS {
        if opts.krate.as_deref().is_some_and(|k| k != krate) {
            continue;
        }
        let path = root.join(rel);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask mutants: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        all.extend(ops::generate(rel, krate, &source));
    }
    if all.is_empty() {
        eprintln!("xtask mutants: no mutants generated (unknown --crate?)");
        return ExitCode::FAILURE;
    }

    // Optional substring filter, then optional seeded sample (CI smoke
    // mode): pick N, keep source order.
    let pool: Vec<usize> = (0..all.len())
        .filter(|&i| {
            opts.filter.is_empty() || opts.filter.iter().any(|f| all[i].id().contains(f.as_str()))
        })
        .collect();
    let selected: Vec<usize> = match opts.sample {
        Some(n) => sample_indices(pool.len(), n, opts.seed).into_iter().map(|i| pool[i]).collect(),
        None => pool,
    };
    if selected.is_empty() {
        eprintln!("xtask mutants: no mutants match the filter");
        return ExitCode::FAILURE;
    }

    if opts.list {
        println!("{:<4} {:<58} mutation", "#", "id");
        for &i in &selected {
            let m = &all[i];
            println!("{:<4} {:<58} {}", i, m.id(), m.describe());
        }
        println!(
            "xtask mutants: {} of {} mutant(s) selected across {} file(s)",
            selected.len(),
            all.len(),
            TARGETS
                .iter()
                .filter(|(k, _)| opts.krate.as_deref().is_none_or(|sel| sel == *k))
                .count(),
        );
        return ExitCode::SUCCESS;
    }

    let base = match Baseline::load(&opts.baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask mutants: baseline: {e}");
            return ExitCode::FAILURE;
        }
    };

    let chosen: Vec<Mutant> = selected.iter().map(|&i| all[i].clone()).collect();
    println!(
        "xtask mutants: running {} mutant(s), {} job(s), {}s timeout",
        chosen.len(),
        opts.jobs,
        opts.timeout.as_secs(),
    );
    let cfg = Config {
        root: root.clone(),
        timeout: opts.timeout,
        jobs: opts.jobs,
        suite: KillSuite::Cargo,
        verbose: true,
    };
    let results = match runner::run(&cfg, &chosen) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask mutants: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Tally per crate and collect survivors.
    let mut tally: BTreeMap<&str, [usize; 4]> = BTreeMap::new();
    let mut survivors: Vec<&Mutant> = Vec::new();
    let mut in_order: Vec<(&Mutant, Outcome, f64)> =
        results.iter().map(|r: &MutantResult| (&chosen[r.index], r.outcome, r.secs)).collect();
    in_order.sort_by_key(|(m, ..)| (m.file.clone(), m.start, m.op));
    for &(m, outcome, _) in &in_order {
        let slot = match outcome {
            Outcome::Killed => 0,
            Outcome::Timeout => 1,
            Outcome::Survived => 2,
            Outcome::Unviable => 3,
        };
        tally.entry(m.krate.as_str()).or_default()[slot] += 1;
        if outcome == Outcome::Survived {
            survivors.push(m);
        }
    }

    println!();
    println!("{:<9} {:>7}  {:<58} mutation", "outcome", "secs", "id");
    for (m, outcome, secs) in &in_order {
        println!("{:<9} {:>7.1}  {:<58} {}", outcome.name(), secs, m.id(), m.describe());
    }
    println!();
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>9} {:>7}",
        "crate", "killed", "timeout", "survived", "unviable", "score"
    );
    for (krate, [k, t, s, u]) in &tally {
        println!(
            "{:<10} {:>7} {:>8} {:>9} {:>9} {:>6.1}%",
            krate,
            k,
            t,
            s,
            u,
            score(*k, *t, *s) * 100.0,
        );
    }
    let (tk, tt, ts, tu) = tally
        .values()
        .fold((0, 0, 0, 0), |(a, b, c, d), [k, t, s, u]| (a + k, b + t, c + s, d + u));
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>9} {:>6.1}%",
        "total",
        tk,
        tt,
        ts,
        tu,
        score(tk, tt, ts) * 100.0,
    );

    if let Some(path) = &opts.report {
        let json = report_json(&opts, &in_order, &tally);
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("xtask mutants: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask mutants: report written to {}", path.display());
    }

    gate(&base, &survivors, &all, &results, &chosen, opts.krate.as_deref())
}

/// Kill rate: killed and timed-out mutants over all viable mutants.
fn score(killed: usize, timeout: usize, survived: usize) -> f64 {
    let viable = killed + timeout + survived;
    if viable == 0 {
        1.0
    } else {
        (killed + timeout) as f64 / viable as f64
    }
}

/// Applies the survivor baseline: fail on survivors missing from it,
/// warn about stale entries (mutant no longer generated, or no longer
/// surviving).
fn gate(
    base: &Baseline,
    survivors: &[&Mutant],
    all: &[Mutant],
    results: &[MutantResult],
    chosen: &[Mutant],
    krate_filter: Option<&str>,
) -> ExitCode {
    let mut failed = false;
    let new: Vec<&&Mutant> =
        survivors.iter().filter(|m| !base.survivors.contains_key(&m.id())).collect();
    let known = survivors.len() - new.len();
    if known > 0 {
        println!("xtask mutants: {known} survivor(s) covered by the baseline");
    }
    if !new.is_empty() {
        failed = true;
        eprintln!();
        eprintln!(
            "xtask mutants: {} NEW survivor(s) not in the baseline — either add a \
             killing test or admit each one with a justification:",
            new.len(),
        );
        eprintln!();
        for m in &new {
            eprintln!(
                "{}",
                Baseline::stanza(&m.id(), &format!("TODO: justify ({})", m.describe()))
            );
        }
    }

    // Staleness: baseline entries that no longer match a generated
    // mutant, or that were executed this run and did not survive.
    let generated: std::collections::BTreeSet<String> = all.iter().map(Mutant::id).collect();
    let survived_ids: std::collections::BTreeSet<String> =
        survivors.iter().map(|m| m.id()).collect();
    let executed: std::collections::BTreeSet<String> =
        results.iter().map(|r| chosen[r.index].id()).collect();
    for id in base.survivors.keys() {
        if generated.contains(id) {
            if executed.contains(id) && !survived_ids.contains(id) {
                eprintln!(
                    "xtask mutants: warning: stale baseline entry {id} (killed this run — \
                     remove it from the baseline)"
                );
            }
            continue;
        }
        // The entry matches no generated mutant. Under --crate, entries
        // belonging to the other crates' files are simply out of scope;
        // everything else is stale (the source moved, or the file is
        // not mutation-tested at all).
        let file = id.split(':').next().unwrap_or("");
        match TARGETS.iter().find(|(_, rel)| *rel == file) {
            Some((krate, _)) if krate_filter.is_some_and(|sel| sel != *krate) => {}
            _ => eprintln!("xtask mutants: warning: stale baseline entry {id} (no such mutant)"),
        }
    }

    if failed {
        eprintln!("xtask mutants: FAIL (new survivors)");
        ExitCode::FAILURE
    } else {
        println!("xtask mutants: ok");
        ExitCode::SUCCESS
    }
}

/// Builds the `psb-mutants-v1` report artifact.
fn report_json(
    opts: &Opts,
    in_order: &[(&Mutant, Outcome, f64)],
    tally: &BTreeMap<&str, [usize; 4]>,
) -> Json {
    Json::obj([
        ("schema", Json::str("psb-mutants-v1")),
        ("seed", Json::u64(opts.seed)),
        ("sample", opts.sample.map_or(Json::Null, |n| Json::u64(n as u64))),
        ("crate", opts.krate.as_deref().map_or(Json::Null, Json::str)),
        (
            "results",
            Json::arr(in_order.iter().map(|(m, outcome, secs)| {
                Json::obj([
                    ("id", Json::str(m.id())),
                    ("file", Json::str(&*m.file)),
                    ("crate", Json::str(&*m.krate)),
                    ("op", Json::str(m.op)),
                    ("line", Json::u64(m.line as u64)),
                    ("outcome", Json::str(outcome.name())),
                    ("secs", Json::f64((secs * 10.0).round() / 10.0)),
                    ("mutation", Json::str(m.describe())),
                ])
            })),
        ),
        (
            "summary",
            Json::arr(tally.iter().map(|(krate, [k, t, s, u])| {
                Json::obj([
                    ("crate", Json::str(*krate)),
                    ("killed", Json::u64(*k as u64)),
                    ("timeout", Json::u64(*t as u64)),
                    ("survived", Json::u64(*s as u64)),
                    ("unviable", Json::u64(*u as u64)),
                    ("score", Json::f64((score(*k, *t, *s) * 1000.0).round() / 1000.0)),
                ])
            })),
        ),
    ])
}

/// Parses the subcommand flags (see the `COMMANDS` table for the
/// synopsis; `--help` is handled by the dispatcher).
fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        krate: None,
        filter: Vec::new(),
        sample: None,
        seed: 1,
        timeout: Duration::from_secs(300),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
        list: false,
        baseline: crate::repo_root().join("MUTANTS.toml"),
        report: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--crate" => {
                let k = value("--crate")?;
                if !TARGETS.iter().any(|(krate, _)| *krate == k) {
                    return Err(format!(
                        "--crate {k:?} is not mutation-tested (try: {})",
                        targets_crates().join(", "),
                    ));
                }
                opts.krate = Some(k);
            }
            "--filter" => opts.filter.push(value("--filter")?),
            "--sample" => {
                opts.sample =
                    Some(value("--sample")?.parse().map_err(|_| "--sample needs a number")?)
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|_| "--seed needs a number")?
            }
            "--timeout" => {
                opts.timeout = Duration::from_secs(
                    value("--timeout")?.parse().map_err(|_| "--timeout needs seconds")?,
                )
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?.parse().map_err(|_| "--jobs needs a number")?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--list" => opts.list = true,
            "--baseline" => opts.baseline = PathBuf::from(value("--baseline")?),
            "--report" => opts.report = Some(PathBuf::from(value("--report")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// The distinct crate names in [`TARGETS`].
fn targets_crates() -> Vec<&'static str> {
    let mut v: Vec<&str> = TARGETS.iter().map(|(k, _)| *k).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// SplitMix64 — the same tiny deterministic generator the workloads
/// crate uses for trace synthesis, inlined here because xtask may only
/// depend on `psb-obs` (layering rule).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks `n` distinct indices out of `len` with a seeded partial
/// Fisher–Yates shuffle, returned in ascending order so sampled runs
/// print in source order.
fn sample_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let n = n.min(len);
    let mut pool: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in 0..n {
        let j = i + (splitmix64(&mut state) as usize) % (len - i);
        pool.swap(i, j);
    }
    let mut picked = pool[..n].to_vec();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let a = sample_indices(100, 25, 1);
        let b = sample_indices(100, 25, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        let mut c = a.clone();
        c.dedup();
        assert_eq!(c.len(), 25, "indices must be distinct");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending order");
        let d = sample_indices(100, 25, 2);
        assert_ne!(a, d, "different seeds pick different samples");
        assert_eq!(sample_indices(10, 99, 1), (0..10).collect::<Vec<_>>());
    }

    /// The lexer must cover every byte of every real source file: the
    /// engine edits files by byte span, so a lexer that drops or
    /// duplicates bytes would corrupt a scratch. Round-trip the entire
    /// workspace.
    #[test]
    fn lexer_round_trips_every_workspace_source_file() {
        let root = crate::repo_root();
        let mut checked = 0usize;
        for dir in crate::crate_dirs(&root) {
            for file in crate::rust_files(&dir.join("src")) {
                let Ok(source) = std::fs::read_to_string(&file) else {
                    continue;
                };
                let tokens = crate::lexer::lex(&source);
                let rebuilt: String = tokens.iter().map(|t| t.text(&source)).collect();
                assert_eq!(rebuilt, source, "lexer dropped bytes in {}", file.display());
                let mut pos = 0;
                for t in &tokens {
                    assert_eq!(t.start, pos, "gap in {}", file.display());
                    pos = t.end;
                }
                checked += 1;
            }
        }
        assert!(checked > 30, "expected to lex the whole workspace, got {checked} files");
    }

    /// Mutant IDs over the real targets are stable across generation
    /// runs and unique — the property MUTANTS.toml depends on.
    #[test]
    fn target_mutants_have_stable_unique_ids() {
        let root = crate::repo_root();
        let mut once: Vec<String> = Vec::new();
        let mut twice: Vec<String> = Vec::new();
        for &(krate, rel) in TARGETS {
            let source = std::fs::read_to_string(root.join(rel)).unwrap();
            once.extend(ops::generate(rel, krate, &source).iter().map(Mutant::id));
            twice.extend(ops::generate(rel, krate, &source).iter().map(Mutant::id));
        }
        assert_eq!(once, twice, "generation must be deterministic");
        assert!(!once.is_empty());
        let mut sorted = once.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), once.len(), "IDs must be unique");
    }
}
