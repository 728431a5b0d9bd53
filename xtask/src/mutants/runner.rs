//! Mutant execution: scratch workspaces, kill-suite runs, timeouts.
//!
//! Each worker thread owns one scratch copy of the workspace under
//! `target/mutants/scratch-N` (the copy skips `.git` and `target`, so
//! it is a few MB of sources). The worker first runs the kill suite
//! unmutated — a sanity check that the suite is green *and* a warm-up
//! of the scratch's incremental build cache, which is what makes the
//! per-mutant cycle cheap (one file changed → ~seconds to rebuild).
//! Then it loops: claim a mutant from the shared cursor, splice it into
//! the scratch, run the suite under a deadline, restore the original
//! bytes, record the outcome.
//!
//! Outcomes:
//!
//! * **killed** — the suite failed: a test caught the mutation.
//! * **survived** — the suite passed: nothing noticed. Gate material.
//! * **timeout** — the suite ran past `--timeout`; mutations that hang
//!   a loop count as caught (the suite *would* fail, just not quickly).
//! * **unviable** — the mutated crate did not compile. Excluded from
//!   the score: it says nothing about test strength.

use super::ops::Mutant;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What happened to one mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The kill suite failed — the mutation was detected.
    Killed,
    /// The kill suite passed — the mutation went unnoticed.
    Survived,
    /// The kill suite exceeded the deadline (counts as caught).
    Timeout,
    /// The mutated crate failed to compile (excluded from scoring).
    Unviable,
}

impl Outcome {
    /// Lower-case name used in tables, reports and the baseline.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Killed => "killed",
            Outcome::Survived => "survived",
            Outcome::Timeout => "timeout",
            Outcome::Unviable => "unviable",
        }
    }
}

/// One executed mutant.
#[derive(Clone, Debug)]
pub struct MutantResult {
    /// Index into the caller's mutant list.
    pub index: usize,
    /// What happened.
    pub outcome: Outcome,
    /// Wall-clock seconds the kill suite ran.
    pub secs: f64,
}

/// How to decide whether a mutant survives.
pub enum KillSuite {
    /// The real thing: `cargo test --no-run -p <crate>` (compile step —
    /// failure means unviable) then `cargo test -q -p <crate>` with
    /// `PSB_FORCE_TICK=1`.
    Cargo,
    /// A shell command run in the scratch root (`sh -c <cmd>`); exit 0
    /// means survived, nonzero killed. No compile step, so nothing is
    /// ever unviable. Used by the engine's own tests, which must not
    /// cost a cargo build per mutant.
    #[cfg_attr(not(test), allow(dead_code))]
    Custom(String),
}

/// Execution parameters.
pub struct Config {
    /// The workspace to copy into scratches.
    pub root: PathBuf,
    /// Per-mutant deadline across compile + test.
    pub timeout: Duration,
    /// Worker thread count (each owns one scratch).
    pub jobs: usize,
    /// The kill suite.
    pub suite: KillSuite,
    /// Print one line per completed mutant.
    pub verbose: bool,
}

/// Runs every mutant and returns results in completion order. Fails
/// fast (with `Err`) when a scratch cannot be built or the unmutated
/// kill suite is not green — running mutants against a red suite would
/// classify everything as killed and report a fantasy score.
pub fn run(cfg: &Config, mutants: &[Mutant]) -> Result<Vec<MutantResult>, String> {
    let scratch_base = cfg.root.join("target").join("mutants");
    std::fs::create_dir_all(&scratch_base)
        .map_err(|e| format!("{}: {e}", scratch_base.display()))?;

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let results: Mutex<Vec<MutantResult>> = Mutex::new(Vec::with_capacity(mutants.len()));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let done = AtomicUsize::new(0);
    let jobs = cfg.jobs.max(1).min(mutants.len().max(1));

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let scratch = scratch_base.join(format!("scratch-{worker}"));
            let cursor = &cursor;
            let failed = &failed;
            let results = &results;
            let errors = &errors;
            let done = &done;
            scope.spawn(move || {
                if let Err(e) = worker_loop(cfg, mutants, &scratch, cursor, failed, results, done) {
                    failed.store(true, Ordering::SeqCst);
                    errors.lock().unwrap().push(e);
                }
            });
        }
    });

    let errors = errors.into_inner().unwrap();
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(results.into_inner().unwrap())
}

/// One worker: build the scratch, verify the suite is green, then drain
/// the cursor.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    cfg: &Config,
    mutants: &[Mutant],
    scratch: &Path,
    cursor: &AtomicUsize,
    failed: &AtomicBool,
    results: &Mutex<Vec<MutantResult>>,
    done: &AtomicUsize,
) -> Result<(), String> {
    make_scratch(&cfg.root, scratch)?;

    // Green check: the unmutated suite must pass for every crate we
    // will test in this run. Warm-up deadline is generous — a cold
    // build is much slower than the per-mutant incremental one.
    let mut krates: Vec<&str> = mutants.iter().map(|m| m.krate.as_str()).collect();
    krates.sort_unstable();
    krates.dedup();
    let warmup = Instant::now() + cfg.timeout.max(Duration::from_secs(600)) * 4;
    for krate in &krates {
        match run_suite(cfg, scratch, krate, warmup) {
            Some(Outcome::Survived) => {} // suite green on pristine code
            Some(o) => {
                return Err(format!(
                    "unmutated kill suite for {krate} is not green in {} ({}); \
                     fix the tests before mutation-scoring them",
                    scratch.display(),
                    o.name(),
                ));
            }
            None => return Err(format!("unmutated kill suite for {krate} timed out")),
        }
    }

    loop {
        if failed.load(Ordering::SeqCst) {
            return Ok(());
        }
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        let Some(mutant) = mutants.get(i) else {
            return Ok(());
        };
        let target = scratch.join(&mutant.file);
        let original =
            std::fs::read_to_string(&target).map_err(|e| format!("{}: {e}", target.display()))?;
        let mutated = mutant.apply(&original);
        std::fs::write(&target, &mutated).map_err(|e| format!("{}: {e}", target.display()))?;
        let started = Instant::now();
        let outcome = run_suite(cfg, scratch, &mutant.krate, started + cfg.timeout)
            .unwrap_or(Outcome::Timeout);
        let secs = started.elapsed().as_secs_f64();
        // Restore before anything can observe the scratch again.
        std::fs::write(&target, &original).map_err(|e| format!("{}: {e}", target.display()))?;
        let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
        if cfg.verbose {
            println!(
                "[{finished}/{}] {:<8} {:>6.1}s  {}  {}",
                mutants.len(),
                outcome.name(),
                secs,
                mutant.id(),
                mutant.describe(),
            );
        }
        results.lock().unwrap().push(MutantResult { index: i, outcome, secs });
    }
}

/// Copies the workspace sources into `scratch`, skipping `.git`, any
/// `target` directory, and prior scratches. The scratch is reused
/// across runs (it is inside `target/`), so stale files from a previous
/// invocation are overwritten but never deleted — harmless, since only
/// files present in the current tree are compiled via the workspace
/// manifest.
fn make_scratch(root: &Path, scratch: &Path) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let src_dir = root.join(&rel);
        let entries =
            std::fs::read_dir(&src_dir).map_err(|e| format!("{}: {e}", src_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", src_dir.display()))?;
            let name = entry.file_name();
            let name_str = name.to_string_lossy();
            if name_str == ".git" || name_str == "target" {
                continue;
            }
            let rel_child = rel.join(&name);
            let src = root.join(&rel_child);
            let dst = scratch.join(&rel_child);
            let ty = entry.file_type().map_err(|e| format!("{}: {e}", src.display()))?;
            if ty.is_dir() {
                std::fs::create_dir_all(&dst).map_err(|e| format!("{}: {e}", dst.display()))?;
                stack.push(rel_child);
            } else if ty.is_file() {
                // Skip unchanged files so incremental compilation sees
                // stable mtimes across runs.
                if !same_contents(&src, &dst) {
                    std::fs::copy(&src, &dst)
                        .map_err(|e| format!("{} -> {}: {e}", src.display(), dst.display()))?;
                }
            }
        }
    }
    Ok(())
}

/// True when both files exist with identical bytes.
fn same_contents(a: &Path, b: &Path) -> bool {
    match (std::fs::read(a), std::fs::read(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// Runs the kill suite in `scratch` for `krate` under `deadline`.
/// `None` means the deadline expired; otherwise the outcome.
fn run_suite(cfg: &Config, scratch: &Path, krate: &str, deadline: Instant) -> Option<Outcome> {
    match &cfg.suite {
        KillSuite::Custom(cmd) => {
            let mut c = Command::new("sh");
            c.args(["-c", cmd]).current_dir(scratch);
            match run_to_deadline(c, deadline)? {
                true => Some(Outcome::Survived),
                false => Some(Outcome::Killed),
            }
        }
        KillSuite::Cargo => {
            // Compile step first: a mutant that does not build is
            // unviable, not killed.
            let mut build = Command::new("cargo");
            build.args(["test", "-q", "--no-run", "-p", krate]).current_dir(scratch);
            build.env("PSB_FORCE_TICK", "1").env_remove("CARGO_TARGET_DIR");
            if !run_to_deadline(build, deadline)? {
                return Some(Outcome::Unviable);
            }
            let mut test = Command::new("cargo");
            test.args(["test", "-q", "-p", krate]).current_dir(scratch);
            test.env("PSB_FORCE_TICK", "1").env_remove("CARGO_TARGET_DIR");
            match run_to_deadline(test, deadline)? {
                true => Some(Outcome::Survived),
                false => Some(Outcome::Killed),
            }
        }
    }
}

/// Spawns the command with discarded output and polls it against the
/// deadline. `Some(success)` on exit, `None` on timeout (the command and
/// everything it started are killed).
///
/// The command leads a process group of its own, so a timeout reaches
/// the processes it spawned too: killing only `cargo test` would leave
/// the mutated test binary (typically stuck in the very loop the
/// mutation broke) running on, skewing every later measurement. The
/// group also stops a terminal's Ctrl-C from reaching the suite, which
/// is left to run to its deadline.
fn run_to_deadline(mut cmd: Command, deadline: Instant) -> Option<bool> {
    cmd.stdout(Stdio::null()).stderr(Stdio::null()).stdin(Stdio::null());
    #[cfg(unix)]
    std::os::unix::process::CommandExt::process_group(&mut cmd, 0);
    let Ok(mut child) = cmd.spawn() else {
        return Some(false);
    };
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status.success()),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Ok(None) => {
                kill_group(&mut child);
                return None;
            }
            Err(_) => {
                kill_group(&mut child);
                return Some(false);
            }
        }
    }
}

/// Kills `child`'s process group (see [`run_to_deadline`]) and reaps
/// the child.
fn kill_group(child: &mut Child) {
    #[cfg(unix)]
    if let Ok(pgid) = i32::try_from(child.id()) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGKILL: i32 = 9;
        // SAFETY: kill(2) takes no pointers; a negative pid names the
        // process group the child leads, which holds only processes
        // this runner started.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutants::ops::generate;

    /// Builds a throwaway "workspace": one source file in a temp dir.
    fn fixture_tree(source: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "psb-mutants-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let src = dir.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("fix.rs"), source).unwrap();
        dir
    }

    const FIXTURE: &str = "\
pub fn saturate(x: u64, max: u64) -> u64 {
    if x < max {
        x + 1
    } else {
        max
    }
}
";

    /// The teeth test: a deliberately broken comparator must be caught.
    /// The custom suite stands in for a real test run — it fails
    /// exactly when `x < max` is no longer present, i.e. it "tests" the
    /// comparator and nothing else. The comparison-flip mutant must
    /// come back killed, and mutants the suite cannot see must survive.
    #[test]
    fn broken_comparator_is_killed_and_unwatched_mutants_survive() {
        let root = fixture_tree(FIXTURE);
        let mutants = generate("src/fix.rs", "fixture", FIXTURE);
        assert!(mutants.iter().any(|m| m.op == "cmp-lt-le"), "{mutants:?}");
        let cfg = Config {
            root: root.clone(),
            timeout: Duration::from_secs(30),
            jobs: 2,
            suite: KillSuite::Custom("grep -q 'if x < max' src/fix.rs".to_string()),
            verbose: false,
        };
        let results = run(&cfg, &mutants).unwrap();
        assert_eq!(results.len(), mutants.len());
        for r in &results {
            let m = &mutants[r.index];
            let expected = if m.op == "cmp-lt-le" { Outcome::Killed } else { Outcome::Survived };
            assert_eq!(r.outcome, expected, "{}", m.id());
        }
        // The scratch restored every file: pristine source afterwards.
        let scratch = root.join("target/mutants/scratch-0/src/fix.rs");
        assert_eq!(std::fs::read_to_string(scratch).unwrap(), FIXTURE);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hanging_suite_times_out() {
        let root = fixture_tree(FIXTURE);
        let mutants = generate("src/fix.rs", "fixture", FIXTURE);
        let one = &mutants[..1];
        let cfg = Config {
            root: root.clone(),
            timeout: Duration::from_millis(300),
            jobs: 1,
            // Survive instantly on pristine code (green check), hang on
            // any mutant.
            suite: KillSuite::Custom(
                "grep -q 'if x < max' src/fix.rs && grep -q 'x + 1' src/fix.rs || sleep 60"
                    .to_string(),
            ),
            verbose: false,
        };
        let results = run(&cfg, one).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcome, Outcome::Timeout);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// True while `pid` runs. A killed process whose parent has not
    /// reaped it yet is a zombie (`Z`), which no longer runs.
    #[cfg(target_os = "linux")]
    fn running(pid: &str) -> bool {
        std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
            let state = stat.rsplit_once(')').map_or("", |(_, rest)| rest.trim_start());
            !state.starts_with(['Z', 'X'])
        })
    }

    /// A timeout must not orphan what the suite started: `cargo test`
    /// runs the test binary as a child, and a mutant that hangs hangs
    /// in that grandchild of the runner.
    #[cfg(target_os = "linux")]
    #[test]
    fn timeout_kills_the_grandchildren_too() {
        let dir = fixture_tree("");
        let pidfile = dir.join("grandchild.pid");
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!("sleep 600 & echo $! > '{}'; wait", pidfile.display()));
        let deadline = Instant::now() + Duration::from_millis(500);
        assert_eq!(run_to_deadline(cmd, deadline), None, "the command must time out");
        let pid = std::fs::read_to_string(&pidfile).unwrap();
        let pid = pid.trim();
        assert!(!pid.is_empty());
        // SIGKILL is delivered asynchronously; give it a moment.
        let gone = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(20));
            !running(pid)
        });
        assert!(gone, "grandchild {pid} outlived the deadline");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn red_suite_aborts_the_run() {
        let root = fixture_tree(FIXTURE);
        let mutants = generate("src/fix.rs", "fixture", FIXTURE);
        let cfg = Config {
            root: root.clone(),
            timeout: Duration::from_secs(5),
            jobs: 1,
            suite: KillSuite::Custom("false".to_string()),
            verbose: false,
        };
        let err = run(&cfg, &mutants).unwrap_err();
        assert!(err.contains("not green"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
