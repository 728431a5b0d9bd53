//! `psb-perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! psb-perfbench --workload <psb-serial|base-serial|observed|grid|all>
//!               --seed <n> --seconds <s> --trace <0|1> [--scale <n>]
//! ```
//!
//! `all` runs every workload, each in a process of its own, and ends with
//! one combined result line whose metric names carry the workload's name.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. See README.md in this directory.

use psb::common::SplitMix64;
use psb::obs::{json, Json};
use psb::sim::SweepCell;
use psb_perfbench::layers::{LayerTimes, ENGINE_OPS, ENG_TICK, MEM_OPS, MEM_TICK};
use psb_perfbench::oracle::{Check, Oracle};
use psb_perfbench::probe::{Probe, WINDOW};
use psb_perfbench::workload::{run_pass, set_up, Mode, Pass, Workload};
use psb_perfbench::{
    check_passes, exactness, median, peak_rss_bytes, Verdict, UNATTRIBUTED_MAX_PCT,
};
use std::time::Instant;

/// The repository root the benchmark was built from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
/// Trace generations of a traced run; `workloads.gen_s` is their median.
const SETUP_REPS: usize = 15;
/// Trace generations after each timed pass, so that the set-ups `setup_s`
/// is the median of are spread over the whole run.
const SETUP_PER_PASS: usize = 3;
/// Timed passes per run at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    /// `None` for `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u32,
}

const USAGE: &str = "usage: psb-perfbench --workload <psb-serial|base-serial|observed|grid|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale <n>]";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, 1);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(Workload::from_name(&value).ok_or_else(bad)?)),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = value.parse().ok().filter(|s| *s > 0).ok_or_else(bad)?,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Args { workload, seed, seconds, trace, scale })
        }
        _ => Err("--workload, --seed, --seconds and --trace are required".to_owned()),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("psb-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = match args.workload {
        // Forcing every engine tick leaves every output identical, so the
        // output check cannot see it, but it changes host time.
        _ if std::env::var_os("PSB_FORCE_TICK").is_some() => Err("PSB_FORCE_TICK is set: it \
            defeats the engine's quiescence skip, so host times would not be comparable; unset it"
            .to_owned()),
        Some(w) => run(&args, w),
        None => run_all(&args),
    };
    if let Err(e) = result {
        eprintln!("psb-perfbench: {e}");
        std::process::exit(1);
    }
}

/// One metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn git_commit() -> String {
    if !std::path::Path::new(ROOT).join(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    std::process::Command::new("git")
        .args(["-C", ROOT, "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Runs every workload in a child process of its own (peak RSS is per
/// process), forwards their report lines, and prints one combined result.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--scale", &args.scale.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let (lines, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
        println!("{lines}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let doc = json::parse(last).map_err(|e| format!("{} result: {e}", w.name()))?;
        correct &= doc.get("correct") == Some(&Json::Bool(true));
        attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.push((format!("{}.{name}", w.name()), m.clone()));
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(())
}

/// The last line of a run's output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run(args: &Args, w: Workload) -> Result<(), String> {
    let cells = w.cells(args.scale);
    let oracle = Oracle::load(&format!("{ROOT}/results/shootout.json"))?;
    let check = Check::for_cells(oracle, &cells);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "psb-perfbench workload={} seed={} seconds={} trace={} scale={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    println!(
        "env: nproc={nproc} threads={} (timed passes: 1) profile={} rustc=\"{}\" commit={}",
        w.threads(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        git_commit()
    );
    println!("{}", check.describe(cells.len()));

    let mut rng = SplitMix64::new(args.seed);
    let (verdict, metrics) = if args.trace {
        traced(w, args.scale, &cells, &check, &mut rng)?
    } else {
        untraced(w, args, &cells, &check, &mut rng)?
    };
    for p in &verdict.problems {
        println!("FAILED {p}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (name, Json::obj([("value", Json::f64(value)), ("unit", Json::str(unit))]))
        })
        .collect::<Vec<_>>();
    let correct = verdict.failed == 0 && verdict.attempted > 0;
    println!("{}", result_line(correct, verdict.attempted, verdict.failed, metrics));
    Ok(())
}

/// The order a pass runs the cells in: a seeded shuffle, except that a
/// grid pass on more than one thread keeps the sweep's canonical
/// submission order, because reordering a parallel pass moves its tail.
fn order(w: Workload, mode: Mode, rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if w != Workload::Grid || mode == Mode::Timed {
        rng.shuffle(&mut order);
    }
    order
}

fn labels(cells: &[SweepCell]) -> Vec<String> {
    cells.iter().map(|c| format!("{}/{}", c.bench.name(), c.label())).collect()
}

fn entries(pass: &Pass) -> Vec<Option<String>> {
    pass.runs.iter().map(|r| r.as_ref().map(|r| r.entry.clone())).collect()
}

/// The end-to-end run: timed passes for the requested time, with set-ups
/// before the first and after each, every simulation checked. Each pass
/// and each set-up is scaled to the reference host speed by the probe
/// samples taken around it (see [`Probe::scaled_s`]), and the medians are
/// reported.
fn untraced(
    w: Workload,
    args: &Args,
    cells: &[SweepCell],
    check: &Check,
    rng: &mut SplitMix64,
) -> Result<(Verdict, Vec<Metric>), String> {
    let start = Instant::now();
    let mut probe = Probe::default();
    let mut set_ups = |n| {
        (0..n)
            .map(|_| {
                probe.samples(WINDOW);
                let (from, to) = set_up(w, args.scale);
                probe.samples(WINDOW);
                probe.scaled_s(from, to)
            })
            .collect::<Vec<_>>()
    };
    let mut setup = set_ups(SETUP_PER_PASS);
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls = Vec::new();
    let mut peak_rss = None;
    loop {
        let pass = run_pass(w, cells, &order(w, Mode::Timed, rng, cells.len()), Mode::Timed);
        let probe_us: Vec<f64> = pass.probe_ns.iter().map(|&p| p as f64 / 1e3).collect();
        let wall = pass.scaled_s;
        println!(
            "pass {}: {:.4} s, probe median {:.1} us over {} samples: {wall:.4} s at reference speed",
            passes.len() + 1,
            secs(pass.wall_ns),
            median(&probe_us),
            probe_us.len(),
        );
        walls.push(wall);
        passes.push(pass);
        // The peak of a user's run: set-up, then every simulation once.
        // The set-ups that follow fragment the heap and raise the peak by
        // an amount that varies from run to run.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_bytes()?);
        }
        setup.extend(set_ups(SETUP_PER_PASS));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > args.seconds {
            break;
        }
    }
    let reference = match check {
        Check::Oracle(o) => cells.iter().map(|c| o.entry(c).map(str::to_owned)).collect(),
        Check::TracedVsUntraced => {
            let canonical: Vec<usize> = (0..cells.len()).collect();
            entries(&run_pass(w, cells, &canonical, Mode::Traced))
        }
    };
    let verdict = check_passes(&labels(cells), &passes, &reference);
    let raw: Vec<f64> = passes.iter().map(|p| secs(p.wall_ns)).collect();
    println!("median pass: {:.4} s of host time over {} passes", median(&raw), passes.len());
    let wall_s = median(&walls);
    let committed = passes.iter().map(Pass::committed).max().unwrap_or(0);
    Ok((
        verdict,
        vec![
            metric("norm_wall_s", wall_s, "s"),
            metric("norm_sim_kips", committed as f64 / wall_s / 1e3, "kinst/s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", peak_rss.unwrap_or(0) as f64 / 1e6, "MB"),
        ],
    ))
}

/// The traced run: one untraced pass and one traced pass in the same
/// order, compared simulation by simulation, and the per-layer figures
/// of the traced pass.
fn traced(
    w: Workload,
    scale: u32,
    cells: &[SweepCell],
    check: &Check,
    rng: &mut SplitMix64,
) -> Result<(Verdict, Vec<Metric>), String> {
    let gen: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (from, to) = set_up(w, scale);
            to.duration_since(from).as_secs_f64()
        })
        .collect();
    let order = order(w, Mode::Twin, rng, cells.len());
    let plain = run_pass(w, cells, &order, Mode::Twin);
    let traced = run_pass(w, cells, &order, Mode::Traced);

    let mut layers = LayerTimes::default();
    for t in traced.runs.iter().flatten() {
        layers.add(t.layers.as_ref().expect("a traced pass records layer figures"));
    }
    // Summed over the workload, so that one host hiccup inside a short
    // unbracketed stretch cannot fail a run.
    let traced_ns = traced.cell_ns();
    let attributed = layers.cpu_ns() + layers.memsys_ns() + layers.engine_ns() + traced.emit_ns();
    let unattributed_pct = 100.0 * ratio(traced_ns.saturating_sub(attributed), traced_ns);
    let mut verdict = Verdict::default();
    for (i, label) in labels(cells).iter().enumerate() {
        let mut problems = Vec::new();
        match (&plain.runs[i], &traced.runs[i]) {
            (Some(u), Some(t)) => {
                if let Check::Oracle(o) = check {
                    if o.entry(&cells[i]) != Some(u.entry.as_str()) {
                        problems.push("cell entry differs from the oracle".to_owned());
                    }
                }
                problems.extend(exactness(u, t));
            }
            _ => problems.push("simulation panicked".to_owned()),
        }
        if unattributed_pct > UNATTRIBUTED_MAX_PCT {
            problems.push(format!(
                "{unattributed_pct:.2}% of the workload's traced time is outside every layer \
                 (bound {UNATTRIBUTED_MAX_PCT}%)"
            ));
        }
        verdict.record(label, problems);
    }

    let runs = || traced.runs.iter().flatten();
    let sum = |f: &dyn Fn(&psb::sim::SimStats) -> u64| runs().map(|r| f(&r.stats)).sum::<u64>();
    let cycles = sum(&|s| s.cpu.cycles);
    let mut m = vec![
        metric("trace.untraced_wall_s", secs(plain.wall_ns), "s"),
        metric("trace.traced_wall_s", secs(traced.wall_ns), "s"),
        metric("trace.overhead_pct", 100.0 * (ratio(traced.wall_ns, plain.wall_ns) - 1.0), "%"),
        metric("trace.unattributed_pct", unattributed_pct, "%"),
        metric("trace.redundant_ticks", layers.redundant_ticks as f64, "count"),
        metric("workloads.gen_s", median(&gen), "s"),
        metric("cpu.self_s", secs(layers.cpu_ns()), "s"),
        metric("cpu.self_ns_per_cycle", ratio(layers.cpu_ns(), cycles), "ns"),
        metric("cpu.cycles", cycles as f64, "count"),
        metric("cpu.committed", sum(&|s| s.cpu.committed) as f64, "count"),
    ];
    for (i, op) in MEM_OPS.iter().enumerate() {
        m.push(metric(format!("memsys.{op}.calls"), layers.mem_calls[i] as f64, "count"));
        m.push(metric(format!("memsys.{op}.self_ns"), layers.mem_self_ns[i] as f64, "ns"));
    }
    m.push(metric("memsys.self_s", secs(layers.memsys_ns()), "s"));
    for (i, op) in ENGINE_OPS.iter().enumerate() {
        m.push(metric(format!("engine.{op}.calls"), layers.eng_calls[i] as f64, "count"));
        m.push(metric(format!("engine.{op}.ns"), layers.eng_ns[i] as f64, "ns"));
    }
    m.extend([
        metric("engine.self_s", secs(layers.engine_ns()), "s"),
        metric(
            "engine.tick_ratio",
            ratio(layers.eng_calls[ENG_TICK], layers.mem_calls[MEM_TICK]),
            "ratio",
        ),
        metric(
            "engine.pf.accuracy",
            ratio(sum(&|s| s.prefetch.used), sum(&|s| s.prefetch.issued)),
            "ratio",
        ),
        metric(
            "engine.sb.hit_rate",
            ratio(sum(&|s| s.prefetch.hits), sum(&|s| s.prefetch.lookups)),
            "ratio",
        ),
        metric(
            "mem.l1d.miss_rate",
            ratio(sum(&|s| s.l1d.misses), sum(&|s| s.l1d.accesses())),
            "ratio",
        ),
        metric(
            "mem.l2.miss_rate",
            ratio(sum(&|s| s.lower.l2_misses), sum(&|s| s.lower.l2_hits + s.lower.l2_misses)),
            "ratio",
        ),
        metric("mem.l1_l2_bus.util_pct", 100.0 * ratio(sum(&|s| s.l1_l2_busy), cycles), "%"),
        metric("sweep.cell_s", secs(plain.cell_ns()), "s"),
        metric(
            "sweep.parallel_eff",
            ratio(plain.cell_ns(), plain.threads as u64 * plain.wall_ns),
            "ratio",
        ),
        metric("sweep.tail_s", secs(plain.tail_ns()), "s"),
        metric("obs.run_s", secs(plain.sim_ns()), "s"),
        metric("obs.emit_s", secs(plain.emit_ns()), "s"),
        metric(
            "obs.artifact_bytes",
            plain.runs.iter().flatten().map(|r| r.artifact_bytes).sum::<u64>() as f64,
            "bytes",
        ),
        metric(
            "obs.trace_events",
            plain.runs.iter().flatten().map(|r| r.trace_events).sum::<u64>() as f64,
            "count",
        ),
    ]);
    Ok((verdict, m))
}
