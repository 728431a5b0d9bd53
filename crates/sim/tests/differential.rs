//! Differential test for the whole-machine skip-ahead.
//!
//! An idle pipeline skips cycles, calling the memory system's `tick` and
//! `sample` only at the cycles [`psb_cpu::MemSystem::next_event`] names,
//! and [`SimMemory`](psb_sim::SimMemory) skips the engine's tick while
//! it reports [`psb_core::Prefetcher::quiescent`]. The claim is
//! cycle-exactness: the skips must be *externally unobservable*
//! optimizations. These tests run each configuration twice — once
//! normally, once under the supported force-step switch
//! ([`Simulation::with_forced_ticks`], equivalently the `PSB_FORCE_TICK`
//! environment variable used by the mutation kill suite), which steps
//! every stage and ticks the engine every cycle — and require the full
//! `psb-run-v1` reports to be byte-identical.

use psb_cpu::Disambiguation;
use psb_obs::Obs;
use psb_sim::{json_report, MachineConfig, MemLog, PrefetcherKind, Simulation};
use psb_workloads::Benchmark;
use std::sync::Mutex;

/// Serializes tests that read or write `PSB_FORCE_TICK`: the variable is
/// process-global and `SimMemory` samples it at construction, so a fast
/// (unforced) run must never be built while another test holds the
/// switch on.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Health,
    Benchmark::Burg,
    Benchmark::DeltaBlue,
    Benchmark::Gs,
    Benchmark::Sis,
    Benchmark::Turb3d,
];

/// The skipping and the force-stepped report of one run, rendered.
fn both_reports(
    bench: Benchmark,
    cfg: MachineConfig,
    trace: &[psb_cpu::DynInst],
    window: u64,
) -> (String, String) {
    let kind = cfg.prefetcher;
    let fast = Simulation::new(cfg, trace.to_vec(), window).run();
    let forced = Simulation::new(cfg, trace.to_vec(), window).with_forced_ticks().run();
    let render = |s| json_report(bench.name(), kind.cli_name(), s, None).to_string();
    (render(&fast), render(&forced))
}

#[test]
fn force_stepping_is_exact_on_every_benchmark_and_engine() {
    let _env = ENV_LOCK.lock().unwrap();
    // A window per cell keeps the 144 debug-build runs quick; it still
    // spans thousands of skipped cycles and every engine's idle shape.
    let window = 8_000u64;
    for bench in BENCHMARKS {
        let trace = bench.trace(1);
        for kind in PrefetcherKind::ALL {
            let cfg = MachineConfig::baseline().with_prefetcher(kind);
            let (fast, forced) = both_reports(bench, cfg, &trace, window);
            assert_eq!(fast, forced, "{bench:?} x {kind:?}: skipping changed the run report");
        }
    }
}

/// Everything an observed run (psbsim `--json --trace-out --interval
/// --log-last`) writes: the report, the Chrome trace and the log ring.
fn observed_artifacts(
    bench: Benchmark,
    cfg: MachineConfig,
    trace: &[psb_cpu::DynInst],
    window: u64,
    forced: bool,
) -> [String; 3] {
    let obs = Obs::new();
    obs.enable_trace(1 << 20);
    obs.enable_interval(1_000);
    let log = MemLog::shared_ring(1 << 15);
    let mut sim = Simulation::new(cfg, trace.to_vec(), window)
        .with_obs(obs.clone())
        .with_event_log(log.clone());
    if forced {
        sim = sim.with_forced_ticks();
    }
    let stats = sim.run();
    let report = json_report(bench.name(), cfg.prefetcher.cli_name(), &stats, Some(&obs));
    let events: Vec<String> = log.borrow().ordered().iter().map(ToString::to_string).collect();
    [
        report.to_string(),
        obs.trace_json().map(|t| t.to_string()).unwrap_or_default(),
        events.join("\n"),
    ]
}

#[test]
fn force_stepping_is_exact_with_obs_and_a_log_attached() {
    // With a hub and a log attached, staged lifecycle events drain into
    // the log in the tick of the cycle that staged them. The log names
    // no cycle of its own, so the skipping run ticks only the cycles
    // the engine and the sampler name. Every artifact must still match
    // the forced run.
    let _env = ENV_LOCK.lock().unwrap();
    let window = 6_000u64;
    for bench in [Benchmark::DeltaBlue, Benchmark::Sis, Benchmark::Turb3d] {
        let trace = bench.trace(1);
        for kind in PrefetcherKind::ALL {
            let cfg = MachineConfig::baseline().with_prefetcher(kind);
            let fast = observed_artifacts(bench, cfg, &trace, window, false);
            let forced = observed_artifacts(bench, cfg, &trace, window, true);
            for (what, (a, b)) in ["report", "trace", "log"].iter().zip(fast.iter().zip(&forced)) {
                assert_eq!(a, b, "{bench:?} x {kind:?}: skipping changed the {what}");
            }
            assert!(!fast[2].is_empty(), "{bench:?} x {kind:?}: the log recorded nothing");
        }
    }
}

#[test]
fn force_stepping_is_exact_without_disambiguation() {
    // Loads that wait for every older store park on stores and are woken
    // when those issue, a path perfect store sets never take.
    let _env = ENV_LOCK.lock().unwrap();
    let kind = PrefetcherKind::PsbConfPriority;
    let cfg = MachineConfig::baseline()
        .with_prefetcher(kind)
        .with_disambiguation(Disambiguation::WaitForStores);
    let bench = Benchmark::DeltaBlue;
    let (fast, forced) = both_reports(bench, cfg, &bench.trace(1), 40_000);
    assert_eq!(fast, forced, "NoDis: skipping changed the run report");
}

#[test]
fn force_tick_env_switch_is_cycle_exact() {
    // The kill suite reaches the switch through the environment (it
    // cannot edit call sites), so prove that path too: a run built with
    // PSB_FORCE_TICK=1 in the environment matches the unforced report.
    let _env = ENV_LOCK.lock().unwrap();
    let kind = PrefetcherKind::PsbConfPriority;
    let trace = Benchmark::Health.trace(1);
    let cfg = MachineConfig::baseline().with_prefetcher(kind);
    let fast = Simulation::new(cfg, trace.clone(), 40_000).run();
    std::env::set_var("PSB_FORCE_TICK", "1");
    let forced = Simulation::new(cfg, trace, 40_000).run();
    std::env::remove_var("PSB_FORCE_TICK");
    let fast_json = json_report("health", kind.cli_name(), &fast, None).to_string();
    let forced_json = json_report("health", kind.cli_name(), &forced, None).to_string();
    assert_eq!(fast_json, forced_json, "PSB_FORCE_TICK changed the run report");
}
