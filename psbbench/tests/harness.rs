//! Self-test of the benchmark harness: its output checks must catch a
//! wrong output and a timing wrapper that changes the program.

use psb::common::{Addr, Cycle};
use psb::core::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup, SharedStreamObs};
use psb::sim::{sweep_cell_entry, PrefetcherKind, SimStats, Simulation, SweepCell};
use psb_perfbench::layers::{
    run_traced, run_traced_with, LayerTimes, TimedEngine, ENG_TICK, MEM_TICK,
};
use psb_perfbench::oracle::{Check, Oracle};
use psb_perfbench::workload::{run_pass, Mode, SimRun, Workload};
use psb_perfbench::{check_passes, exactness};

/// Short windows keep the debug-build simulations fast.
const WINDOW: u64 = 20_000;

fn short(cells: Vec<SweepCell>) -> Vec<SweepCell> {
    cells.into_iter().map(|c| c.with_max_commits(WINDOW)).collect()
}

fn as_run(cell: &SweepCell, stats: SimStats, layers: Option<LayerTimes>) -> SimRun {
    SimRun {
        entry: sweep_cell_entry(cell, &stats).to_string(),
        stats,
        sim_ns: 1,
        emit_ns: 0,
        artifact_bytes: 0,
        trace_events: 0,
        artifacts: None,
        layers,
    }
}

fn untraced(cell: &SweepCell) -> SimRun {
    let trace = cell.bench.shared_trace(cell.scale);
    as_run(cell, Simulation::new_shared(cell.config, trace, cell.max_commits).run(), None)
}

/// A timing wrapper with a defect: it forwards everything except
/// `quiescent()`, so the simulator can never skip an engine tick.
struct DropsQuiescent(TimedEngine);

impl Prefetcher for DropsQuiescent {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.0.lookup(now, addr)
    }
    fn train(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.0.train(now, pc, addr)
    }
    fn allocate(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.0.allocate(now, pc, addr)
    }
    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        self.0.tick(now, sink)
    }
    fn observe_fetch(&mut self, now: Cycle, pc: Addr) {
        self.0.observe_fetch(now, pc)
    }
    fn attach_obs(&mut self, obs: &SharedStreamObs) {
        self.0.attach_obs(obs)
    }
    fn stats(&self) -> PrefetchStats {
        self.0.stats()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

#[test]
fn a_mismatching_oracle_cell_is_a_failed_run() {
    let cells = short(Workload::PsbSerial.cells(1));
    let labels: Vec<String> = cells.iter().map(|c| c.bench.name().to_owned()).collect();
    let order: Vec<usize> = (0..cells.len()).rev().collect();
    let pass = run_pass(Workload::PsbSerial, &cells, &order, Mode::Timed);

    let mut oracle = Oracle::default();
    for (cell, run) in cells.iter().zip(&pass.runs) {
        oracle.insert(cell, run.as_ref().expect("no panic").entry.clone());
    }
    let Check::Oracle(oracle) = Check::for_cells(oracle, &cells) else {
        panic!("a covering oracle must be used");
    };
    let reference = |o: &Oracle| -> Vec<Option<String>> {
        cells.iter().map(|c| o.entry(c).map(str::to_owned)).collect()
    };
    let clean = check_passes(&labels, std::slice::from_ref(&pass), &reference(&oracle));
    assert_eq!((clean.attempted, clean.failed), (6, 0), "{:?}", clean.problems);

    let mut planted = oracle.clone();
    let wrong = planted.entry(&cells[2]).unwrap().replacen("\"cycles\":", "\"cycles\":1", 1);
    planted.insert(&cells[2], wrong);
    let verdict = check_passes(&labels, std::slice::from_ref(&pass), &reference(&planted));
    assert_eq!((verdict.attempted, verdict.failed), (6, 1));
    assert!(verdict.problems[0].contains(cells[2].bench.name()), "{:?}", verdict.problems);
}

#[test]
fn a_cell_the_oracle_lacks_selects_the_fallback_check() {
    let cells = short(Workload::Grid.cells(1));
    let mut oracle = Oracle::default();
    oracle.insert(&cells[0], "{}".to_owned());
    assert!(matches!(Check::for_cells(oracle, &cells), Check::TracedVsUntraced));
}

#[test]
fn the_committed_oracle_covers_every_workload_at_scale_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/shootout.json");
    let oracle = Oracle::load(path).expect("committed oracle parses");
    for w in Workload::ALL {
        assert!(oracle.covers(&w.cells(1)), "{}", w.name());
        assert!(!oracle.covers(&w.cells(2)), "{} has no oracle at scale 2", w.name());
    }
}

#[test]
fn faithful_wrappers_reproduce_every_engine_exactly() {
    for kind in PrefetcherKind::ALL {
        let cell = short(psb::sim::shootout_cells(&[psb::workloads::Benchmark::Burg], 1))
            .into_iter()
            .find(|c| c.config.prefetcher == kind)
            .expect("every engine is in the shootout grid");
        let trace = cell.bench.shared_trace(1);
        let (stats, layers) = run_traced(&cell, &trace, None);
        let problems = exactness(&untraced(&cell), &as_run(&cell, stats, Some(layers)));
        assert!(problems.is_empty(), "{}: {problems:?}", kind.label());
        assert!(layers.eng_calls[ENG_TICK] > 0 && layers.mem_calls[MEM_TICK] > 0);
    }
}

#[test]
fn a_wrapper_that_drops_quiescent_fails_the_exactness_check() {
    let cell = short(Workload::PsbSerial.cells(1)).remove(0);
    let trace = cell.bench.shared_trace(1);
    let (stats, layers) = run_traced_with(&cell, &trace, None, |e| Box::new(DropsQuiescent(e)));
    let reference = untraced(&cell);
    let traced = as_run(&cell, stats, Some(layers));
    // The skip is exact, so the statistics alone cannot see the defect:
    // the tick audit must.
    assert_eq!(traced.entry, reference.entry);
    assert_eq!(layers.eng_calls[ENG_TICK], layers.mem_calls[MEM_TICK], "every cycle ticked");
    let problems = exactness(&reference, &traced);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("quiescent"), "{problems:?}");
}
