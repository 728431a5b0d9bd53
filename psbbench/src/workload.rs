//! The four workloads and the passes that run them.

use crate::layers::{collect_stats, run_traced, Attach, LayerTimes};
use crate::probe::Probe;
use psb::common::Cycle;
use psb::cpu::{DynInst, Pipeline};
use psb::obs::Obs;
use psb::sim::{
    sweep_cell_entry, try_run_sweep_with, MachineConfig, MemLog, PrefetcherKind, SharedMemLog,
    SimMemory, SimStats, Simulation, SweepCell,
};
use psb::workloads::{clear_trace_cache, Benchmark, SharedTrace};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Chrome-trace capacity of the observed workload (psbsim's
/// `--trace-out` setting).
pub const TRACE_CAPACITY: usize = 1 << 20;
/// Interval-sampler epoch of the observed workload, in cycles.
pub const INTERVAL_CYCLES: u64 = 10_000;
/// Event-log ring size of the observed workload (`--log-last`).
pub const LOG_RING: usize = 4096;
/// Trace instructions between two probe samples in a [`Mode::Timed`]
/// simulation (tens of milliseconds of host time).
pub const PROBE_EVERY: usize = 16384;

/// One set of simulations the benchmark times as a unit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All six benchmarks under `conf-priority`, serially, detached.
    PsbSerial,
    /// All six benchmarks with no prefetcher, serially, detached.
    BaseSerial,
    /// Three benchmarks under `conf-priority` with psbsim's full
    /// observability stack attached and its artifacts rendered.
    Observed,
    /// Three benchmarks × every registry engine through the sweep pool.
    Grid,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::PsbSerial, Workload::BaseSerial, Workload::Observed, Workload::Grid];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PsbSerial => "psb-serial",
            Workload::BaseSerial => "base-serial",
            Workload::Observed => "observed",
            Workload::Grid => "grid",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarks whose traces the workload needs.
    pub fn benches(self) -> &'static [Benchmark] {
        const OBSERVED: [Benchmark; 3] = [Benchmark::DeltaBlue, Benchmark::Sis, Benchmark::Turb3d];
        const GRID: [Benchmark; 2] = [Benchmark::Burg, Benchmark::Turb3d];
        match self {
            Workload::PsbSerial | Workload::BaseSerial => &Benchmark::ALL,
            Workload::Observed => &OBSERVED,
            Workload::Grid => &GRID,
        }
    }

    /// The simulations one pass runs, in canonical order.
    pub fn cells(self, scale: u32) -> Vec<SweepCell> {
        let one = |kind: PrefetcherKind| -> Vec<SweepCell> {
            let config = MachineConfig::baseline().with_prefetcher(kind);
            self.benches().iter().map(|&b| SweepCell::new(b, config, scale)).collect()
        };
        match self {
            Workload::PsbSerial | Workload::Observed => one(PrefetcherKind::PsbConfPriority),
            Workload::BaseSerial => one(PrefetcherKind::None),
            Workload::Grid => psb::sim::shootout_cells(self.benches(), scale),
        }
    }

    /// True when every simulation carries the observability stack.
    pub fn observed(self) -> bool {
        self == Workload::Observed
    }

    /// Worker threads a pass uses: the grid runs on up to two, the rest
    /// on one.
    pub fn threads(self) -> usize {
        match self {
            Workload::Grid => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
            _ => 1,
        }
    }
}

/// Generates every trace the workload needs into the shared trace cache
/// (where the simulations, and the sweep pool, read them from), starting
/// from an empty cache. Returns when the generation started and ended.
pub fn set_up(workload: Workload, scale: u32) -> (Instant, Instant) {
    clear_trace_cache();
    let start = Instant::now();
    for &b in workload.benches() {
        black_box(b.shared_trace(scale));
    }
    (start, Instant::now())
}

fn nanos(since: Instant) -> u64 {
    nanos_between(since, Instant::now())
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// psbsim's observability stack: hub with Chrome trace and interval
/// sampler, plus an event-log ring.
struct Stack {
    obs: Obs,
    log: SharedMemLog,
}

impl Stack {
    fn new() -> Stack {
        let obs = Obs::new();
        obs.enable_trace(TRACE_CAPACITY);
        obs.enable_interval(INTERVAL_CYCLES);
        Stack { obs, log: MemLog::shared_ring(LOG_RING) }
    }

    fn attach(&self) -> Attach<'_> {
        Attach { obs: &self.obs, log: &self.log }
    }

    /// Renders what `psbsim --json --trace-out --log-last` writes.
    fn render(&self, cell: &SweepCell, stats: &SimStats) -> Artifacts {
        let label = cell.config.prefetcher.label();
        let report = psb::sim::json_report(cell.bench.name(), label, stats, Some(&self.obs));
        let trace = self.obs.trace_json().expect("tracing is enabled in Stack::new");
        let trace_events =
            trace.get("traceEvents").and_then(|e| e.as_arr()).map_or(0, |e| e.len() as u64);
        let log: Vec<String> = self.log.borrow().ordered().iter().map(|e| e.to_string()).collect();
        Artifacts {
            report: report.to_string(),
            trace: trace.to_string(),
            log: log.join("\n"),
            trace_events,
        }
    }
}

/// The rendered artifacts of one observed simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifacts {
    /// The `psb-run-v1` report.
    pub report: String,
    /// The Chrome trace.
    pub trace: String,
    /// The event-log ring, one event per line.
    pub log: String,
    /// Events in the Chrome trace.
    pub trace_events: u64,
}

impl Artifacts {
    fn bytes(&self) -> u64 {
        (self.report.len() + self.trace.len() + self.log.len()) as u64
    }
}

/// One finished simulation.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Its `psb-sweep-v1` cell entry, the text the output check compares.
    pub entry: String,
    /// Its statistics.
    pub stats: SimStats,
    /// Host time of the simulation.
    pub sim_ns: u64,
    /// Host time rendering its artifacts (the cell entry, and for the
    /// observed workload the report, trace and log).
    pub emit_ns: u64,
    /// Bytes rendered.
    pub artifact_bytes: u64,
    /// Chrome-trace events rendered.
    pub trace_events: u64,
    /// The observed artifacts, when the caller asked to keep them.
    pub artifacts: Option<Artifacts>,
    /// Layer figures, for a traced run.
    pub layers: Option<LayerTimes>,
}

impl SimRun {
    /// Renders the artifacts of a finished simulation; the caller fills
    /// in the host times.
    fn finish(cell: &SweepCell, stats: SimStats, stack: Option<&Stack>, keep: bool) -> SimRun {
        let entry = sweep_cell_entry(cell, &stats).to_string();
        let artifacts = stack.map(|s| s.render(cell, &stats));
        let artifact_bytes = entry.len() as u64 + artifacts.as_ref().map_or(0, Artifacts::bytes);
        let trace_events = artifacts.as_ref().map_or(0, |a| a.trace_events);
        let artifacts = if keep { artifacts } else { black_box(artifacts).and(None) };
        SimRun {
            entry,
            stats,
            sim_ns: 0,
            emit_ns: 0,
            artifact_bytes,
            trace_events,
            artifacts,
            layers: None,
        }
    }
}

/// How a pass runs its simulations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Serially, with nothing but the workload's own observability
    /// attached, through [`run_probed`], which samples the host's speed
    /// every [`PROBE_EVERY`] instructions; rendered artifacts are dropped
    /// at once, as a user's run would write them out and drop them.
    Timed,
    /// Through the public API (`Simulation::run`, and the sweep pool for
    /// the grid), keeping the artifacts, as the reference a traced pass is
    /// compared with.
    Twin,
    /// Through the timing wrappers of [`crate::layers`], keeping the
    /// artifacts.
    Traced,
}

/// One pass over a workload's cells.
#[derive(Debug)]
pub struct Pass {
    /// Host time of the whole pass: simulations plus rendering, less the
    /// time taken by the probe samples in `probe_ns`.
    pub wall_ns: u64,
    /// A [`Mode::Timed`] pass's host time at the reference host speed
    /// ([`Probe::scaled_s`] over the pass); NaN for other modes.
    pub scaled_s: f64,
    /// Results by canonical cell index; `None` where the simulation
    /// panicked.
    pub runs: Vec<Option<SimRun>>,
    /// Offsets from the pass start at which cells completed, in
    /// completion order.
    pub done_ns: Vec<u64>,
    /// Worker threads the pass ran on.
    pub threads: usize,
    /// The host time of each probe sample taken during a [`Mode::Timed`]
    /// pass; empty for other modes.
    pub probe_ns: Vec<u64>,
}

impl Pass {
    /// Sum of the cells' host times, simulation plus rendering.
    pub fn cell_ns(&self) -> u64 {
        self.runs.iter().flatten().map(|r| r.sim_ns + r.emit_ns).sum()
    }

    /// Sum of the cells' simulation host times.
    pub fn sim_ns(&self) -> u64 {
        self.runs.iter().flatten().map(|r| r.sim_ns).sum()
    }

    /// Sum of the cells' rendering host times.
    pub fn emit_ns(&self) -> u64 {
        self.runs.iter().flatten().map(|r| r.emit_ns).sum()
    }

    /// Wall time after the first worker went idle: with `t` workers and
    /// `n` cells that is the `(n - t + 1)`-th completion.
    pub fn tail_ns(&self) -> u64 {
        let n = self.done_ns.len();
        let first_idle = n.saturating_sub(self.threads);
        self.done_ns.get(first_idle).map_or(0, |&t| self.wall_ns.saturating_sub(t))
    }

    /// Committed instructions over all cells.
    pub fn committed(&self) -> u64 {
        self.runs.iter().flatten().map(|r| r.stats.cpu.committed).sum()
    }
}

/// What `Simulation::run` does, with a probe sample taken every
/// [`PROBE_EVERY`] instructions the pipeline pulls from the trace, so that
/// the samples cover the pass evenly; the output check holds the result to
/// the public API's.
pub fn run_probed(
    cell: &SweepCell,
    trace: &[DynInst],
    attach: Option<Attach<'_>>,
    probe: &mut Probe,
) -> SimStats {
    let mut mem = SimMemory::new(&cell.config);
    if let Some(a) = attach {
        mem.attach_log(a.log.clone());
        mem.attach_obs(a.obs);
    }
    let mut pulled = 0;
    let insts = trace.iter().copied().inspect(|_| {
        pulled += 1;
        if pulled % PROBE_EVERY == 0 {
            probe.sample();
        }
    });
    let cpu = Pipeline::new(cell.config.cpu).run(insts, &mut mem, cell.max_commits);
    mem.finish_sampling(Cycle::new(cpu.cycles), cpu.committed);
    collect_stats(&mem, cpu)
}

/// Runs one cell; `None` if it panicked. Tearing down the observability
/// stack counts as rendering time, as it is part of producing the
/// artifacts. A [`Mode::Timed`] run samples `probe` during the simulation
/// and just before and after the rendering, and its host times leave
/// those samples out.
fn run_cell(cell: &SweepCell, mode: Mode, observed: bool, probe: &mut Probe) -> Option<SimRun> {
    let sampled = probe.samples.len();
    catch_unwind(AssertUnwindSafe(|| {
        let trace: SharedTrace = cell.bench.shared_trace(cell.scale);
        let start = Instant::now();
        let stack = observed.then(Stack::new);
        let attach = stack.as_ref().map(Stack::attach);
        let (stats, layers) = match mode {
            Mode::Timed => (run_probed(cell, &trace, attach, probe), None),
            Mode::Twin => {
                let mut sim = Simulation::new_shared(cell.config, trace, cell.max_commits);
                if let Some(s) = &stack {
                    sim = sim.with_obs(s.obs.clone()).with_event_log(s.log.clone());
                }
                (sim.run(), None)
            }
            Mode::Traced => {
                let (stats, layers) = run_traced(cell, &trace, attach);
                (stats, Some(layers))
            }
        };
        let sim_end = Instant::now();
        let sim_ns =
            nanos_between(start, sim_end).saturating_sub(probe.samples[sampled..].iter().sum());
        if mode == Mode::Timed {
            probe.sample();
        }
        let emit_start = Instant::now();
        let mut run = SimRun::finish(cell, stats, stack.as_ref(), mode != Mode::Timed);
        drop(stack);
        run.emit_ns = nanos(emit_start);
        if mode == Mode::Timed {
            probe.sample();
        }
        run.sim_ns = sim_ns;
        run.layers = layers;
        run
    }))
    .ok()
}

/// Runs every cell once, in `order` (a permutation of the canonical cell
/// indices). Timed passes run here, one cell after another on a single
/// thread, so that the probe samples the core the simulations run on. The
/// grid's other passes use its threads:
/// twin passes go through the psb-sim sweep pool, and traced passes
/// through the same ordered pool the sweep is built on, so both sides of
/// the tracing-overhead comparison run on the same number of threads.
pub fn run_pass(workload: Workload, cells: &[SweepCell], order: &[usize], mode: Mode) -> Pass {
    let observed = workload.observed();
    let threads = if mode == Mode::Timed { 1 } else { workload.threads() };
    let ordered: Vec<SweepCell> = order.iter().map(|&i| cells[i]).collect();
    let mut probe = Probe::default();
    let start = Instant::now();
    let mut done_ns = Vec::with_capacity(cells.len());
    let results: Vec<Option<SimRun>> = if threads == 1 {
        ordered
            .iter()
            .map(|cell| {
                let run = run_cell(cell, mode, observed, &mut probe);
                done_ns.push(nanos(start));
                run
            })
            .collect()
    } else if mode == Mode::Traced {
        let work =
            |_: usize, cell: &SweepCell| run_cell(cell, mode, observed, &mut Probe::default());
        psb::sim::run_ordered(&ordered, threads, work, |_, _| done_ns.push(nanos(start)))
            .unwrap_or_else(|_| vec![None; ordered.len()])
    } else {
        match try_run_sweep_with(&ordered, threads, None, |_| done_ns.push(nanos(start))) {
            Ok(outcomes) => ordered
                .iter()
                .zip(outcomes)
                .map(|(cell, out)| {
                    let emit_start = Instant::now();
                    let mut run = SimRun::finish(cell, out.stats, None, false);
                    run.sim_ns = out.wall_micros * 1000;
                    run.emit_ns = nanos(emit_start);
                    Some(run)
                })
                .collect(),
            Err(e) => {
                eprintln!("{e}");
                vec![None; ordered.len()]
            }
        }
    };
    let end = Instant::now();
    let wall_ns = nanos_between(start, end).saturating_sub(probe.samples.iter().sum());
    let scaled_s = probe.scaled_s(start, end);
    let mut runs = vec![None; cells.len()];
    for (&i, run) in order.iter().zip(results) {
        runs[i] = run;
    }
    Pass { wall_ns, scaled_s, runs, done_ns, threads, probe_ns: probe.samples }
}
