//! Outside-in per-layer tracing.
//!
//! The simulator is measured through its public seams, never from
//! inside: [`Pipeline::run`] is generic over [`MemSystem`], so the
//! pipeline is driven through `TimedMem`, a timing wrapper around
//! [`SimMemory`]; and [`SimMemory::with_engine`] takes any boxed
//! [`Prefetcher`], so the engine is a [`TimedEngine`] around the one
//! [`psb::sim::PrefetcherKind::build`] returns. Both forward every
//! method, `quiescent()` and `attach_obs()` included, so a traced run
//! must reproduce the untraced run's statistics exactly.
//!
//! Timings are per-call sums kept in memory (`Recorder`) and read out
//! once the run ends ([`LayerTimes`]).

use psb::common::{Addr, Cycle};
use psb::core::{PrefetchSink, PrefetchStats, Prefetcher, SbLookup, SharedStreamObs};
use psb::cpu::{CpuStats, DynInst, MemSystem, Pipeline};
use psb::obs::Obs;
use psb::sim::{SharedMemLog, SimMemory, SimStats, SweepCell};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// The [`MemSystem`] entry points, in metric order.
pub const MEM_OPS: [&str; 6] = ["load", "store", "ifetch", "fetched_load", "tick", "sample"];
const LOAD: usize = 0;
const STORE: usize = 1;
const IFETCH: usize = 2;
const FETCHED_LOAD: usize = 3;
/// Index of `tick` in [`MEM_OPS`].
pub const MEM_TICK: usize = 4;
const SAMPLE: usize = 5;

/// The [`Prefetcher`] entry points that do work, in metric order.
pub const ENGINE_OPS: [&str; 5] = ["tick", "lookup", "train", "allocate", "observe_fetch"];
/// Index of `tick` in [`ENGINE_OPS`].
pub const ENG_TICK: usize = 0;
const LOOKUP: usize = 1;
const TRAIN: usize = 2;
const ALLOCATE: usize = 3;
const OBSERVE_FETCH: usize = 4;

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call counts and time sums for one traced simulation, shared by
/// the memory-system and engine wrappers of that simulation.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    mem_calls: [Cell<u64>; 6],
    mem_self_ns: [Cell<u64>; 6],
    eng_calls: [Cell<u64>; 5],
    eng_ns: [Cell<u64>; 5],
    eng_total_ns: Cell<u64>,
    redundant_ticks: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl Recorder {
    /// Times one memory-system call; engine time spent inside it is
    /// subtracted, leaving the memory system's self time.
    fn mem<R>(&self, op: usize, call: impl FnOnce() -> R) -> R {
        let engine_before = self.eng_total_ns.get();
        let start = Instant::now();
        let out = call();
        let total = nanos(start);
        let engine = self.eng_total_ns.get() - engine_before;
        bump(&self.mem_calls[op], 1);
        bump(&self.mem_self_ns[op], total.saturating_sub(engine));
        out
    }

    /// Times one engine call.
    fn engine<R>(&self, op: usize, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        let ns = nanos(start);
        bump(&self.eng_calls[op], 1);
        bump(&self.eng_ns[op], ns);
        bump(&self.eng_total_ns, ns);
        out
    }

    fn snapshot(&self) -> LayerTimes {
        LayerTimes {
            mem_calls: self.mem_calls.each_ref().map(Cell::get),
            mem_self_ns: self.mem_self_ns.each_ref().map(Cell::get),
            eng_calls: self.eng_calls.each_ref().map(Cell::get),
            eng_ns: self.eng_ns.each_ref().map(Cell::get),
            pipeline_ns: 0,
            redundant_ticks: self.redundant_ticks.get(),
        }
    }
}

/// Timing wrapper around the memory system, as the pipeline sees it.
struct TimedMem<'a> {
    inner: &'a mut SimMemory,
    rec: &'a Recorder,
}

impl MemSystem for TimedMem<'_> {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        let inner = &mut *self.inner;
        self.rec.mem(LOAD, || inner.load(now, pc, addr))
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        let inner = &mut *self.inner;
        self.rec.mem(STORE, || inner.store(now, pc, addr));
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        let inner = &mut *self.inner;
        self.rec.mem(IFETCH, || inner.ifetch(now, pc))
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        let inner = &mut *self.inner;
        self.rec.mem(FETCHED_LOAD, || inner.fetched_load(now, pc));
    }

    fn tick(&mut self, now: Cycle) {
        let inner = &mut *self.inner;
        self.rec.mem(MEM_TICK, || inner.tick(now));
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        let inner = &mut *self.inner;
        self.rec.mem(SAMPLE, || inner.sample(now, committed));
    }
}

/// Timing wrapper around a prefetch engine.
///
/// It also audits the quiescence skip: after each real tick it asks the
/// wrapped engine whether it is quiescent, and a tick that arrives while
/// that verdict still stands (no lookup, train, allocation or fetch
/// observation since) is one the unwrapped simulator would have skipped.
/// Such ticks are counted as redundant; a faithful wrapper sees none.
pub struct TimedEngine {
    inner: Box<dyn Prefetcher>,
    rec: Rc<Recorder>,
    skippable: bool,
}

impl TimedEngine {
    /// Wraps `inner`, recording into `rec`.
    fn new(inner: Box<dyn Prefetcher>, rec: Rc<Recorder>) -> Self {
        TimedEngine { inner, rec, skippable: false }
    }
}

impl Prefetcher for TimedEngine {
    fn lookup(&mut self, now: Cycle, addr: Addr) -> SbLookup {
        self.skippable = false;
        let inner = &mut self.inner;
        self.rec.engine(LOOKUP, || inner.lookup(now, addr))
    }

    fn train(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.skippable = false;
        let inner = &mut self.inner;
        self.rec.engine(TRAIN, || inner.train(now, pc, addr));
    }

    fn allocate(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.skippable = false;
        let inner = &mut self.inner;
        self.rec.engine(ALLOCATE, || inner.allocate(now, pc, addr));
    }

    fn tick(&mut self, now: Cycle, sink: &mut dyn PrefetchSink) {
        if self.skippable {
            bump(&self.rec.redundant_ticks, 1);
        }
        let inner = &mut self.inner;
        self.rec.engine(ENG_TICK, || inner.tick(now, sink));
        self.skippable = self.inner.quiescent();
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn observe_fetch(&mut self, now: Cycle, pc: Addr) {
        self.skippable = false;
        let inner = &mut self.inner;
        self.rec.engine(OBSERVE_FETCH, || inner.observe_fetch(now, pc));
    }

    fn attach_obs(&mut self, obs: &SharedStreamObs) {
        self.skippable = false;
        self.inner.attach_obs(obs);
    }

    fn stats(&self) -> PrefetchStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Counts and host times of one or more traced simulations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Calls per [`MEM_OPS`] entry point.
    pub mem_calls: [u64; 6],
    /// Memory-system self time per entry point (engine time excluded).
    pub mem_self_ns: [u64; 6],
    /// Calls per [`ENGINE_OPS`] entry point.
    pub eng_calls: [u64; 5],
    /// Engine time per entry point.
    pub eng_ns: [u64; 5],
    /// Time inside [`Pipeline::run`].
    pub pipeline_ns: u64,
    /// Engine ticks the unwrapped simulator would have skipped.
    pub redundant_ticks: u64,
}

impl LayerTimes {
    /// Memory-system self time.
    pub fn memsys_ns(&self) -> u64 {
        self.mem_self_ns.iter().sum()
    }

    /// Engine time.
    pub fn engine_ns(&self) -> u64 {
        self.eng_ns.iter().sum()
    }

    /// Pipeline self time: the pipeline run minus every call into the
    /// memory system (which includes the engine).
    pub fn cpu_ns(&self) -> u64 {
        self.pipeline_ns.saturating_sub(self.memsys_ns() + self.engine_ns())
    }

    /// Adds another simulation's figures to these.
    pub fn add(&mut self, o: &LayerTimes) {
        let sum = |a: &mut [u64], b: &[u64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        sum(&mut self.mem_calls, &o.mem_calls);
        sum(&mut self.mem_self_ns, &o.mem_self_ns);
        sum(&mut self.eng_calls, &o.eng_calls);
        sum(&mut self.eng_ns, &o.eng_ns);
        self.pipeline_ns += o.pipeline_ns;
        self.redundant_ticks += o.redundant_ticks;
    }
}

/// The observability stack a traced run attaches, as
/// [`psb::sim::Simulation::with_obs`] and `with_event_log` would.
#[derive(Clone, Copy)]
pub struct Attach<'a> {
    /// The hub.
    pub obs: &'a Obs,
    /// The event log.
    pub log: &'a SharedMemLog,
}

/// Runs `cell` over `trace` exactly as [`psb::sim::Simulation::run`]
/// does, but through the timing wrappers.
pub fn run_traced(
    cell: &SweepCell,
    trace: &[DynInst],
    attach: Option<Attach<'_>>,
) -> (SimStats, LayerTimes) {
    run_traced_with(cell, trace, attach, |engine| Box::new(engine))
}

/// [`run_traced`] with the engine wrapper handed to `wrap` before the
/// memory system takes it (the harness self-test uses this to plant a
/// defective wrapper).
pub fn run_traced_with(
    cell: &SweepCell,
    trace: &[DynInst],
    attach: Option<Attach<'_>>,
    wrap: impl FnOnce(TimedEngine) -> Box<dyn Prefetcher>,
) -> (SimStats, LayerTimes) {
    let rec = Rc::new(Recorder::default());
    let engine = wrap(TimedEngine::new(cell.config.prefetcher.build(), rec.clone()));
    let mut mem = SimMemory::with_engine(&cell.config, engine);
    if let Some(a) = attach {
        mem.attach_log(a.log.clone());
        mem.attach_obs(a.obs);
    }
    let pipeline_start = Instant::now();
    let cpu = Pipeline::new(cell.config.cpu).run(
        trace.iter().copied(),
        &mut TimedMem { inner: &mut mem, rec: &rec },
        cell.max_commits,
    );
    let pipeline_ns = nanos(pipeline_start);
    mem.finish_sampling(Cycle::new(cpu.cycles), cpu.committed);
    let mut times = rec.snapshot();
    times.pipeline_ns = pipeline_ns;
    (collect_stats(&mem, cpu), times)
}

/// The statistics `Simulation::run` collects from a finished run.
pub fn collect_stats(mem: &SimMemory, cpu: CpuStats) -> SimStats {
    SimStats {
        l1d: mem.l1d().stats(),
        l1i: mem.l1i().stats(),
        lower: mem.lower().stats(),
        prefetch: mem.prefetcher().stats(),
        dtlb: mem.dtlb().stats(),
        l1_l2_busy: mem.lower().l1_l2_bus().busy_cycles(),
        l2_mem_busy: mem.lower().l2_mem_bus().busy_cycles(),
        cpu,
    }
}
