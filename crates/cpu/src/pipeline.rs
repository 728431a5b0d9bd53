//! The out-of-order execution pipeline.
//!
//! A trace-driven model of the paper's 8-way dynamically scheduled
//! processor: fetch (gshare-directed, 2 predictions/cycle, I-cache
//! modeled) → dispatch (rename into a 128-entry ROB with a 64-entry
//! load/store queue) → issue (dataflow order under functional-unit and
//! memory-ordering constraints) → writeback → commit.
//!
//! The pipeline replays the *correct-path* dynamic instruction stream
//! produced by a workload generator. Branch mispredictions stall the
//! front end until the branch resolves (minimum 8-cycle penalty), rather
//! than executing a wrong path — see DESIGN.md §4 for why this
//! substitution is sound for the paper's experiments.
//!
//! # Event-driven scheduling
//!
//! The model is cycle-accurate but does not pay for cycles in which
//! nothing can happen (DESIGN.md §19 gives the exactness argument):
//!
//! * **Skip-ahead.** Every stage reports whether it changed any state.
//!   After a cycle in which none did, the machine state is frozen until
//!   a time threshold passes — an executing instruction finishes, a
//!   busy functional unit frees, a redirect or an instruction fetch
//!   completes, or the deadlock watchdog fires. Before the earliest such
//!   threshold only the memory system can act, so the pipeline calls
//!   [`MemSystem::tick`] and [`MemSystem::sample`] only at the cycles
//!   [`MemSystem::next_event`] names.
//! * **Writeback** keeps the in-flight instructions with the earliest
//!   finish cycle; before that cycle it does no work at all.
//! * **Issue** walks a list of operand-ready entries sorted by sequence
//!   number instead of the whole ROB. Each entry counts its unresolved
//!   producers, and each producer lists its consumers, which writeback
//!   wakes when the producer completes. The candidate order is the ROB
//!   order of the plain scan, so the issue decisions are identical.
//! * **Load gating** scans a store queue (the in-window stores, oldest
//!   first) instead of the older ROB entries. A load the gate holds back
//!   leaves the ready list and is parked on the one store that blocks
//!   it; that store's completion (or, when loads wait for every older
//!   store, its issue) puts the load back. A parked load is not gated
//!   again until its answer can have changed.
//!
//! The consumer and parked-load lists are threaded through the ROB
//! entries themselves, so the pipeline allocates nothing after
//! construction. [`Pipeline::with_forced_steps`] turns every skip off,
//! which is how the differential suites check that skipping is exact.

use crate::bpred::{BpredStats, BranchPredictor};
use crate::config::{CpuConfig, Disambiguation};
use crate::fu::FuPool;
use crate::inst::{DynInst, Op, Reg};
use crate::mem_iface::MemSystem;
use psb_common::stats::RunningMean;
use psb_common::Cycle;
use std::collections::VecDeque;

/// Cycles without a commit after which [`Pipeline::run`] declares a
/// deadlock.
const DEADLOCK_CYCLES: u64 = 1_000_000;

/// A cycle later than any event.
const NEVER: Cycle = Cycle::new(u64::MAX);

/// Results of one pipeline run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Loads satisfied by store-to-load forwarding (these never reach the
    /// cache, and per the paper never train the address predictor).
    pub forwarded_loads: u64,
    /// Issue-to-completion latency of every committed load.
    pub load_latency: RunningMean,
    /// Branch-predictor accuracy counters.
    pub bpred: BpredStats,
}

impl CpuStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed instructions that were loads.
    pub fn load_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.loads as f64 / self.committed as f64
        }
    }

    /// Fraction of committed instructions that were stores.
    pub fn store_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.stores as f64 / self.committed as f64
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EntryState {
    /// In the ROB, waiting for operands / resources.
    Dispatched,
    /// Executing; result available at `finish`.
    Executing { finish: Cycle },
    /// Complete; result was available at `finish` (never after now).
    Done { finish: Cycle },
}

/// A source operand waiting for its producer's result: operand
/// `operand` (0 or 1) of the entry with sequence number `seq`.
#[derive(Copy, Clone, Debug)]
struct Waiter {
    seq: u64,
    operand: usize,
}

#[derive(Clone, Debug)]
struct RobEntry {
    inst: DynInst,
    state: EntryState,
    /// Source operands whose producer has not completed yet.
    pending: u8,
    /// The last operand to start waiting on this entry's result; the
    /// list continues through each waiter's `next_waiter`.
    waiters: Option<Waiter>,
    /// Per source operand, the next operand waiting on the same producer.
    next_waiter: [Option<Waiter>; 2],
    /// For a store: the last load parked on it; the list continues
    /// through each load's `next_parked`.
    parked: Option<u64>,
    /// For a parked load: the next load parked on the same store.
    next_parked: Option<u64>,
    mispredicted: bool,
    issued_at: Cycle,
    forwarded: bool,
}

/// What gates a load's issue this cycle.
enum LoadGate {
    /// The store with this sequence number holds the load back; the
    /// answer cannot change before that store issues or completes.
    Wait(u64),
    /// Forward from an in-window store.
    Forward,
    /// Access the cache hierarchy.
    Cache,
}

/// The out-of-order pipeline.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_cpu::{CpuConfig, DynInst, FixedLatencyMemory, Pipeline, Reg};
///
/// // Two independent ALU ops issue together on the 8-wide core.
/// let trace = vec![
///     DynInst::alu(Addr::new(0x1000), Reg::new(1), None, None),
///     DynInst::alu(Addr::new(0x1004), Reg::new(2), None, None),
/// ];
/// let mut mem = FixedLatencyMemory::new(1);
/// let stats = Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX);
/// assert_eq!(stats.committed, 2);
/// ```
pub struct Pipeline {
    config: CpuConfig,
    bpred: BranchPredictor,
    fu: FuPool,
    rob: VecDeque<RobEntry>,
    /// Sequence number of the ROB head.
    head_seq: u64,
    next_seq: u64,
    /// Dispatched entries with every operand available, in sequence order.
    ready: Vec<u64>,
    /// Issued entries not yet written back, as `(finish, seq)`.
    in_flight: Vec<(Cycle, u64)>,
    /// Earliest finish in `in_flight` ([`NEVER`] when empty).
    next_finish: Cycle,
    /// Sequence numbers of the in-window stores, oldest first.
    stores: VecDeque<u64>,
    fetch_queue: VecDeque<(DynInst, bool)>,
    lsq_count: usize,
    last_writer: [Option<u64>; Reg::COUNT],
    // Fetch state.
    fetch_halted: bool,
    halt_cycle: Cycle,
    resume_at: Option<Cycle>,
    ifetch_ready: Cycle,
    last_fetch_block: Option<u64>,
    trace_done: bool,
    now: Cycle,
    /// Step every stage and call the memory system's hooks every cycle.
    force_step: bool,
    stats: CpuStats,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: CpuConfig) -> Self {
        Pipeline {
            config,
            bpred: BranchPredictor::new(config.bpred),
            fu: FuPool::paper_baseline(),
            rob: VecDeque::with_capacity(config.rob_size),
            head_seq: 0,
            next_seq: 0,
            ready: Vec::with_capacity(config.rob_size),
            in_flight: Vec::with_capacity(config.rob_size),
            next_finish: NEVER,
            stores: VecDeque::with_capacity(config.lsq_size),
            fetch_queue: VecDeque::with_capacity(config.fetch_queue_size),
            lsq_count: 0,
            last_writer: [None; Reg::COUNT],
            fetch_halted: false,
            halt_cycle: Cycle::ZERO,
            resume_at: None,
            ifetch_ready: Cycle::ZERO,
            last_fetch_block: None,
            trace_done: false,
            now: Cycle::ZERO,
            force_step: false,
            stats: CpuStats::default(),
        }
    }

    /// Sets whether every cycle steps every stage and calls
    /// [`MemSystem::tick`] and [`MemSystem::sample`], defeating the
    /// idle-cycle skip and [`MemSystem::next_event`]. Skipping is an
    /// optimization that must never change a result; forcing the steps
    /// is how that is checked.
    pub fn with_forced_steps(mut self, on: bool) -> Self {
        self.force_step = on;
        self
    }

    /// Runs the pipeline over `trace` against `mem` until the trace is
    /// drained or `max_commits` instructions have committed. Returns the
    /// accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (no commit for 1,000,000 cycles) —
    /// this indicates a bug in a trace generator or memory model, never a
    /// legal simulation outcome.
    pub fn run<I, M>(mut self, trace: I, mem: &mut M, max_commits: u64) -> CpuStats
    where
        I: IntoIterator<Item = DynInst>,
        M: MemSystem,
    {
        let mut trace = trace.into_iter().peekable();
        let mut last_commit_cycle = Cycle::ZERO;

        loop {
            let committed = self.commit(mem);
            // Every stage runs: `|` does not short-circuit.
            let active = committed
                | self.writeback()
                | self.issue(mem)
                | self.dispatch()
                | self.fetch(&mut trace, mem);
            mem.tick(self.now);
            mem.sample(self.now, self.stats.committed);

            if committed {
                last_commit_cycle = self.now;
            }

            let drained = self.trace_done && self.rob.is_empty() && self.fetch_queue.is_empty();
            if drained || self.stats.committed >= max_commits {
                break;
            }

            assert!(
                self.now.since(last_commit_cycle) < DEADLOCK_CYCLES,
                "pipeline deadlock at {:?}: rob={}, fq={}, head={:?}",
                self.now,
                self.rob.len(),
                self.fetch_queue.len(),
                self.rob.front().map(|e| (e.inst, e.state)),
            );

            if active || self.force_step {
                self.now += 1;
            } else {
                // Nothing changed, so every stage repeats this cycle's
                // inaction until the next time-driven event. Before it
                // only the memory system can act, at the cycles it names.
                // The watchdog cycle is an event, so a deadlock still
                // panics at the same cycle.
                let event = self.next_event().min(last_commit_cycle + DEADLOCK_CYCLES);
                let mut due = mem.next_event(self.now);
                while due < event {
                    mem.tick(due);
                    mem.sample(due, self.stats.committed);
                    due = mem.next_event(due);
                }
                self.now = event;
            }
        }

        self.stats.cycles = self.now.raw() + 1;
        self.stats.bpred = self.bpred.stats();
        self.stats
    }

    /// The earliest cycle after now at which a stage could act on
    /// unchanged state ([`NEVER`] if none).
    fn next_event(&self) -> Cycle {
        let fetch_unblocks = (self.ifetch_ready > self.now).then_some(self.ifetch_ready);
        [Some(self.next_finish), self.fu.next_free_after(self.now), self.resume_at, fetch_unblocks]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(NEVER)
    }

    /// ROB index of the in-window entry with sequence number `seq`.
    fn index(&self, seq: u64) -> usize {
        (seq - self.head_seq) as usize
    }

    /// Decides whether the load with sequence number `seq` may issue,
    /// and how, from the stores older than it.
    fn load_gate(&self, seq: u64) -> LoadGate {
        let load = &self.rob[self.index(seq)].inst;
        let load_addr = load.mem_addr.expect("invariant: mem ops always carry an address").raw();
        let load_end = load_addr + u64::from(load.mem_size);
        let overlap = |e: &RobEntry| {
            let sa = e.inst.mem_addr.expect("invariant: mem ops always carry an address").raw();
            sa < load_end && load_addr < sa + u64::from(e.inst.mem_size)
        };
        let older = self.stores.range(..self.stores.partition_point(|&s| s < seq));

        match self.config.disambiguation {
            Disambiguation::Perfect => {
                // Youngest older store to the same memory, if any.
                for &s in older.rev() {
                    let e = &self.rob[self.index(s)];
                    if overlap(e) {
                        return match e.state {
                            EntryState::Done { .. } => LoadGate::Forward,
                            _ => LoadGate::Wait(s),
                        };
                    }
                }
                LoadGate::Cache
            }
            Disambiguation::WaitForStores => {
                let mut forward_candidate = None;
                for &s in older {
                    let e = &self.rob[self.index(s)];
                    if matches!(e.state, EntryState::Dispatched) {
                        return LoadGate::Wait(s);
                    }
                    if overlap(e) {
                        forward_candidate = Some((s, e.state));
                    }
                }
                match forward_candidate {
                    Some((_, EntryState::Done { .. })) => LoadGate::Forward,
                    Some((s, _)) => LoadGate::Wait(s),
                    None => LoadGate::Cache,
                }
            }
        }
    }

    /// Retires up to `commit_width` completed entries from the ROB head.
    /// Returns whether any retired.
    fn commit<M: MemSystem>(&mut self, mem: &mut M) -> bool {
        let mut committed = 0;
        while committed < self.config.commit_width {
            let Some(head) = self.rob.front() else { break };
            let EntryState::Done { finish } = head.state else {
                break;
            };
            let e = self.rob.pop_front().expect("invariant: the loop guard saw a front element");
            self.head_seq += 1;
            committed += 1;
            self.stats.committed += 1;
            match e.inst.op {
                Op::Load => {
                    self.stats.loads += 1;
                    self.stats.load_latency.add(finish.since(e.issued_at));
                    if e.forwarded {
                        self.stats.forwarded_loads += 1;
                    }
                    self.lsq_count -= 1;
                }
                Op::Store => {
                    self.stats.stores += 1;
                    self.lsq_count -= 1;
                    let oldest = self.stores.pop_front();
                    debug_assert_eq!(oldest, Some(self.head_seq - 1));
                    let addr = e.inst.mem_addr.expect("invariant: mem ops always carry an address");
                    mem.store(self.now, e.inst.pc, addr);
                }
                Op::Branch => self.stats.branches += 1,
                _ => {}
            }
        }
        committed != 0
    }

    /// Completes every in-flight entry whose result is available now and
    /// wakes its consumers. Returns whether any entry completed.
    fn writeback(&mut self) -> bool {
        let now = self.now;
        if now < self.next_finish {
            return false;
        }
        let mut next_finish = NEVER;
        let mut resolved_mispredict = None;
        let mut i = 0;
        while i < self.in_flight.len() {
            let (finish, seq) = self.in_flight[i];
            if finish > now {
                next_finish = next_finish.min(finish);
                i += 1;
                continue;
            }
            self.in_flight.swap_remove(i);
            let idx = self.index(seq);
            self.rob[idx].state = EntryState::Done { finish };
            if self.rob[idx].mispredicted {
                resolved_mispredict = Some(finish);
            }
            self.wake_waiters(idx);
            self.wake_parked(idx);
        }
        self.next_finish = next_finish;
        if let Some(finish) = resolved_mispredict {
            debug_assert!(self.fetch_halted);
            let earliest = self.halt_cycle + self.config.min_mispredict_penalty;
            let redirect = finish.max(now) + self.config.redirect_latency;
            self.resume_at = Some(earliest.max(redirect));
        }
        true
    }

    /// Resolves every operand waiting on the entry at ROB index `idx`,
    /// moving the entries left with none pending onto the ready list.
    fn wake_waiters(&mut self, idx: usize) {
        let mut next = self.rob[idx].waiters.take();
        while let Some(Waiter { seq, operand }) = next {
            let i = self.index(seq);
            let e = &mut self.rob[i];
            next = e.next_waiter[operand];
            e.pending -= 1;
            if e.pending == 0 {
                self.make_ready(seq);
            }
        }
    }

    /// Inserts `seq` into the ready list in sequence order.
    fn make_ready(&mut self, seq: u64) {
        let (Ok(at) | Err(at)) = self.ready.binary_search(&seq);
        self.ready.insert(at, seq);
    }

    /// Takes the load at ready-list position `i` off the list and parks
    /// it on the store with sequence number `store`.
    fn park(&mut self, i: usize, store: u64) {
        let load = self.ready.remove(i);
        let s = self.index(store);
        let next = self.rob[s].parked.replace(load);
        let l = self.index(load);
        self.rob[l].next_parked = next;
    }

    /// Returns every load parked on the entry at ROB index `idx` to the
    /// ready list.
    fn wake_parked(&mut self, idx: usize) {
        let mut next = self.rob[idx].parked.take();
        while let Some(seq) = next {
            let i = self.index(seq);
            next = self.rob[i].next_parked.take();
            self.make_ready(seq);
        }
    }

    /// Issues up to `issue_width` ready entries, oldest first. Returns
    /// whether any issued.
    fn issue<M: MemSystem>(&mut self, mem: &mut M) -> bool {
        let mut issued = 0;
        let mut i = 0;
        while i < self.ready.len() && issued < self.config.issue_width {
            let seq = self.ready[i];
            let idx = self.index(seq);
            let inst = self.rob[idx].inst;
            let finish = match inst.op {
                Op::Load => match self.load_gate(seq) {
                    LoadGate::Wait(store) => {
                        self.park(i, store);
                        continue;
                    }
                    LoadGate::Forward => match self.fu.try_issue(Op::Load, self.now) {
                        Some(_) => {
                            self.rob[idx].forwarded = true;
                            self.now + self.config.store_forward_latency
                        }
                        None => {
                            i += 1;
                            continue;
                        }
                    },
                    LoadGate::Cache => match self.fu.try_issue(Op::Load, self.now) {
                        Some(_) => {
                            let addr =
                                inst.mem_addr.expect("invariant: mem ops always carry an address");
                            mem.load(self.now, inst.pc, addr)
                        }
                        None => {
                            i += 1;
                            continue;
                        }
                    },
                },
                op => match self.fu.try_issue(op, self.now) {
                    Some(finish) => finish,
                    None => {
                        i += 1;
                        continue;
                    }
                },
            };
            self.ready.remove(i);
            self.rob[idx].state = EntryState::Executing { finish };
            self.rob[idx].issued_at = self.now;
            self.in_flight.push((finish, seq));
            self.next_finish = self.next_finish.min(finish);
            issued += 1;
            if self.config.disambiguation == Disambiguation::WaitForStores {
                // Loads wait for every older store to issue, so the ones
                // parked on this entry (only stores have any) may pass it
                // now. They are younger, so they rejoin the list later in
                // this walk.
                self.wake_parked(idx);
            }
        }
        issued != 0
    }

    /// Moves up to `dispatch_width` instructions from the fetch queue
    /// into the ROB. Returns whether any moved.
    fn dispatch(&mut self) -> bool {
        let mut dispatched = 0;
        while dispatched < self.config.dispatch_width {
            let Some(&(inst, _)) = self.fetch_queue.front() else {
                break;
            };
            if self.rob.len() >= self.config.rob_size {
                break;
            }
            if inst.op.is_mem() && self.lsq_count >= self.config.lsq_size {
                break;
            }
            let (inst, mispredicted) = self
                .fetch_queue
                .pop_front()
                .expect("invariant: the loop guard saw a front element");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut pending = 0;
            let mut next_waiter = [None; 2];
            for (operand, src) in [inst.src1, inst.src2].into_iter().enumerate() {
                let Some(producer) = src.and_then(|r| self.last_writer[r.index()]) else {
                    continue;
                };
                // A producer that left the window has committed, so its
                // value is available.
                let Some(p) = producer.checked_sub(self.head_seq) else { continue };
                let p = &mut self.rob[p as usize];
                if !matches!(p.state, EntryState::Done { .. }) {
                    next_waiter[operand] = p.waiters.replace(Waiter { seq, operand });
                    pending += 1;
                }
            }
            if let Some(dst) = inst.dst {
                self.last_writer[dst.index()] = Some(seq);
            }
            if inst.op.is_mem() {
                self.lsq_count += 1;
            }
            if inst.op.is_store() {
                self.stores.push_back(seq);
            }
            self.rob.push_back(RobEntry {
                inst,
                state: EntryState::Dispatched,
                pending,
                waiters: None,
                next_waiter,
                parked: None,
                next_parked: None,
                mispredicted,
                issued_at: Cycle::ZERO,
                forwarded: false,
            });
            if pending == 0 {
                self.ready.push(seq);
            }
            dispatched += 1;
        }
        dispatched != 0
    }

    /// Fetches up to `fetch_width` instructions into the fetch queue.
    /// Returns whether fetch changed any state or called the memory
    /// system.
    fn fetch<I, M>(&mut self, trace: &mut std::iter::Peekable<I>, mem: &mut M) -> bool
    where
        I: Iterator<Item = DynInst>,
        M: MemSystem,
    {
        let mut active = false;
        if self.fetch_halted {
            match self.resume_at {
                Some(at) if self.now >= at => {
                    self.fetch_halted = false;
                    self.resume_at = None;
                    self.last_fetch_block = None;
                    active = true;
                }
                _ => return false,
            }
        }
        if self.now < self.ifetch_ready {
            return active;
        }

        let mut fetched = 0;
        let mut branches = 0;
        while fetched < self.config.fetch_width
            && self.fetch_queue.len() < self.config.fetch_queue_size
        {
            let Some(peeked) = trace.peek() else {
                active |= !self.trace_done;
                self.trace_done = true;
                break;
            };
            if peeked.op == Op::Branch && branches >= self.config.branches_per_fetch {
                break;
            }
            // New I-cache block: model the instruction fetch.
            let block = peeked.pc.raw() / self.config.icache_block;
            if self.last_fetch_block != Some(block) {
                active = true;
                let ready = mem.ifetch(self.now, peeked.pc);
                if ready > self.now {
                    self.ifetch_ready = ready;
                    break;
                }
                self.last_fetch_block = Some(block);
            }

            let inst = trace.next().expect("invariant: peek just returned Some");
            fetched += 1;
            if inst.op.is_load() {
                mem.fetched_load(self.now, inst.pc);
            }
            let mut mispredicted = false;
            let mut ends_group = false;
            if let Some(info) = inst.branch {
                branches += 1;
                let p = self.bpred.predict_and_train(inst.pc, info);
                mispredicted = !p.correct;
                ends_group = info.taken || mispredicted;
            }
            self.fetch_queue.push_back((inst, mispredicted));
            if mispredicted {
                self.fetch_halted = true;
                self.halt_cycle = self.now;
                self.resume_at = None;
                break;
            }
            if ends_group {
                // Taken branch: the target is fetched next cycle.
                self.last_fetch_block = None;
                break;
            }
        }
        active | (fetched != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchInfo, BranchKind};
    use crate::mem_iface::FixedLatencyMemory;
    use psb_common::Addr;

    fn run_trace(trace: Vec<DynInst>, load_latency: u64) -> CpuStats {
        let mut mem = FixedLatencyMemory::new(load_latency);
        Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX)
    }

    /// A straight-line run of independent ALU ops at the given pc base.
    fn alu_run(base: u64, n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::alu(Addr::new(base + 4 * i as u64), Reg::new((i % 32) as u8), None, None)
            })
            .collect()
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let stats = run_trace(alu_run(0x1000, 4096), 1);
        assert_eq!(stats.committed, 4096);
        // 8-wide machine, no hazards: expect IPC well above 4.
        assert!(stats.ipc() > 4.0, "ipc = {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // r1 <- r1 chain: one instruction per cycle at best.
        let trace: Vec<DynInst> = (0..1000)
            .map(|i| DynInst::alu(Addr::new(0x1000 + 4 * i), Reg::new(1), Some(Reg::new(1)), None))
            .collect();
        let stats = run_trace(trace, 1);
        assert_eq!(stats.committed, 1000);
        assert!(stats.ipc() <= 1.1, "dependent chain must serialize, ipc = {}", stats.ipc());
        assert!(stats.cycles >= 1000);
    }

    #[test]
    fn load_latency_gates_dependents() {
        // load r1; use r1 -> load r1; ... with 50-cycle loads.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            trace.push(DynInst::load(
                Addr::new(0x1000 + 8 * i),
                Reg::new(1),
                Some(Reg::new(1)),
                Addr::new(0x10_0000 + 64 * i),
                8,
            ));
            trace.push(DynInst::alu(
                Addr::new(0x1000 + 8 * i + 4),
                Reg::new(1),
                Some(Reg::new(1)),
                None,
            ));
        }
        let stats = run_trace(trace, 50);
        assert_eq!(stats.committed, 400);
        // Each iteration costs >= 51 cycles (load 50 + alu 1).
        assert!(stats.cycles >= 200 * 51, "cycles = {}", stats.cycles);
        assert!(stats.load_latency.mean() >= 50.0);
    }

    #[test]
    fn independent_loads_overlap() {
        // 200 independent loads, 50-cycle latency, 4 ld/st units: the
        // machine should overlap them heavily.
        let trace: Vec<DynInst> = (0..200u64)
            .map(|i| {
                DynInst::load(
                    Addr::new(0x1000 + 4 * i),
                    Reg::new((i % 32) as u8),
                    None,
                    Addr::new(0x10_0000 + 64 * i),
                    8,
                )
            })
            .collect();
        let stats = run_trace(trace, 50);
        assert_eq!(stats.loads, 200);
        // Far better than serialized (200 * 50 = 10000 cycles).
        assert!(stats.cycles < 2000, "cycles = {}", stats.cycles);
    }

    #[test]
    fn store_forwarding_shortcuts_memory() {
        // store to X; load from X: load must forward, not pay memory.
        let mut trace = Vec::new();
        for i in 0..100u64 {
            let x = Addr::new(0x20_0000 + 8 * i);
            trace.push(DynInst::store(Addr::new(0x1000 + 8 * i), None, None, x, 8));
            trace.push(DynInst::load(Addr::new(0x1000 + 8 * i + 4), Reg::new(2), None, x, 8));
        }
        let mut mem = FixedLatencyMemory::new(200);
        let stats = Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, u64::MAX);
        assert_eq!(stats.forwarded_loads, 100);
        assert_eq!(mem.loads(), 0, "forwarded loads must not touch memory");
        assert!(stats.cycles < 2000, "forwarding must avoid the 200-cycle latency");
    }

    #[test]
    fn wait_for_stores_is_slower_than_perfect() {
        // Loads independent of many unrelated stores.
        let mut trace = Vec::new();
        for i in 0..300u64 {
            trace.push(DynInst::store(
                Addr::new(0x1000 + 12 * i),
                None,
                Some(Reg::new(3)),
                Addr::new(0x30_0000 + 8 * i),
                8,
            ));
            trace.push(DynInst::load(
                Addr::new(0x1000 + 12 * i + 4),
                Reg::new(1),
                None,
                Addr::new(0x40_0000 + 64 * i),
                8,
            ));
            trace.push(DynInst::alu(
                Addr::new(0x1000 + 12 * i + 8),
                Reg::new(3),
                Some(Reg::new(1)),
                None,
            ));
        }
        let mut mem1 = FixedLatencyMemory::new(30);
        let perfect = Pipeline::new(CpuConfig::baseline()).run(trace.clone(), &mut mem1, u64::MAX);
        let mut mem2 = FixedLatencyMemory::new(30);
        let nodis =
            Pipeline::new(CpuConfig::baseline().with_disambiguation(Disambiguation::WaitForStores))
                .run(trace, &mut mem2, u64::MAX);
        assert!(
            nodis.cycles >= perfect.cycles,
            "NoDis {} must not beat perfect {}",
            nodis.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A loop whose conditional branch at a fixed PC either always
        // falls through (learnable) or flips pseudo-randomly (hopeless).
        // Correct-path layout per iteration:
        //   0x1000 alu
        //   0x1004 cond branch -> 0x100c (taken skips 0x1008)
        //   0x1008 alu                  (not-taken path only)
        //   0x100c jump -> 0x1000
        let mk = |pattern: fn(u64) -> bool| -> Vec<DynInst> {
            let mut v = Vec::new();
            for i in 0..2000u64 {
                let taken = pattern(i);
                v.push(DynInst::alu(Addr::new(0x1000), Reg::new(1), None, None));
                v.push(DynInst::branch(
                    Addr::new(0x1004),
                    None,
                    BranchInfo { kind: BranchKind::Conditional, taken, target: Addr::new(0x100c) },
                ));
                if !taken {
                    v.push(DynInst::alu(Addr::new(0x1008), Reg::new(2), None, None));
                }
                v.push(DynInst::branch(
                    Addr::new(0x100c),
                    None,
                    BranchInfo { kind: BranchKind::Jump, taken: true, target: Addr::new(0x1000) },
                ));
            }
            v
        };
        let easy = run_trace(mk(|_| false), 1);
        // Full-avalanche hash of the iteration index: effectively random.
        // (A plain multiply's top bit is a Sturmian sequence that gshare
        // happily learns.)
        let hard = run_trace(
            mk(|i| {
                let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) & 1 != 0
            }),
            1,
        );
        assert!(
            hard.cycles as f64 > easy.cycles as f64 * 1.5,
            "mispredictions must hurt: easy {} vs hard {}",
            easy.cycles,
            hard.cycles
        );
        assert!(hard.bpred.mispredictions > 500, "hard: {:?}", hard.bpred);
        assert!(easy.bpred.mispredictions < 50, "easy: {:?}", easy.bpred);
        assert!(easy.bpred.accuracy() > 0.97);
    }

    #[test]
    fn rob_capacity_limits_outstanding_work() {
        // A single very long load followed by many ALUs: the ROB fills and
        // dispatch stalls until the load completes.
        let mut trace =
            vec![DynInst::load(Addr::new(0x1000), Reg::new(1), None, Addr::new(0x10_0000), 8)];
        trace.extend(alu_run(0x1004, 400));
        let stats = run_trace(trace, 500);
        // The load blocks commit; the 128-entry ROB can absorb only so
        // much, so total time is dominated by the load latency.
        assert!(stats.cycles >= 500, "cycles = {}", stats.cycles);
        assert_eq!(stats.committed, 401);
    }

    #[test]
    fn stats_fractions() {
        let mut trace = alu_run(0x1000, 10);
        trace.push(DynInst::load(Addr::new(0x1028), Reg::new(1), None, Addr::new(0x9000), 8));
        trace.push(DynInst::store(Addr::new(0x102c), None, None, Addr::new(0x9008), 8));
        let stats = run_trace(trace, 1);
        assert_eq!(stats.committed, 12);
        assert!((stats.load_fraction() - 1.0 / 12.0).abs() < 1e-12);
        assert!((stats.store_fraction() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_zero_only_without_a_denominator() {
        let none = CpuStats::default();
        assert_eq!((none.ipc(), none.load_fraction(), none.store_fraction()), (0.0, 0.0, 0.0));
        let one = CpuStats { cycles: 1, committed: 1, loads: 1, stores: 1, ..CpuStats::default() };
        assert_eq!((one.ipc(), one.load_fraction(), one.store_fraction()), (1.0, 1.0, 1.0));
    }

    #[test]
    fn max_commits_stops_early() {
        let stats = run_trace_limited(alu_run(0x1000, 1000), 100);
        assert!(stats.committed >= 100 && stats.committed < 1000);
    }

    fn run_trace_limited(trace: Vec<DynInst>, max: u64) -> CpuStats {
        let mut mem = FixedLatencyMemory::new(1);
        Pipeline::new(CpuConfig::baseline()).run(trace, &mut mem, max)
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock at Cycle(1000000)")]
    fn watchdog_fires_at_the_same_cycle_despite_skip_ahead() {
        // The load never completes within the watchdog window; the idle
        // skip must stop at the watchdog cycle rather than jump past it.
        let trace =
            vec![DynInst::load(Addr::new(0x1000), Reg::new(1), None, Addr::new(0x10_0000), 8)];
        run_trace(trace, 5_000_000);
    }

    #[test]
    fn empty_trace_is_fine() {
        let stats = run_trace(Vec::new(), 1);
        assert_eq!(stats.committed, 0);
        assert!(stats.ipc() == 0.0 || stats.cycles <= 1);
    }
}
