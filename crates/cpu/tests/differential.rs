//! Differential test of the event-driven pipeline against a reference
//! model: the plain every-cycle ROB-scan pipeline the event-driven one
//! replaced, kept here (and only here) as the specification.
//!
//! Both run the same SplitMix64 traces — ALU, multiply, divide and FP
//! ops, loads and stores to a small pool of overlapping addresses, and
//! hard-to-predict branches — under both disambiguation policies and
//! two core geometries, each against its own copy of a memory system
//! whose latencies vary per call but follow only from the calls it has
//! seen. The statistics and the full log of memory-system calls (with
//! each call's cycle) must be equal, which also proves that `tick` and
//! `sample` still run exactly once per cycle, in order, with nothing
//! between them, when the memory system keeps every cycle due.
//!
//! A second family of checks gives the memory system a sparse
//! `next_event`: the hooks must then arrive at exactly the cycles it
//! names plus the cycles in which the pipeline stepped, and a due tick
//! that changes later answers must still be seen at its cycle.

use psb_common::{Addr, Cycle, SplitMix64};
use psb_cpu::{
    BranchInfo, BranchKind, CpuConfig, CpuStats, Disambiguation, DynInst, MemSystem, Op, Pipeline,
    Reg,
};

/// One memory-system call as the pipeline made it.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Call {
    Load { now: u64, pc: u64, addr: u64, ready: u64 },
    Store { now: u64, pc: u64, addr: u64 },
    Ifetch { now: u64, pc: u64, ready: u64 },
    FetchedLoad { now: u64, pc: u64 },
    Tick { now: u64 },
    Sample { now: u64, committed: u64 },
}

/// A deterministic memory system whose latencies vary per call: each
/// answer is a hash of the call's arguments, of how many answers came
/// before it and of the ticks that were due. Two pipelines that make the
/// same calls therefore get the same answers, and the first differing
/// call shows up in the log.
struct LoggingMemory {
    calls: Vec<Call>,
    salt: u64,
    answers: u64,
    /// `next_event` names only the multiples of this period (`u64::MAX`:
    /// none after cycle 0); `None` keeps the trait default, every cycle.
    period: Option<u64>,
    /// Whether a tick at a multiple of `period` changes later answers.
    ticks_matter: bool,
    phase: u64,
}

impl LoggingMemory {
    fn new(salt: u64) -> Self {
        LoggingMemory {
            calls: Vec::new(),
            salt,
            answers: 0,
            period: None,
            ticks_matter: false,
            phase: 0,
        }
    }

    /// Due only at the multiples of `period`; with `ticks_matter`, each
    /// due tick perturbs every later answer.
    fn sparse(salt: u64, period: u64, ticks_matter: bool) -> Self {
        LoggingMemory { period: Some(period), ticks_matter, ..LoggingMemory::new(salt) }
    }

    fn hash(&mut self, now: Cycle, addr: Addr) -> u64 {
        self.answers += 1;
        let seed = self.salt ^ self.phase ^ self.answers.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SplitMix64::new(seed ^ now.raw().rotate_left(17) ^ addr.raw());
        rng.next_u64()
    }

    /// The calls other than `tick` and `sample`.
    fn accesses(&self) -> Vec<&Call> {
        self.calls
            .iter()
            .filter(|c| !matches!(c, Call::Tick { .. } | Call::Sample { .. }))
            .collect()
    }

    /// The cycles of the `tick` calls, checking that each is followed
    /// directly by a `sample` at the same cycle and that they increase.
    fn hook_cycles(&self) -> Vec<u64> {
        let hooks: Vec<&Call> = self
            .calls
            .iter()
            .filter(|c| matches!(c, Call::Tick { .. } | Call::Sample { .. }))
            .collect();
        let mut cycles = Vec::with_capacity(hooks.len() / 2);
        for pair in hooks.chunks(2) {
            let [Call::Tick { now: t }, Call::Sample { now: s, .. }] = pair else {
                panic!("unpaired hooks {pair:?}");
            };
            assert_eq!(t, s, "tick and sample at different cycles");
            assert!(cycles.last().is_none_or(|&last| last < *t), "hooks out of order at {t}");
            cycles.push(*t);
        }
        cycles
    }
}

impl MemSystem for LoggingMemory {
    fn load(&mut self, now: Cycle, pc: Addr, addr: Addr) -> Cycle {
        let h = self.hash(now, addr);
        // Mostly short hits, some long misses that leave the core idle.
        let latency = if h.is_multiple_of(8) { 80 + (h >> 8) % 320 } else { 1 + (h >> 8) % 12 };
        let ready = now + latency;
        self.calls.push(Call::Load {
            now: now.raw(),
            pc: pc.raw(),
            addr: addr.raw(),
            ready: ready.raw(),
        });
        ready
    }

    fn store(&mut self, now: Cycle, pc: Addr, addr: Addr) {
        self.calls.push(Call::Store { now: now.raw(), pc: pc.raw(), addr: addr.raw() });
    }

    fn ifetch(&mut self, now: Cycle, pc: Addr) -> Cycle {
        let h = self.hash(now, pc);
        let ready = if h.is_multiple_of(6) { now + 8 + (h >> 8) % 60 } else { now };
        self.calls.push(Call::Ifetch { now: now.raw(), pc: pc.raw(), ready: ready.raw() });
        ready
    }

    fn fetched_load(&mut self, now: Cycle, pc: Addr) {
        self.calls.push(Call::FetchedLoad { now: now.raw(), pc: pc.raw() });
    }

    fn tick(&mut self, now: Cycle) {
        self.calls.push(Call::Tick { now: now.raw() });
        if let Some(p) = self.period {
            if self.ticks_matter && now.raw().is_multiple_of(p) {
                self.phase = self.phase.rotate_left(7) ^ now.raw();
            }
        }
    }

    fn sample(&mut self, now: Cycle, committed: u64) {
        self.calls.push(Call::Sample { now: now.raw(), committed });
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        match self.period {
            None => now + 1,
            Some(p) => Cycle::new((now.raw() / p + 1).saturating_mul(p)),
        }
    }
}

/// A random trace with dense register dependences, overlapping memory
/// accesses and control flow that jumps around a small code region.
fn random_trace(rng: &mut SplitMix64, len: u64) -> Vec<DynInst> {
    let reg = |rng: &mut SplitMix64| Reg::new(rng.below(10) as u8);
    let src = |rng: &mut SplitMix64| (rng.below(4) != 0).then(|| Reg::new(rng.below(10) as u8));
    // 4- and 8-byte accesses at 4-byte granularity over 128 bytes: many
    // exact matches, many partial overlaps.
    let mem_addr = |rng: &mut SplitMix64| Addr::new(0x8000 + 4 * rng.below(32));
    let mem_size = |rng: &mut SplitMix64| if rng.below(2) == 0 { 4 } else { 8 };
    let mut pc = Addr::new(0x1_0000);
    let mut out = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let inst = match rng.below(16) {
            0..=3 => DynInst::alu(pc, reg(rng), src(rng), src(rng)),
            4..=6 => DynInst::load(pc, reg(rng), src(rng), mem_addr(rng), mem_size(rng)),
            7..=8 => DynInst::store(pc, src(rng), src(rng), mem_addr(rng), mem_size(rng)),
            9..=12 => {
                let op = *rng.choose(&[Op::IntMult, Op::IntDiv, Op::FpAdd, Op::FpMult, Op::FpDiv]);
                DynInst {
                    pc,
                    op,
                    dst: Some(reg(rng)),
                    src1: src(rng),
                    src2: src(rng),
                    mem_addr: None,
                    mem_size: 0,
                    branch: None,
                }
            }
            _ => {
                let kind = *rng.choose(&[
                    BranchKind::Conditional,
                    BranchKind::Conditional,
                    BranchKind::Jump,
                    BranchKind::Indirect,
                ]);
                let taken = kind != BranchKind::Conditional || rng.below(2) == 0;
                let target = Addr::new(0x1_0000 + 4 * rng.below(1024));
                DynInst::branch(pc, src(rng), BranchInfo { kind, taken, target })
            }
        };
        pc = inst.next_pc();
        out.push(inst);
    }
    out
}

/// A trace dense in loads that sit behind unresolved older stores to the
/// same bytes: store data and addresses come from divides and loads, so
/// stores stay unissued or executing while younger loads to the same few
/// words, most with no register inputs, are already operand-ready.
/// Some stores also write a register that later instructions read.
fn store_heavy_trace(rng: &mut SplitMix64, len: u64) -> Vec<DynInst> {
    let slow = |rng: &mut SplitMix64| Reg::new(rng.below(3) as u8);
    let mem_addr = |rng: &mut SplitMix64| Addr::new(0x8000 + 4 * rng.below(8));
    let mem_size = |rng: &mut SplitMix64| if rng.below(2) == 0 { 4 } else { 8 };
    let mut pc = Addr::new(0x1_0000);
    let mut out = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let inst = match rng.below(12) {
            0 => {
                let op = *rng.choose(&[Op::IntDiv, Op::FpDiv, Op::IntMult]);
                let src = Some(slow(rng));
                DynInst {
                    pc,
                    op,
                    dst: Some(slow(rng)),
                    src1: src,
                    src2: None,
                    mem_addr: None,
                    mem_size: 0,
                    branch: None,
                }
            }
            1 => DynInst::load(pc, slow(rng), None, mem_addr(rng), mem_size(rng)),
            2..=4 => {
                let base = (rng.below(2) == 0).then(|| slow(rng));
                let mut store =
                    DynInst::store(pc, Some(slow(rng)), base, mem_addr(rng), mem_size(rng));
                // Serialized traces may give a store a destination; its
                // consumers must wait for completion, not for issue.
                if rng.below(4) == 0 {
                    store.dst = Some(Reg::new(3 + rng.below(4) as u8));
                }
                store
            }
            5..=9 => {
                let base = (rng.below(4) == 0).then(|| Reg::new(3 + rng.below(4) as u8));
                let dst = Reg::new(3 + rng.below(4) as u8);
                DynInst::load(pc, dst, base, mem_addr(rng), mem_size(rng))
            }
            10 => DynInst::alu(pc, Reg::new(3 + rng.below(4) as u8), Some(slow(rng)), None),
            _ => {
                let taken = rng.below(2) == 0;
                let target = Addr::new(0x1_0000 + 4 * rng.below(256));
                let info = BranchInfo { kind: BranchKind::Conditional, taken, target };
                DynInst::branch(pc, None, info)
            }
        };
        pc = inst.next_pc();
        out.push(inst);
    }
    out
}

/// A small core that hits every width, queue, ROB and LSQ limit.
fn narrow(disambiguation: Disambiguation) -> CpuConfig {
    CpuConfig {
        fetch_width: 3,
        dispatch_width: 2,
        issue_width: 2,
        commit_width: 2,
        rob_size: 24,
        lsq_size: 6,
        fetch_queue_size: 5,
        branches_per_fetch: 1,
        ..CpuConfig::baseline().with_disambiguation(disambiguation)
    }
}

/// Runs both pipelines and checks them equal; returns the statistics and
/// how often the reference's load gate answered "wait".
fn check(case: u64, config: CpuConfig, trace: &[DynInst], max_commits: u64) -> (CpuStats, u64) {
    let mut want_mem = LoggingMemory::new(case);
    let (want, waits) =
        reference::Pipeline::new(config).run(trace.iter().copied(), &mut want_mem, max_commits);
    let mut got_mem = LoggingMemory::new(case);
    let got = Pipeline::new(config).run(trace.iter().copied(), &mut got_mem, max_commits);

    if let Some(i) = (0..want_mem.calls.len().min(got_mem.calls.len()))
        .find(|&i| want_mem.calls[i] != got_mem.calls[i])
    {
        panic!(
            "case {case} ({config:?}): call {i} differs: reference {:?}, event-driven {:?}",
            want_mem.calls[i], got_mem.calls[i]
        );
    }
    assert_eq!(want_mem.calls.len(), got_mem.calls.len(), "case {case}: call counts differ");
    assert_eq!(want, got, "case {case}: statistics differ");

    // The reference ticks and samples every cycle; so, therefore, does
    // the event-driven pipeline while every cycle is due.
    let hooks = got_mem.hook_cycles();
    assert!(hooks.iter().copied().eq(0..got.cycles), "case {case}: a cycle was not hooked");
    (got, waits)
}

/// Checks the `next_event` contract on one trace: the hooks arrive at
/// exactly the due cycles plus the stepped cycles, due ticks that change
/// later answers are honoured, and forcing the steps changes nothing.
/// Returns the statistics and the number of cycles the pipeline skipped.
fn check_sparse(case: u64, period: u64, config: CpuConfig, trace: &[DynInst]) -> (CpuStats, u64) {
    let run = |mem: &mut LoggingMemory, forced: bool| {
        Pipeline::new(config).with_forced_steps(forced).run(trace.iter().copied(), mem, u64::MAX)
    };

    // Due ticks perturb later answers; the reference ticks every cycle.
    let mut want_mem = LoggingMemory::sparse(case, period, true);
    let (want, _) =
        reference::Pipeline::new(config).run(trace.iter().copied(), &mut want_mem, u64::MAX);
    let mut got_mem = LoggingMemory::sparse(case, period, true);
    let got = run(&mut got_mem, false);
    assert_eq!(want_mem.accesses(), got_mem.accesses(), "case {case}: accesses differ");
    assert_eq!(want, got, "case {case}: statistics differ");

    // With effect-free ticks, the hooks of a never-due memory are exactly
    // the stepped cycles; a memory due every `period` cycles adds those.
    let mut never_mem = LoggingMemory::sparse(case, u64::MAX, false);
    let stepped_stats = run(&mut never_mem, false);
    let stepped = never_mem.hook_cycles();
    let mut due_mem = LoggingMemory::sparse(case, period, false);
    let due_stats = run(&mut due_mem, false);
    let mut expected: Vec<u64> = (0..due_stats.cycles).step_by(period as usize).collect();
    expected.extend(&stepped);
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(
        due_mem.hook_cycles(),
        expected,
        "case {case}: hooks off the due and stepped cycles"
    );
    assert_eq!(stepped_stats, due_stats, "case {case}");
    assert_eq!(never_mem.accesses(), due_mem.accesses(), "case {case}");

    // Forced stepping hooks every cycle and changes nothing else.
    let mut forced_mem = LoggingMemory::sparse(case, u64::MAX, false);
    let forced = run(&mut forced_mem, true);
    assert!(forced_mem.hook_cycles().into_iter().eq(0..forced.cycles), "case {case}: forced");
    assert_eq!(forced, stepped_stats, "case {case}: forcing changed the statistics");
    assert_eq!(forced_mem.accesses(), never_mem.accesses(), "case {case}");
    (got, stepped_stats.cycles - stepped.len() as u64)
}

#[test]
fn event_driven_pipeline_matches_the_scan_reference() {
    let mut meta = SplitMix64::new(0xD1FF);
    let (mut idle_heavy, mut forwarded, mut mispredicted) = (0, 0, 0);
    for case in 0..40 {
        let len = 50 + meta.below(700);
        let trace = random_trace(&mut meta, len);
        for disambiguation in [Disambiguation::Perfect, Disambiguation::WaitForStores] {
            for config in
                [CpuConfig::baseline().with_disambiguation(disambiguation), narrow(disambiguation)]
            {
                let (stats, _) = check(case, config, &trace, u64::MAX);
                assert_eq!(stats.committed, trace.len() as u64, "case {case}");
                idle_heavy += u64::from(stats.cycles > 4 * stats.committed);
                forwarded += stats.forwarded_loads;
                mispredicted += stats.bpred.mispredictions;
            }
        }
    }
    // The generator reaches the paths the event machinery must get right.
    assert!(idle_heavy > 20, "too few memory-bound runs: {idle_heavy}");
    assert!(forwarded > 100, "too few forwarded loads: {forwarded}");
    assert!(mispredicted > 1000, "too few mispredictions: {mispredicted}");
}

#[test]
fn commit_limit_stops_both_at_the_same_cycle() {
    let mut meta = SplitMix64::new(0x11A17);
    for case in 0..12 {
        let trace = random_trace(&mut meta, 400);
        let limit = 1 + meta.below(399);
        let (stats, _) = check(case, CpuConfig::baseline(), &trace, limit);
        assert!(stats.committed >= limit, "case {case}");
    }
}

#[test]
fn loads_behind_unresolved_stores_match_the_scan_reference() {
    let mut meta = SplitMix64::new(0x5709E);
    for disambiguation in [Disambiguation::Perfect, Disambiguation::WaitForStores] {
        let (mut waits, mut forwarded) = (0, 0);
        for case in 0..24 {
            let len = 200 + meta.below(400);
            let trace = store_heavy_trace(&mut meta, len);
            for config in
                [CpuConfig::baseline().with_disambiguation(disambiguation), narrow(disambiguation)]
            {
                let (stats, w) = check(case, config, &trace, u64::MAX);
                assert_eq!(stats.committed, trace.len() as u64, "case {case}");
                waits += w;
                forwarded += stats.forwarded_loads;
            }
        }
        // Loads are held back by stores often, so parking and both
        // wakeups run many times.
        assert!(waits > 20_000, "{disambiguation:?}: too few held-back loads: {waits}");
        assert!(forwarded > 2000, "{disambiguation:?}: too few forwarded loads: {forwarded}");
    }
}

#[test]
fn sparse_next_event_hooks_exactly_the_due_and_stepped_cycles() {
    let mut meta = SplitMix64::new(0x5CA7);
    let mut skipped = 0;
    for case in 0..16 {
        let period = 3 + meta.below(90);
        let len = 100 + meta.below(500);
        let trace = if case % 2 == 0 {
            random_trace(&mut meta, len)
        } else {
            store_heavy_trace(&mut meta, len)
        };
        for disambiguation in [Disambiguation::Perfect, Disambiguation::WaitForStores] {
            for config in
                [CpuConfig::baseline().with_disambiguation(disambiguation), narrow(disambiguation)]
            {
                let (stats, idle) = check_sparse(case, period, config, &trace);
                assert_eq!(stats.committed, trace.len() as u64, "case {case}");
                skipped += idle;
            }
        }
    }
    assert!(skipped > 50_000, "too few skipped cycles: {skipped}");
}

/// The pipeline as it was before dependency wakeup and skip-ahead: every
/// cycle runs every stage, writeback and issue scan the whole ROB, and
/// operand readiness is re-derived from producer state on each check.
mod reference {
    use psb_common::Cycle;
    use psb_cpu::{
        BranchPredictor, CpuConfig, CpuStats, Disambiguation, DynInst, FuPool, MemSystem, Op, Reg,
    };
    use std::collections::VecDeque;

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum EntryState {
        Dispatched,
        Executing { finish: Cycle },
        Done { finish: Cycle },
    }

    #[derive(Clone, Debug)]
    struct RobEntry {
        inst: DynInst,
        state: EntryState,
        deps: [Option<u64>; 2],
        mispredicted: bool,
        issued_at: Cycle,
        forwarded: bool,
    }

    enum LoadGate {
        Wait,
        Forward,
        Cache,
    }

    pub struct Pipeline {
        config: CpuConfig,
        bpred: BranchPredictor,
        fu: FuPool,
        rob: VecDeque<RobEntry>,
        head_seq: u64,
        next_seq: u64,
        fetch_queue: VecDeque<(DynInst, bool)>,
        lsq_count: usize,
        last_writer: [Option<u64>; Reg::COUNT],
        fetch_halted: bool,
        halt_cycle: Cycle,
        resume_at: Option<Cycle>,
        ifetch_ready: Cycle,
        last_fetch_block: Option<u64>,
        trace_done: bool,
        now: Cycle,
        stats: CpuStats,
        waits: u64,
    }

    impl Pipeline {
        pub fn new(config: CpuConfig) -> Self {
            Pipeline {
                config,
                bpred: BranchPredictor::new(config.bpred),
                fu: FuPool::paper_baseline(),
                rob: VecDeque::with_capacity(config.rob_size),
                head_seq: 0,
                next_seq: 0,
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
                stats: CpuStats::default(),
                waits: 0,
            }
        }

        /// Returns the statistics and how often the load gate answered
        /// "wait".
        pub fn run<I, M>(mut self, trace: I, mem: &mut M, max_commits: u64) -> (CpuStats, u64)
        where
            I: IntoIterator<Item = DynInst>,
            M: MemSystem,
        {
            let mut trace = trace.into_iter().peekable();
            let mut last_commit_cycle = Cycle::ZERO;
            loop {
                let committed_before = self.stats.committed;
                self.commit(mem);
                self.writeback();
                self.issue(mem);
                self.dispatch();
                self.fetch(&mut trace, mem);
                mem.tick(self.now);
                mem.sample(self.now, self.stats.committed);
                if self.stats.committed > committed_before {
                    last_commit_cycle = self.now;
                }
                let drained = self.trace_done && self.rob.is_empty() && self.fetch_queue.is_empty();
                if drained || self.stats.committed >= max_commits {
                    break;
                }
                assert!(self.now.since(last_commit_cycle) < 1_000_000, "pipeline deadlock");
                self.now += 1;
            }
            self.stats.cycles = self.now.raw() + 1;
            self.stats.bpred = self.bpred.stats();
            (self.stats, self.waits)
        }

        fn entry(&self, seq: u64) -> Option<&RobEntry> {
            seq.checked_sub(self.head_seq).and_then(|i| self.rob.get(i as usize))
        }

        fn value_ready(&self, seq: u64) -> bool {
            match self.entry(seq) {
                None => true,
                Some(e) => matches!(e.state, EntryState::Done { finish } if finish <= self.now),
            }
        }

        fn deps_ready(&self, idx: usize) -> bool {
            self.rob[idx].deps.iter().flatten().all(|&seq| self.value_ready(seq))
        }

        fn load_gate(&self, idx: usize) -> LoadGate {
            let load_addr = self.rob[idx].inst.mem_addr.unwrap();
            let load_size = self.rob[idx].inst.mem_size as u64;
            let overlap = |e: &RobEntry| {
                let sa = e.inst.mem_addr.unwrap();
                let ss = e.inst.mem_size as u64;
                sa.raw() < load_addr.raw() + load_size && load_addr.raw() < sa.raw() + ss
            };
            match self.config.disambiguation {
                Disambiguation::Perfect => {
                    for e in self.rob.iter().take(idx).rev() {
                        if e.inst.op.is_store() && overlap(e) {
                            return match e.state {
                                EntryState::Done { finish } if finish <= self.now => {
                                    LoadGate::Forward
                                }
                                _ => LoadGate::Wait,
                            };
                        }
                    }
                    LoadGate::Cache
                }
                Disambiguation::WaitForStores => {
                    let mut forward_candidate = None;
                    for e in self.rob.iter().take(idx) {
                        if !e.inst.op.is_store() {
                            continue;
                        }
                        if matches!(e.state, EntryState::Dispatched) {
                            return LoadGate::Wait;
                        }
                        if overlap(e) {
                            forward_candidate = Some(e.state);
                        }
                    }
                    match forward_candidate {
                        Some(EntryState::Done { finish }) if finish <= self.now => {
                            LoadGate::Forward
                        }
                        Some(_) => LoadGate::Wait,
                        None => LoadGate::Cache,
                    }
                }
            }
        }

        fn commit<M: MemSystem>(&mut self, mem: &mut M) {
            let mut committed = 0;
            while committed < self.config.commit_width {
                let Some(head) = self.rob.front() else { break };
                let EntryState::Done { finish } = head.state else { break };
                if finish > self.now {
                    break;
                }
                let e = self.rob.pop_front().unwrap();
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
                        mem.store(self.now, e.inst.pc, e.inst.mem_addr.unwrap());
                    }
                    Op::Branch => self.stats.branches += 1,
                    _ => {}
                }
            }
        }

        fn writeback(&mut self) {
            let now = self.now;
            let mut resolved_mispredict = None;
            for e in &mut self.rob {
                if let EntryState::Executing { finish } = e.state {
                    if finish <= now {
                        e.state = EntryState::Done { finish };
                        if e.mispredicted {
                            resolved_mispredict = Some(finish);
                        }
                    }
                }
            }
            if let Some(finish) = resolved_mispredict {
                let earliest = self.halt_cycle + self.config.min_mispredict_penalty;
                let redirect = finish.max(now) + self.config.redirect_latency;
                self.resume_at = Some(earliest.max(redirect));
            }
        }

        fn issue<M: MemSystem>(&mut self, mem: &mut M) {
            let mut issued = 0;
            let mut idx = 0;
            while idx < self.rob.len() && issued < self.config.issue_width {
                if self.rob[idx].state != EntryState::Dispatched || !self.deps_ready(idx) {
                    idx += 1;
                    continue;
                }
                let inst = self.rob[idx].inst;
                let finish = match inst.op {
                    Op::Load => match self.load_gate(idx) {
                        LoadGate::Wait => {
                            self.waits += 1;
                            None
                        }
                        LoadGate::Forward => self.fu.try_issue(Op::Load, self.now).map(|_| {
                            self.rob[idx].forwarded = true;
                            self.now + self.config.store_forward_latency
                        }),
                        LoadGate::Cache => self
                            .fu
                            .try_issue(Op::Load, self.now)
                            .map(|_| mem.load(self.now, inst.pc, inst.mem_addr.unwrap())),
                    },
                    op => self.fu.try_issue(op, self.now),
                };
                if let Some(finish) = finish {
                    self.rob[idx].state = EntryState::Executing { finish };
                    self.rob[idx].issued_at = self.now;
                    issued += 1;
                }
                idx += 1;
            }
        }

        fn dispatch(&mut self) {
            let mut dispatched = 0;
            while dispatched < self.config.dispatch_width {
                let Some(&(inst, _)) = self.fetch_queue.front() else { break };
                if self.rob.len() >= self.config.rob_size {
                    break;
                }
                if inst.op.is_mem() && self.lsq_count >= self.config.lsq_size {
                    break;
                }
                let (inst, mispredicted) = self.fetch_queue.pop_front().unwrap();
                let seq = self.next_seq;
                self.next_seq += 1;
                let dep_of = |r: Option<Reg>| r.and_then(|r| self.last_writer[r.index()]);
                let deps = [dep_of(inst.src1), dep_of(inst.src2)];
                if let Some(dst) = inst.dst {
                    self.last_writer[dst.index()] = Some(seq);
                }
                if inst.op.is_mem() {
                    self.lsq_count += 1;
                }
                self.rob.push_back(RobEntry {
                    inst,
                    state: EntryState::Dispatched,
                    deps,
                    mispredicted,
                    issued_at: Cycle::ZERO,
                    forwarded: false,
                });
                dispatched += 1;
            }
        }

        fn fetch<I, M>(&mut self, trace: &mut std::iter::Peekable<I>, mem: &mut M)
        where
            I: Iterator<Item = DynInst>,
            M: MemSystem,
        {
            if self.fetch_halted {
                match self.resume_at {
                    Some(at) if self.now >= at => {
                        self.fetch_halted = false;
                        self.resume_at = None;
                        self.last_fetch_block = None;
                    }
                    _ => return,
                }
            }
            if self.now < self.ifetch_ready {
                return;
            }
            let mut fetched = 0;
            let mut branches = 0;
            while fetched < self.config.fetch_width
                && self.fetch_queue.len() < self.config.fetch_queue_size
            {
                let Some(peeked) = trace.peek() else {
                    self.trace_done = true;
                    break;
                };
                if peeked.op == Op::Branch && branches >= self.config.branches_per_fetch {
                    break;
                }
                let block = peeked.pc.raw() / self.config.icache_block;
                if self.last_fetch_block != Some(block) {
                    let ready = mem.ifetch(self.now, peeked.pc);
                    if ready > self.now {
                        self.ifetch_ready = ready;
                        break;
                    }
                    self.last_fetch_block = Some(block);
                }
                let inst = trace.next().unwrap();
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
                    self.last_fetch_block = None;
                    break;
                }
            }
        }
    }
}
