//! Trace construction helpers.

use psb_common::Addr;
use psb_cpu::{BranchInfo, BranchKind, DynInst, Op, Reg};

/// Builds a correct-path dynamic instruction trace while enforcing the
/// program-order invariant the pipeline's fetch stage relies on: after a
/// non-branch (or a not-taken branch) at `pc`, the next instruction is at
/// `pc + 4`; after a taken branch, it is at the branch target.
///
/// Generators describe control flow with explicit code addresses (as a
/// compiler would lay out basic blocks); the builder checks consistency
/// at every emission, so a malformed generator fails fast instead of
/// producing an impossible fetch stream.
///
/// # Example
///
/// ```
/// use psb_common::Addr;
/// use psb_workloads::TraceBuilder;
///
/// let mut b = TraceBuilder::new(Addr::new(0x1000));
/// b.alu(1, None, None);
/// b.jump(Addr::new(0x1000)); // loop back
/// b.alu(2, Some(1), None);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace[2].pc, Addr::new(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    insts: Vec<DynInst>,
    pc: Addr,
    call_stack: Vec<Addr>,
}

impl TraceBuilder {
    /// Starts a trace whose first instruction is at `entry`.
    pub fn new(entry: Addr) -> Self {
        TraceBuilder::with_capacity(entry, 0)
    }

    /// Like [`TraceBuilder::new`], with room for `capacity` instructions.
    /// A generator that knows its trace length reserves it up front: the
    /// trace is then built in one allocation, and how long generation
    /// takes no longer depends on whether the allocator can grow it in
    /// place.
    pub fn with_capacity(entry: Addr, capacity: usize) -> Self {
        TraceBuilder { insts: Vec::with_capacity(capacity), pc: entry, call_stack: Vec::new() }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The address the next instruction will be emitted at.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Asserts the builder is positioned at `pc` — use at basic-block
    /// heads to catch layout mistakes.
    ///
    /// # Panics
    ///
    /// Panics if the current position differs.
    pub fn expect_pc(&self, pc: Addr) {
        assert_eq!(self.pc, pc, "control-flow layout error: at {} but expected {}", self.pc, pc);
    }

    fn push(&mut self, inst: DynInst) {
        debug_assert_eq!(inst.pc, self.pc);
        self.pc = inst.next_pc();
        self.insts.push(inst);
    }

    /// Emits an integer ALU op.
    pub fn alu(&mut self, dst: u8, src1: Option<u8>, src2: Option<u8>) {
        self.push(DynInst::alu(self.pc, Reg::new(dst), src1.map(Reg::new), src2.map(Reg::new)));
    }

    /// Emits an arbitrary non-memory, non-branch operation (e.g. FP).
    pub fn op(&mut self, op: Op, dst: u8, src1: Option<u8>, src2: Option<u8>) {
        assert!(!op.is_mem() && op != Op::Branch, "use the dedicated emitters for {op:?}");
        self.push(DynInst {
            pc: self.pc,
            op,
            dst: Some(Reg::new(dst)),
            src1: src1.map(Reg::new),
            src2: src2.map(Reg::new),
            mem_addr: None,
            mem_size: 0,
            branch: None,
        });
    }

    /// Emits an 8-byte load into `dst`, address-generated from `base`.
    pub fn load(&mut self, dst: u8, base: Option<u8>, addr: Addr) {
        self.push(DynInst::load(self.pc, Reg::new(dst), base.map(Reg::new), addr, 8));
    }

    /// Emits an 8-byte store of `data`, address-generated from `base`.
    pub fn store(&mut self, data: Option<u8>, base: Option<u8>, addr: Addr) {
        self.push(DynInst::store(self.pc, data.map(Reg::new), base.map(Reg::new), addr, 8));
    }

    /// Emits a conditional branch to `target`, depending on `src`.
    pub fn cond(&mut self, src: Option<u8>, taken: bool, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            src.map(Reg::new),
            BranchInfo { kind: BranchKind::Conditional, taken, target },
        ));
    }

    /// Emits an unconditional direct jump to `target`.
    pub fn jump(&mut self, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Jump, taken: true, target },
        ));
    }

    /// Emits an indirect jump through a register to `target` (predicted
    /// via the BTB, so target changes cost mispredictions).
    pub fn indirect(&mut self, src: Option<u8>, target: Addr) {
        self.push(DynInst::branch(
            self.pc,
            src.map(Reg::new),
            BranchInfo { kind: BranchKind::Indirect, taken: true, target },
        ));
    }

    /// Emits a direct call to `target`, recording the return address.
    pub fn call(&mut self, target: Addr) {
        self.call_stack.push(self.pc.offset(4));
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Call, taken: true, target },
        ));
    }

    /// Emits a return to the most recent call site.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending call.
    pub fn ret(&mut self) {
        let target = self.call_stack.pop().expect("return without a pending call");
        self.push(DynInst::branch(
            self.pc,
            None,
            BranchInfo { kind: BranchKind::Return, taken: true, target },
        ));
    }

    /// Finishes the trace.
    pub fn finish(self) -> Vec<DynInst> {
        self.insts
    }
}

/// Checks the program-order invariant over a full trace; returns the
/// index of the first violation, if any.
///
/// Every generator's output is validated in tests with this function.
pub fn find_control_flow_violation(trace: &[DynInst]) -> Option<usize> {
    trace.windows(2).position(|w| w[1].pc != w[0].next_pc()).map(|i| i + 1)
}

/// Summary statistics of a trace's instruction mix.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct TraceMix {
    /// Total instructions.
    pub total: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Branches.
    pub branches: usize,
    /// Floating-point operations.
    pub fp: usize,
}

impl TraceMix {
    /// Computes the mix of `trace`.
    pub fn of(trace: &[DynInst]) -> Self {
        let mut mix = TraceMix { total: trace.len(), ..Default::default() };
        for i in trace {
            match i.op {
                Op::Load => mix.loads += 1,
                Op::Store => mix.stores += 1,
                Op::Branch => mix.branches += 1,
                Op::FpAdd | Op::FpMult | Op::FpDiv => mix.fp += 1,
                _ => {}
            }
        }
        mix
    }

    /// Load fraction of the trace.
    pub fn load_fraction(&self) -> f64 {
        self.loads as f64 / self.total.max(1) as f64
    }

    /// Store fraction of the trace.
    pub fn store_fraction(&self) -> f64 {
        self.stores as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_pcs_advance_by_four() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.load(2, Some(1), Addr::new(0x9000));
        b.store(Some(2), None, Addr::new(0x9008));
        let t = b.finish();
        assert_eq!(t[0].pc, Addr::new(0x100));
        assert_eq!(t[1].pc, Addr::new(0x104));
        assert_eq!(t[2].pc, Addr::new(0x108));
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn taken_branches_redirect() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.cond(None, true, Addr::new(0x200));
        b.alu(1, None, None); // must be at 0x200
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x200));
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn not_taken_branches_fall_through() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.cond(None, false, Addr::new(0x200));
        b.alu(1, None, None);
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x104));
    }

    #[test]
    fn calls_and_returns_pair_up() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.call(Addr::new(0x800));
        b.alu(1, None, None); // in callee at 0x800
        b.ret(); // back to 0x104
        b.alu(2, None, None);
        let t = b.finish();
        assert_eq!(t[1].pc, Addr::new(0x800));
        assert_eq!(t[3].pc, Addr::new(0x104));
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.call(Addr::new(0x800));
        b.call(Addr::new(0x900));
        b.ret(); // to 0x804
        b.ret(); // to 0x104
        b.alu(1, None, None);
        let t = b.finish();
        assert_eq!(t[2].branch.unwrap().target, Addr::new(0x804));
        assert_eq!(t[3].branch.unwrap().target, Addr::new(0x104));
    }

    #[test]
    #[should_panic(expected = "return without a pending call")]
    fn unbalanced_return_panics() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.ret();
    }

    #[test]
    #[should_panic(expected = "layout error")]
    fn expect_pc_catches_layout_bugs() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.expect_pc(Addr::new(0x200));
    }

    #[test]
    fn violation_finder_flags_broken_traces() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.alu(2, None, None);
        let mut t = b.finish();
        t[1].pc = Addr::new(0x9999); // corrupt
        assert_eq!(find_control_flow_violation(&t), Some(1));
    }

    #[test]
    fn mix_counts() {
        let mut b = TraceBuilder::new(Addr::new(0x100));
        b.alu(1, None, None);
        b.load(2, None, Addr::new(0x9000));
        b.store(None, None, Addr::new(0x9008));
        b.op(psb_cpu::Op::FpAdd, 3, None, None);
        b.jump(Addr::new(0x100));
        let mix = TraceMix::of(&b.finish());
        assert_eq!(mix.total, 5);
        assert_eq!(mix.loads, 1);
        assert_eq!(mix.stores, 1);
        assert_eq!(mix.branches, 1);
        assert_eq!(mix.fp, 1);
        assert_eq!(mix.load_fraction(), 0.2);
    }
}
