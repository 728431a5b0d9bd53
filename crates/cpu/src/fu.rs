//! Functional-unit pool.

use crate::inst::{FuClass, Op};
use psb_common::Cycle;

/// The paper's functional-unit complement and structural hazards.
///
/// "The processor has 8 integer ALU units, 4-load/store units, 2-FP
/// adders, 2-integer MULT/DIV, and 2-FP MULT/DIV. ... All functional
/// units, except the divide units, are fully pipelined."
///
/// Pipelined units accept a new operation every cycle; divides occupy
/// their unit for the full latency.
///
/// # Example
///
/// ```
/// use psb_common::Cycle;
/// use psb_cpu::{FuPool, Op};
///
/// let mut pool = FuPool::paper_baseline();
/// // Two divides grab both unpipelined units; the third must wait.
/// assert!(pool.try_issue(Op::IntDiv, Cycle::ZERO).is_some());
/// assert!(pool.try_issue(Op::IntDiv, Cycle::ZERO).is_some());
/// assert!(pool.try_issue(Op::IntDiv, Cycle::ZERO).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct FuPool {
    /// Per class: next-free cycle of each unit.
    units: [Vec<Cycle>; 5],
}

impl FuPool {
    /// The paper's unit counts: 8 ALU, 4 ld/st, 2 FP add, 2 int mul/div,
    /// 2 FP mul/div.
    pub fn paper_baseline() -> Self {
        FuPool::new([8, 4, 2, 2, 2])
    }

    /// Creates a pool with explicit per-class unit counts, ordered as
    /// [`FuClass::ALL`].
    ///
    /// # Panics
    ///
    /// Panics if any class has zero units.
    pub fn new(counts: [usize; 5]) -> Self {
        assert!(counts.iter().all(|&c| c > 0), "every FU class needs at least one unit");
        FuPool { units: counts.map(|c| vec![Cycle::ZERO; c]) }
    }

    fn class_index(class: FuClass) -> usize {
        FuClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("invariant: FuClass::ALL enumerates every class")
    }

    /// Attempts to issue `op` at `now`. On success, returns the cycle the
    /// result is available; the chosen unit is occupied for one cycle
    /// (pipelined ops) or the full latency (divides).
    pub fn try_issue(&mut self, op: Op, now: Cycle) -> Option<Cycle> {
        let class = Self::class_index(op.fu_class());
        let unit = self.units[class].iter_mut().find(|free| **free <= now)?;
        let occupy = if op.pipelined() { 1 } else { op.latency() };
        *unit = now + occupy;
        Some(now + op.latency())
    }

    /// Number of units of `op`'s class free at `now`.
    pub fn free_units(&self, op: Op, now: Cycle) -> usize {
        let class = Self::class_index(op.fu_class());
        self.units[class].iter().filter(|free| **free <= now).count()
    }

    /// The earliest cycle after `now` at which a unit busy at `now`
    /// becomes free, over every class; `None` when no unit is busy.
    pub fn next_free_after(&self, now: Cycle) -> Option<Cycle> {
        self.units.iter().flatten().copied().filter(|&free| free > now).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_units_accept_every_cycle() {
        let mut pool = FuPool::new([1, 1, 1, 1, 1]);
        assert_eq!(pool.try_issue(Op::IntMult, Cycle::ZERO), Some(Cycle::new(3)));
        // Same unit, next cycle: fine, it is pipelined.
        assert_eq!(pool.try_issue(Op::IntMult, Cycle::new(1)), Some(Cycle::new(4)));
        // Same cycle: structural hazard with only one unit.
        assert_eq!(pool.try_issue(Op::IntMult, Cycle::new(1)), None);
    }

    #[test]
    fn divides_block_their_unit() {
        let mut pool = FuPool::new([1, 1, 1, 1, 1]);
        assert_eq!(pool.try_issue(Op::IntDiv, Cycle::ZERO), Some(Cycle::new(12)));
        // A multiply wants the same Int mul/div unit: busy until 12.
        assert_eq!(pool.try_issue(Op::IntMult, Cycle::new(11)), None);
        assert_eq!(pool.try_issue(Op::IntMult, Cycle::new(12)), Some(Cycle::new(15)));
    }

    #[test]
    fn paper_baseline_widths() {
        let pool = FuPool::paper_baseline();
        assert_eq!(pool.free_units(Op::IntAlu, Cycle::ZERO), 8);
        assert_eq!(pool.free_units(Op::Load, Cycle::ZERO), 4);
        assert_eq!(pool.free_units(Op::FpAdd, Cycle::ZERO), 2);
        assert_eq!(pool.free_units(Op::IntMult, Cycle::ZERO), 2);
        assert_eq!(pool.free_units(Op::FpMult, Cycle::ZERO), 2);
    }

    #[test]
    fn loads_share_ldst_units_with_stores() {
        let mut pool = FuPool::paper_baseline();
        for _ in 0..2 {
            assert!(pool.try_issue(Op::Load, Cycle::ZERO).is_some());
            assert!(pool.try_issue(Op::Store, Cycle::ZERO).is_some());
        }
        assert!(pool.try_issue(Op::Load, Cycle::ZERO).is_none());
        assert_eq!(pool.free_units(Op::Store, Cycle::ZERO), 0);
    }

    #[test]
    fn branch_uses_alu() {
        let mut pool = FuPool::new([1, 1, 1, 1, 1]);
        assert!(pool.try_issue(Op::Branch, Cycle::ZERO).is_some());
        assert!(pool.try_issue(Op::IntAlu, Cycle::ZERO).is_none());
    }

    #[test]
    fn next_free_after_reports_the_earliest_busy_unit() {
        let mut pool = FuPool::new([1, 1, 1, 2, 1]);
        assert_eq!(pool.next_free_after(Cycle::ZERO), None);
        pool.try_issue(Op::IntDiv, Cycle::ZERO);
        pool.try_issue(Op::FpDiv, Cycle::new(3));
        pool.try_issue(Op::IntAlu, Cycle::new(5));
        assert_eq!(pool.next_free_after(Cycle::new(5)), Some(Cycle::new(6)));
        assert_eq!(pool.next_free_after(Cycle::new(6)), Some(Cycle::new(12)));
        // A unit freeing exactly at `now` is already free.
        assert_eq!(pool.next_free_after(Cycle::new(12)), Some(Cycle::new(15)));
        assert_eq!(pool.next_free_after(Cycle::new(15)), None);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        FuPool::new([0, 1, 1, 1, 1]);
    }
}
