//! `deltablue` — a constraint-solution system analog.
//!
//! The model: several constraint chains of small heap objects, walked
//! concurrently by the planner (two chains advance in lockstep, giving
//! the prefetcher multiple simultaneous streams to juggle). After every
//! planning pass a slice of one chain is destroyed and reallocated from a
//! free list — the "abundance of short lived heap objects" the paper
//! describes — so the miss stream drifts and confidence mechanisms
//! matter.
//!
//! What this preserves: the paper's biggest PSB win — high L1↔L2 demand
//! from dependent pointer chains that only a Markov predictor can follow,
//! where prefetch *prioritization* decides how much latency is hidden.

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::{Addr, SplitMix64};
use psb_cpu::DynInst;

const PLAN: Addr = Addr::new(0x42_0000);
const PAIR: Addr = Addr::new(0x42_0040);
const TAIL: Addr = Addr::new(0x42_00c0);
const CHURN: Addr = Addr::new(0x42_0100);

const CHAINS: usize = 4;
const CHAIN_LEN: usize = 400;
const NODE_BYTES: u64 = 48;

/// Generates the `deltablue` trace. `scale` multiplies the number of
/// planner passes.
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x44_454c); // "DEL"
    let mut rng = SplitMix64::new(1995);

    let mut chains: Vec<Vec<Addr>> =
        (0..CHAINS).map(|_| heap.alloc_shuffled(CHAIN_LEN, NODE_BYTES)).collect();
    // A pool of spare nodes for the churn (recycled LIFO like a real
    // allocator's free list).
    let mut free_list: Vec<Addr> = heap.alloc_shuffled(CHAIN_LEN, NODE_BYTES);

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::with_capacity(PLAN, target + target / 2);
    let mut pass = 0usize;

    loop {
        b.expect_pc(PLAN);
        b.alu(6, None, None);
        b.store(Some(6), None, Addr::new(0x2000_0100));
        b.jump(PAIR);

        // Walk chains two at a time, in lockstep: two independent
        // serialized chases are live simultaneously.
        for pair in 0..CHAINS / 2 {
            let (ca, cb) = (2 * pair, 2 * pair + 1);
            let steps = chains[ca].len().min(chains[cb].len());
            // Indexing two chains in lockstep; zipping would obscure it.
            #[allow(clippy::needless_range_loop)]
            for i in 0..steps {
                b.expect_pc(PAIR);
                let na = chains[ca][i];
                let nb = chains[cb][i];
                // Chain A step (chase register r1).
                b.load(2, Some(1), na.offset(8));
                b.load(1, Some(1), na);
                // Planner state (hot, L1-resident).
                b.load(8, Some(6), Addr::new(0x2000_0180).offset((i % 8) as i64 * 8));
                b.alu(3, Some(2), Some(8));
                // Chain B step (chase register r7).
                b.load(4, Some(7), nb.offset(8));
                b.load(7, Some(7), nb);
                b.alu(5, Some(4), Some(5));
                // Constraint evaluation: the method dispatch and strength
                // arithmetic the real solver does per edge.
                b.alu(9, Some(3), Some(5));
                b.alu(9, Some(9), None);
                b.alu(10, Some(9), Some(2));
                b.alu(9, Some(10), None);
                // Constraint satisfaction write every other node.
                let write = i % 2 == 0;
                b.cond(Some(3), write, PAIR.offset(0x34));
                if !write {
                    b.alu(8, Some(3), Some(5));
                }
                b.expect_pc(PAIR.offset(0x34));
                if write {
                    b.store(Some(3), Some(1), na.offset(16));
                } else {
                    b.alu(8, Some(8), None);
                }
                let more = i + 1 < steps;
                b.cond(Some(6), more, PAIR);
            }
            // Chain-pair epilogue.
            b.jump(TAIL);
            b.expect_pc(TAIL);
            b.alu(9, Some(3), Some(5));
            b.store(Some(9), None, Addr::new(0x2000_0140));
            let last_pair = pair + 1 == CHAINS / 2;
            b.cond(Some(6), !last_pair, PAIR);
            if last_pair {
                b.jump(CHURN);
            }
        }

        // Churn: destroy and recreate a slice of one chain.
        b.expect_pc(CHURN);
        let victim = pass % CHAINS;
        let lo = rng.below((CHAIN_LEN - 40) as u64) as usize;
        for k in 0..12usize {
            let fresh = free_list.pop().expect("free list never empties");
            let old = std::mem::replace(&mut chains[victim][lo + k], fresh);
            free_list.insert(0, old);
            // The allocator writes headers for the dying + fresh objects.
            b.store(Some(2), None, old);
            b.store(Some(3), None, fresh);
            b.alu(2, Some(2), None);
            let more = k + 1 < 12;
            b.cond(Some(2), more, CHURN);
        }
        pass += 1;
        if b.len() >= target {
            b.jump(PLAN);
            break;
        }
        b.jump(PLAN);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{find_control_flow_violation, TraceMix};
    use psb_cpu::Reg;

    #[test]
    fn trace_is_control_flow_consistent() {
        let t = trace(1);
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn two_concurrent_chase_streams() {
        let t = trace(1);
        let chase_a = t
            .iter()
            .filter(|i| i.op.is_load() && i.dst == Some(Reg::new(1)) && i.src1 == Some(Reg::new(1)))
            .count();
        let chase_b = t
            .iter()
            .filter(|i| i.op.is_load() && i.dst == Some(Reg::new(7)) && i.src1 == Some(Reg::new(7)))
            .count();
        assert!(chase_a > 1000);
        // Lockstep: both streams the same length.
        assert_eq!(chase_a, chase_b);
    }

    #[test]
    fn mix_matches_table_two_shape() {
        let mix = TraceMix::of(&trace(1));
        assert!(mix.load_fraction() > 0.3, "loads {:.3}", mix.load_fraction());
        assert!(mix.store_fraction() > 0.03);
        assert!(mix.store_fraction() < 0.2);
    }

    #[test]
    fn churn_changes_the_walk_between_passes() {
        // Collect the chain-A chase addresses of the first two passes;
        // they must be mostly equal but not identical (the churn).
        let t = trace(1);
        let visits: Vec<u64> = t
            .iter()
            .filter(|i| i.op.is_load() && i.dst == Some(Reg::new(1)) && i.src1 == Some(Reg::new(1)))
            .map(|i| i.mem_addr.unwrap().raw())
            .collect();
        let per_pass = (CHAINS / 2) * CHAIN_LEN; // even chains go via register r1
        assert!(visits.len() > 2 * per_pass);
        let first = &visits[..per_pass];
        let second = &visits[per_pass..2 * per_pass];
        let same = first.iter().zip(second).filter(|(a, b)| a == b).count();
        assert!(same > per_pass * 90 / 100, "mostly stable: {same}/{per_pass}");
        assert!(same < per_pass, "but not identical");
    }

    #[test]
    fn determinism() {
        let a = trace(1);
        let b = trace(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..100], &b[..100]);
    }
}
