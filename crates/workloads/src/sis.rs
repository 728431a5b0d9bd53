//! `sis` — a synchronous circuit-synthesis analog: the stream-thrashing
//! stress case.
//!
//! The model sweeps a large netlist whose inner loops behave like heavily
//! software-pipelined/unrolled code: sixteen distinct load sites (reached
//! through an indirect dispatch) each walk their *own* region of a 4 MB
//! node pool with a perfectly consistent stride — sixteen individually
//! predictable streams competing for eight stream buffers. The paper
//! calls out exactly this shape: "tight inner loops which are highly
//! software pipelined ... increases the number of load instructions ...
//! which can degrade the performance of stream buffers."
//!
//! Under two-miss filtering every site's misses qualify, so allocations
//! continually evict each other's buffers before their 4-entry windows
//! produce hits (stream thrashing: wasted prefetches, bus blow-up).
//! Confidence allocation lets the buffers that *do* earn hits saturate
//! their priority counters and survive: eight sites get covered well and
//! the rest are simply rejected. A pointer chain adds a Markov-only
//! stream on top.

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::{Addr, SplitMix64};
use psb_cpu::DynInst;

const SWEEP: Addr = Addr::new(0x44_0000);
const GLOOP: Addr = Addr::new(0x44_0040);
const GNEXT: Addr = Addr::new(0x44_0900);
const PROD: Addr = Addr::new(0x44_0a00);
const CHAIN: Addr = Addr::new(0x44_0a40);
const JUNK_BASE: Addr = Addr::new(0x44_0100);

const JUNK_SITES: u64 = 16;
const GATES: usize = 600;
// 4 MB total (16 x 256 KB per-site regions): four times the L2, so the
// pool never fits and thrashed prefetches are pure waste.
const POOL_BYTES: u64 = 4 * 1024 * 1024;
const SITE_REGION: u64 = POOL_BYTES / JUNK_SITES;
const CHAIN_NODES: usize = 1200;

fn junk_site(g: u64) -> Addr {
    JUNK_BASE.offset((g % JUNK_SITES) as i64 * 0x40)
}

/// Generates the `sis` trace. `scale` multiplies the number of netlist
/// sweeps.
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x53_4953); // "SIS"

    let pool = heap.alloc(POOL_BYTES);
    let gate_table = heap.alloc((GATES as u64) * 8);
    let chain = heap.alloc_shuffled(CHAIN_NODES, 64);

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::with_capacity(SWEEP, target + target / 2);
    let mut chain_pos = 0usize;
    // Each site's walking position, step counter, and jump RNG.
    let mut site_pos = vec![0u64; JUNK_SITES as usize];
    let mut site_step = vec![0u64; JUNK_SITES as usize];
    let mut rng: Vec<SplitMix64> = (0..JUNK_SITES).map(|g| SplitMix64::new(0x515 + g)).collect();

    loop {
        b.expect_pc(SWEEP);
        b.alu(6, None, None);
        b.alu(8, Some(6), None);
        b.store(Some(8), None, Addr::new(0x2000_0300));
        b.jump(GLOOP);

        for gate in 0..GATES {
            b.expect_pc(GLOOP);
            b.alu(6, Some(6), None);
            b.load(2, Some(6), gate_table.offset(gate as i64 * 8));
            b.alu(9, Some(2), None);
            let site = junk_site(gate as u64);
            b.indirect(Some(9), site);

            // Gate evaluation: six iterations of this site's inner loop.
            // One static load PC walks the site's private region,
            // dependence-chained (each iteration's index comes from the
            // previous load). Sites differ in how long their strided runs
            // last before the walk jumps to another part of the region:
            // even sites jump every 2 blocks (essentially unpredictable —
            // low confidence), odd sites every 5 (predictable enough to
            // pass the two-miss filter, but every allocation's stream
            // runs off the end of the run into garbage).
            let g = gate as u64 % JUNK_SITES;
            let run_len = if g.is_multiple_of(2) { 2 } else { 5 };
            for k in 0..6u64 {
                b.expect_pc(site);
                let gi = g as usize;
                if site_step[gi].is_multiple_of(run_len) {
                    site_pos[gi] = rng[gi].below(SITE_REGION / 32 - 8) * 32;
                }
                site_step[gi] += 1;
                let pos = pool.offset((g * SITE_REGION + site_pos[gi]) as i64);
                site_pos[gi] += 32;
                b.load(3, Some(9), pos);
                b.alu(4, Some(3), Some(4));
                b.alu(9, Some(4), None);
                b.store(Some(9), None, Addr::new(0x2000_0800).offset((gate % 64) as i64 * 8));
                b.cond(Some(9), k < 5, site);
            }
            b.jump(GNEXT);

            b.expect_pc(GNEXT);
            b.alu(7, Some(9), None);
            let do_prod = gate % 16 == 15;
            b.cond(Some(7), do_prod, PROD);
            if do_prod {
                b.expect_pc(PROD);
                // A touch of bookkeeping before the chain walk.
                b.load(2, Some(7), gate_table.offset((gate % 64) as i64 * 8));
                b.alu(7, Some(2), Some(7));
                b.cond(Some(7), false, PROD);
                // Productive chain walk: 20 nodes, annotating each.
                b.jump(CHAIN);
                for k in 0..20usize {
                    b.expect_pc(CHAIN);
                    let node = chain[(chain_pos + k) % CHAIN_NODES];
                    b.load(2, Some(1), node.offset(8));
                    b.load(1, Some(1), node);
                    b.alu(3, Some(2), Some(3));
                    b.store(Some(3), None, node.offset(16));
                    b.cond(Some(3), k + 1 < 20, CHAIN);
                }
                chain_pos = (chain_pos + 20) % CHAIN_NODES;
                // Rejoin the gate loop at the "more gates?" branch.
                b.jump(GNEXT.offset(0x8));
            }
            b.expect_pc(GNEXT.offset(0x8));
            b.cond(Some(6), gate + 1 < GATES, GLOOP);
        }
        if b.len() >= target {
            b.jump(SWEEP);
            break;
        }
        b.jump(SWEEP);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{find_control_flow_violation, TraceMix};
    use psb_cpu::BranchKind;

    #[test]
    fn trace_is_control_flow_consistent() {
        let t = trace(1);
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn junk_sites_do_short_runs() {
        let t = trace(1);
        // The first junk site's first load: stride-32 pairs within a run,
        // random jumps between runs.
        let site0: Vec<u64> = t
            .iter()
            .filter(|i| i.op.is_load() && i.pc.raw() >= JUNK_BASE.raw() && i.pc.raw() < GNEXT.raw())
            .map(|i| i.mem_addr.unwrap().raw())
            .take(300)
            .collect();
        let short_strides = site0.windows(2).filter(|w| w[1].wrapping_sub(w[0]) == 32).count();
        // Each 3-load run contributes 2 stride-32 pairs out of 3 deltas.
        assert!(short_strides * 3 > site0.len(), "{short_strides}/{}", site0.len());
        let jumps = site0
            .windows(2)
            .filter(|w| w[1].wrapping_sub(w[0]) != 32 && w[0].wrapping_sub(w[1]) != 32)
            .count();
        assert!(jumps * 4 > site0.len(), "random restarts must be common");
    }

    #[test]
    fn indirect_dispatch_is_present() {
        let t = trace(1);
        let ind = t
            .iter()
            .filter(|i| matches!(i.branch, Some(bi) if bi.kind == BranchKind::Indirect))
            .count();
        assert!(ind >= GATES, "one dispatch per gate, got {ind}");
    }

    #[test]
    fn productive_chain_repeats() {
        let t = trace(2);
        let chase: Vec<u64> = t
            .iter()
            .filter(|i| i.op.is_load() && i.pc == CHAIN.offset(4))
            .map(|i| i.mem_addr.unwrap().raw())
            .collect();
        assert!(chase.len() > CHAIN_NODES, "chain must wrap: {}", chase.len());
        // After wrapping, the sequence repeats.
        assert_eq!(chase[0], chase[CHAIN_NODES]);
    }

    #[test]
    fn mix_is_load_dominated() {
        let mix = TraceMix::of(&trace(1));
        assert!(mix.load_fraction() > 0.2, "loads {:.3}", mix.load_fraction());
    }

    #[test]
    fn determinism() {
        let a = trace(1);
        let b = trace(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..100], &b[..100]);
    }
}
