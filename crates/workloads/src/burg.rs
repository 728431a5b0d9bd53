//! `burg` — a BURS tree-parser generator analog.
//!
//! The model: repeated recursive walks over a ~3000-node binary IR tree
//! whose nodes live at shuffled heap addresses, combined with rule-table
//! lookups (a 16 KB static table). Recursion spills the node pointer to
//! the stack across calls, exercising the RAS and store-to-load
//! forwarding.
//!
//! What this preserves from the real benchmark: a pointer-heavy tree
//! traversal in a stable, non-strided order (Markov-predictable miss
//! stream) mixed with table-indexed loads and deep call chains.

use crate::heap::SyntheticHeap;
use crate::trace::TraceBuilder;
use psb_common::{Addr, SplitMix64};
use psb_cpu::DynInst;

const WALK: Addr = Addr::new(0x41_0000);
const LEAF: Addr = Addr::new(0x41_0080);
const MAIN: Addr = Addr::new(0x41_0100);
const TABLE: Addr = Addr::new(0x2100_0000);
const STACK: Addr = Addr::new(0x10f0_0000);
const NODES: usize = 1501;

struct Tree {
    addr: Vec<Addr>,
    left: Vec<Option<usize>>,
    right: Vec<Option<usize>>,
    root: usize,
}

fn build_tree(rng: &mut SplitMix64, addrs: Vec<Addr>) -> Tree {
    let n = addrs.len();
    let mut tree = Tree { addr: addrs, left: vec![None; n], right: vec![None; n], root: 0 };
    // Random binary shape: recursively split the index range.
    fn split(tree: &mut Tree, rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
        let node = lo;
        let rest = lo + 1..hi;
        if rest.is_empty() {
            return node;
        }
        let pivot = lo + 1 + rng.below((hi - lo - 1) as u64) as usize;
        if pivot > lo + 1 {
            tree.left[node] = Some(split(tree, rng, lo + 1, pivot));
        }
        if pivot < hi {
            tree.right[node] = Some(split(tree, rng, pivot, hi));
        }
        node
    }
    tree.root = split(&mut tree, rng, 0, n);
    tree
}

fn emit_walk(b: &mut TraceBuilder, tree: &Tree, node: usize, depth: u64, rng: &mut SplitMix64) {
    b.expect_pc(WALK);
    let addr = tree.addr[node];
    let sp = STACK.offset(-(16 * depth as i64));
    let table_slot = TABLE.offset(((rng.next_u64() ^ node as u64) % 2048) as i64 * 8);

    b.alu(7, Some(1), None); //        save node pointer
    b.load(2, Some(7), addr.offset(8)); // op field
    b.alu(3, Some(2), None); //        table index
    b.load(4, Some(3), table_slot); // rule table
    b.alu(5, Some(4), Some(3));
    let is_leaf = tree.left[node].is_none() && tree.right[node].is_none();
    b.cond(Some(5), is_leaf, LEAF);
    if is_leaf {
        b.expect_pc(LEAF);
        b.alu(5, Some(3), None);
        b.store(Some(5), Some(7), addr.offset(24));
        b.ret();
        return;
    }
    b.store(Some(7), None, sp); //     spill across the calls
    match (tree.left[node], tree.right[node]) {
        (Some(l), right) => {
            b.load(1, Some(7), addr); //   left child pointer
            b.call(WALK);
            emit_walk(b, tree, l, depth + 1, rng);
            b.load(7, None, sp); //        restore (forwards from the spill)
            b.load(1, Some(7), addr.offset(16)); // right child pointer
            if let Some(r) = right {
                b.call(WALK);
                emit_walk(b, tree, r, depth + 1, rng);
            }
            b.alu(5, Some(5), None);
            b.ret();
        }
        (None, Some(r)) => {
            b.load(1, Some(7), addr); //   unified slot read
            b.call(WALK);
            emit_walk(b, tree, r, depth + 1, rng);
            b.load(7, None, sp);
            b.load(1, Some(7), addr.offset(16));
            b.alu(5, Some(5), None);
            b.ret();
        }
        (None, None) => unreachable!("leaf handled above"),
    }
}

/// Generates the `burg` trace. `scale` multiplies the number of full tree
/// walks.
pub fn trace(scale: u32) -> Vec<DynInst> {
    let scale = scale.max(1);
    let mut heap = SyntheticHeap::new(Addr::new(0x1000_0000), 0x42_5552); // "BUR"
    let mut rng = SplitMix64::new(1986);
    let addrs = heap.alloc_shuffled(NODES, 64);
    let tree = build_tree(&mut rng, addrs);
    let root_cell = heap.alloc(16);

    let target = 300_000usize * scale as usize;
    let mut b = TraceBuilder::with_capacity(MAIN, target + target / 2);
    // Table indices must repeat across walks for cache behaviour to be
    // stable: reseed the per-walk RNG identically each lap.
    loop {
        b.expect_pc(MAIN);
        b.alu(6, None, None);
        b.load(1, None, root_cell); // root pointer
        b.call(WALK);
        let mut table_rng = SplitMix64::new(77);
        emit_walk(&mut b, &tree, tree.root, 0, &mut table_rng);
        b.alu(8, Some(5), None);
        b.store(Some(8), None, root_cell.offset(8));
        if b.len() >= target {
            b.jump(MAIN);
            break;
        }
        b.jump(MAIN);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{find_control_flow_violation, TraceMix};
    use psb_cpu::{BranchKind, Op};

    #[test]
    fn trace_is_control_flow_consistent() {
        let t = trace(1);
        assert_eq!(find_control_flow_violation(&t), None);
    }

    #[test]
    fn recursion_produces_calls_and_returns() {
        let t = trace(1);
        let calls = t
            .iter()
            .filter(|i| matches!(i.branch, Some(bi) if bi.kind == BranchKind::Call))
            .count();
        let rets = t
            .iter()
            .filter(|i| matches!(i.branch, Some(bi) if bi.kind == BranchKind::Return))
            .count();
        assert!(calls > 1000);
        // Every walk's calls and returns balance except the trailing
        // truncation at most one walk deep.
        assert!((calls as i64 - rets as i64).abs() < (NODES as i64), "{calls} vs {rets}");
    }

    #[test]
    fn mix_is_load_heavy_with_tables() {
        let t = trace(1);
        let mix = TraceMix::of(&t);
        assert!(mix.load_fraction() > 0.2, "loads {:.3}", mix.load_fraction());
        assert!(mix.store_fraction() > 0.03);
    }

    #[test]
    fn walks_repeat_identically() {
        // The node-visit order (addresses of [node+8] loads) must repeat
        // exactly lap after lap so the Markov predictor can learn it.
        let t = trace(1);
        let visits: Vec<u64> = t
            .iter()
            .filter(|i| i.op == Op::Load && i.mem_addr.is_some())
            .filter(|i| {
                let a = i.mem_addr.unwrap().raw();
                (0x1000_0000..0x10f0_0000).contains(&a) && a % 64 == 8
            })
            .map(|i| i.mem_addr.unwrap().raw())
            .collect();
        assert!(visits.len() > 2 * NODES, "need at least two walks");
        assert_eq!(&visits[..NODES], &visits[NODES..2 * NODES]);
    }

    #[test]
    fn determinism() {
        let a = trace(1);
        let b = trace(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(&a[..100], &b[..100]);
    }
}
