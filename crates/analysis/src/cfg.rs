//! Conservative basic-block recovery.

use crate::disasm::Disasm;
use redfat_x86::Op;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Upper bound on instructions per recovered block (defensive cap).
pub const MAX_BLOCK: usize = 4096;

/// A recovered basic block: straight-line code ending at a terminator or
/// the next leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u64,
    /// Addresses of all member instructions, in order.
    pub insts: Vec<u64>,
    /// Direct successors (fall-through and/or branch target). Empty when
    /// the block ends in `ret`, indirect jump, or unknown code.
    pub succs: Vec<u64>,
    /// `true` if control can leave to statically unknown targets.
    pub opaque_exit: bool,
}

/// The recovered control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
    /// Every address that is (conservatively) a potential jump/call
    /// target. Instructions at these addresses must stay addressable:
    /// the rewriter may not displace them as the *interior* of a
    /// multi-instruction patch. Shared (not copied) across the sub-CFGs
    /// that [`Cfg::components`] produces, so leader queries stay global
    /// and splitting a large image stays cheap.
    pub leaders: Arc<BTreeSet<u64>>,
    /// Recovered function entry points: the image entry plus every
    /// direct `call` target. A direct `jmp` to one of these is a tail
    /// call — control transfers to another function and returns to
    /// *this* function's caller — so it carries no successor edge.
    /// Shared across sub-CFGs like `leaders`.
    pub func_entries: Arc<BTreeSet<u64>>,
}

impl Cfg {
    /// Returns `true` if `addr` is a potential control-flow target.
    pub fn is_leader(&self, addr: u64) -> bool {
        self.leaders.contains(&addr)
    }

    /// Returns the block containing `addr`, if any.
    pub fn block_of(&self, addr: u64) -> Option<&Block> {
        let (_, b) = self.blocks.range(..=addr).next_back()?;
        if b.insts.binary_search(&addr).is_ok() {
            Some(b)
        } else {
            None
        }
    }

    /// Splits the CFG into weakly-connected components over successor
    /// edges, each returned as a sub-`Cfg` holding only that component's
    /// blocks (but the *full* leader set, so leader queries stay global).
    ///
    /// No successor edge crosses a component boundary, so any CFG
    /// analysis run on a sub-`Cfg` -- liveness, the forward dataflow
    /// solver, dominators -- computes exactly the restriction of the
    /// whole-image result to that component. Calls connect only to their
    /// *return site* (the callee is reached by no successor edge), so
    /// components approximate functions. The hardening pipeline relies
    /// on both properties to shard per-function work across threads
    /// without changing its output.
    ///
    /// Components are ordered by their lowest block address, and every
    /// block appears in exactly one component.
    pub fn components(&self) -> Vec<Cfg> {
        let starts: Vec<u64> = self.blocks.keys().copied().collect();
        let blocks: Vec<&Block> = self.blocks.values().collect();
        // Union-find over block positions; the ascending walk below meets
        // each component first at its lowest block, which orders them.
        let mut parent: Vec<usize> = (0..starts.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, block) in blocks.iter().enumerate() {
            for &s in &block.succs {
                if let Ok(j) = starts.binary_search(&s) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
            }
        }
        let mut slot = vec![usize::MAX; starts.len()];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for i in 0..starts.len() {
            let root = find(&mut parent, i);
            if slot[root] == usize::MAX {
                slot[root] = members.len();
                members.push(Vec::new());
            }
            members[slot[root]].push(i);
        }
        members
            .into_iter()
            .map(|m| Cfg {
                blocks: m.iter().map(|&i| (starts[i], blocks[i].clone())).collect(),
                leaders: Arc::clone(&self.leaders),
                func_entries: Arc::clone(&self.func_entries),
            })
            .collect()
    }

    /// Recovers the CFG from a disassembly.
    ///
    /// `extra_leaders` lets the caller add addresses discovered by other
    /// means (e.g. scanning data for code pointers); conservatism only
    /// ever *adds* leaders.
    pub fn recover(disasm: &Disasm, entry: u64, extra_leaders: &[u64]) -> Cfg {
        let mut leaders: Vec<u64> = vec![entry];
        leaders.extend_from_slice(extra_leaders);
        let mut func_entries: Vec<u64> = vec![entry];

        // Pass 1: collect leaders and function entries.
        for (addr, inst, len) in disasm.iter() {
            if let Some(t) = inst.branch_target() {
                leaders.push(t);
                if inst.op == Op::Call {
                    func_entries.push(t);
                }
            }
            let next = addr + len as u64;
            match inst.op {
                // After any control transfer the next instruction starts a
                // block. `call` also makes the return site a leader (the
                // `ret` will target it).
                Op::Jmp
                | Op::JmpInd
                | Op::Jcc(_)
                | Op::Call
                | Op::CallInd
                | Op::Ret
                | Op::Ud2
                | Op::Int3
                    if disasm.at(next).is_some() =>
                {
                    leaders.push(next);
                }
                _ => {}
            }
        }
        // Unknown-gap boundaries are leaders too: code after a gap might
        // be reached in ways we cannot see.
        for &(_, end) in &disasm.unknown {
            if disasm.at(end).is_some() {
                leaders.push(end);
            }
        }
        leaders.sort_unstable();
        leaders.dedup();
        func_entries.sort_unstable();
        func_entries.dedup();
        // Leader marks by instruction index, so the slicing walk tests
        // each member with one load.
        let mut is_leader = vec![false; disasm.len()];
        for &l in &leaders {
            if let Some(i) = disasm.index_of(l) {
                is_leader[i] = true;
            }
        }

        // Pass 2: slice into blocks, walking instruction indices.
        let mut blocks = Vec::with_capacity(leaders.len());
        for &leader in &leaders {
            let Some(mut i) = disasm.index_of(leader) else {
                continue;
            };
            let mut insts = Vec::new();
            let mut succs = Vec::new();
            let mut opaque = false;
            loop {
                let Some((addr, inst, len)) = disasm.get(i) else {
                    // Fell into unknown bytes.
                    opaque = true;
                    break;
                };
                insts.push(addr);
                let next = addr + len as u64;
                let next_i = disasm.index_of(next);
                match inst.op {
                    Op::Jmp => {
                        match inst.branch_target() {
                            // A direct jump to another function's entry is
                            // a tail call: control leaves this function and
                            // the callee's `ret` returns to *our* caller.
                            // No intra-function successor edge; the exit is
                            // opaque exactly like a `ret`.
                            Some(t) if func_entries.binary_search(&t).is_ok() && t != leader => {
                                opaque = true;
                            }
                            Some(t) => succs.push(t),
                            None => {}
                        }
                        break;
                    }
                    Op::Jcc(_) => {
                        if let Some(t) = inst.branch_target() {
                            succs.push(t);
                        }
                        if next_i.is_some() {
                            succs.push(next);
                        }
                        break;
                    }
                    Op::JmpInd | Op::Ret | Op::Ud2 | Op::Int3 => {
                        opaque = true;
                        break;
                    }
                    Op::Call | Op::CallInd => {
                        // The callee is opaque; treat the return site as
                        // the fall-through successor but mark the exit
                        // opaque so liveness stays conservative.
                        if next_i.is_some() {
                            succs.push(next);
                        }
                        opaque = true;
                        break;
                    }
                    _ => {
                        let next_is_leader = match next_i {
                            Some(j) => is_leader[j],
                            None => leaders.binary_search(&next).is_ok(),
                        };
                        if next_is_leader || insts.len() >= MAX_BLOCK {
                            if next_i.is_some() {
                                succs.push(next);
                            }
                            break;
                        }
                        match next_i {
                            Some(j) => i = j,
                            None => {
                                opaque = true;
                                break;
                            }
                        }
                    }
                }
            }
            blocks.push((
                leader,
                Block {
                    start: leader,
                    insts,
                    succs,
                    opaque_exit: opaque,
                },
            ));
        }

        // Both inputs are sorted, so the collections are bulk-built.
        Cfg {
            blocks: blocks.into_iter().collect(),
            leaders: Arc::new(leaders.into_iter().collect()),
            func_entries: Arc::new(func_entries.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::{AluOp, Asm, Cond, Reg, Width};

    fn build(f: impl FnOnce(&mut Asm)) -> (Image, u64) {
        let mut a = Asm::new(0x40_0000);
        f(&mut a);
        let p = a.finish().unwrap();
        (
            Image {
                kind: ImageKind::Exec,
                entry: 0x40_0000,
                segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
                symbols: vec![],
            },
            0x40_0000,
        )
    }

    #[test]
    fn straight_line_is_one_block() {
        let (img, entry) = build(|a| {
            a.mov_ri(Width::W64, Reg::Rax, 1);
            a.mov_ri(Width::W64, Reg::Rbx, 2);
            a.alu_rr(AluOp::Add, Width::W64, Reg::Rax, Reg::Rbx);
            a.ret();
        });
        let cfg = Cfg::recover(&disassemble(&img), entry, &[]);
        assert_eq!(cfg.blocks.len(), 1);
        let b = &cfg.blocks[&entry];
        assert_eq!(b.insts.len(), 4);
        assert!(b.opaque_exit, "ret is opaque");
        assert!(b.succs.is_empty());
    }

    #[test]
    fn branch_splits_blocks() {
        let (img, entry) = build(|a| {
            let l = a.label();
            a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1); // block 1
            a.jcc_label(Cond::Ne, l);
            a.nop(); // block 2 (fallthrough)
            a.bind(l).unwrap();
            a.ret(); // block 3 (target)
        });
        let cfg = Cfg::recover(&disassemble(&img), entry, &[]);
        assert_eq!(cfg.blocks.len(), 3);
        let first = &cfg.blocks[&entry];
        assert_eq!(first.succs.len(), 2);
    }

    #[test]
    fn loop_back_edge_found() {
        let (img, entry) = build(|a| {
            let top = a.label();
            a.bind(top).unwrap();
            a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
            a.jcc_label(Cond::Ne, top);
            a.ret();
        });
        let cfg = Cfg::recover(&disassemble(&img), entry, &[]);
        let first = &cfg.blocks[&entry];
        assert!(first.succs.contains(&entry), "back edge to self");
    }

    #[test]
    fn call_marks_return_site_leader_and_opaque() {
        let (img, entry) = build(|a| {
            let f = a.label();
            a.call_label(f);
            a.nop();
            a.ret();
            a.bind(f).unwrap();
            a.ret();
        });
        let cfg = Cfg::recover(&disassemble(&img), entry, &[]);
        let first = &cfg.blocks[&entry];
        assert!(first.opaque_exit);
        // The nop after the call starts a block.
        assert_eq!(first.insts.len(), 1);
        assert!(cfg.is_leader(first.succs[0]));
    }

    #[test]
    fn tail_call_jmp_to_function_entry_has_no_succ_edge() {
        // entry: call f; ret;  g: jmp f (tail call);  f: ret
        let (img, entry) = build(|a| {
            let f = a.label();
            a.call_label(f);
            a.ret();
            // g — reachable only as an extra leader, tail-calls f.
            a.jmp_label(f);
            a.bind(f).unwrap();
            a.ret();
        });
        let d = disassemble(&img);
        // The jmp sits right after the entry block's ret.
        let g = d.next_addr(d.next_addr(entry).unwrap()).unwrap();
        let cfg = Cfg::recover(&d, entry, &[g]);
        let gb = &cfg.blocks[&g];
        assert!(
            gb.succs.is_empty(),
            "tail-call jmp must not create an intra-function edge, got {:?}",
            gb.succs
        );
        assert!(gb.opaque_exit, "tail call exits like a ret");
        assert_eq!(gb.insts.len(), 1);
        // f is a recovered function entry (direct call target).
        let f = d.at(entry).unwrap().0.branch_target().unwrap();
        assert!(cfg.func_entries.contains(&entry));
        assert!(cfg.func_entries.contains(&f));
        // The tail-calling block and its target land in different
        // weakly-connected components.
        let comps = cfg.components();
        let of = |addr: u64| comps.iter().position(|c| c.blocks.contains_key(&addr));
        assert_ne!(of(g), of(f), "g and f split into components");
    }

    #[test]
    fn jmp_to_non_entry_is_still_a_branch() {
        let (img, entry) = build(|a| {
            let l = a.label();
            a.jmp_label(l);
            a.nop();
            a.bind(l).unwrap();
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, entry, &[]);
        let b = &cfg.blocks[&entry];
        assert_eq!(b.succs.len(), 1, "plain jmp keeps its edge");
        assert!(!b.opaque_exit);
    }

    #[test]
    fn block_of_locates_interior_instructions() {
        let (img, entry) = build(|a| {
            a.mov_ri(Width::W64, Reg::Rax, 1);
            a.mov_ri(Width::W64, Reg::Rbx, 2);
            a.ret();
        });
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, entry, &[]);
        let second = d.next_addr(entry).unwrap();
        assert_eq!(cfg.block_of(second).unwrap().start, entry);
        assert!(cfg.block_of(0x50_0000).is_none());
    }
}
