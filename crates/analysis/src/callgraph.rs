//! Call-graph recovery over the recovered [`Cfg`] (the interprocedural
//! tier's first layer).
//!
//! Nodes are the *recovered function entries*: the image entry plus
//! every direct `call` target that starts a decoded block
//! ([`Cfg::func_entries`]). Edges are:
//!
//! * **direct call edges** — a `call imm` inside F's body targeting G;
//! * **tail-call edges** — a direct `jmp` inside F's body to another
//!   function's entry (recognized during CFG recovery: such a jump
//!   carries no intra-function successor edge);
//! * **Top edges** — any `call` through a register (`CallInd`) leaves F
//!   with a conservative edge to the ⊤ node: the callee is statically
//!   unknown, so every interprocedural fact about the call must assume
//!   the worst. Represented as a [`CallSite`] with `callee == None`.
//!
//! A function's **body** is the set of blocks reachable from its entry
//! via successor edges. Successor edges never enter another function
//! (calls connect to their *return site*; tail calls have no edge), so
//! bodies approximate compiler-emitted function extents; code reachable
//! from two entries (shared tails) simply belongs to both bodies, which
//! is conservative for every client below.
//!
//! For the summary fixpoint the graph is condensed to strongly-connected
//! components (mutual recursion) and traversed **bottom-up**: every SCC
//! is visited after all SCCs it calls into, so callee summaries are
//! final before any caller reads them. Recursive SCCs are the widening
//! points ([`crate::summary`]).

use crate::cfg::Cfg;
use crate::disasm::Disasm;
use redfat_x86::Op;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One call instruction (or tail-call jump) attributed to its owning
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Address of the `call`/`jmp` instruction.
    pub addr: u64,
    /// Entry address of the function whose body contains the site.
    pub caller: u64,
    /// Direct callee entry, or `None` for an indirect call (⊤).
    pub callee: Option<u64>,
    /// `true` when the site is a tail-call `jmp` rather than a `call`.
    pub tail: bool,
}

/// The recovered call graph plus its SCC condensation.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Function entries with a recovered body, in address order.
    pub entries: Vec<u64>,
    /// Every call/tail-call site, in (caller, address) order.
    pub sites: Vec<CallSite>,
    /// Body of each function: blocks reachable from its entry.
    pub body: BTreeMap<u64, BTreeSet<u64>>,
    /// Direct edges (call + tail) between recovered functions.
    edges: BTreeMap<u64, BTreeSet<u64>>,
    /// SCCs of the direct-edge graph in bottom-up (callees-first) order.
    sccs: Vec<Vec<u64>>,
}

impl CallGraph {
    /// Builds the call graph for a disassembled image.
    pub fn build(disasm: &Disasm, cfg: &Cfg) -> CallGraph {
        let entries: Vec<u64> = cfg
            .func_entries
            .iter()
            .copied()
            .filter(|e| cfg.blocks.contains_key(e))
            .collect();

        // Bodies: forward closure over successor edges.
        let mut body: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &entry in &entries {
            let mut seen: BTreeSet<u64> = BTreeSet::new();
            let mut stack = vec![entry];
            seen.insert(entry);
            while let Some(b) = stack.pop() {
                let Some(block) = cfg.blocks.get(&b) else {
                    continue;
                };
                for &s in &block.succs {
                    if cfg.blocks.contains_key(&s) && seen.insert(s) {
                        stack.push(s);
                    }
                }
            }
            body.insert(entry, seen);
        }

        // Sites and edges.
        let mut sites = Vec::new();
        let mut edges: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for &caller in &entries {
            edges.entry(caller).or_default();
            for &bstart in &body[&caller] {
                let block = &cfg.blocks[&bstart];
                for &addr in &block.insts {
                    let (inst, _) = disasm.at(addr).expect("block member decoded");
                    match inst.op {
                        Op::Call => {
                            let callee = inst.branch_target();
                            sites.push(CallSite {
                                addr,
                                caller,
                                callee,
                                tail: false,
                            });
                            if let Some(t) = callee {
                                if cfg.blocks.contains_key(&t) {
                                    edges.entry(caller).or_default().insert(t);
                                }
                            }
                        }
                        Op::CallInd => sites.push(CallSite {
                            addr,
                            caller,
                            callee: None,
                            tail: false,
                        }),
                        // A tail call is a direct jmp to a function entry
                        // that CFG recovery stripped of its successor
                        // edge (see `Cfg::recover`).
                        Op::Jmp => {
                            if let Some(t) = inst.branch_target() {
                                if cfg.func_entries.contains(&t) && !block.succs.contains(&t) {
                                    sites.push(CallSite {
                                        addr,
                                        caller,
                                        callee: Some(t),
                                        tail: true,
                                    });
                                    if cfg.blocks.contains_key(&t) {
                                        edges.entry(caller).or_default().insert(t);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        sites.sort_by_key(|s| (s.caller, s.addr));

        let sccs = condense(&entries, &edges);
        CallGraph {
            entries,
            sites,
            body,
            edges,
            sccs,
        }
    }

    /// Direct callees (call + tail) of `entry`.
    pub fn callees(&self, entry: u64) -> impl Iterator<Item = u64> + '_ {
        self.edges.get(&entry).into_iter().flatten().copied()
    }

    /// SCCs of the call graph in bottom-up order: every component
    /// appears after all components it calls into.
    pub fn sccs_bottom_up(&self) -> &[Vec<u64>] {
        &self.sccs
    }

    /// `true` when the SCC contains recursion: more than one member, or
    /// a single member calling itself.
    pub fn is_recursive(&self, scc: &[u64]) -> bool {
        match scc {
            [f] => self.edges.get(f).is_some_and(|es| es.contains(f)),
            _ => scc.len() > 1,
        }
    }

    /// Attributes an instruction address to the nearest function entry
    /// at or below it — the conventional symbolization rule, cheap and
    /// total even for addresses outside every body.
    pub fn owner_of_addr(&self, addr: u64) -> Option<u64> {
        match self.entries.binary_search(&addr) {
            Ok(i) => Some(self.entries[i]),
            Err(0) => None,
            Err(i) => Some(self.entries[i - 1]),
        }
    }
}

/// Iterative Tarjan SCC over the entry set. Emission order is reverse
/// topological on the condensation: an SCC is emitted only after every
/// SCC reachable from it, i.e. callees first.
fn condense(entries: &[u64], edges: &BTreeMap<u64, BTreeSet<u64>>) -> Vec<Vec<u64>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut state: HashMap<u64, NodeState> =
        entries.iter().map(|&e| (e, NodeState::default())).collect();
    let mut next_index = 0usize;
    let mut stack: Vec<u64> = Vec::new();
    let mut out: Vec<Vec<u64>> = Vec::new();

    // Edge targets are always recovered entries (guaranteed by
    // `build`), so children need no membership filter.
    let children = |n: u64| -> Vec<u64> {
        edges
            .get(&n)
            .into_iter()
            .flatten()
            .copied()
            .filter(|c| entries.contains(c))
            .collect()
    };

    // Explicit DFS machine: (node, children, next child position).
    for &root in entries {
        if state[&root].index.is_some() {
            continue;
        }
        let mut dfs: Vec<(u64, Vec<u64>, usize)> = Vec::new();
        {
            let s = state.get_mut(&root).expect("known node");
            s.index = Some(next_index);
            s.lowlink = next_index;
            s.on_stack = true;
        }
        next_index += 1;
        stack.push(root);
        dfs.push((root, children(root), 0));

        while let Some(&(node, _, pos)) = dfs.last() {
            let kids = &dfs.last().expect("nonempty").1;
            if pos < kids.len() {
                let child = kids[pos];
                dfs.last_mut().expect("nonempty").2 += 1;
                if state[&child].index.is_none() {
                    let s = state.get_mut(&child).expect("known node");
                    s.index = Some(next_index);
                    s.lowlink = next_index;
                    s.on_stack = true;
                    next_index += 1;
                    stack.push(child);
                    dfs.push((child, children(child), 0));
                } else if state[&child].on_stack {
                    let cl = state[&child].lowlink;
                    let s = state.get_mut(&node).expect("known node");
                    s.lowlink = s.lowlink.min(cl);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _, _)) = dfs.last() {
                    let nl = state[&node].lowlink;
                    let p = state.get_mut(&parent).expect("known node");
                    p.lowlink = p.lowlink.min(nl);
                }
                if state[&node].lowlink == state[&node].index.expect("visited") {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc member on stack");
                        state.get_mut(&w).expect("known node").on_stack = false;
                        scc.push(w);
                        if w == node {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    out.push(scc);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::Asm;

    fn image_of(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new(0x40_0000);
        f(&mut a);
        let p = a.finish().unwrap();
        Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        }
    }

    fn graph_of(img: &Image) -> CallGraph {
        let d = disassemble(img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        CallGraph::build(&d, &cfg)
    }

    /// main -> f -> g chain: three singleton SCCs, callees first.
    #[test]
    fn chain_condenses_bottom_up() {
        let img = image_of(|a| {
            let f = a.label();
            let g = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.call_label(g);
            a.ret();
            a.bind(g).unwrap();
            a.ret();
        });
        let cg = graph_of(&img);
        assert_eq!(cg.entries.len(), 3);
        let sccs = cg.sccs_bottom_up();
        assert_eq!(sccs.len(), 3);
        // Position of each function's SCC: callees strictly earlier.
        let pos = |e: u64| sccs.iter().position(|s| s.contains(&e)).unwrap();
        let main = img.entry;
        for s in &cg.sites {
            if let Some(callee) = s.callee {
                assert!(
                    pos(callee) < pos(s.caller),
                    "callee SCC must precede caller SCC"
                );
            }
        }
        assert!(!cg.is_recursive(&sccs[pos(main)]));
    }

    /// Mutually recursive f <-> g collapse into one SCC; a helper h
    /// called from the cycle still precedes it.
    #[test]
    fn mutual_recursion_forms_one_scc() {
        let img = image_of(|a| {
            let f = a.label();
            let g = a.label();
            let h = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.call_label(g);
            a.ret();
            a.bind(g).unwrap();
            a.call_label(f);
            a.call_label(h);
            a.ret();
            a.bind(h).unwrap();
            a.ret();
        });
        let cg = graph_of(&img);
        let sccs = cg.sccs_bottom_up();
        let cycle = sccs.iter().find(|s| s.len() == 2).expect("f<->g SCC");
        assert!(cg.is_recursive(cycle));
        let pos = |p: &dyn Fn(&Vec<u64>) -> bool| sccs.iter().position(p).unwrap();
        let cycle_pos = pos(&|s: &Vec<u64>| s.len() == 2);
        // h: a leaf function called only from the cycle.
        let h_entry = cg
            .entries
            .iter()
            .copied()
            .filter(|&e| !cycle.contains(&e) && e != img.entry)
            .max()
            .unwrap();
        let h_pos = pos(&|s: &Vec<u64>| s.contains(&h_entry));
        assert!(h_pos < cycle_pos, "leaf callee precedes the cycle");
    }

    /// Direct self-recursion is a recursive singleton SCC.
    #[test]
    fn self_recursion_is_recursive() {
        let img = image_of(|a| {
            let f = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.call_label(f);
            a.ret();
        });
        let cg = graph_of(&img);
        let f = cg
            .entries
            .iter()
            .copied()
            .find(|&e| e != img.entry)
            .unwrap();
        let scc = cg.sccs_bottom_up().iter().find(|s| s.contains(&f)).unwrap();
        assert_eq!(scc.len(), 1);
        assert!(cg.is_recursive(scc));
        let main_scc = cg
            .sccs_bottom_up()
            .iter()
            .find(|s| s.contains(&img.entry))
            .unwrap();
        assert!(!cg.is_recursive(main_scc));
    }

    /// Tail-call jmp produces a `tail: true` site and a call edge.
    #[test]
    fn tail_call_site_recorded() {
        let img = image_of(|a| {
            let f = a.label();
            let g = a.label();
            a.call_label(f); // main
            a.ret();
            a.bind(f).unwrap();
            a.jmp_label(g); // tail call
            a.bind(g).unwrap();
            a.ret();
        });
        // g must be recognized as a function entry: it is only reached
        // by the tail jmp, so make it a call target too.
        let cg = graph_of(&img);
        // f tail-calls g only if g ∈ func_entries; with no direct call
        // to g the jmp stays an intra-function branch.
        assert!(cg.sites.iter().all(|s| !s.tail));

        let img2 = image_of(|a| {
            let f = a.label();
            let g = a.label();
            a.call_label(f);
            a.call_label(g); // ensure g is a recovered function entry
            a.ret();
            a.bind(f).unwrap();
            a.jmp_label(g);
            a.bind(g).unwrap();
            a.ret();
        });
        let cg2 = graph_of(&img2);
        let tail: Vec<&CallSite> = cg2.sites.iter().filter(|s| s.tail).collect();
        assert_eq!(tail.len(), 1);
        assert!(tail[0].callee.is_some());
    }
}
