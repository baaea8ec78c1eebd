//! Backward register and flags liveness.
//!
//! The instrumentation needs scratch registers and may destroy the flags;
//! saving and restoring them costs instructions. This analysis finds, for
//! each instrumentation site, which registers (and whether the flags) are
//! *dead* -- i.e. overwritten before any use on every path -- so the
//! trampoline generator can clobber them for free (paper §6, "additional
//! low-level optimizations").
//!
//! Conservatism: any opaque exit (indirect control flow, `ret`, calls,
//! unknown bytes) is assumed to read every register and the flags.

use crate::cfg::{Block, Cfg};
use crate::disasm::{sort_keep_last, Disasm};

/// Bitmask over the 16 GPRs, plus a flags bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LiveSet {
    regs: u16,
    flags: bool,
}

impl LiveSet {
    const ALL: LiveSet = LiveSet {
        regs: u16::MAX,
        flags: true,
    };
    const NONE: LiveSet = LiveSet {
        regs: 0,
        flags: false,
    };

    fn union(self, other: LiveSet) -> LiveSet {
        LiveSet {
            regs: self.regs | other.regs,
            flags: self.flags || other.flags,
        }
    }
}

/// A backward transfer function of the form `live ↦ (live ∖ kill) ∪ gen`.
/// One instruction's transfer has this form, and so does the
/// composition of any run of them, which is what makes a whole block
/// summarizable by one `Transfer`.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    kill: LiveSet,
    gen: LiveSet,
}

impl Transfer {
    /// The identity (an empty run).
    const ID: Transfer = Transfer {
        kill: LiveSet::NONE,
        gen: LiveSet::NONE,
    };

    /// Writes kill first, then reads add (standard backward transfer).
    fn of(inst: &redfat_x86::Inst) -> Transfer {
        let mask = |regs: Vec<redfat_x86::Reg>| regs.iter().fold(0u16, |m, r| m | 1 << r.code());
        Transfer {
            kill: LiveSet {
                regs: mask(inst.regs_written()),
                flags: inst.writes_flags(),
            },
            gen: LiveSet {
                regs: mask(inst.regs_read()),
                flags: inst.reads_flags(),
            },
        }
    }

    fn apply(self, after: LiveSet) -> LiveSet {
        LiveSet {
            regs: (after.regs & !self.kill.regs) | self.gen.regs,
            flags: (after.flags && !self.kill.flags) || self.gen.flags,
        }
    }

    /// `self` applied after `later` has been: the transfer of the run
    /// `self`'s instructions followed by `later`'s.
    fn then(self, later: Transfer) -> Transfer {
        Transfer {
            kill: self.kill.union(later.kill),
            gen: self.apply(later.gen),
        }
    }
}

/// Per-site liveness results.
pub struct Liveness {
    /// Live-before set of every block member, ascending by address.
    live_before: Vec<(u64, LiveSet)>,
}

impl Liveness {
    /// Computes liveness over a recovered CFG.
    ///
    /// Each block's transfer is composed once into a summary; the
    /// fixpoint then applies one summary per block and round instead of
    /// re-running every member's transfer. Round-robin in reverse address
    /// order, a successor not yet computed counts as everything live, and
    /// at most 64 rounds: the iteration, and so the fixpoint it reaches,
    /// is exactly the per-instruction one's.
    pub fn compute(disasm: &Disasm, cfg: &Cfg) -> Liveness {
        let blocks: Vec<&Block> = cfg.blocks.values().collect();
        let starts: Vec<u64> = cfg.blocks.keys().copied().collect();
        // Member transfers, block after block (`first[b]..first[b + 1]`),
        // and each block's composed summary.
        let mut steps: Vec<Transfer> = Vec::new();
        let mut first: Vec<usize> = Vec::with_capacity(blocks.len() + 1);
        let mut summary: Vec<Transfer> = Vec::with_capacity(blocks.len());
        for block in &blocks {
            let at = steps.len();
            first.push(at);
            steps.extend(block.insts.iter().map(|&addr| {
                let (inst, _) = disasm.at(addr).expect("block member decoded");
                Transfer::of(inst)
            }));
            summary.push(
                steps[at..]
                    .iter()
                    .rev()
                    .fold(Transfer::ID, |s, t| t.then(s)),
            );
        }
        first.push(steps.len());
        // Successor positions; `None` for a target that starts no block
        // here, which therefore never gets a computed entry.
        let succs: Vec<Vec<Option<usize>>> = blocks
            .iter()
            .map(|b| {
                b.succs
                    .iter()
                    .map(|s| starts.binary_search(s).ok())
                    .collect()
            })
            .collect();

        let mut live_in: Vec<Option<LiveSet>> = vec![None; blocks.len()];
        let mut changed = true;
        let mut rounds = 0usize;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for b in (0..blocks.len()).rev() {
                let known: Option<LiveSet> = if blocks[b].opaque_exit {
                    None
                } else {
                    succs[b]
                        .iter()
                        .map(|s| s.and_then(|s| live_in[s]))
                        .try_fold(LiveSet::NONE, |acc, l| Some(acc.union(l?)))
                };
                // Opaque exit or a successor not yet computed: be
                // conservative.
                let live = summary[b].apply(known.unwrap_or(LiveSet::ALL));
                if live_in[b] != Some(live) {
                    live_in[b] = Some(live);
                    changed = true;
                }
            }
        }

        // Second pass: record live-before per member. Every block has a
        // computed entry by now; a successor that starts no block adds
        // nothing.
        let mut live_before = Vec::with_capacity(steps.len());
        for (b, block) in blocks.iter().enumerate() {
            let mut live = if block.opaque_exit {
                LiveSet::ALL
            } else {
                succs[b]
                    .iter()
                    .filter_map(|s| s.and_then(|s| live_in[s]))
                    .fold(LiveSet::NONE, LiveSet::union)
            };
            let at = live_before.len();
            for (&addr, step) in block.insts.iter().zip(&steps[first[b]..first[b + 1]]).rev() {
                live = step.apply(live);
                live_before.push((addr, live));
            }
            live_before[at..].reverse();
        }
        // Members ascend within a block and blocks are disjoint unless
        // executable segments overlap; should two blocks share a member,
        // the later block's fact wins.
        sort_keep_last(&mut live_before);
        Liveness { live_before }
    }

    fn live_at(&self, addr: u64) -> Option<LiveSet> {
        let i = self
            .live_before
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()?;
        Some(self.live_before[i].1)
    }

    /// Registers that are dead immediately before the instruction at
    /// `addr` (safe to clobber by code inserted before it).
    pub fn dead_regs_before(&self, addr: u64) -> Vec<redfat_x86::Reg> {
        let live = self.live_at(addr).unwrap_or(LiveSet::ALL).regs;
        (0u8..16)
            .filter(|&c| live & (1 << c) == 0)
            .map(redfat_x86::Reg::from_code)
            .collect()
    }

    /// Returns `true` if the flags are dead immediately before `addr`
    /// (code inserted before it may trash them without saving).
    pub fn flags_dead_before(&self, addr: u64) -> bool {
        self.live_at(addr).is_some_and(|l| !l.flags)
    }
}

/// Returns `true` if executing `inst` may leave a straight-line run
/// early -- a memory fault, an access veto, a divide error, a trap, or a
/// syscall exit -- making the architectural flags observable *before*
/// the following instruction retires. Implicit stack traffic
/// (`push`/`pop`/`call`/`ret`) counts: `Inst::memory_access` only
/// reports explicit memory operands.
fn may_exit_run(inst: &redfat_x86::Inst) -> bool {
    use redfat_x86::Op;
    inst.memory_access().is_some()
        || matches!(
            inst.op,
            Op::Push
                | Op::Pop
                | Op::Pushfq
                | Op::Popfq
                | Op::Call
                | Op::CallInd
                | Op::Ret
                | Op::MulDiv(_)
                | Op::Syscall
                | Op::Int3
                | Op::Ud2
        )
}

/// Whether `inst` writes *any* flag bits at all. This is the may-write
/// superset of the must-write-all predicate [`redfat_x86::Inst::writes_flags`]:
/// `shl cl`-style shifts write the flags only when the runtime count is
/// nonzero, so they may write without being reported as must-writers.
fn writes_any_flags(inst: &redfat_x86::Inst) -> bool {
    inst.writes_flags() || matches!(inst.op, redfat_x86::Op::ShiftCl(_))
}

/// Backward flag deadness over a straight-line run (no CFG).
///
/// Returns, for each instruction, `true` when its EFLAGS outputs are
/// provably unobservable: some later instruction *in the run* fully
/// rewrites the flags before anything reads them, and no instruction in
/// between can leave the run early. The flags are conservatively assumed
/// live at the end of the run (a trace exit may branch on them) and at
/// every potential early exit ([`may_exit_run`]), so a trace executor may
/// skip computing the flags of every `true` entry without the skipped
/// values ever becoming architecturally visible.
pub fn dead_flags_in_run(insts: &[redfat_x86::Inst]) -> Vec<bool> {
    let mut dead = vec![false; insts.len()];
    // `live` holds liveness *after* instruction `i` within the loop.
    let mut live = true;
    for (i, inst) in insts.iter().enumerate().rev() {
        let exit = may_exit_run(inst);
        dead[i] = !live && !exit && writes_any_flags(inst);
        // live-before(i): an exit or a flag read observes the incoming
        // flags; a must-write-all kills them; otherwise flow through.
        live = exit || inst.reads_flags() || (live && !inst.writes_flags());
    }
    dead
}

/// Backward flags-liveness *after* each instruction of a straight-line
/// run: `out[i]` is `false` only when the flags as left by instruction
/// `i` are provably unobservable -- a later instruction in the run
/// fully rewrites them before any read, and nothing in between can
/// leave the run early. Same conservative rules as
/// [`dead_flags_in_run`] (flags live at the end of the run and at
/// every potential early exit); the two differ only in what they
/// report: this is the raw liveness-out, used by the trace tier to
/// decide whether a compare-and-branch pair may skip materializing the
/// compare's flags on its predicted path.
pub fn flags_live_after_run(insts: &[redfat_x86::Inst]) -> Vec<bool> {
    let mut out = vec![true; insts.len()];
    let mut live = true;
    for (i, inst) in insts.iter().enumerate().rev() {
        out[i] = live;
        live = may_exit_run(inst) || inst.reads_flags() || (live && !inst.writes_flags());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_x86::{AluOp, Asm, Mem, Reg, Width};

    fn analyze(f: impl FnOnce(&mut Asm) -> Vec<u64>) -> (Liveness, Vec<u64>) {
        let mut a = Asm::new(0x40_0000);
        let marks = f(&mut a);
        let p = a.finish().unwrap();
        let img = Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        };
        let d = disassemble(&img);
        let cfg = Cfg::recover(&d, img.entry, &[]);
        (Liveness::compute(&d, &cfg), marks)
    }

    #[test]
    fn overwritten_reg_is_dead() {
        let (lv, marks) = analyze(|a| {
            a.mov_ri(Width::W64, Reg::Rax, 1);
            let site = a.here();
            // rbx is written before any read: dead at `site`.
            a.mov_ri(Width::W64, Reg::Rbx, 2);
            a.ret();
            vec![site]
        });
        let dead = lv.dead_regs_before(marks[0]);
        assert!(dead.contains(&Reg::Rbx));
        // rax escapes through ret (opaque): live.
        assert!(!dead.contains(&Reg::Rax));
    }

    #[test]
    fn flags_dead_when_rewritten_before_use() {
        let (lv, marks) = analyze(|a| {
            let site = a.here();
            // cmp writes flags before anything reads them.
            a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, Reg::Rbx);
            a.setcc_r(redfat_x86::Cond::E, Reg::Rcx);
            a.ret();
            vec![site]
        });
        assert!(lv.flags_dead_before(marks[0]));
    }

    #[test]
    fn flags_live_when_branch_reads_them() {
        let (lv, marks) = analyze(|a| {
            a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, Reg::Rbx);
            let site = a.here();
            a.mov_ri(Width::W64, Reg::Rcx, 0); // does not touch flags
            let l = a.label();
            a.jcc_label(redfat_x86::Cond::E, l);
            a.bind(l).unwrap();
            a.ret();
            vec![site]
        });
        assert!(!lv.flags_dead_before(marks[0]));
    }

    #[test]
    fn memory_operand_regs_are_live() {
        let (lv, marks) = analyze(|a| {
            let site = a.here();
            a.mov_rm(Width::W64, Reg::Rax, Mem::bis(Reg::Rbx, Reg::Rcx, 8, 0));
            a.ret();
            vec![site]
        });
        let dead = lv.dead_regs_before(marks[0]);
        assert!(!dead.contains(&Reg::Rbx));
        assert!(!dead.contains(&Reg::Rcx));
    }

    #[test]
    fn syscall_arguments_are_live() {
        let (lv, marks) = analyze(|a| {
            a.mov_ri(Width::W64, Reg::Rdi, 7);
            let site = a.here();
            a.mov_ri(Width::W64, Reg::Rax, 5); // print_int(rdi)
            a.syscall();
            a.mov_ri(Width::W64, Reg::Rdi, 0); // exit(0)
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
            vec![site]
        });
        // rdi carries the print argument into the first syscall: it must
        // be live at the site even though a later instruction rewrites it.
        assert!(!lv.dead_regs_before(marks[0]).contains(&Reg::Rdi));
    }

    #[test]
    fn cmov_destination_stays_live() {
        let (lv, marks) = analyze(|a| {
            a.mov_ri(Width::W64, Reg::Rbx, 1);
            a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, Reg::Rax);
            let site = a.here();
            // If the condition is false, rbx keeps its old value: the
            // cmov does not kill rbx's liveness.
            a.cmov_rr(redfat_x86::Cond::E, Width::W64, Reg::Rbx, Reg::Rcx);
            a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
            a.ret();
            vec![site]
        });
        assert!(!lv.dead_regs_before(marks[0]).contains(&Reg::Rbx));
    }

    fn inst(op: redfat_x86::Op, w: Width, operands: redfat_x86::Operands) -> redfat_x86::Inst {
        redfat_x86::Inst::new(op, w, operands)
    }

    #[test]
    fn dead_flags_killed_by_later_cmp() {
        use redfat_x86::{Op, Operands};
        // cmp ; mov ; cmp ; jcc -- the first cmp's flags are rewritten by
        // the second before the jcc reads them, with no exit in between.
        let run = [
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(
                Op::Mov,
                Width::W64,
                Operands::RI {
                    dst: Reg::Rcx,
                    imm: 7,
                },
            ),
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rcx,
                    src: Reg::Rdx,
                },
            ),
            inst(Op::Jcc(redfat_x86::Cond::E), Width::W64, Operands::Rel(0)),
        ];
        assert_eq!(dead_flags_in_run(&run), vec![true, false, false, false]);
    }

    #[test]
    fn memory_access_pins_flags_live() {
        use redfat_x86::{Op, Operands};
        // cmp ; load ; cmp -- the load may fault, which makes the first
        // cmp's flags observable at the fault boundary: not dead.
        let run = [
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(
                Op::Mov,
                Width::W64,
                Operands::RM {
                    dst: Reg::Rcx,
                    src: Mem::base(Reg::Rsi),
                },
            ),
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rcx,
                    src: Reg::Rdx,
                },
            ),
        ];
        assert_eq!(dead_flags_in_run(&run), vec![false, false, false]);
    }

    #[test]
    fn implicit_stack_traffic_counts_as_exit() {
        use redfat_x86::{Op, Operands};
        // add ; push ; cmp -- push accesses the stack (no explicit memory
        // operand), so the add's flags survive to a potential fault.
        let run = [
            inst(
                Op::Alu(AluOp::Add),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(Op::Push, Width::W64, Operands::R(Reg::Rax)),
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rdx,
                },
            ),
        ];
        assert_eq!(dead_flags_in_run(&run), vec![false, false, false]);
    }

    #[test]
    fn last_instruction_flags_are_always_live() {
        use redfat_x86::{Op, Operands};
        // Flags are conservatively live at the run's end: a lone add's
        // output is never dead.
        let run = [inst(
            Op::Alu(AluOp::Add),
            Width::W64,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rbx,
            },
        )];
        assert_eq!(dead_flags_in_run(&run), vec![false]);
    }

    #[test]
    fn flag_reader_blocks_elision() {
        use redfat_x86::{Op, Operands};
        // cmp ; setcc ; cmp -- the setcc reads the first cmp's flags.
        let run = [
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(
                Op::Setcc(redfat_x86::Cond::E),
                Width::W8,
                Operands::R(Reg::Rcx),
            ),
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rdx,
                },
            ),
        ];
        assert_eq!(dead_flags_in_run(&run), vec![false, false, false]);
    }

    #[test]
    fn shiftcl_is_killed_but_never_kills() {
        use redfat_x86::{Op, Operands, ShiftOp};
        // shl-cl ; cmp ; jcc -- the variable shift may or may not write
        // flags (count could be zero), so its output is elidable when a
        // later must-writer kills it, but it must never itself count as
        // the killer: add ; shl-cl ; jcc keeps the add live.
        let killed = [
            inst(Op::ShiftCl(ShiftOp::Shl), Width::W64, Operands::R(Reg::Rax)),
            inst(
                Op::Alu(AluOp::Cmp),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(Op::Jcc(redfat_x86::Cond::E), Width::W64, Operands::Rel(0)),
        ];
        assert_eq!(dead_flags_in_run(&killed), vec![true, false, false]);

        let not_killer = [
            inst(
                Op::Alu(AluOp::Add),
                Width::W64,
                Operands::RR {
                    dst: Reg::Rax,
                    src: Reg::Rbx,
                },
            ),
            inst(Op::ShiftCl(ShiftOp::Shl), Width::W64, Operands::R(Reg::Rcx)),
            inst(Op::Jcc(redfat_x86::Cond::E), Width::W64, Operands::Rel(0)),
        ];
        assert_eq!(dead_flags_in_run(&not_killer), vec![false, false, false]);
    }

    #[test]
    fn unknown_site_is_fully_conservative() {
        let (lv, _) = analyze(|a| {
            a.ret();
            vec![]
        });
        assert!(lv.dead_regs_before(0xDEAD).is_empty());
        assert!(!lv.flags_dead_before(0xDEAD));
    }
}
