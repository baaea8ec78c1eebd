//! `Liveness` against a reference: the straightforward per-instruction
//! fixpoint (every member's transfer re-run in every round, facts kept in
//! address-keyed maps). The block-summary implementation must reach the
//! same fixpoint, so the dead registers and dead flags it reports before
//! every block member agree with the reference's -- on the whole-image
//! CFG and on every component the hardening pipeline shards along -- and
//! an address outside every block keeps everything live.

use redfat_analysis::{disassemble, Cfg, Disasm, Liveness, MAX_BLOCK};
use redfat_core::{harden, HardenConfig};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_x86::{AluOp, Asm, Cond, Inst, Reg, Width};
use std::collections::HashMap;

/// Live registers (bitmask) and flags.
type Live = (u16, bool);
const ALL: Live = (u16::MAX, true);
const NONE: Live = (0, false);

fn union(a: Live, b: Live) -> Live {
    (a.0 | b.0, a.1 || b.1)
}

fn transfer(inst: &Inst, (mut regs, mut flags): Live) -> Live {
    for r in inst.regs_written() {
        regs &= !(1u16 << r.code());
    }
    if inst.writes_flags() {
        flags = false;
    }
    for r in inst.regs_read() {
        regs |= 1u16 << r.code();
    }
    if inst.reads_flags() {
        flags = true;
    }
    (regs, flags)
}

/// Live-before per block member: reverse-address round-robin, a
/// successor not yet computed counts as everything live, 64 rounds at
/// most.
fn reference(disasm: &Disasm, cfg: &Cfg) -> HashMap<u64, Live> {
    let mut live_in: HashMap<u64, Live> = HashMap::new();
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds < 64 {
        changed = false;
        rounds += 1;
        for (&start, block) in cfg.blocks.iter().rev() {
            let mut live = if block.opaque_exit {
                ALL
            } else {
                block
                    .succs
                    .iter()
                    .filter_map(|s| live_in.get(s).copied())
                    .fold(NONE, union)
            };
            if !block.opaque_exit && block.succs.iter().any(|s| !live_in.contains_key(s)) {
                live = union(live, ALL);
            }
            for &addr in block.insts.iter().rev() {
                live = transfer(&disasm.at(addr).expect("block member decoded").0, live);
            }
            if live_in.get(&start) != Some(&live) {
                live_in.insert(start, live);
                changed = true;
            }
        }
    }
    let mut live_before = HashMap::new();
    for block in cfg.blocks.values() {
        let mut live = if block.opaque_exit {
            ALL
        } else {
            block
                .succs
                .iter()
                .filter_map(|s| live_in.get(s).copied())
                .fold(NONE, union)
        };
        for &addr in block.insts.iter().rev() {
            live = transfer(&disasm.at(addr).expect("block member decoded").0, live);
            live_before.insert(addr, live);
        }
    }
    live_before
}

fn dead(regs: u16) -> Vec<Reg> {
    (0u8..16)
        .filter(|&c| regs & (1 << c) == 0)
        .map(Reg::from_code)
        .collect()
}

/// Compares one CFG's liveness with the reference; returns the number
/// of members checked.
fn agree(name: &str, disasm: &Disasm, cfg: &Cfg) -> usize {
    let want = reference(disasm, cfg);
    let got = Liveness::compute(disasm, cfg);
    let mut checked = 0;
    for block in cfg.blocks.values() {
        for &addr in &block.insts {
            let (regs, flags) = want[&addr];
            assert_eq!(
                got.dead_regs_before(addr),
                dead(regs),
                "{name}: dead registers before {addr:#x}"
            );
            assert_eq!(
                got.flags_dead_before(addr),
                !flags,
                "{name}: dead flags before {addr:#x}"
            );
            checked += 1;
        }
    }
    // Outside every block -- decoded or not -- all registers and the
    // flags stay live.
    let outside = disasm
        .iter()
        .map(|(a, _, _)| a)
        .filter(|a| !want.contains_key(a));
    for addr in outside.chain([0, 0xDEAD, u64::MAX]) {
        assert!(!want.contains_key(&addr));
        assert!(got.dead_regs_before(addr).is_empty(), "{name}: {addr:#x}");
        assert!(!got.flags_dead_before(addr), "{name}: {addr:#x}");
    }
    checked
}

fn check_image(name: &str, image: &Image) {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let whole = agree(name, &disasm, &cfg);
    assert!(whole > 0, "{name}: no block members");
    let sharded: usize = cfg
        .components()
        .iter()
        .map(|sub| agree(name, &disasm, sub))
        .sum();
    assert_eq!(whole, sharded, "{name}: components cover every member");
}

#[test]
fn liveness_matches_per_instruction_fixpoint_on_every_stand_in() {
    let suite = redfat_workloads::spec::all();
    assert_eq!(suite.len(), 29);
    for w in &suite {
        check_image(w.name, &w.image());
    }
}

#[test]
fn liveness_matches_per_instruction_fixpoint_on_hardened_stand_in() {
    let w = redfat_workloads::spec::all()
        .into_iter()
        .next()
        .expect("a stand-in");
    let hardened = harden(&w.image(), &HardenConfig::default()).expect("hardens");
    check_image(&format!("{} (hardened)", w.name), &hardened.image);
}

#[test]
fn liveness_matches_per_instruction_fixpoint_on_edge_shapes() {
    // Successors that start no block: a jump out of the image, and the
    // fall-through of a block cut at `MAX_BLOCK` members (the rest of
    // that run belongs to no block). A loop makes the fixpoint take
    // more than one round.
    let mut a = Asm::new(0x40_0000);
    let (top, out) = (a.label(), a.label());
    a.bind(top).expect("binds");
    a.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, Reg::Rbx);
    a.jcc_label(Cond::E, out);
    a.mov_ri(Width::W64, Reg::Rcx, 1);
    a.alu_ri(AluOp::Sub, Width::W64, Reg::Rdx, 1);
    a.jcc_label(Cond::Ne, top);
    a.mov_ri(Width::W64, Reg::Rsi, 2);
    a.jmp_abs(0x4000_0000).expect("in range");
    a.bind(out).expect("binds");
    for _ in 0..MAX_BLOCK + 8 {
        a.mov_rr(Width::W64, Reg::Rdi, Reg::Rsi);
    }
    a.ret();
    let p = a.finish().expect("assembles");
    let image = Image {
        kind: ImageKind::Exec,
        entry: p.base,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    };
    check_image("edge shapes", &image);
}
