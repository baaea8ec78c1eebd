//! Randomized tests for CFG recovery over generated compiled programs:
//! blocks partition the decoded instructions, every direct branch target
//! is a leader, batching never groups across blocks, and the unreached
//! sites are exactly the sites outside every block. Driven by a
//! deterministic seeded generator.

use redfat_analysis::{
    can_reach_heap, disassemble, plan_batches, unreached_sites, Cfg, SiteClassifier, MAX_BLOCK,
};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_minic::compile;
use redfat_vm::Rng64;
use redfat_x86::{Asm, Mem, Reg, Width};
use std::collections::HashSet;

fn random_program(r: &mut Rng64) -> String {
    let elems = r.range_u64(1, 8);
    let n_ops = r.below_usize(8) + 2;
    let mut body = String::new();
    for _ in 0..n_ops {
        let val = r.range_i64(1, 20);
        match r.below(5) {
            0 => body.push_str(&format!(
                "if (s % 2 == 0) {{ s = s + {val}; }} else {{ s = s - 1; }}\n"
            )),
            1 => body.push_str(&format!(
                "for (var i = 0; i < {val} % 5 + 1; i = i + 1) {{ s = s + a[i % {elems}]; }}\n"
            )),
            2 => body.push_str(&format!("s = s + helper({val});\n")),
            3 => body.push_str(&format!("a[{}] = s;\n", val % elems as i64)),
            _ => body.push_str(&format!("while (s > {val} * 3) {{ s = s / 2; }}\n")),
        }
    }
    format!(
        "fn helper(x) {{ if (x > 10) {{ return x - 10; }} return x; }}
         fn main() {{
            var a = malloc({elems} * 8);
            for (var i = 0; i < {elems}; i = i + 1) {{ a[i] = i; }}
            var s = 1;
            {body}
            print(s);
            return 0;
         }}"
    )
}

#[test]
fn blocks_partition_instructions() {
    let mut r = Rng64::new(0xCF6_0001);
    for case in 0..128 {
        let src = random_program(&mut r);
        let image = compile(&src).expect("compiles");
        let d = disassemble(&image);
        let cfg = Cfg::recover(&d, image.entry, &[]);

        // Every decoded instruction belongs to exactly one block.
        let mut seen: HashSet<u64> = HashSet::new();
        for block in cfg.blocks.values() {
            for &addr in &block.insts {
                assert!(
                    seen.insert(addr),
                    "case {case}: instruction {addr:#x} in two blocks"
                );
                assert!(d.at(addr).is_some());
            }
        }
        // All reachable-by-decoding instructions are covered (linear
        // sweep and block slicing agree).
        assert_eq!(seen.len(), d.len(), "case {case}");
    }
}

#[test]
fn branch_targets_are_leaders() {
    let mut r = Rng64::new(0xCF6_0002);
    for case in 0..128 {
        let src = random_program(&mut r);
        let image = compile(&src).expect("compiles");
        let d = disassemble(&image);
        let cfg = Cfg::recover(&d, image.entry, &[]);
        for (_, inst, _) in d.iter() {
            if let Some(t) = inst.branch_target() {
                assert!(cfg.is_leader(t), "case {case}: target {t:#x} not a leader");
            }
        }
        // Successor lists point at leaders too.
        for block in cfg.blocks.values() {
            for &s in &block.succs {
                assert!(cfg.is_leader(s), "case {case}: succ {s:#x} not a leader");
            }
        }
    }
}

#[test]
fn batches_stay_within_blocks() {
    let mut r = Rng64::new(0xCF6_0003);
    for case in 0..128 {
        let src = random_program(&mut r);
        let image = compile(&src).expect("compiles");
        let d = disassemble(&image);
        let cfg = Cfg::recover(&d, image.entry, &[]);
        let batches = plan_batches(&d, &cfg, true, |_, i| {
            i.memory_access().is_some_and(|m| can_reach_heap(&m))
        });
        for b in &batches {
            let anchor_block = cfg.block_of(b.anchor).expect("anchor in a block");
            for &m in &b.members {
                let mb = cfg.block_of(m).expect("member in a block");
                assert_eq!(
                    mb.start, anchor_block.start,
                    "case {case}: batch crosses blocks"
                );
            }
            // Members are ordered and start at the anchor.
            assert_eq!(b.members[0], b.anchor);
            assert!(b.members.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

#[test]
fn unreached_sites_are_the_sites_outside_every_block() {
    // A straight run longer than `MAX_BLOCK`: the block is cut, and the
    // rest of the run starts no block.
    let mut a = Asm::new(0x40_0000);
    for _ in 0..MAX_BLOCK + 8 {
        a.mov_rm(Width::W64, Reg::Rax, Mem::base(Reg::Rbx));
    }
    a.ret();
    let p = a.finish().expect("assembles");
    let tail = Image {
        kind: ImageKind::Exec,
        entry: p.base,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    };
    let mut r = Rng64::new(0xCF6_0004);
    let programs = (0..32).map(|_| compile(&random_program(&mut r)).expect("compiles"));
    for (case, image) in std::iter::once(tail).chain(programs).enumerate() {
        let d = disassemble(&image);
        let cfg = Cfg::recover(&d, image.entry, &[]);
        let classifier = SiteClassifier::new(&d, &cfg, false, None);
        let want: Vec<u64> = d
            .iter()
            .filter(|&(addr, inst, _)| {
                cfg.block_of(addr).is_none() && classifier.classify(addr, inst).is_some()
            })
            .map(|(addr, _, _)| addr)
            .collect();
        let got: Vec<u64> = unreached_sites(&d, &cfg, false)
            .map(|(addr, _, _)| addr)
            .collect();
        assert_eq!(got, want, "case {case}");
        if case == 0 {
            assert_eq!(got.len(), 8, "the loads past the cut are unreached");
        }
    }
}
