//! `Disasm` lookups against a reference disassembly: every segment swept
//! on its own into an address-keyed map, later segments overwriting
//! earlier ones at a shared address. For every byte of every executable
//! segment, and for the addresses just outside each, `at` and
//! `next_addr` must answer what a lookup in that map answers, and
//! `iter` must yield the map's instructions in strictly ascending order.

use redfat_analysis::{disassemble, Disasm};
use redfat_core::{harden, HardenConfig};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout::TRAMPOLINE_BASE;
use redfat_x86::{decode_one, Asm, Inst, Reg, Width};
use std::collections::BTreeMap;

/// The bytes of `seg` whose addresses, and end, fit in 64 bits.
fn addressable(seg: &Segment) -> &[u8] {
    let room = usize::try_from(u64::MAX - seg.vaddr).unwrap_or(usize::MAX);
    &seg.data[..seg.data.len().min(room)]
}

fn reference(image: &Image) -> BTreeMap<u64, (Inst, u8)> {
    let mut map = BTreeMap::new();
    for seg in image.exec_segments() {
        let data = addressable(seg);
        let mut off = 0usize;
        while off < data.len() {
            let addr = seg.vaddr + off as u64;
            match decode_one(&data[off..], addr) {
                Ok((inst, len)) => {
                    map.insert(addr, (inst, len));
                    off += len as usize;
                }
                Err(_) => off += 1,
            }
        }
    }
    map
}

fn check(name: &str, image: &Image) {
    let d: Disasm = disassemble(image);
    let want = reference(image);
    let got: Vec<(u64, Inst, u8)> = d.iter().map(|(a, i, l)| (a, *i, l)).collect();
    assert!(
        got.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: iter() not strictly ascending"
    );
    let want_list: Vec<(u64, Inst, u8)> = want.iter().map(|(&a, &(i, l))| (a, i, l)).collect();
    assert_eq!(got, want_list, "{name}: iter() differs from the reference");
    assert_eq!(d.len(), want.len(), "{name}: len()");
    assert_eq!(d.is_empty(), want.is_empty(), "{name}: is_empty()");

    let mut probes: Vec<u64> = Vec::new();
    for seg in image.exec_segments() {
        let end = seg.vaddr + addressable(seg).len() as u64;
        probes.extend(seg.vaddr.saturating_sub(2)..end.saturating_add(2));
    }
    probes.extend([0, 1, u64::MAX]);
    for a in probes {
        assert_eq!(d.at(a), want.get(&a), "{name}: at({a:#x})");
        assert_eq!(
            d.next_addr(a),
            want.get(&a).map(|&(_, l)| a + l as u64),
            "{name}: next_addr({a:#x})"
        );
    }
}

fn code(base: u64, f: impl FnOnce(&mut Asm)) -> Vec<u8> {
    let mut a = Asm::new(base);
    f(&mut a);
    a.finish().expect("assembles").bytes
}

#[test]
fn lookups_match_reference_on_out_of_order_segments_with_gaps() {
    // Three executable ranges listed out of address order, one of them
    // directly adjacent to another, undecodable bytes inside and at the
    // end of segments, and a data segment in between.
    let mut low = code(0x40_0000, |a| {
        a.mov_ri(Width::W64, Reg::Rax, 5);
        a.push_r(Reg::Rax);
    });
    let low_end = 0x40_0000 + low.len() as u64 + 3;
    low.extend([0x0F, 0x28, 0xC1]); // junk, then a resync
    let mut adjacent = code(low_end, |a| {
        a.pop_r(Reg::Rbx);
        a.ret();
    });
    adjacent.extend([0x0F, 0x0F]); // undecodable tail
    let high = {
        let mut c = vec![0x90, 0x0F, 0x28, 0xC1, 0x90];
        c.extend(code(0x50_0005, |a| a.ret()));
        c
    };
    let image = Image {
        kind: ImageKind::Exec,
        entry: 0x40_0000,
        segments: vec![
            Segment::new(0x50_0000, SegFlags::RX, high),
            Segment::new(0x60_0000, SegFlags::RW, vec![0x90; 16]),
            Segment::new(low_end, SegFlags::RX, adjacent),
            Segment::new(0x40_0000, SegFlags::RX, low),
            Segment::new(0x48_0000, SegFlags::RX, vec![]),
        ],
        symbols: vec![],
    };
    check("synthetic", &image);
    assert!(!disassemble(&image).unknown.is_empty());

    // Overlapping executable segments: the later one wins where both
    // start an instruction.
    let overlap = Image {
        segments: vec![
            Segment::new(0x40_0000, SegFlags::RX, vec![0x90; 8]),
            Segment::new(0x40_0004, SegFlags::RX, code(0x40_0004, |a| a.ret())),
        ],
        ..image.clone()
    };
    check("overlap", &overlap);

    // A segment running past the top of the address space keeps only
    // the bytes that have addresses.
    let top = Image {
        segments: vec![Segment::new(u64::MAX - 4, SegFlags::RX, vec![0x90; 8])],
        ..image.clone()
    };
    check("top of address space", &top);
    assert_eq!(disassemble(&top).len(), 4);

    let empty = Image {
        segments: vec![],
        ..image
    };
    check("empty", &empty);
}

#[test]
fn lookups_match_reference_on_hardened_stand_in() {
    let w = redfat_workloads::spec::all()
        .into_iter()
        .next()
        .expect("a stand-in");
    let hardened = harden(&w.image(), &HardenConfig::default()).expect("hardens");
    assert!(
        hardened
            .image
            .exec_segments()
            .any(|s| s.vaddr == TRAMPOLINE_BASE),
        "the hardened image carries its trampoline segment"
    );
    check(w.name, &hardened.image);
}
