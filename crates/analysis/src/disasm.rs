//! Linear-sweep disassembly with explicit unknown gaps.

use redfat_elf::{Image, Segment};
use redfat_x86::{decode_one, Inst};

/// Marks a byte of an executable range at which no instruction starts.
const NO_INST: u32 = u32::MAX;

/// Disassembly of an image's executable segments.
///
/// The instructions live in one address-ordered table; every executable
/// byte maps to the table index of the instruction starting there, so
/// [`Disasm::at`] and [`Disasm::next_addr`] are a search over the few
/// executable ranges plus two array loads, not a tree search.
#[derive(Debug, Clone, Default)]
pub struct Disasm {
    /// Decoded instructions with encoded length, strictly ascending by
    /// address.
    insts: Vec<(u64, (Inst, u8))>,
    /// The executable address ranges, ascending and disjoint, each with
    /// its byte-offset → instruction-index table.
    spans: Vec<Span>,
    /// Byte ranges that failed to decode (`[start, end)`), which the
    /// rewriter must leave untouched.
    pub unknown: Vec<(u64, u64)>,
}

/// One contiguous executable address range.
#[derive(Debug, Clone)]
struct Span {
    start: u64,
    /// `index[off]` is the table index of the instruction at
    /// `start + off`, or [`NO_INST`].
    index: Vec<u32>,
}

impl Disasm {
    /// Returns the table index of the instruction at exactly `addr`.
    /// Indices follow address order: index `i + 1` is the next decoded
    /// instruction above index `i`.
    pub(crate) fn index_of(&self, addr: u64) -> Option<usize> {
        let span = &self.spans[self.span_of(addr)?];
        let slot = *span.index.get(usize::try_from(addr - span.start).ok()?)?;
        (slot != NO_INST).then_some(slot as usize)
    }

    /// Position of the last span starting at or below `addr`: the only
    /// one that can contain it.
    fn span_of(&self, addr: u64) -> Option<usize> {
        self.spans
            .partition_point(|s| s.start <= addr)
            .checked_sub(1)
    }

    /// Returns the instruction at table index `index`.
    pub(crate) fn get(&self, index: usize) -> Option<(u64, &Inst, u8)> {
        self.insts.get(index).map(|(a, (i, l))| (*a, i, *l))
    }

    /// Returns the instruction at exactly `addr`.
    pub fn at(&self, addr: u64) -> Option<&(Inst, u8)> {
        self.index_of(addr).map(|i| &self.insts[i].1)
    }

    /// Returns the address of the instruction following `addr`.
    pub fn next_addr(&self, addr: u64) -> Option<u64> {
        let (_, len) = self.at(addr)?;
        Some(addr + *len as u64)
    }

    /// Iterates instructions in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst, u8)> {
        self.insts.iter().map(|(a, (i, l))| (*a, i, *l))
    }

    /// Total decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if no instructions were decoded.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Disassembles all executable segments of `image`.
///
/// Uses linear sweep with single-byte resynchronization: undecodable
/// bytes are recorded as unknown gaps and skipped one byte at a time.
/// For binaries produced by this workspace's assembler/compiler the
/// unknown set is empty; the mechanism exists so that foreign byte
/// sequences degrade coverage rather than correctness, matching the
/// paper's conservative stance.
///
/// Segments are swept in image order and the results merged by
/// address; where two executable segments overlap, the later segment's
/// instruction at an address replaces the earlier one's.
pub fn disassemble(image: &Image) -> Disasm {
    let mut out = Disasm::default();
    let mut insts = Vec::new();
    for seg in image.exec_segments() {
        let data = addressable(seg);
        let mut off = 0usize;
        let mut gap_start: Option<u64> = None;
        while off < data.len() {
            let addr = seg.vaddr + off as u64;
            match decode_one(&data[off..], addr) {
                Ok((inst, len)) => {
                    if let Some(gs) = gap_start.take() {
                        out.unknown.push((gs, addr));
                    }
                    insts.push((addr, (inst, len)));
                    off += len as usize;
                }
                Err(_) => {
                    if gap_start.is_none() {
                        gap_start = Some(addr);
                    }
                    off += 1;
                }
            }
        }
        if let Some(gs) = gap_start {
            out.unknown.push((gs, seg.vaddr + data.len() as u64));
        }
    }
    sort_keep_last(&mut insts);

    let mut ranges: Vec<(u64, u64)> = image
        .exec_segments()
        .map(|s| (s.vaddr, s.vaddr + addressable(s).len() as u64))
        .filter(|(start, end)| start < end)
        .collect();
    ranges.sort_unstable();
    for (start, end) in ranges {
        match out.spans.last_mut() {
            Some(span) if start <= span.start + span.index.len() as u64 => {
                let len = end.max(span.start + span.index.len() as u64) - span.start;
                span.index.resize(len as usize, NO_INST);
            }
            _ => out.spans.push(Span {
                start,
                index: vec![NO_INST; (end - start) as usize],
            }),
        }
    }
    for (i, &(addr, _)) in insts.iter().enumerate() {
        // Every instruction lies inside its segment, so inside a span.
        if let Some(s) = out.span_of(addr) {
            let span = &mut out.spans[s];
            span.index[(addr - span.start) as usize] = i as u32;
        }
    }
    out.insts = insts;
    out
}

/// The bytes of `seg` that have addresses: a segment declared so close
/// to the top of the address space that its end would wrap is cut where
/// the addresses run out.
fn addressable(seg: &Segment) -> &[u8] {
    let room = usize::try_from(u64::MAX - seg.vaddr).unwrap_or(usize::MAX);
    &seg.data[..seg.data.len().min(room)]
}

/// Sorts address-keyed entries by address (stably, so in O(n) when they
/// already are) and keeps, of the entries sharing an address, the last
/// one pushed -- the answer an address-keyed map filled in push order
/// would give.
pub(crate) fn sort_keep_last<T>(entries: &mut Vec<(u64, T)>) {
    entries.sort_by_key(|(addr, _)| *addr);
    entries.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            std::mem::swap(later, earlier);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_elf::{ImageKind, SegFlags, Segment};
    use redfat_x86::{Asm, Reg, Width};

    fn image_with(code: Vec<u8>) -> Image {
        Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![Segment::new(0x40_0000, SegFlags::RX, code)],
            symbols: vec![],
        }
    }

    #[test]
    fn disassembles_clean_code() {
        let mut a = Asm::new(0x40_0000);
        a.mov_ri(Width::W64, Reg::Rax, 5);
        a.push_r(Reg::Rax);
        a.pop_r(Reg::Rbx);
        a.ret();
        let p = a.finish().unwrap();
        let d = disassemble(&image_with(p.bytes));
        assert_eq!(d.len(), 4);
        assert!(d.unknown.is_empty());
        assert!(d.at(0x40_0000).is_some());
    }

    #[test]
    fn records_unknown_gaps() {
        // nop, SSE junk, nop.
        let code = vec![0x90, 0x0F, 0x28, 0xC1, 0x90];
        let d = disassemble(&image_with(code));
        // The 0x0F 0x28 fails; resync lands on 0x28 0xC1 (sub), then 0x90.
        assert!(!d.unknown.is_empty());
        assert!(d.at(0x40_0000).is_some());
    }

    #[test]
    fn skips_data_segments() {
        let img = Image {
            kind: ImageKind::Exec,
            entry: 0x40_0000,
            segments: vec![
                Segment::new(0x40_0000, SegFlags::RX, vec![0xC3]),
                Segment::new(0x60_0000, SegFlags::RW, vec![0x90; 16]),
            ],
            symbols: vec![],
        };
        let d = disassemble(&img);
        assert_eq!(d.len(), 1);
    }
}
