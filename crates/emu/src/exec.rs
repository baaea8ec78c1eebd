//! The interpreter: fetch/decode (cached) and execute.

use crate::cost::{CostModel, Counters};
use crate::cpu::Cpu;
use crate::runtime::{MemoryError, Runtime, SyscallOutcome};
use redfat_vm::{layout, Vm, VmFault};
use redfat_x86::{
    decode_one, AluOp, DecodeError, Inst, Mem, MulDivOp, Op, Operands, Reg, ShiftOp, Width,
};
use std::collections::HashMap;

/// Magic first quadword of the rewriter's `int3` trap-table segment.
pub const TRAP_TABLE_MAGIC: u64 = 0x5041_5254_4642_5244; // "DRBFTRAP"-ish tag

/// A host-visible execution failure (guest bug or unsupported code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Memory fault.
    Fault { rip: u64, fault: VmFault },
    /// Undecodable instruction bytes.
    Decode { rip: u64, err: DecodeError },
    /// Division by zero or quotient overflow.
    DivideError { rip: u64 },
    /// `ud2` executed.
    Ud2 { rip: u64 },
    /// `int3` executed with no trap-table entry.
    UnhandledInt3 { rip: u64 },
    /// A runtime access hook vetoed the access (DBI-style tools in
    /// abort mode).
    AccessVetoed { rip: u64, error: MemoryError },
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::Fault { rip, fault } => write!(f, "at {rip:#x}: {fault}"),
            EmuError::Decode { rip, err } => write!(f, "at {rip:#x}: {err}"),
            EmuError::DivideError { rip } => write!(f, "at {rip:#x}: divide error"),
            EmuError::Ud2 { rip } => write!(f, "at {rip:#x}: ud2"),
            EmuError::UnhandledInt3 { rip } => write!(f, "at {rip:#x}: stray int3"),
            EmuError::AccessVetoed { rip, error } => {
                write!(f, "at {rip:#x}: access vetoed: {error}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunResult {
    /// Guest called `exit`.
    Exited(i64),
    /// Instrumentation detected a memory error and the runtime aborted.
    MemoryError(MemoryError),
    /// The guest did something the emulator cannot continue from.
    Error(EmuError),
    /// The step budget was exhausted.
    StepLimit,
}

impl RunResult {
    /// Returns the exit code, panicking otherwise (test convenience).
    ///
    /// # Panics
    ///
    /// Panics if the run did not exit normally.
    pub fn expect_exit(&self) -> i64 {
        match self {
            RunResult::Exited(c) => *c,
            other => panic!("expected clean exit, got {other:?}"),
        }
    }
}

/// Per-segment instruction cache: one `u32` slot per code byte indexing
/// into a pool of decoded instructions (`u32::MAX` = not yet decoded).
/// Guest stores never invalidate entries (self-modifying code is
/// unsupported by the substrate); the host can explicitly drop a
/// segment's decodes via [`Emu::invalidate_code`] after reloading code.
#[derive(Default)]
struct ICache {
    segs: Vec<(u64, u64, Vec<u32>)>, // (base, end, slots)
    pool: Vec<(Inst, u8)>,
    last: usize,
}

impl ICache {
    #[inline]
    fn lookup(&mut self, rip: u64) -> Option<(Inst, u8)> {
        let seg = self.seg_of(rip)?;
        let (base, _, slots) = &self.segs[seg];
        let idx = slots[(rip - base) as usize];
        if idx == u32::MAX {
            None
        } else {
            Some(self.pool[idx as usize])
        }
    }

    #[inline]
    fn seg_of(&mut self, rip: u64) -> Option<usize> {
        if let Some(&(b, e, _)) = self.segs.get(self.last) {
            if rip >= b && rip < e {
                return Some(self.last);
            }
        }
        for (i, &(b, e, _)) in self.segs.iter().enumerate() {
            if rip >= b && rip < e {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    fn add_seg(&mut self, base: u64, size: u64) {
        self.segs
            .push((base, base + size, vec![u32::MAX; size as usize]));
        self.last = self.segs.len() - 1;
    }

    fn insert(&mut self, rip: u64, entry: (Inst, u8)) {
        if let Some(seg) = self.seg_of(rip) {
            let idx = self.pool.len() as u32;
            self.pool.push(entry);
            let (base, _, slots) = &mut self.segs[seg];
            let off = (rip - *base) as usize;
            slots[off] = idx;
        }
    }

    /// Drops every cached decode in the segment containing `addr`.
    /// Returns `false` when no tracked segment contains it. The pool
    /// keeps the stale entries (bounded garbage, same policy as the
    /// trace cache); only the slot mapping is reset.
    fn invalidate(&mut self, addr: u64) -> bool {
        match self.seg_of(addr) {
            Some(seg) => {
                self.segs[seg].2.fill(u32::MAX);
                true
            }
            None => false,
        }
    }
}

/// The emulator: CPU + address space + runtime + cost accounting.
pub struct Emu<R: Runtime> {
    /// Guest CPU state.
    pub cpu: Cpu,
    /// Guest address space.
    pub vm: Vm,
    /// The runtime servicing syscalls and access hooks.
    pub runtime: R,
    /// Cost model in effect.
    pub cost: CostModel,
    /// Accumulated counters.
    pub counters: Counters,
    icache: ICache,
    pub(crate) trace: crate::trace::TraceCache,
    trap_table: HashMap<u64, u64>,
    /// Dead-flag elision switch: when set, the flag helpers skip writing
    /// `cpu.flags`. Only the trace-linked backend sets it, and only
    /// around instructions whose flag outputs
    /// [`redfat_analysis::dead_flags_in_run`] proved unobservable.
    pub(crate) noflags: bool,
}

impl<R: Runtime> Emu<R> {
    /// Creates an emulator over an already-populated [`Vm`].
    ///
    /// Most callers use [`Emu::load_image`] instead.
    pub fn new(vm: Vm, runtime: R) -> Emu<R> {
        Emu {
            cpu: Cpu::default(),
            vm,
            runtime,
            cost: CostModel::default(),
            counters: Counters::default(),
            icache: ICache::default(),
            trace: crate::trace::TraceCache::default(),
            trap_table: HashMap::new(),
            noflags: false,
        }
    }

    /// See [`ICache::invalidate`]; the public entry point is
    /// [`Emu::invalidate_code`], which also drops the block cache.
    pub(crate) fn icache_invalidate(&mut self, addr: u64) -> bool {
        self.icache.invalidate(addr)
    }

    /// Registers an `int3` trap-table entry (normally discovered by the
    /// loader from the rewritten binary).
    pub fn add_trap(&mut self, addr: u64, target: u64) {
        self.trap_table.insert(addr, target);
    }

    /// Runs until exit, error or `max_steps` instructions on the step
    /// interpreter: the reference the translated tiers are audited
    /// against. End-to-end paths run [`Emu::run_backend`] on
    /// [`crate::ExecBackend::default`] instead.
    pub fn run(&mut self, max_steps: u64) -> RunResult {
        for _ in 0..max_steps {
            match self.step() {
                Ok(None) => {}
                Ok(Some(result)) => return result,
                Err(EmuError::AccessVetoed { error, .. }) => return RunResult::MemoryError(error),
                Err(e) => return RunResult::Error(e),
            }
        }
        RunResult::StepLimit
    }

    /// Effective address of a memory operand.
    #[inline]
    pub(crate) fn ea(&self, m: &Mem) -> u64 {
        if m.rip {
            // The decoder resolves RIP-relative displacements to absolute.
            return m.disp as u64;
        }
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.cpu.get(b));
        }
        if let Some(i) = m.index {
            a = a.wrapping_add(self.cpu.get(i).wrapping_mul(m.scale as u64));
        }
        a
    }

    #[inline]
    pub(crate) fn load(&mut self, m: &Mem, w: Width) -> Result<u64, EmuError> {
        let addr = self.ea(m);
        self.load_at(addr, w)
    }

    #[inline]
    fn load_at(&mut self, addr: u64, w: Width) -> Result<u64, EmuError> {
        let rip = self.cpu.rip;
        self.load_at_rip(addr, w, rip)
    }

    /// [`Emu::load_at`] with the fault-reporting `rip` passed explicitly,
    /// so callers that have not stored the architectural `rip` (the
    /// trace tier's fast paths) still report faults at the exact address
    /// `step()` would.
    #[inline]
    pub(crate) fn load_at_rip(&mut self, addr: u64, w: Width, rip: u64) -> Result<u64, EmuError> {
        let extra = self
            .runtime
            .on_memory_access(&self.vm, addr, w.bytes(), false, rip)
            .map_err(|error| EmuError::AccessVetoed { rip, error })?;
        self.counters.cycles += extra + self.cost.mem;
        self.counters.loads += 1;
        let wrap = |fault| EmuError::Fault { rip, fault };
        Ok(match w {
            Width::W8 => self.vm.read_u8(addr).map_err(wrap)? as u64,
            Width::W32 => self.vm.read_u32(addr).map_err(wrap)? as u64,
            Width::W64 => self.vm.read_u64(addr).map_err(wrap)?,
        })
    }

    #[inline]
    pub(crate) fn store(&mut self, m: &Mem, w: Width, v: u64) -> Result<(), EmuError> {
        let addr = self.ea(m);
        self.store_at(addr, w, v)
    }

    #[inline]
    fn store_at(&mut self, addr: u64, w: Width, v: u64) -> Result<(), EmuError> {
        let rip = self.cpu.rip;
        self.store_at_rip(addr, w, v, rip)
    }

    /// [`Emu::store_at`] with an explicit fault-reporting `rip`; see
    /// [`Emu::load_at_rip`].
    #[inline]
    pub(crate) fn store_at_rip(
        &mut self,
        addr: u64,
        w: Width,
        v: u64,
        rip: u64,
    ) -> Result<(), EmuError> {
        let extra = self
            .runtime
            .on_memory_access(&self.vm, addr, w.bytes(), true, rip)
            .map_err(|error| EmuError::AccessVetoed { rip, error })?;
        self.counters.cycles += extra + self.cost.mem;
        self.counters.stores += 1;
        let wrap = |fault| EmuError::Fault { rip, fault };
        match w {
            Width::W8 => self.vm.write_u8(addr, v as u8).map_err(wrap),
            Width::W32 => self.vm.write_u32(addr, v as u32).map_err(wrap),
            Width::W64 => self.vm.write_u64(addr, v).map_err(wrap),
        }
    }

    pub(crate) fn push64(&mut self, v: u64) -> Result<(), EmuError> {
        let rsp = self.cpu.get(Reg::Rsp).wrapping_sub(8);
        self.cpu.set(Reg::Rsp, rsp);
        self.store_at(rsp, Width::W64, v)
    }

    fn pop64(&mut self) -> Result<u64, EmuError> {
        let rsp = self.cpu.get(Reg::Rsp);
        let v = self.load_at(rsp, Width::W64)?;
        self.cpu.set(Reg::Rsp, rsp.wrapping_add(8));
        Ok(v)
    }

    /// Charges the cost of a control transfer and tracks trampoline
    /// region crossings.
    fn transfer_to(&mut self, target: u64) {
        self.counters.transfers += 1;
        self.counters.cycles += self.cost.transfer;
        if in_tramp(self.cpu.rip) != in_tramp(target) {
            self.counters.region_crossings += 1;
            self.counters.cycles += self.cost.cross_region;
        }
        self.cpu.rip = target;
    }

    /// Executes one instruction. Returns `Some(result)` on termination.
    pub fn step(&mut self) -> Result<Option<RunResult>, EmuError> {
        let rip = self.cpu.rip;
        let (inst, len) = match self.icache.lookup(rip) {
            Some(hit) => hit,
            None => {
                let bytes = self
                    .vm
                    .fetch(rip, 16)
                    .map_err(|fault| EmuError::Fault { rip, fault })?;
                let decoded =
                    decode_one(bytes, rip).map_err(|err| EmuError::Decode { rip, err })?;
                if self.icache.seg_of(rip).is_none() {
                    if let Some((base, size)) = self.vm.segment_span(rip) {
                        self.icache.add_seg(base, size);
                    }
                }
                self.icache.insert(rip, decoded);
                decoded
            }
        };

        self.counters.instructions += 1;
        self.counters.cycles += self.cost.base + self.cost.dbi_dispatch;
        let next = rip + len as u64;
        self.cpu.rip = next; // default fall-through; transfers override

        self.exec(&inst, rip, next)
    }

    #[inline]
    pub(crate) fn exec(
        &mut self,
        inst: &Inst,
        rip: u64,
        next: u64,
    ) -> Result<Option<RunResult>, EmuError> {
        use Operands as O;
        let w = inst.w;
        match (inst.op, &inst.operands) {
            // ---- mov family ----
            (Op::Mov, O::RR { dst, src }) => {
                let v = self.cpu.read(*src, w);
                self.cpu.write(*dst, w, v);
            }
            (Op::Mov, O::RM { dst, src }) => {
                let v = self.load(src, w)?;
                self.cpu.write(*dst, w, v);
            }
            (Op::Mov, O::MR { dst, src }) => {
                let v = self.cpu.read(*src, w);
                self.store(dst, w, v)?;
            }
            (Op::Mov, O::RI { dst, imm }) => self.cpu.write(*dst, w, *imm as u64),
            (Op::Mov, O::MI { dst, imm }) => self.store(dst, w, *imm as u64)?,
            (Op::Movzx8, O::RR { dst, src }) => {
                let v = self.cpu.read(*src, Width::W8);
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Movzx8, O::RM { dst, src }) => {
                let v = self.load(src, Width::W8)?;
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Movsx8, O::RR { dst, src }) => {
                let v = self.cpu.read(*src, Width::W8) as u8 as i8 as i64 as u64;
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Movsx8, O::RM { dst, src }) => {
                let v = self.load(src, Width::W8)? as u8 as i8 as i64 as u64;
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Movsxd, O::RR { dst, src }) => {
                let v = self.cpu.read(*src, Width::W32) as u32 as i32 as i64 as u64;
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Movsxd, O::RM { dst, src }) => {
                let v = self.load(src, Width::W32)? as u32 as i32 as i64 as u64;
                self.cpu.write(*dst, Width::W64, v);
            }
            (Op::Lea, O::RM { dst, src }) => {
                let a = self.ea(src);
                self.cpu.write(*dst, w, a);
            }

            // ---- ALU ----
            (Op::Alu(op), O::RR { dst, src }) => {
                let a = self.cpu.read(*dst, w);
                let b = self.cpu.read(*src, w);
                let r = self.alu(op, w, a, b);
                if op != AluOp::Cmp {
                    self.cpu.write(*dst, w, r);
                }
            }
            (Op::Alu(op), O::RM { dst, src }) => {
                let a = self.cpu.read(*dst, w);
                let b = self.load(src, w)?;
                let r = self.alu(op, w, a, b);
                if op != AluOp::Cmp {
                    self.cpu.write(*dst, w, r);
                }
            }
            (Op::Alu(op), O::MR { dst, src }) => {
                let m = *dst;
                let a = self.load(&m, w)?;
                let b = self.cpu.read(*src, w);
                let r = self.alu(op, w, a, b);
                if op != AluOp::Cmp {
                    self.store(&m, w, r)?;
                }
            }
            (Op::Alu(op), O::RI { dst, imm }) => {
                let a = self.cpu.read(*dst, w);
                let b = mask(*imm as u64, w);
                let r = self.alu(op, w, a, b);
                if op != AluOp::Cmp {
                    self.cpu.write(*dst, w, r);
                }
            }
            (Op::Alu(op), O::MI { dst, imm }) => {
                let m = *dst;
                let a = self.load(&m, w)?;
                let b = mask(*imm as u64, w);
                let r = self.alu(op, w, a, b);
                if op != AluOp::Cmp {
                    self.store(&m, w, r)?;
                }
            }
            (Op::Test, O::RR { dst, src }) => {
                let a = self.cpu.read(*dst, w);
                let b = self.cpu.read(*src, w);
                self.logic_flags(w, a & b);
            }
            (Op::Test, O::RI { dst, imm }) => {
                let a = self.cpu.read(*dst, w);
                self.logic_flags(w, a & mask(*imm as u64, w));
            }

            // ---- shifts ----
            (Op::Shift(op), O::RI { dst, imm }) => {
                let a = self.cpu.read(*dst, w);
                let r = self.shift(op, w, a, *imm as u32);
                self.cpu.write(*dst, w, r);
            }
            (Op::Shift(op), O::MI { dst, imm }) => {
                let m = *dst;
                let a = self.load(&m, w)?;
                let r = self.shift(op, w, a, *imm as u32);
                self.store(&m, w, r)?;
            }
            (Op::ShiftCl(op), O::R(r)) => {
                let c = (self.cpu.get(Reg::Rcx) & 0xFF) as u32;
                let a = self.cpu.read(*r, w);
                let v = self.shift(op, w, a, c);
                self.cpu.write(*r, w, v);
            }
            (Op::ShiftCl(op), O::M(m)) => {
                let mm = *m;
                let c = (self.cpu.get(Reg::Rcx) & 0xFF) as u32;
                let a = self.load(&mm, w)?;
                let v = self.shift(op, w, a, c);
                self.store(&mm, w, v)?;
            }

            // ---- multiply / divide ----
            (Op::Imul2, O::RR { dst, src }) => {
                let a = self.cpu.read(*dst, w);
                let b = self.cpu.read(*src, w);
                let r = self.imul_flags(w, a, b);
                self.cpu.write(*dst, w, r);
                self.counters.cycles += self.cost.mul;
            }
            (Op::Imul2, O::RM { dst, src }) => {
                let a = self.cpu.read(*dst, w);
                let b = self.load(src, w)?;
                let r = self.imul_flags(w, a, b);
                self.cpu.write(*dst, w, r);
                self.counters.cycles += self.cost.mul;
            }
            (Op::Imul3, O::RRI { dst, src, imm }) => {
                let b = self.cpu.read(*src, w);
                let r = self.imul_flags(w, b, mask(*imm as u64, w));
                self.cpu.write(*dst, w, r);
                self.counters.cycles += self.cost.mul;
            }
            (Op::Imul3, O::RMI { dst, src, imm }) => {
                let b = self.load(src, w)?;
                let r = self.imul_flags(w, b, mask(*imm as u64, w));
                self.cpu.write(*dst, w, r);
                self.counters.cycles += self.cost.mul;
            }
            (Op::MulDiv(op), operands) => {
                let src = match operands {
                    O::R(r) => self.cpu.read(*r, w),
                    O::M(m) => self.load(m, w)?,
                    _ => unreachable!("encoder forbids"),
                };
                self.muldiv(op, w, src, rip)?;
            }
            (Op::Neg, O::R(r)) => {
                let a = self.cpu.read(*r, w);
                let v = self.alu(AluOp::Sub, w, 0, a);
                self.cpu.write(*r, w, v);
                if !self.noflags {
                    self.cpu.flags.cf = a != 0;
                }
            }
            (Op::Neg, O::M(m)) => {
                let mm = *m;
                let a = self.load(&mm, w)?;
                let v = self.alu(AluOp::Sub, w, 0, a);
                self.store(&mm, w, v)?;
                self.cpu.flags.cf = a != 0;
            }
            (Op::Not, O::R(r)) => {
                let a = self.cpu.read(*r, w);
                self.cpu.write(*r, w, !a);
            }
            (Op::Not, O::M(m)) => {
                let mm = *m;
                let a = self.load(&mm, w)?;
                self.store(&mm, w, !a)?;
            }
            (Op::Cqo, O::None) => {
                if w == Width::W64 {
                    let v = ((self.cpu.get(Reg::Rax) as i64) >> 63) as u64;
                    self.cpu.set(Reg::Rdx, v);
                } else {
                    let v = ((self.cpu.read(Reg::Rax, Width::W32) as i32) >> 31) as u32;
                    self.cpu.write(Reg::Rdx, Width::W32, v as u64);
                }
            }

            // ---- stack ----
            (Op::Push, O::R(r)) => {
                let v = self.cpu.get(*r);
                self.push64(v)?;
            }
            (Op::Push, O::M(m)) => {
                let v = self.load(m, Width::W64)?;
                self.push64(v)?;
            }
            (Op::Pop, O::R(r)) => {
                let v = self.pop64()?;
                self.cpu.set(*r, v);
            }
            (Op::Pop, O::M(m)) => {
                let v = self.pop64()?;
                self.store(m, Width::W64, v)?;
            }
            (Op::Pushfq, O::None) => {
                let v = self.cpu.flags.to_rflags();
                self.push64(v)?;
            }
            (Op::Popfq, O::None) => {
                let v = self.pop64()?;
                self.cpu.flags = crate::cpu::Flags::from_rflags(v);
            }

            // ---- control flow ----
            (Op::Call, O::Rel(t)) => {
                self.push64(next)?;
                self.transfer_to(*t);
            }
            (Op::CallInd, ops) => {
                let t = match ops {
                    O::R(r) => self.cpu.get(*r),
                    O::M(m) => self.load(m, Width::W64)?,
                    _ => unreachable!("encoder forbids"),
                };
                self.push64(next)?;
                self.transfer_to(t);
            }
            (Op::Ret, O::None) => {
                let t = self.pop64()?;
                self.transfer_to(t);
            }
            (Op::Jmp, O::Rel(t)) => self.transfer_to(*t),
            (Op::JmpInd, ops) => {
                let t = match ops {
                    O::R(r) => self.cpu.get(*r),
                    O::M(m) => self.load(m, Width::W64)?,
                    _ => unreachable!("encoder forbids"),
                };
                self.transfer_to(t);
            }
            (Op::Jcc(c), O::Rel(t)) => {
                if self.cpu.flags.cond(c) {
                    self.counters.taken_branches += 1;
                    self.counters.cycles += self.cost.branch_taken;
                    // Track trampoline crossings on conditional jumps too.
                    let saved = self.counters.transfers;
                    self.transfer_to(*t);
                    self.counters.transfers = saved; // not an uncond transfer
                    self.counters.cycles -= self.cost.transfer;
                }
            }
            (Op::Setcc(c), O::R(r)) => {
                let v = self.cpu.flags.cond(c) as u64;
                self.cpu.write(*r, Width::W8, v);
            }
            (Op::Setcc(c), O::M(m)) => {
                let v = self.cpu.flags.cond(c) as u64;
                self.store(m, Width::W8, v)?;
            }
            (Op::Cmovcc(c), O::RR { dst, src }) => {
                if self.cpu.flags.cond(c) {
                    let v = self.cpu.read(*src, w);
                    self.cpu.write(*dst, w, v);
                } else if w == Width::W32 {
                    // cmov always writes the destination at 32-bit width
                    // (zero-extending) even when the move is suppressed.
                    let v = self.cpu.read(*dst, Width::W32);
                    self.cpu.write(*dst, Width::W32, v);
                }
            }
            (Op::Cmovcc(c), O::RM { dst, src }) => {
                // The load happens regardless of the condition on real
                // hardware; preserve that for fault behavior.
                let v = self.load(src, w)?;
                if self.cpu.flags.cond(c) {
                    self.cpu.write(*dst, w, v);
                }
            }

            // ---- system ----
            (Op::Syscall, O::None) => {
                self.counters.syscalls += 1;
                self.counters.cycles += self.cost.syscall;
                match self.runtime.syscall(&mut self.cpu, &mut self.vm) {
                    SyscallOutcome::Continue => {}
                    SyscallOutcome::Exit(code) => return Ok(Some(RunResult::Exited(code))),
                    SyscallOutcome::Abort(err) => return Ok(Some(RunResult::MemoryError(err))),
                }
            }
            (Op::Ud2, O::None) => return Err(EmuError::Ud2 { rip }),
            (Op::Int3, O::None) => match self.trap_table.get(&rip) {
                Some(&target) => {
                    self.counters.int3_traps += 1;
                    self.counters.cycles += self.cost.int3_trap;
                    self.transfer_to(target);
                }
                None => return Err(EmuError::UnhandledInt3 { rip }),
            },
            (Op::Nop, O::None) => {}

            _ => {
                return Err(EmuError::Decode {
                    rip,
                    err: DecodeError::UnsupportedOpcode(0),
                })
            }
        }
        Ok(None)
    }

    // ---- flag helpers ----

    pub(crate) fn alu(&mut self, op: AluOp, w: Width, a: u64, b: u64) -> u64 {
        if self.noflags {
            return alu_value(op, w, a, b);
        }
        let m = width_mask(w);
        let sign = sign_bit(w);
        match op {
            AluOp::Add => {
                let r = a.wrapping_add(b) & m;
                self.cpu.flags.cf = r < a;
                self.cpu.flags.of = ((a ^ r) & (b ^ r) & sign) != 0;
                self.result_flags(w, r);
                r
            }
            AluOp::Sub | AluOp::Cmp => {
                let r = a.wrapping_sub(b) & m;
                self.cpu.flags.cf = a < b;
                self.cpu.flags.of = ((a ^ b) & (a ^ r) & sign) != 0;
                self.result_flags(w, r);
                r
            }
            AluOp::And => {
                let r = a & b;
                self.logic_flags(w, r);
                r
            }
            AluOp::Or => {
                let r = a | b;
                self.logic_flags(w, r);
                r
            }
            AluOp::Xor => {
                let r = a ^ b;
                self.logic_flags(w, r);
                r
            }
        }
    }

    pub(crate) fn logic_flags(&mut self, w: Width, r: u64) {
        if self.noflags {
            return;
        }
        self.cpu.flags.cf = false;
        self.cpu.flags.of = false;
        self.result_flags(w, r);
    }

    fn result_flags(&mut self, w: Width, r: u64) {
        if self.noflags {
            return;
        }
        let r = r & width_mask(w);
        self.cpu.flags.zf = r == 0;
        self.cpu.flags.sf = r & sign_bit(w) != 0;
        self.cpu.flags.pf = (r as u8).count_ones().is_multiple_of(2);
    }

    pub(crate) fn shift(&mut self, op: ShiftOp, w: Width, a: u64, count: u32) -> u64 {
        if self.noflags {
            return shift_value(op, w, a, count);
        }
        let bits = w.bits();
        let c = count & if w == Width::W64 { 63 } else { 31 };
        if c == 0 {
            return a & width_mask(w);
        }
        let m = width_mask(w);
        let r = match op {
            ShiftOp::Shl => {
                self.cpu.flags.cf = c <= bits && (a >> (bits - c)) & 1 != 0;
                (a << c) & m
            }
            ShiftOp::Shr => {
                self.cpu.flags.cf = (a >> (c - 1)) & 1 != 0;
                (a & m) >> c
            }
            ShiftOp::Sar => {
                self.cpu.flags.cf = (a >> (c - 1)) & 1 != 0;
                let signed = sign_extend(a, w);
                ((signed >> c.min(63)) as u64) & m
            }
        };
        self.result_flags(w, r);
        // OF definition matters only for c == 1; approximate the
        // architectural value.
        self.cpu.flags.of = match op {
            ShiftOp::Shl => ((r & sign_bit(w)) != 0) != self.cpu.flags.cf,
            ShiftOp::Shr => a & sign_bit(w) != 0,
            ShiftOp::Sar => false,
        };
        r
    }

    pub(crate) fn imul_flags(&mut self, w: Width, a: u64, b: u64) -> u64 {
        let sa = sign_extend(a, w) as i128;
        let sb = sign_extend(b, w) as i128;
        let full = sa * sb;
        let r = (full as u64) & width_mask(w);
        if self.noflags {
            return r;
        }
        let fits = sign_extend(r, w) as i128 == full;
        self.cpu.flags.cf = !fits;
        self.cpu.flags.of = !fits;
        self.result_flags(w, r);
        r
    }

    // Real hardware leaves most flags *undefined* after mul/div. This
    // substrate must pick concrete values, and they must constitute a
    // full rewrite: `Inst::writes_flags` reports mul/div as flag
    // writers, so the liveness analysis lets instrumentation trash the
    // flags right before one. Partially preserving them here would leak
    // that trash through -- result_flags() pins every bit.
    pub(crate) fn muldiv(
        &mut self,
        op: MulDivOp,
        w: Width,
        src: u64,
        rip: u64,
    ) -> Result<(), EmuError> {
        match op {
            MulDivOp::Mul => {
                self.counters.cycles += self.cost.mul;
                match w {
                    Width::W64 => {
                        let full = self.cpu.get(Reg::Rax) as u128 * src as u128;
                        self.cpu.set(Reg::Rax, full as u64);
                        self.cpu.set(Reg::Rdx, (full >> 64) as u64);
                        let hi = (full >> 64) as u64;
                        self.result_flags(w, full as u64);
                        self.cpu.flags.cf = hi != 0;
                        self.cpu.flags.of = hi != 0;
                    }
                    _ => {
                        let full = self.cpu.read(Reg::Rax, Width::W32) * (src & 0xFFFF_FFFF);
                        self.cpu.write(Reg::Rax, Width::W32, full & 0xFFFF_FFFF);
                        self.cpu.write(Reg::Rdx, Width::W32, full >> 32);
                        self.result_flags(w, full & 0xFFFF_FFFF);
                        self.cpu.flags.cf = full >> 32 != 0;
                        self.cpu.flags.of = full >> 32 != 0;
                    }
                }
            }
            MulDivOp::Div => {
                self.counters.cycles += self.cost.div;
                if src == 0 {
                    return Err(EmuError::DivideError { rip });
                }
                match w {
                    Width::W64 => {
                        let dividend = ((self.cpu.get(Reg::Rdx) as u128) << 64)
                            | self.cpu.get(Reg::Rax) as u128;
                        let q = dividend / src as u128;
                        if q > u64::MAX as u128 {
                            return Err(EmuError::DivideError { rip });
                        }
                        self.cpu.set(Reg::Rax, q as u64);
                        self.cpu.set(Reg::Rdx, (dividend % src as u128) as u64);
                        self.logic_flags(w, q as u64);
                    }
                    _ => {
                        let dividend = (self.cpu.read(Reg::Rdx, Width::W32) << 32)
                            | self.cpu.read(Reg::Rax, Width::W32);
                        let d = src & 0xFFFF_FFFF;
                        let q = dividend / d;
                        if q > u32::MAX as u64 {
                            return Err(EmuError::DivideError { rip });
                        }
                        self.cpu.write(Reg::Rax, Width::W32, q);
                        self.cpu.write(Reg::Rdx, Width::W32, dividend % d);
                        self.logic_flags(w, q);
                    }
                }
            }
            MulDivOp::Idiv => {
                self.counters.cycles += self.cost.div;
                if src == 0 {
                    return Err(EmuError::DivideError { rip });
                }
                match w {
                    Width::W64 => {
                        let dividend = (((self.cpu.get(Reg::Rdx) as u128) << 64)
                            | self.cpu.get(Reg::Rax) as u128)
                            as i128;
                        let divisor = src as i64 as i128;
                        let q = dividend.wrapping_div(divisor);
                        if q > i64::MAX as i128 || q < i64::MIN as i128 {
                            return Err(EmuError::DivideError { rip });
                        }
                        self.cpu.set(Reg::Rax, q as u64);
                        self.cpu
                            .set(Reg::Rdx, dividend.wrapping_rem(divisor) as u64);
                        self.logic_flags(w, q as u64);
                    }
                    _ => {
                        let dividend = ((self.cpu.read(Reg::Rdx, Width::W32) << 32
                            | self.cpu.read(Reg::Rax, Width::W32))
                            as i64) as i128;
                        let divisor = src as u32 as i32 as i128;
                        let q = dividend.wrapping_div(divisor);
                        if q > i32::MAX as i128 || q < i32::MIN as i128 {
                            return Err(EmuError::DivideError { rip });
                        }
                        self.cpu.write(Reg::Rax, Width::W32, q as u64);
                        self.cpu
                            .write(Reg::Rdx, Width::W32, dividend.wrapping_rem(divisor) as u64);
                        self.logic_flags(w, q as u64);
                    }
                }
            }
        }
        Ok(())
    }
}

/// `true` when `a` lies in the trampoline region (used for the
/// region-crossing cost; shared with the trace-linked backend's inline
/// exit handling).
#[inline]
pub(crate) fn in_tramp(a: u64) -> bool {
    (layout::TRAMPOLINE_BASE..layout::STACK_TOP).contains(&a)
}

/// The pure value an ALU operation computes, without flag effects. The
/// trace-linked backend's specialized entries use this for operations
/// whose flags were proven dead ([`Emu::alu`] stays the single source of
/// truth for flag semantics).
#[inline]
pub(crate) fn alu_value(op: AluOp, w: Width, a: u64, b: u64) -> u64 {
    let m = width_mask(w);
    match op {
        AluOp::Add => a.wrapping_add(b) & m,
        AluOp::Sub | AluOp::Cmp => a.wrapping_sub(b) & m,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
    }
}

/// The pure value a constant-count shift computes (count already known
/// nonzero after masking), without flag effects.
#[inline]
pub(crate) fn shift_value(op: ShiftOp, w: Width, a: u64, count: u32) -> u64 {
    let c = count & if w == Width::W64 { 63 } else { 31 };
    let m = width_mask(w);
    if c == 0 {
        return a & m;
    }
    match op {
        ShiftOp::Shl => (a << c) & m,
        ShiftOp::Shr => (a & m) >> c,
        ShiftOp::Sar => ((sign_extend(a, w) >> c.min(63)) as u64) & m,
    }
}

#[inline]
pub(crate) fn width_mask(w: Width) -> u64 {
    match w {
        Width::W8 => 0xFF,
        Width::W32 => 0xFFFF_FFFF,
        Width::W64 => u64::MAX,
    }
}

#[inline]
fn sign_bit(w: Width) -> u64 {
    match w {
        Width::W8 => 0x80,
        Width::W32 => 0x8000_0000,
        Width::W64 => 0x8000_0000_0000_0000,
    }
}

#[inline]
fn sign_extend(v: u64, w: Width) -> i64 {
    match w {
        Width::W8 => v as u8 as i8 as i64,
        Width::W32 => v as u32 as i32 as i64,
        Width::W64 => v as i64,
    }
}

#[inline]
fn mask(v: u64, w: Width) -> u64 {
    v & width_mask(w)
}
