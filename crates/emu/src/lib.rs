//! An x86-64 subset emulator over the simulated address space.
//!
//! This is the reproduction's "CPU": it executes the machine code produced
//! by the assembler / mini-C compiler -- original or rewritten -- against
//! a [`redfat_vm::Vm`], with:
//!
//! * faithful flags semantics for the modeled instruction subset;
//! * a `syscall` trap into a pluggable [`Runtime`] (the `malloc`/`free`/
//!   IO/profiling interface; swapping runtimes is the reproduction's
//!   `LD_PRELOAD` analogue);
//! * a transparent **cost model** ([`CostModel`]) whose cycle counter is
//!   the performance metric of the experiments: slowdowns in the Table 1
//!   reproduction are ratios of modeled cycles, so the overhead of
//!   instrumentation *emerges* from the extra instructions the rewriter
//!   inserted rather than being assumed;
//! * support for the rewriter's `int3` fallback patch tactic via an
//!   in-binary trap table (see [`TRAP_TABLE_MAGIC`]);
//! * a per-access hook on [`Runtime`] so that DBI-style tools (the
//!   Memcheck baseline) can interpose on every load/store exactly as
//!   dynamic binary instrumentation would.
//!
//! Self-modifying guest code is unsupported (instructions are decode-
//! cached), mirroring E9Patch's documented limitation (paper §7.4).
// Emulator failures must be structured (`EmuError`, `LoadError`,
// `RunResult`), never panics: the emulator runs attacker-influenced
// guest images inside a long-running daemon.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cost;
mod cpu;
mod exec;
mod loader;
mod runtime;
mod trace;

pub use cost::{CostModel, Counters, TraceStats};
pub use cpu::{Cpu, Flags};
pub use exec::{Emu, EmuError, RunResult, TRAP_TABLE_MAGIC};
pub use loader::{stub_image, LoadError, MAX_LOAD_BYTES};
pub use runtime::{
    syscalls, ErrorMode, GuestIo, HostRuntime, MemErrKind, MemoryError, ProfileStats, Runtime,
    SyscallOutcome,
};
pub use trace::{ExecBackend, TRACE_CAP};

/// Re-exported so runtime constructors can name a policy without
/// depending on `redfat-lowfat` directly.
pub use redfat_lowfat::AllocPolicyKind;
