//! The guest runner: every run of the §5 workflow (profiling,
//! allow-list collection, the hardened run) and every experiment goes
//! through [`run`].

use redfat_elf::Image;
use redfat_emu::{
    AllocPolicyKind, Counters, Emu, ErrorMode, ExecBackend, GuestIo, HostRuntime, LoadError,
    MemoryError, ProfileStats, RunResult, TraceStats,
};
use std::collections::HashMap;

/// What to run an image with. Build one with [`RunSpec::new`] and set
/// `backend` or `policy` with struct-update syntax.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Values the guest reads with `input()`.
    pub input: Vec<i64>,
    /// Abort on the first memory error (hardening) or log and continue
    /// (bug finding, profiling).
    pub mode: ErrorMode,
    /// Execution backend. Counters, I/O, reported errors and profiles
    /// are backend-independent (the translated tiers are audited
    /// against `step` by the selftest backend oracle); only wall-clock
    /// time and [`RunOutcome::trace_stats`] differ.
    pub backend: ExecBackend,
    /// Allocator policy backing the runtime heap (the `--alloc-policy`
    /// knob). The hardened image is policy-independent; only the
    /// runtime's placement decisions change.
    pub policy: AllocPolicyKind,
    /// Step budget.
    pub max_steps: u64,
}

impl RunSpec {
    /// A spec on the default backend ([`ExecBackend::default`], the
    /// fast tier) and the default allocator policy.
    pub fn new(input: Vec<i64>, mode: ErrorMode, max_steps: u64) -> RunSpec {
        RunSpec {
            input,
            mode,
            backend: ExecBackend::default(),
            policy: AllocPolicyKind::default(),
            max_steps,
        }
    }
}

/// Everything a single guest run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// How the run ended.
    pub result: RunResult,
    /// Instruction/cycle counters (the performance metric).
    pub counters: Counters,
    /// Guest I/O streams.
    pub io: GuestIo,
    /// Memory errors reported by instrumentation.
    pub errors: Vec<MemoryError>,
    /// Per-site profiling counters (profiling binaries only).
    pub profile: HashMap<u64, ProfileStats>,
    /// Translation-cache counters (all zero under the step backend).
    pub trace_stats: TraceStats,
}

impl RunOutcome {
    /// `true` if the run exited cleanly with status 0.
    pub fn ok(&self) -> bool {
        matches!(self.result, RunResult::Exited(0))
    }
}

/// Loads `image` under the standard RedFat runtime, runs it as `spec`
/// says, and collects the outcome. A malformed image yields the
/// loader's structured error.
pub fn run(image: &Image, spec: RunSpec) -> Result<RunOutcome, LoadError> {
    let runtime = HostRuntime::with_policy(spec.mode, spec.policy).with_input(spec.input);
    let mut emu = Emu::load_image(image, runtime)?;
    let result = emu.run_backend(spec.backend, spec.max_steps);
    let trace_stats = emu.trace_stats();
    Ok(RunOutcome {
        result,
        counters: emu.counters,
        io: emu.runtime.io,
        errors: emu.runtime.errors,
        profile: emu.runtime.profile,
        trace_stats,
    })
}
