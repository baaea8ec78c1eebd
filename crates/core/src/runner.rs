//! Convenience runner used by tests, examples and the experiment
//! harness.

use redfat_elf::Image;
use redfat_emu::{
    Counters, Emu, ErrorMode, ExecBackend, GuestIo, HostRuntime, LoadError, MemoryError,
    ProfileStats, RunResult, TraceStats,
};
use std::collections::HashMap;

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

/// Loads `image`, runs it with the given input under the standard
/// RedFat runtime on the default execution backend
/// ([`ExecBackend::default`], the fast tier), and collects the outcome.
///
/// `mode` selects abort-on-error (hardening) or log-and-continue
/// (bug finding / profiling).
pub fn run_once(image: &Image, input: Vec<i64>, mode: ErrorMode, max_steps: u64) -> RunOutcome {
    // Safety of the expect: `run_once` is the documented panic-on-
    // malformed-image convenience for tests and experiments; services
    // and fault-tolerant callers use `try_run_once`.
    #[allow(clippy::expect_used)]
    try_run_once(image, input, mode, max_steps).expect("image loads")
}

/// [`run_once`] for images that may not load: a malformed image yields
/// the loader's structured error instead of a panic.
pub fn try_run_once(
    image: &Image,
    input: Vec<i64>,
    mode: ErrorMode,
    max_steps: u64,
) -> Result<RunOutcome, LoadError> {
    try_run_backend(image, input, mode, ExecBackend::default(), max_steps)
}

/// [`try_run_once`] on an explicit execution backend: `step` (the
/// reference interpreter) or a translated tier. Counters, I/O,
/// reported errors and profiles are backend-independent (the
/// translated tiers are audited against `step` by the selftest
/// backend oracle); only wall-clock time and [`RunOutcome::trace_stats`]
/// differ.
pub fn try_run_backend(
    image: &Image,
    input: Vec<i64>,
    mode: ErrorMode,
    backend: ExecBackend,
    max_steps: u64,
) -> Result<RunOutcome, LoadError> {
    try_run_backend_policy(
        image,
        input,
        mode,
        backend,
        max_steps,
        redfat_emu::AllocPolicyKind::default(),
    )
}

/// [`try_run_backend`] with the runtime heap backed by an explicit
/// allocator policy (the `--alloc-policy` knob). The hardened image is
/// policy-independent; only the runtime's placement decisions change.
pub fn try_run_backend_policy(
    image: &Image,
    input: Vec<i64>,
    mode: ErrorMode,
    backend: ExecBackend,
    max_steps: u64,
    policy: redfat_emu::AllocPolicyKind,
) -> Result<RunOutcome, LoadError> {
    let runtime = HostRuntime::with_policy(mode, policy).with_input(input);
    let mut emu = Emu::load_image(image, runtime)?;
    let result = emu.run_backend(backend, max_steps);
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
