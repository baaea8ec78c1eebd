//! End-to-end backend equivalence on the stand-ins, in the two modes
//! the differential self-test does not cover: abort mode (what
//! `redfat run` does by default; the self-test runs in log mode) and
//! observer mode (a runtime with a memory-access hook, which the fast
//! tier serves on its trace-tier path).

use redfat_core::{harden, try_run_backend, HardenConfig, LowFatPolicy, RunOutcome};
use redfat_emu::{Emu, ErrorMode, ExecBackend, RunResult};
use redfat_memcheck::MemcheckRuntime;
use redfat_workloads::spec;

const MAX_STEPS: u64 = 100_000_000;

/// Train-sized input with the planted-error mode switched on.
fn error_input(name: &str) -> Vec<i64> {
    let wl = spec::by_name(name).expect("known stand-in");
    assert!(wl.planted_errors > 0, "{name} has planted errors");
    vec![wl.train_input[0], 1]
}

#[test]
fn abort_mode_stops_identically_on_step_and_fast() {
    for name in ["calculix", "wrf"] {
        let image = spec::by_name(name).unwrap().image();
        let hardened = harden(&image, &HardenConfig::with_redundant(LowFatPolicy::All)).unwrap();
        let run = |backend| -> RunOutcome {
            try_run_backend(
                &hardened.image,
                error_input(name),
                ErrorMode::Abort,
                backend,
                MAX_STEPS,
            )
            .unwrap()
        };
        let step = run(ExecBackend::Step);
        let fast = run(ExecBackend::Fast);
        assert!(
            matches!(step.result, RunResult::MemoryError(_)),
            "{name}: expected an abort, got {:?}",
            step.result
        );
        assert_eq!(step.result, fast.result, "{name}: run results differ");
        assert_eq!(step.counters, fast.counters, "{name}: counters differ");
        assert_eq!(step.errors, fast.errors, "{name}: error reports differ");
        assert_eq!(step.io.out_ints, fast.io.out_ints, "{name}: output differs");
        assert_eq!(
            step.io.out_bytes, fast.io.out_bytes,
            "{name}: output differs"
        );
        assert_eq!(step.trace_stats.misses, 0, "{name}: step built traces");
        assert!(fast.trace_stats.misses > 0, "{name}: fast built no traces");
    }
}

#[test]
fn memcheck_observer_runs_identically_on_step_and_fast() {
    let name = "calculix";
    let image = spec::by_name(name).unwrap().image();
    let run = |backend| {
        let rt = MemcheckRuntime::new(ErrorMode::Log).with_input(error_input(name));
        let mut emu = Emu::load_image(&image, rt).unwrap();
        emu.cost = MemcheckRuntime::cost_model();
        let r = emu.run_backend(backend, MAX_STEPS);
        (r, emu)
    };
    let (rs, step) = run(ExecBackend::Step);
    let (rf, fast) = run(ExecBackend::Fast);
    assert_eq!(rs, RunResult::Exited(0));
    assert_eq!(rs, rf);
    assert_eq!(step.counters, fast.counters, "counters differ");
    assert!(!step.runtime.errors.is_empty(), "memcheck saw no errors");
    assert_eq!(
        step.runtime.errors, fast.runtime.errors,
        "error lists differ"
    );
    assert_eq!(
        step.runtime.inner.io.digest(),
        fast.runtime.inner.io.digest()
    );
    assert!(fast.trace_stats().misses > 0, "fast built no traces");
}
