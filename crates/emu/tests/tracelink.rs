//! Translated-tier tests: the trace-linked and fast backends must stay
//! observationally identical to the step interpreter -- same run
//! result, same counters (including modeled cycles), same final CPU
//! state -- across the block-cache shapes (loops, one-instruction
//! blocks, jumps into the middle of an already-decoded run, straight-line
//! runs longer than [`TRACE_CAP`], trampoline region crossings) and the
//! trace machinery (direct-exit chaining, indirect-branch inline caches,
//! cross-segment traces, segment invalidation mid-loop, and step budgets
//! that expire inside a trace).

use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{syscalls, Emu, ErrorMode, ExecBackend, HostRuntime, RunResult, TRACE_CAP};
use redfat_vm::{layout, Prot};
use redfat_x86::{AluOp, Asm, Cond, Mem, Reg, Width};

/// Two-phase workload exercising every link kind. Phase 1 is a
/// single-trace spin loop (the loop-closing `jne` is a direct terminal,
/// so iterations chain through `link_taken`). Phase 2 calls a helper in
/// the *trampoline segment* through a register-indirect call: the
/// `call` and the helper's `ret` both exit through inline caches, and
/// the helper's trace depends on the trampoline segment alone, so
/// invalidating that segment strands it while the main-segment traces
/// holding IC entries to it stay live. Exits with rdi = 1800.
fn cross_segment_loop() -> (Image, i64) {
    let mut a = Asm::new(layout::CODE_BASE);
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    // Phase 1: direct chaining.
    a.mov_ri(Width::W64, Reg::Rbx, 300);
    let spin = a.label();
    a.bind(spin).unwrap();
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
    a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
    a.jcc_label(Cond::Ne, spin);
    // Phase 2: inline-cached indirect call into the trampoline segment.
    a.mov_ri(Width::W64, Reg::Rbx, 500);
    a.mov_ri(Width::W64, Reg::Rsi, layout::TRAMPOLINE_BASE as i64);
    let head = a.label();
    a.bind(head).unwrap();
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 2);
    a.call_ind_r(Reg::Rsi);
    a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
    a.jcc_label(Cond::Ne, head);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let main = a.finish().unwrap();

    let mut t = Asm::new(layout::TRAMPOLINE_BASE);
    t.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
    t.ret();
    let tramp = t.finish().unwrap();

    let image = Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![
            Segment::new(main.base, SegFlags::RX, main.bytes),
            Segment::new(tramp.base, SegFlags::RX, tramp.bytes),
        ],
        symbols: vec![],
    };
    (image, 300 + 500 * 3)
}

fn load(image: &Image) -> Emu<HostRuntime> {
    Emu::load_image(image, HostRuntime::new(ErrorMode::Log)).expect("loads")
}

/// Architectural snapshot compared between backends.
fn snap(emu: &Emu<HostRuntime>) -> (u64, i64, i64, redfat_emu::Counters) {
    (
        emu.cpu.rip,
        emu.cpu.get(Reg::Rdi) as i64,
        emu.cpu.get(Reg::Rbx) as i64,
        emu.counters,
    )
}

#[test]
fn chained_run_matches_step_and_uses_every_link_kind() {
    let (image, expect) = cross_segment_loop();
    let mut step = load(&image);
    let rs = step.run_backend(ExecBackend::Step, 1_000_000);
    let mut trace = load(&image);
    let rt = trace.run_backend(ExecBackend::Trace, 1_000_000);
    assert_eq!(rs, RunResult::Exited(expect));
    assert_eq!(rt, RunResult::Exited(expect));
    assert_eq!(snap(&step), snap(&trace), "architectural state differs");

    // The observability counters prove the tier actually engaged.
    let s = trace.trace_stats();
    assert!(s.chain_follows > 0, "direct chaining never fired: {s}");
    assert!(s.ic_hits > 0, "inline caches never hit: {s}");
    assert_eq!(s.invalidations, 0);
    assert_eq!(s.links_severed, 0);
    // The step backend touches no translation machinery at all.
    let s = step.trace_stats();
    assert_eq!((s.hits, s.misses, s.chain_follows, s.ic_hits), (0, 0, 0, 0));
}

#[test]
fn invalidation_severs_links_and_inline_caches_mid_loop() {
    let (image, expect) = cross_segment_loop();
    // Stop mid-way through the indirect-call loop, once chaining and
    // the inline caches are warm.
    let mut emu = load(&image);
    assert_eq!(
        emu.run_backend(ExecBackend::Trace, 2500),
        RunResult::StepLimit
    );
    let before = emu.trace_stats();
    assert!(before.chain_follows > 0 && before.ic_hits > 0, "{before}");
    assert_eq!(before.invalidations, 0);

    // Bump the trampoline segment's version. The helper's trace is
    // stranded; the main-segment traces stay reachable but their IC
    // entries (and any link into the trampoline) must be severed on
    // the next follow, not silently executed stale.
    assert!(emu.invalidate_code(layout::TRAMPOLINE_BASE));
    assert!(!emu.invalidate_code(0xdead_0000), "untracked address");
    assert_eq!(
        emu.run_backend(ExecBackend::Trace, 1_000_000),
        RunResult::Exited(expect)
    );
    let after = emu.trace_stats();
    assert_eq!(after.invalidations, 1);
    assert!(
        after.links_severed > before.links_severed,
        "stale links/IC entries were not severed: {after}"
    );
    assert!(
        after.misses > before.misses,
        "stranded traces were not rebuilt"
    );

    // Counter equivalence must hold across the invalidation: the whole
    // interrupted-invalidated-resumed run retires exactly what one
    // uninterrupted step() run does.
    let mut step = load(&image);
    step.run_backend(ExecBackend::Step, 1_000_000);
    assert_eq!(
        snap(&step),
        snap(&emu),
        "state diverged across invalidation"
    );
}

/// Spin loop whose body stores and loads through the same data word, so
/// the fast tier resolves both operands via host-pointer [`MemSlot`]s
/// baked into the trace. Exits with rdi = sum(1..=600).
///
/// [`MemSlot`]: redfat_vm::MemSlot
fn mem_loop() -> (Image, i64) {
    let mut a = Asm::new(layout::CODE_BASE);
    a.mov_ri(Width::W64, Reg::Rdi, 0);
    a.mov_ri(Width::W64, Reg::Rsi, layout::GLOBALS_BASE as i64);
    a.mov_ri(Width::W64, Reg::Rbx, 600);
    let spin = a.label();
    a.bind(spin).unwrap();
    a.mov_mr(Width::W64, Mem::base(Reg::Rsi), Reg::Rbx);
    a.alu_rm(AluOp::Add, Width::W64, Reg::Rdi, Mem::base(Reg::Rsi));
    a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
    a.jcc_label(Cond::Ne, spin);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let p = a.finish().unwrap();
    let image = Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![
            Segment::new(p.base, SegFlags::RX, p.bytes),
            Segment::new(layout::GLOBALS_BASE, SegFlags::RW, vec![0; 4096]),
        ],
        symbols: vec![],
    };
    (image, 600 * 601 / 2)
}

#[test]
fn self_modifying_invalidation_severs_host_pointer_cache() {
    let (image, expect) = mem_loop();
    // Warm the fast tier: the spin trace is built and its MemSlots are
    // filled by the first iterations.
    let mut emu = load(&image);
    assert_eq!(
        emu.run_backend(ExecBackend::Fast, 500),
        RunResult::StepLimit
    );
    let before = emu.trace_stats();
    assert!(before.hits > 0, "fast tier never reused a trace: {before}");

    // Model a self-modifying write to the loop body. The trace -- and
    // with it every baked host-pointer slot -- must be dropped, not
    // consulted stale; the rebuild re-resolves the operands.
    assert!(emu.invalidate_code(layout::CODE_BASE));
    assert_eq!(
        emu.run_backend(ExecBackend::Fast, 1_000_000),
        RunResult::Exited(expect)
    );
    let after = emu.trace_stats();
    assert_eq!(after.invalidations, 1);
    assert!(after.misses > before.misses, "trace was not rebuilt");

    // The interrupted-invalidated-resumed fast run must land on the
    // uninterrupted step() state bit for bit, counters included.
    let mut step = load(&image);
    assert_eq!(
        step.run_backend(ExecBackend::Step, 1_000_000),
        RunResult::Exited(expect)
    );
    assert_eq!(
        snap(&step),
        snap(&emu),
        "state diverged across invalidation"
    );
}

#[test]
fn segment_remap_forces_slow_path_fallback() {
    let (image, expect) = mem_loop();
    // Warm the fast tier, then remap: mapping a fresh segment and
    // growing an existing one both bump the VM epoch, so every baked
    // host-pointer slot goes stale at once and the next access per slot
    // must take the tagged-TLB slow path and re-tag.
    let mut emu = load(&image);
    assert_eq!(
        emu.run_backend(ExecBackend::Fast, 500),
        RunResult::StepLimit
    );
    let epoch = emu.vm.epoch();
    emu.vm.map(0x7100_0000, 4096, Prot::R | Prot::W, "remap");
    emu.vm.grow(layout::GLOBALS_BASE, 8192);
    assert!(emu.vm.epoch() > epoch, "remap/grow did not bump the epoch");

    // Resuming must re-resolve through the new segment table -- the
    // grown data segment's host storage may have moved -- and still
    // land on the uninterrupted step() state exactly.
    assert_eq!(
        emu.run_backend(ExecBackend::Fast, 1_000_000),
        RunResult::Exited(expect)
    );
    let mut step = load(&image);
    assert_eq!(
        step.run_backend(ExecBackend::Step, 1_000_000),
        RunResult::Exited(expect)
    );
    assert_eq!(snap(&step), snap(&emu), "state diverged across remap");
}

#[test]
fn fast_budget_expiry_mid_trace_retires_identical_counter_deltas() {
    let (image, expect) = cross_segment_loop();
    // Same boundary sweep as the trace-tier test above, against the
    // fast tier: budgets landing inside the spin trace force the
    // batched-counter prefix path, and every stop must show exactly the
    // step interpreter's counter deltas (the static block charge rolled
    // back to the retired prefix).
    for budget in [1, 2, 3, 901, 902, 903, 910, 1500, 2500, 3901] {
        let mut step = load(&image);
        let mut fast = load(&image);
        assert_eq!(
            step.run_backend(ExecBackend::Step, budget),
            RunResult::StepLimit
        );
        assert_eq!(
            fast.run_backend(ExecBackend::Fast, budget),
            RunResult::StepLimit
        );
        assert_eq!(snap(&step), snap(&fast), "divergence at budget {budget}");

        let rs = step.run_backend(ExecBackend::Step, 1_000_000);
        let rf = fast.run_backend(ExecBackend::Fast, 1_000_000);
        assert_eq!(rs, RunResult::Exited(expect));
        assert_eq!(rf, RunResult::Exited(expect));
        assert_eq!(
            snap(&step),
            snap(&fast),
            "post-resume divergence (budget {budget})"
        );
    }
}

#[test]
fn budget_expiry_mid_trace_retires_identical_counter_deltas() {
    let (image, expect) = cross_segment_loop();
    // Budgets landing in the spin trace, on its boundary, and inside
    // the inlined call loop: at every stop the chained tier must have
    // retired exactly the step interpreter's counter deltas, and
    // resuming must converge to the same final state.
    for budget in [1, 2, 3, 901, 902, 903, 910, 1500, 2500, 3901] {
        let mut step = load(&image);
        let mut trace = load(&image);
        assert_eq!(
            step.run_backend(ExecBackend::Step, budget),
            RunResult::StepLimit
        );
        assert_eq!(
            trace.run_backend(ExecBackend::Trace, budget),
            RunResult::StepLimit
        );
        assert_eq!(snap(&step), snap(&trace), "divergence at budget {budget}");

        let rs = step.run_backend(ExecBackend::Step, 1_000_000);
        let rt = trace.run_backend(ExecBackend::Trace, 1_000_000);
        assert_eq!(rs, RunResult::Exited(expect));
        assert_eq!(rt, RunResult::Exited(expect));
        assert_eq!(
            snap(&step),
            snap(&trace),
            "post-resume divergence (budget {budget})"
        );
    }
}

/// Runs `image` on `step()` and on the fast tier and asserts the run
/// result and final state are identical. Returns the common result and
/// final `rdi`.
fn assert_fast_agrees(image: &Image, max_steps: u64) -> (RunResult, i64) {
    let (mut step, mut fast) = (load(image), load(image));
    let r = step.run_backend(ExecBackend::Step, max_steps);
    assert_eq!(r, fast.run_backend(ExecBackend::Fast, max_steps));
    assert_eq!(snap(&step), snap(&fast), "state differs");
    (r, snap(&step).1)
}

/// A single-segment image running `f`, then `exit(rdi)`.
fn image_of(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new(layout::CODE_BASE);
    f(&mut a);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let p = a.finish().unwrap();
    Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    }
}

#[test]
fn loop_then_one_instruction_blocks() {
    // A countdown loop whose body is a multi-instruction block, followed
    // by back-to-back jumps: each `jmp` target starts a block whose only
    // instruction is another transfer.
    let image = image_of(|a| {
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rbx, 10);
        let head = a.label();
        a.bind(head).unwrap();
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 3);
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
        a.jcc_label(Cond::Ne, head);
        let (b, c) = (a.label(), a.label());
        a.jmp_label(b);
        a.bind(c).unwrap();
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1000);
        let done = a.label();
        a.jmp_label(done);
        a.bind(b).unwrap();
        a.jmp_label(c);
        a.bind(done).unwrap();
    });
    assert_eq!(
        assert_fast_agrees(&image, 100_000),
        (RunResult::Exited(1030), 1030)
    );
}

#[test]
fn jump_into_middle_of_decoded_run() {
    // The first pass decodes a straight-line trace spanning `mid`; the
    // loop then re-enters at `mid`, which starts a *new* trace there.
    let image = image_of(|a| {
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        a.mov_ri(Width::W64, Reg::Rbx, 3);
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
        let mid = a.label();
        a.bind(mid).unwrap();
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 10);
        a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 100);
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rbx, 1);
        a.jcc_label(Cond::Ne, mid);
    });
    let (r, _) = assert_fast_agrees(&image, 100_000);
    assert_eq!(r, RunResult::Exited(331));
}

#[test]
fn straight_line_longer_than_trace_cap() {
    // More fall-through instructions than TRACE_CAP: the run is split
    // across several capped traces, with no behavioral difference, and
    // budgets landing in every piece stop on identical state.
    let n = 2 * TRACE_CAP + 17;
    let image = image_of(|a| {
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        for _ in 0..n {
            a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
        }
    });
    let (r, _) = assert_fast_agrees(&image, 100_000);
    assert_eq!(r, RunResult::Exited(n as i64));
    for budget in [
        1,
        2,
        7,
        TRACE_CAP as u64,
        TRACE_CAP as u64 + 1,
        2 * TRACE_CAP as u64 + 5,
    ] {
        let (r, _) = assert_fast_agrees(&image, budget);
        assert_eq!(r, RunResult::StepLimit, "budget {budget}");
    }
}

#[test]
fn trampoline_region_crossings() {
    // Main text jumps into a trampoline segment and back: both backends
    // must count the same transfers and region crossings.
    let mut a = Asm::new(layout::CODE_BASE);
    a.mov_ri(Width::W64, Reg::Rdi, 7);
    a.jmp_abs(layout::TRAMPOLINE_BASE).unwrap();
    let ret = a.here();
    a.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 1);
    a.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
    a.syscall();
    let main = a.finish().unwrap();

    let mut t = Asm::new(layout::TRAMPOLINE_BASE);
    t.alu_ri(AluOp::Add, Width::W64, Reg::Rdi, 35);
    t.jmp_abs(ret).unwrap();
    let tramp = t.finish().unwrap();

    let image = Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![
            Segment::new(main.base, SegFlags::RX, main.bytes),
            Segment::new(tramp.base, SegFlags::RX, tramp.bytes),
        ],
        symbols: vec![],
    };
    let (r, _) = assert_fast_agrees(&image, 100_000);
    assert_eq!(r, RunResult::Exited(43));

    // The crossings actually happened (text -> trampoline -> text).
    let mut emu = load(&image);
    emu.run_backend(ExecBackend::Fast, 100_000);
    assert_eq!(emu.counters.region_crossings, 2);
}
