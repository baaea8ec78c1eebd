//! The traced replay: the `redfat` subcommands re-enacted through the
//! crates' public entry points, in the order `redfat_cli::run_cli`
//! calls them, with a span around each call.
//!
//! `harden` also makes extra calls on the same image when recording:
//! the three analysis stages on their own (which split `core.harden`
//! into analysis and the rest) and `harden_threaded` at one thread and
//! at the default thread count (the parallel speed-up). They sit under
//! a `split` span, which the tracing-overhead figure leaves out.

use crate::common::{read, write};
use crate::report::ratio;
use crate::trace::Tracer;
use crate::Layers;
use redfat_core::{harden_threaded, HardenConfig, HardenStats};
use redfat_elf::Image;
use redfat_emu::{AllocPolicyKind, Counters, Emu, ErrorMode, ExecBackend, HostRuntime};
use std::collections::BTreeSet;
use std::time::Instant;

/// The step budget `redfat run` and `redfat genlist` use by default.
const MAX_STEPS: u64 = 1_000_000_000;

/// Adds `v` to the layer metric `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// Reads and parses an ELF file, as the CLI's `load_image` does.
pub fn load(t: &mut Tracer, path: &str) -> Result<Image, String> {
    let bytes = read(path)?;
    t.span("elf.parse", |_| Image::parse(&bytes))
        .map_err(|e| format!("{path}: {e}"))
}

/// Serializes and writes an image, as the CLI's `save_image` does.
pub fn save(t: &mut Tracer, layers: &mut Layers, image: &Image, path: &str) -> Result<(), String> {
    let bytes = t.span("elf.write", |_| image.to_bytes());
    add(layers, "elf.bytes_out", bytes.len() as f64);
    write(path, &bytes)
}

/// Adds a hardening's site and rewrite counts to the layer metrics.
pub fn add_harden_stats(layers: &mut Layers, s: &HardenStats) {
    for (name, v) in [
        ("core.sites_considered", s.sites_considered),
        ("core.sites_eliminated", s.sites_eliminated),
        ("core.sites_redundant", s.sites_redundant),
        ("core.sites_lowfat", s.sites_lowfat),
        ("core.sites_redzone", s.sites_redzone),
        ("core.batches", s.batches),
        ("core.checks", s.checks),
        ("analysis.components", s.components),
        ("rewriter.jmp_patches", s.rewrite.jmp_patches),
        ("rewriter.trap_patches", s.rewrite.trap_patches),
        ("rewriter.trampoline_bytes", s.rewrite.trampoline_bytes),
    ] {
        add(layers, name, v as f64);
    }
}

/// The split calls on one image (see the module comment).
pub fn split(t: &mut Tracer, layers: &mut Layers, image: &Image, cfg: &HardenConfig) {
    t.span("split", |t| {
        let d = t.span("analysis.disasm", |_| redfat_analysis::disassemble(image));
        let c = t.span("analysis.cfg", |_| {
            redfat_analysis::Cfg::recover(&d, image.entry, &[])
        });
        t.span("analysis.analyze", |_| {
            std::hint::black_box(redfat_analysis::analyze(&d, &c, image.entry))
        });
        add(layers, "analysis.insts", d.len() as f64);
        add(layers, "analysis.blocks", c.blocks.len() as f64);
        let threads = redfat_parallel::resolve_threads(None);
        t.span("parallel.harden_1t", |_| {
            std::hint::black_box(harden_threaded(image, cfg, 1).is_ok())
        });
        t.span("parallel.harden_nt", |_| {
            std::hint::black_box(harden_threaded(image, cfg, threads).is_ok())
        });
    });
}

/// `redfat harden <input> -o <out>` with the given configuration.
pub fn harden(
    t: &mut Tracer,
    layers: &mut Layers,
    input: &str,
    out: &str,
    cfg: &HardenConfig,
) -> Result<(), String> {
    t.span("cli.harden", |t| {
        let image = load(t, input)?;
        let threads = redfat_parallel::resolve_threads(None);
        let hardened = t
            .span("core.harden", |_| harden_threaded(&image, cfg, threads))
            .map_err(|e| format!("harden {input}: {e}"))?;
        save(t, layers, &hardened.image, out)?;
        if t.on {
            split(t, layers, &image, cfg);
        }
        add_harden_stats(layers, &hardened.stats);
        Ok(())
    })
}

/// `redfat profile <input> -o <out>`.
pub fn profile(t: &mut Tracer, layers: &mut Layers, input: &str, out: &str) -> Result<(), String> {
    t.span("cli.profile", |t| {
        let image = load(t, input)?;
        let prof = t
            .span("core.profile", |_| redfat_core::instrument_profile(&image))
            .map_err(|e| format!("profile {input}: {e}"))?;
        save(t, layers, &prof.image, out)
    })
}

/// Everything a replayed guest run produced.
pub struct Run {
    /// Whether the guest exited.
    pub exited: bool,
    /// Integer outputs.
    pub out_ints: Vec<i64>,
    /// Byte outputs.
    pub out_bytes: Vec<u8>,
    /// Distinct sites of the reported memory errors.
    pub error_sites: BTreeSet<u64>,
    /// Execution counters.
    pub counters: Counters,
    /// Sites whose profiling check passed and never failed.
    pub allowlist: Option<redfat_core::AllowList>,
    /// The translation-cache statistics as `redfat run --stats` prints
    /// them; they show which backend ran.
    pub trace_cache: String,
}

/// Loads and runs `path` on `input` on `ExecBackend::default()`, as
/// `redfat run` (span `phase`, e.g. `emu.run_s.hardened`) and
/// `redfat genlist` (`emu.run_s.profile`) do. The CLI picks its backend
/// itself; the spec-workflow traced run compares the two through
/// [`Run::trace_cache`].
pub fn run(
    t: &mut Tracer,
    layers: &mut Layers,
    path: &str,
    input: &[i64],
    mode: ErrorMode,
    phase: &'static str,
) -> Result<Run, String> {
    t.span("cli.run", |t| {
        let image = load(t, path)?;
        let runtime =
            HostRuntime::with_policy(mode, AllocPolicyKind::default()).with_input(input.to_vec());
        let mut emu = t
            .span("emu.load", |_| Emu::load_image(&image, runtime))
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        let result = t.span(phase, |_| {
            emu.run_backend(ExecBackend::default(), MAX_STEPS)
        });
        let trace_stats = emu.trace_stats();
        add(
            layers,
            "emu.probes",
            (trace_stats.hits + trace_stats.misses) as f64,
        );
        add(layers, "emu.probe_hits", trace_stats.hits as f64);
        add(
            layers,
            "emu.ic_probes",
            (trace_stats.ic_hits + trace_stats.ic_misses) as f64,
        );
        add(layers, "emu.ic_probe_hits", trace_stats.ic_hits as f64);
        add(
            layers,
            "emu.all_instructions",
            emu.counters.instructions as f64,
        );
        let allowlist = (phase == "emu.run_s.profile").then(|| {
            t.span("core.allowlist", |_| {
                redfat_core::collect_allowlist(&emu.runtime.profile)
            })
        });
        Ok(Run {
            exited: matches!(result, redfat_emu::RunResult::Exited(_)),
            error_sites: emu.runtime.errors.iter().map(|e| e.site).collect(),
            out_ints: emu.runtime.io.out_ints,
            out_bytes: emu.runtime.io.out_bytes,
            counters: emu.counters,
            allowlist,
            trace_cache: trace_stats.to_string(),
        })
    })
}

/// Adds a hardened run's counters to the layer metrics.
pub fn add_counters(layers: &mut Layers, c: &Counters) {
    for (name, v) in [
        ("emu.instructions", c.instructions),
        ("emu.cycles", c.cycles),
        ("emu.region_crossings", c.region_crossings),
        ("emu.int3_traps", c.int3_traps),
        ("emu.syscalls", c.syscalls),
    ] {
        add(layers, name, v as f64);
    }
}

/// Turns the raw sums the replay accumulated into the reported
/// per-layer metrics: span totals by layer, derived ratios, and the
/// scratch keys removed.
pub fn finish_layers(t: &Tracer, layers: &mut Layers) {
    for (metric, span) in [
        ("elf.parse_s", "elf.parse"),
        ("elf.write_s", "elf.write"),
        ("analysis.disasm_s", "analysis.disasm"),
        ("analysis.cfg_s", "analysis.cfg"),
        ("analysis.analyze_s", "analysis.analyze"),
        ("core.harden_s", "core.harden"),
        ("core.profile_s", "core.profile"),
        ("emu.load_s", "emu.load"),
        ("emu.run_s.profile", "emu.run_s.profile"),
        ("emu.run_s.baseline", "emu.run_s.baseline"),
        ("emu.run_s.hardened", "emu.run_s.hardened"),
    ] {
        layers.insert(metric, t.total(span));
    }
    let analysis =
        t.total("analysis.disasm") + t.total("analysis.cfg") + t.total("analysis.analyze");
    layers.insert("core.harden_residual_s", t.total("core.harden") - analysis);
    layers.insert(
        "parallel.harden_speedup",
        crate::report::ratio(t.total("parallel.harden_1t"), t.total("parallel.harden_nt")),
    );
    let run_s = t.total("emu.run_s.profile")
        + t.total("emu.run_s.baseline")
        + t.total("emu.run_s.hardened");
    let take = |layers: &mut Layers, k: &str| layers.remove(k).unwrap_or(0.0);
    let insts = take(layers, "emu.all_instructions");
    layers.insert("emu.minsn_per_s", crate::report::ratio(insts / 1e6, run_s));
    let (probes, hits) = (take(layers, "emu.probes"), take(layers, "emu.probe_hits"));
    layers.insert("emu.trace_hit_ratio", crate::report::ratio(hits, probes));
    let (probes, hits) = (
        take(layers, "emu.ic_probes"),
        take(layers, "emu.ic_probe_hits"),
    );
    layers.insert("emu.ic_hit_ratio", crate::report::ratio(hits, probes));
}

/// Divides the per-layer totals (times, counts, bytes) by the number
/// of rounds or epochs they were summed over, leaving ratios and rates
/// as they are.
pub fn per_unit(layers: &mut Layers, units: f64) {
    for (name, unit) in crate::PER_LAYER {
        if matches!(unit, "s" | "count" | "bytes") && name != "minic.compile_s" {
            if let Some(v) = layers.get_mut(name) {
                *v /= units;
            }
        }
    }
}

/// The traced run's recorder, and the time the same work took with
/// recording on and off.
pub struct Traced {
    /// The recording tracer.
    pub t: Tracer,
    /// Per-layer sums of the recorded work.
    pub layers: Layers,
    on_s: f64,
    off_s: f64,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            t: Tracer::new(true),
            layers: Layers::new(),
            on_s: 0.0,
            off_s: 0.0,
        }
    }

    /// Runs `unit` twice, with recording off and on; which goes first
    /// alternates with `k`. Returns the recorded run's result, then the
    /// other. The recorded time leaves out the `split` calls.
    pub fn pair<T>(
        &mut self,
        k: usize,
        mut unit: impl FnMut(&mut Tracer, &mut Layers) -> T,
    ) -> (T, T) {
        let (mut on, mut off) = (None, None);
        let first = k.is_multiple_of(2);
        for record in [first, !first] {
            let t0 = Instant::now();
            if record {
                let split = self.t.total("split");
                on = Some(unit(&mut self.t, &mut self.layers));
                self.on_s += t0.elapsed().as_secs_f64() - (self.t.total("split") - split);
            } else {
                off = Some(unit(&mut Tracer::new(false), &mut Layers::new()));
                self.off_s += t0.elapsed().as_secs_f64();
            }
        }
        (on.expect("ran recorded"), off.expect("ran unrecorded"))
    }

    /// Finishes the per-layer metrics (see [`finish_layers`]), adds the
    /// tracing overhead, writes the spans to
    /// `.bench_run/trace/<workload>-seed<seed>.tsv` and returns the
    /// metrics with a note describing the trace.
    pub fn finish(mut self, workload: &str, seed: u64) -> Result<(Layers, String), String> {
        finish_layers(&self.t, &mut self.layers);
        let overhead = ratio(self.on_s, self.off_s) - 1.0;
        self.layers.insert("trace.overhead_share", overhead);
        let path =
            std::path::PathBuf::from(".bench_run/trace").join(format!("{workload}-seed{seed}.tsv"));
        self.t
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let note = format!(
            "{workload} traced: {} spans in {}, replay {:.3} s recorded vs {:.3} s not \
             (split calls left out)",
            self.t.spans().len(),
            path.display(),
            self.on_s,
            self.off_s
        );
        Ok((self.layers, note))
    }
}
