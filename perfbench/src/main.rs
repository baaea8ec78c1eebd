//! The repository benchmark: drives the `redfat` CLI (in-process,
//! through `redfat_cli::run_cli`) and the hardening daemon the way
//! users do, checks every output, and prints the result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-workflow|kromium-harden|daemon-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! workload through the crates' public entry points with spans around
//! each call and reports the per-layer metrics. See `README.md`.

mod common;
mod daemon;
mod kromium;
mod replay;
mod report;
mod spec;
mod trace;

use report::Report;
use std::collections::BTreeMap;

/// Per-layer metric values of one traced run, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric with its unit, in report order. A workload
/// that does not call a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("minic.compile_s", "s"),
    ("elf.parse_s", "s"),
    ("elf.write_s", "s"),
    ("elf.bytes_out", "bytes"),
    ("analysis.disasm_s", "s"),
    ("analysis.cfg_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.insts", "count"),
    ("analysis.blocks", "count"),
    ("analysis.components", "count"),
    ("core.harden_s", "s"),
    ("core.harden_residual_s", "s"),
    ("core.profile_s", "s"),
    ("core.allowlist_sites", "count"),
    ("core.sites_considered", "count"),
    ("core.sites_eliminated", "count"),
    ("core.sites_redundant", "count"),
    ("core.sites_lowfat", "count"),
    ("core.sites_redzone", "count"),
    ("core.batches", "count"),
    ("core.checks", "count"),
    ("parallel.harden_speedup", "ratio"),
    ("rewriter.jmp_patches", "count"),
    ("rewriter.trap_patches", "count"),
    ("rewriter.trampoline_bytes", "bytes"),
    ("emu.load_s", "s"),
    ("emu.run_s.profile", "s"),
    ("emu.run_s.baseline", "s"),
    ("emu.run_s.hardened", "s"),
    ("emu.minsn_per_s", "Minsn/s"),
    ("emu.trace_hit_ratio", "ratio"),
    ("emu.ic_hit_ratio", "ratio"),
    ("emu.instructions", "count"),
    ("emu.cycles", "count"),
    ("emu.region_crossings", "count"),
    ("emu.int3_traps", "count"),
    ("emu.syscalls", "count"),
    ("emu.check_cycles_share", "ratio"),
    ("emu.hardened_cycles_ratio", "ratio"),
    ("service.hit_ms_p50", "ms"),
    ("service.computed_ms_p50", "ms"),
    ("service.incremental_ms_p50", "ms"),
    ("service.key_ms", "ms"),
    ("service.artifact_hit_ratio", "ratio"),
    ("service.component_reuse_ratio", "ratio"),
    ("service.deduped", "count"),
    ("service.errors", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Adds every per-layer metric of `layers` to `report`, 0 where the
/// workload does not exercise the layer.
pub fn report_layers(report: &mut Report, layers: &Layers) {
    debug_assert!(layers.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
    for (name, unit) in PER_LAYER {
        report.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(common::RSS_PROBE) {
        if let Err(e) = common::rss_probe(&argv[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = Args::parse(&argv).and_then(|args| match args.workload.as_str() {
        "spec-workflow" => spec::run(&args),
        "kromium-harden" => kromium::run(&args),
        "daemon-mix" => daemon::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (spec-workflow|kromium-harden|daemon-mix)"
        )),
    });
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
