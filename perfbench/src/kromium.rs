//! `kromium-harden`: the §7.3 large-binary rewrite.
//!
//! Set-up compiles the Chrome stand-in (`kromium`, about 1.4 MB of
//! code in 3.4k generated functions). Each round then makes the three
//! pipeline uses of it through the CLI -- `redfat harden` with default
//! flags, `redfat harden --writes-only` (the paper's Chrome
//! configuration) and `redfat profile` -- and runs one seeded Kraken
//! kernel on the baseline and on the hardened image to check that
//! their outputs match. Nearly all of the time is disassembly, CFG
//! recovery, analysis and rewriting, so this is the workload a
//! pipeline change moves and an emulator change does not.

use crate::common::{
    cli, cpu_ticks, file_len, input_arg, peak_rss_mb, read, steal_note, write, Rng, RunOutput,
    Setups, Workdir, SETUPS,
};
use crate::replay::{self, add_counters, Traced};
use crate::report::{median, ratio, Report};
use crate::trace::Tracer;
use crate::{report_layers, Args, Layers};
use redfat_core::HardenConfig;
use redfat_emu::ErrorMode;
use redfat_workloads::kraken;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

struct Files {
    src: String,
    elf: String,
    hard: String,
    hard_w: String,
    prof: String,
}

/// Set-up: writes the kromium source and compiles it with
/// `redfat compile`.
fn setup(f: &Files, source: &str) -> Result<(), String> {
    write(&f.src, source.as_bytes())?;
    cli(&["compile", &f.src, "-o", &f.elf]).map(drop)
}

/// The three pipeline uses each round makes, as CLI arguments after
/// the input binary.
fn ops(f: &Files) -> [(&'static str, Vec<&str>); 3] {
    [
        ("harden", vec!["harden", &f.elf, "-o", &f.hard]),
        (
            "harden --writes-only",
            vec!["harden", &f.elf, "-o", &f.hard_w, "--writes-only"],
        ),
        ("profile", vec!["profile", &f.elf, "-o", &f.prof]),
    ]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = Workdir::new("kromium").map_err(|e| e.to_string())?;
    let files = Files {
        src: dir.file("kromium.mc"),
        elf: dir.file("kromium.elf"),
        hard: dir.file("kromium.hard"),
        hard_w: dir.file("kromium.hardw"),
        prof: dir.file("kromium.prof"),
    };
    let source = redfat_workloads::kromium::build().source;
    if args.trace {
        return traced(args, &files, &source);
    }
    let mut report = Report::default();
    let (mut setups, ()) = Setups::start(|| setup(&files, &source))?;

    let kernels = kraken::all();
    let mut rng = Rng::new(args.seed, 2);
    let ticks = cpu_ticks();
    let start = Instant::now();
    let (mut rounds, mut req, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // Deterministic results: every round must reproduce the first.
    let mut facts: BTreeMap<String, String> = BTreeMap::new();
    let mut check = |report: &mut Report, key: String, value: String| match facts.get(&key) {
        Some(prev) if *prev != value => report.fail(format!(
            "{key} changed between rounds: {prev:?} vs {value:?}"
        )),
        _ => {
            facts.insert(key, value);
        }
    };
    let mut round_no = 0;
    while round_no == 0 || start.elapsed().as_secs_f64() < args.seconds {
        if round_no > 0 && round_no % 3 == 0 {
            setups.time(|| setup(&files, &source))?;
        }
        round_no += 1;
        let mut round = 0.0;
        let mut ok = true;
        for (name, argv) in ops(&files) {
            let t = Instant::now();
            let out = report.op(name, cli(&argv));
            let dt = t.elapsed().as_secs_f64();
            let Some(out) = out else {
                ok = false;
                continue;
            };
            round += dt;
            req.push(dt * 1e3);
            by_op.entry(name).or_default().push(dt);
            let size = file_len(argv[3])?;
            // The summary without the leading "<verb> <path>:", which
            // names this run's scratch directory.
            let out = out.split_once(": ").map_or(out.as_str(), |(_, s)| s);
            check(
                &mut report,
                format!("{name} output"),
                format!("{out} {size} bytes"),
            );
        }
        if ok {
            rounds.push(round);
        }

        let k = &kernels[rng.below(kernels.len())];
        let input = input_arg(&[k.kernel, k.scale]);
        let t = Instant::now();
        let base = report.op(k.name, cli(&["run", &files.elf, "--input", &input]));
        let hard = report.op(k.name, cli(&["run", &files.hard, "--input", &input]));
        runs.push(t.elapsed().as_secs_f64());
        let (Some(base), Some(hard)) = (base, hard) else {
            continue;
        };
        match RunOutput::parse(&base).and_then(|b| Ok((b, RunOutput::parse(&hard)?))) {
            Err(e) => report.fail(format!("{}: {e}", k.name)),
            Ok((base, hard)) => {
                if !base.exited() || !hard.exited() {
                    report.fail(format!(
                        "{}: runs ended {} / {}",
                        k.name, base.result, hard.result
                    ));
                }
                if base.output != hard.output {
                    report.fail(format!("{}: hardened Kraken output differs", k.name));
                }
                let cycles = format!("{} / {}", base.cycles, hard.cycles);
                check(&mut report, format!("{} cycles", k.name), cycles);
            }
        }
    }

    let mut fingerprint = DefaultHasher::new();
    facts
        .iter()
        .filter(|(k, _)| k.ends_with(" output"))
        .for_each(|f| f.hash(&mut fingerprint));
    let rss = peak_rss_mb(&["harden", &files.elf, "-o", &dir.file("rss.hard")]);
    let rss = report.op("peak rss probe", rss).unwrap_or(0.0);
    report.note(format!(
        "kromium-harden: {} rounds, {} pipeline ops, {} Kraken checks, nproc {}",
        rounds.len(),
        req.len(),
        runs.len(),
        redfat_parallel::available_threads()
    ));
    for (name, v) in &by_op {
        report.note(format!(
            "  {name:<22} p50 {:.4} s (n={})",
            median(v),
            v.len()
        ));
    }
    report.note(format!(
        "  harden_p50_s {:.4} s  run_s {:.4} s (median Kraken pair, n={})  fail_ratio {:.6}  \
         determinism fingerprint {:016x}",
        median(by_op.get("harden").map_or(&[][..], |v| &v[..])),
        median(&runs),
        runs.len(),
        ratio(report.failures.len() as f64, report.attempted as f64),
        fingerprint.finish()
    ));
    let setup_s = setups.median();
    report.note(setups.note());
    report.note(steal_note(ticks));
    report.metric("setup_s", setup_s, "s");
    report.metric("workflow_s", median(&rounds), "s");
    report.metric("req_p50_ms", median(&req), "ms");
    report.metric(
        "hardened_bytes_ratio",
        file_len(&files.hard)? as f64 / file_len(&files.elf)? as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", rss, "MB");
    Ok(report)
}

/// The traced run: rounds of the same three pipeline uses and Kraken
/// check, each replayed once with spans off and once with spans on
/// (the order alternating between rounds). Per-layer figures are per
/// round.
fn traced(args: &Args, f: &Files, source: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_trace = Tracer::new(true);
    for _ in 0..SETUPS {
        write(&f.src, source.as_bytes())?;
        let image = setup_trace.span("minic.compile", |_| redfat_minic::compile(source));
        let image = image.map_err(|e| format!("kromium: {e}"))?;
        replay::save(&mut setup_trace, &mut Layers::new(), &image, &f.elf)?;
    }

    let kernels = kraken::all();
    let mut rng = Rng::new(args.seed, 2);
    let mut traced = Traced::new();
    let mut rounds = 0;
    let (mut base_cycles, mut hard_cycles) = (0.0, 0.0);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let k = &kernels[rng.below(kernels.len())];
        let (on, off) = traced.pair(rounds, |t, layers| {
            replay_round(t, layers, f, [k.kernel, k.scale])
        });
        report.op(k.name, off);
        if let Some((base, hard)) = report.op(k.name, on) {
            base_cycles += base as f64;
            hard_cycles += hard as f64;
        }
        rounds += 1;
    }
    // The replay must produce what `redfat harden` produces.
    let cli_out = format!("{}.cli", f.hard);
    let same = cli(&["harden", &f.elf, "-o", &cli_out])
        .and_then(|_| Ok(read(&cli_out)? == read(&f.hard)?));
    if report.op("kromium", same) == Some(false) {
        report.fail("replayed harden differs from `redfat harden`".to_string());
    }

    let (mut layers, note) = traced.finish("kromium-harden", args.seed)?;
    layers.insert(
        "minic.compile_s",
        setup_trace.total("minic.compile") / SETUPS as f64,
    );
    layers.insert(
        "emu.check_cycles_share",
        ratio(hard_cycles - base_cycles, hard_cycles),
    );
    layers.insert("emu.hardened_cycles_ratio", ratio(hard_cycles, base_cycles));
    replay::per_unit(&mut layers, rounds as f64);
    report.note(note);
    report_layers(&mut report, &layers);
    Ok(report)
}

/// One round through the replay. Returns the Kraken kernel's baseline
/// and hardened modeled cycles.
fn replay_round(
    t: &mut Tracer,
    layers: &mut Layers,
    f: &Files,
    input: [i64; 2],
) -> Result<(u64, u64), String> {
    t.next_request();
    replay::harden(t, layers, &f.elf, &f.hard, &HardenConfig::default())?;
    t.next_request();
    let writes_only = HardenConfig {
        instrument_reads: false,
        ..HardenConfig::default()
    };
    replay::harden(t, layers, &f.elf, &f.hard_w, &writes_only)?;
    t.next_request();
    replay::profile(t, layers, &f.elf, &f.prof)?;
    t.next_request();
    let base = replay::run(
        t,
        layers,
        &f.elf,
        &input,
        ErrorMode::Abort,
        "emu.run_s.baseline",
    )?;
    let hard = replay::run(
        t,
        layers,
        &f.hard,
        &input,
        ErrorMode::Abort,
        "emu.run_s.hardened",
    )?;
    add_counters(layers, &hard.counters);
    if !base.exited || !hard.exited {
        return Err("Kraken run did not exit".to_string());
    }
    if (&hard.out_ints, &hard.out_bytes) != (&base.out_ints, &base.out_bytes) {
        return Err("hardened Kraken output differs".to_string());
    }
    Ok((base.counters.cycles, hard.counters.cycles))
}
