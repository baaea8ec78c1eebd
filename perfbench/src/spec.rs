//! `spec-workflow`: the paper's §5 two-phase workflow over the 29 SPEC
//! stand-ins, one program after another in a seeded order.
//!
//! Per program: `redfat profile`, `redfat genlist --input <train>`,
//! `redfat harden --allowlist`, then `redfat run --log --input <ref>`
//! on the baseline and on the hardened binary. Most of the time goes
//! to guest execution, so this is the workload an emulator change
//! moves. Every pass visits all 29 programs; the run keeps starting
//! programs (in a fresh seeded order each pass) until `--seconds` are
//! used, so each program has at least one sample and the per-program
//! medians cover the whole suite on every seed.

use crate::common::{
    cli, cpu_ticks, file_len, input_arg, peak_rss_mb, read, steal_note, write, Rng, RunOutput,
    Setups, Workdir, SETUPS,
};
use crate::replay::{self, add, add_counters, Traced};
use crate::report::{geomean, median, ratio, Report};
use crate::trace::Tracer;
use crate::{report_layers, Args, Layers};
use redfat_core::{HardenConfig, LowFatPolicy};
use redfat_emu::ErrorMode;
use redfat_workloads::{spec, Workload};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// One stand-in and its files.
struct Prog {
    wl: Workload,
    src: String,
    elf: String,
    prof: String,
    allow: String,
    hard: String,
    train: String,
    refin: String,
}

/// Deterministic results of one program's workflow; every visit must
/// reproduce them exactly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Facts {
    harden_summary: String,
    hardened_bytes: u64,
    base: (u64, u64),
    hard: (u64, u64),
}

fn programs(dir: &Workdir) -> Vec<Prog> {
    spec::all()
        .into_iter()
        .map(|wl| Prog {
            src: dir.file(&format!("{}.mc", wl.name)),
            elf: dir.file(&format!("{}.elf", wl.name)),
            prof: dir.file(&format!("{}.prof", wl.name)),
            allow: dir.file(&format!("{}.lst", wl.name)),
            hard: dir.file(&format!("{}.hard", wl.name)),
            train: input_arg(&wl.train_input),
            refin: input_arg(&wl.ref_input),
            wl,
        })
        .collect()
}

/// Set-up: writes each stand-in's source and compiles it with
/// `redfat compile`.
fn setup(progs: &[Prog]) -> Result<(), String> {
    for p in progs {
        write(&p.src, p.wl.source.as_bytes())?;
        cli(&["compile", &p.src, "-o", &p.elf])?;
    }
    Ok(())
}

/// Wall-clock parts of one program's workflow, in seconds.
#[derive(Default)]
struct Times {
    workflow: Vec<f64>,
    profile: Vec<f64>,
    harden: Vec<f64>,
    run: Vec<f64>,
}

/// One program's workflow through the CLI. Returns its facts and
/// `(profile+genlist, harden, runs)` seconds when every step succeeded.
fn workflow(report: &mut Report, p: &Prog) -> Option<(Facts, [f64; 3])> {
    let name = p.wl.name;
    let t0 = Instant::now();
    report.op(name, cli(&["profile", &p.elf, "-o", &p.prof]))?;
    report.op(
        name,
        cli(&["genlist", &p.prof, "--input", &p.train, "-o", &p.allow]),
    )?;
    let t1 = Instant::now();
    let summary = report.op(
        name,
        cli(&["harden", &p.elf, "-o", &p.hard, "--allowlist", &p.allow]),
    )?;
    let t2 = Instant::now();
    let base = report.op(name, cli(&["run", &p.elf, "--log", "--input", &p.refin]));
    let hard = report.op(name, cli(&["run", &p.hard, "--log", "--input", &p.refin]));
    let t3 = Instant::now();
    let (base, hard) = (base?, hard?);
    let parsed = RunOutput::parse(&base).and_then(|b| Ok((b, RunOutput::parse(&hard)?)));
    let (base, hard) = match parsed {
        Ok(v) => v,
        Err(e) => {
            report.fail(format!("{name}: {e}"));
            return None;
        }
    };
    let mut ok = true;
    for (what, r) in [("baseline", &base), ("hardened", &hard)] {
        if !r.exited() {
            report.fail(format!("{name}: {what} run ended {}", r.result));
            ok = false;
        }
    }
    if hard.output != base.output {
        report.fail(format!("{name}: hardened output differs from baseline"));
        ok = false;
    }
    if hard.error_sites.len() != p.wl.planted_errors {
        report.fail(format!(
            "{name}: {} distinct error sites, {} planted",
            hard.error_sites.len(),
            p.wl.planted_errors
        ));
        ok = false;
    }
    let facts = Facts {
        // Without the leading "hardened <path>:", which names this
        // run's scratch directory.
        harden_summary: summary
            .split_once(": ")
            .map_or(summary.clone(), |(_, s)| s.to_string()),
        hardened_bytes: file_len(&p.hard).ok()?,
        base: (base.instructions, base.cycles),
        hard: (hard.instructions, hard.cycles),
    };
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    ok.then_some((facts, [secs(t0, t1), secs(t1, t2), secs(t2, t3)]))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = Workdir::new("spec").map_err(|e| e.to_string())?;
    let progs = programs(&dir);
    if args.trace {
        return traced(args, &dir, &progs);
    }
    let mut report = Report::default();
    let (mut setups, ()) = Setups::start(|| setup(&progs))?;

    let mut rng = Rng::new(args.seed, 1);
    let ticks = cpu_ticks();
    let start = Instant::now();
    let mut times: Vec<Times> = progs.iter().map(|_| Times::default()).collect();
    let mut facts: Vec<Option<Facts>> = vec![None; progs.len()];
    let mut passes = 0;
    let mut started = 0;
    'passes: loop {
        let mut order: Vec<usize> = (0..progs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if passes > 0 && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            if started > 0 && started % 2 == 0 {
                setups.time(|| setup(&progs))?;
            }
            started += 1;
            let Some((f, [prof, hard, run])) = workflow(&mut report, &progs[i]) else {
                continue;
            };
            match &facts[i] {
                Some(prev) if *prev != f => report.fail(format!(
                    "{}: deterministic results changed between visits: {prev:?} vs {f:?}",
                    progs[i].wl.name
                )),
                _ => facts[i] = Some(f),
            }
            let t = &mut times[i];
            t.workflow.push(prof + hard + run);
            t.profile.push(prof);
            t.harden.push(hard);
            t.run.push(run);
        }
        passes += 1;
    }

    let per_prog = |f: fn(&Times) -> &Vec<f64>| -> Vec<f64> {
        times
            .iter()
            .filter(|t| !t.workflow.is_empty())
            .map(|t| median(f(t)))
            .collect()
    };
    let workflow = per_prog(|t| &t.workflow);
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let visited: Vec<(&Prog, &Facts)> = progs
        .iter()
        .zip(&facts)
        .filter_map(|(p, f)| f.as_ref().map(|f| (p, f)))
        .collect();
    if visited.len() != progs.len() {
        report.fail(format!(
            "only {} of {} programs completed their workflow",
            visited.len(),
            progs.len()
        ));
    }
    let mut bytes_ratio = Vec::new();
    let mut cycles_ratio = Vec::new();
    let mut fingerprint = DefaultHasher::new();
    for (p, f) in &visited {
        bytes_ratio.push(f.hardened_bytes as f64 / file_len(&p.elf)? as f64);
        cycles_ratio.push(f.hard.1 as f64 / f.base.1 as f64);
        (p.wl.name, f).hash(&mut fingerprint);
    }
    let largest = progs
        .iter()
        .max_by_key(|p| file_len(&p.elf).unwrap_or(0))
        .ok_or("empty suite")?;
    let rss = peak_rss_mb(&[
        "harden",
        &largest.elf,
        "-o",
        &dir.file("rss.hard"),
        "--allowlist",
        &largest.allow,
    ]);
    let rss = report.op("peak rss probe", rss).unwrap_or(0.0);

    let samples: usize = times.iter().map(|t| t.workflow.len()).sum();
    report.note(format!(
        "spec-workflow: {samples} program workflows over {} programs ({passes} full passes), \
         {} CLI ops, nproc {}",
        visited.len(),
        report.attempted,
        redfat_parallel::available_threads()
    ));
    report.note(format!(
        "  profile_s {:.4} s  harden_s {:.4} s  run_s {:.4} s  (sums of per-program medians)",
        sum(per_prog(|t| &t.profile)),
        sum(per_prog(|t| &t.harden)),
        sum(per_prog(|t| &t.run)),
    ));
    report.note(format!(
        "  hardened_cycles_ratio {:.6} (geomean, {} programs)  fail_ratio {:.6}  \
         determinism fingerprint {:016x}",
        geomean(&cycles_ratio),
        cycles_ratio.len(),
        ratio(report.failures.len() as f64, report.attempted as f64),
        fingerprint.finish()
    ));
    let setup_s = setups.median();
    report.note(setups.note());
    report.note(steal_note(ticks));
    report.metric("setup_s", setup_s, "s");
    report.metric("workflow_s", sum(workflow.clone()), "s");
    report.metric("req_p50_ms", median(&workflow) * 1e3, "ms");
    report.metric("hardened_bytes_ratio", geomean(&bytes_ratio), "ratio");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(report)
}

/// The traced run: one pass over the suite in the seeded order, each
/// program replayed once with spans off and once with spans on (the
/// order alternating between programs), so the difference is the
/// tracing overhead.
fn traced(args: &Args, dir: &Workdir, progs: &[Prog]) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_trace = Tracer::new(true);
    for _ in 0..SETUPS {
        for p in progs {
            write(&p.src, p.wl.source.as_bytes())?;
            let image = setup_trace.span("minic.compile", |_| redfat_minic::compile(&p.wl.source));
            let image = image.map_err(|e| format!("{}: {e}", p.wl.name))?;
            replay::save(&mut setup_trace, &mut Layers::new(), &image, &p.elf)?;
        }
    }

    let mut traced = Traced::new();
    let mut rng = Rng::new(args.seed, 1);
    let mut order: Vec<usize> = (0..progs.len()).collect();
    rng.shuffle(&mut order);
    let (mut base_cycles, mut hard_cycles, mut cycles_ratio) = (0.0, 0.0, Vec::new());
    for (k, &i) in order.iter().enumerate() {
        let p = &progs[i];
        let (on, off) = traced.pair(k, |t, layers| replay_program(t, layers, p));
        report.op(p.wl.name, off);
        if let Some((base, hard, trace_cache)) = report.op(p.wl.name, on) {
            base_cycles += base as f64;
            hard_cycles += hard as f64;
            cycles_ratio.push(hard as f64 / base as f64);
            // The replay must run on the backend `redfat run` runs on:
            // its translation-cache line must match the CLI's.
            let stats = cli(&["run", &p.hard, "--log", "--input", &p.refin, "--stats"]);
            let cli_cache = stats.map(|out| {
                out.lines()
                    .find_map(|l| l.strip_prefix("trace-cache: "))
                    .unwrap_or_default()
                    .to_string()
            });
            if report
                .op(p.wl.name, cli_cache)
                .is_some_and(|c| c != trace_cache)
            {
                report.fail(format!(
                    "{}: replay ran on another backend than `redfat run`",
                    p.wl.name
                ));
            }
        }
        // The replay must produce what `redfat harden` produces.
        let cli_out = dir.file("cli.hard");
        let same = cli(&["harden", &p.elf, "-o", &cli_out, "--allowlist", &p.allow])
            .and_then(|_| Ok(read(&cli_out)? == read(&p.hard)?));
        if report.op(p.wl.name, same) == Some(false) {
            report.fail(format!(
                "{}: replayed harden differs from `redfat harden`",
                p.wl.name
            ));
        }
    }
    let (mut layers, note) = traced.finish("spec-workflow", args.seed)?;
    layers.insert(
        "minic.compile_s",
        setup_trace.total("minic.compile") / SETUPS as f64,
    );
    layers.insert(
        "emu.check_cycles_share",
        ratio(hard_cycles - base_cycles, hard_cycles),
    );
    layers.insert("emu.hardened_cycles_ratio", geomean(&cycles_ratio));
    report.note(note);
    report_layers(&mut report, &layers);
    Ok(report)
}

/// One program's workflow through the replay, checked like the CLI
/// path. Returns the baseline and hardened modeled cycles and the
/// hardened run's translation-cache line.
fn replay_program(
    t: &mut Tracer,
    layers: &mut Layers,
    p: &Prog,
) -> Result<(u64, u64, String), String> {
    t.next_request();
    t.span("spec.program", |t| {
        replay::profile(t, layers, &p.elf, &p.prof)?;
        let prof = replay::run(
            t,
            layers,
            &p.prof,
            &p.wl.train_input,
            ErrorMode::Log,
            "emu.run_s.profile",
        )?;
        if !prof.exited {
            return Err("profiling run did not exit".to_string());
        }
        let allow = prof.allowlist.expect("profile runs collect an allow-list");
        add(layers, "core.allowlist_sites", allow.len() as f64);
        write(&p.allow, allow.to_text().as_bytes())?;
        let cfg = HardenConfig::with_redundant(LowFatPolicy::AllowList(allow));
        replay::harden(t, layers, &p.elf, &p.hard, &cfg)?;
        let base = replay::run(
            t,
            layers,
            &p.elf,
            &p.wl.ref_input,
            ErrorMode::Log,
            "emu.run_s.baseline",
        )?;
        let hard = replay::run(
            t,
            layers,
            &p.hard,
            &p.wl.ref_input,
            ErrorMode::Log,
            "emu.run_s.hardened",
        )?;
        add_counters(layers, &hard.counters);
        if !base.exited || !hard.exited {
            return Err("run did not exit".to_string());
        }
        if (&hard.out_ints, &hard.out_bytes) != (&base.out_ints, &base.out_bytes) {
            return Err("hardened output differs from baseline".to_string());
        }
        if hard.error_sites.len() != p.wl.planted_errors {
            return Err(format!(
                "{} distinct error sites, {} planted",
                hard.error_sites.len(),
                p.wl.planted_errors
            ));
        }
        Ok((base.counters.cycles, hard.counters.cycles, hard.trace_cache))
    })
}
