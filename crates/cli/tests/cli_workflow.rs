//! End-to-end CLI tests: the full Figure 5 workflow driven exactly as a
//! user would drive it, through files on disk.

use redfat_cli::run_cli;
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::layout;

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|a| a.to_string()).collect()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("redfat-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

const ANTI_IDIOM_SRC: &str = "
fn main() {
    var t = malloc(16 * 8);
    var t1 = t - 64;
    for (var i = 0; i < 16; i = i + 1) { t[i] = i * i; }
    var buf = malloc(8 * 8);
    var pad = malloc(8 * 8);
    pad[0] = 1;
    var i = input();
    var j = input();
    print(t1[8 + i]);
    buf[j] = 7;
    return 0;
}";

#[test]
fn full_workflow_through_files() {
    let dir = tmpdir("workflow");
    let src = dir.join("prog.mc");
    let elf = dir.join("prog.elf");
    let prof = dir.join("prog.prof");
    let lst = dir.join("allow.lst");
    let hard = dir.join("prog.hard");
    std::fs::write(&src, ANTI_IDIOM_SRC).unwrap();

    // compile
    let out = run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .expect("compile");
    assert!(out.contains("bytes of code"));

    // profile + genlist
    run_cli(&args(&[
        "profile",
        elf.to_str().unwrap(),
        "-o",
        prof.to_str().unwrap(),
    ]))
    .expect("profile");
    let out = run_cli(&args(&[
        "genlist",
        prof.to_str().unwrap(),
        "--input",
        "3,2",
        "-o",
        lst.to_str().unwrap(),
    ]))
    .expect("genlist");
    assert!(out.contains("allow-listed"));
    let lst_text = std::fs::read_to_string(&lst).unwrap();
    assert!(lst_text.starts_with('#'));

    // harden with the allow-list
    let out = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        hard.to_str().unwrap(),
        "--allowlist",
        lst.to_str().unwrap(),
    ]))
    .expect("harden");
    assert!(out.contains("trampolines"));

    // benign run: clean, same output as the original.
    let benign =
        run_cli(&args(&["run", hard.to_str().unwrap(), "--input", "5,2"])).expect("benign run");
    assert!(benign.contains("Exited(0)"), "{benign}");

    // attack run: detected.
    let attack = run_cli(&args(&[
        "run",
        hard.to_str().unwrap(),
        "--input",
        "5,12",
        "--log",
    ]))
    .expect("attack run");
    assert!(attack.contains("error:"), "{attack}");

    // memcheck on the ORIGINAL binary misses the skip.
    let mc = run_cli(&args(&[
        "run",
        elf.to_str().unwrap(),
        "--input",
        "5,12",
        "--memcheck",
    ]))
    .expect("memcheck run");
    assert!(mc.contains("Exited(0)"), "{mc}");
    assert!(!mc.contains("memcheck error"), "{mc}");
}

#[test]
fn disasm_and_stats() {
    let dir = tmpdir("disasm");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(&src, "fn main() { print(1); return 0; }").unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();

    let dis = run_cli(&args(&["disasm", elf.to_str().unwrap()])).unwrap();
    assert!(dis.contains("syscall"));
    assert!(dis.contains("0x400000:"));

    let stats = run_cli(&args(&["stats", elf.to_str().unwrap()])).unwrap();
    assert!(stats.contains("basic blocks"));
    assert!(stats.contains("kind:            Exec"));
}

#[test]
fn analyze_reports_flow_verdicts() {
    let dir = tmpdir("analyze");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(
        &src,
        "global tab[4];
         fn main() {
             var p = &tab;
             var a = malloc(32);
             p[1] = 5;
             a[1] = p[1];
             a[1] = a[1] + 1;
             print(a[1]);
             return 0;
         }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();

    let report = run_cli(&args(&["analyze", elf.to_str().unwrap()])).unwrap();
    assert!(report.contains("access sites:"), "{report}");
    assert!(report.contains("elim:flow"), "{report}");
    assert!(report.contains("elim:syntactic"), "{report}");
    assert!(report.contains("redundant("), "{report}");

    // The bzip2 stand-in has sites only call summaries prove non-heap:
    // `--interproc` must surface them, the default report must not.
    // (The trailing space matches per-site verdicts, not the
    // "0 elim:interproc," tally in the summary line.)
    let bzip2 = dir.join("bzip2.elf");
    let wl = redfat_workloads::spec::all()
        .into_iter()
        .find(|w| w.name == "bzip2")
        .expect("bzip2 stand-in");
    std::fs::write(&bzip2, wl.image().to_bytes()).unwrap();
    let plain = run_cli(&args(&["analyze", bzip2.to_str().unwrap()])).unwrap();
    assert!(!plain.contains("elim:interproc "), "{plain}");
    let inter = run_cli(&args(&["analyze", bzip2.to_str().unwrap(), "--interproc"])).unwrap();
    assert!(
        inter.contains("(interprocedural summaries applied)"),
        "{inter}"
    );
    assert!(inter.contains("elim:interproc "), "{inter}");
}

#[test]
fn harden_flags_change_the_plan() {
    let dir = tmpdir("flags");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(
        &src,
        "fn main() { var a = malloc(80); for (var i = 0; i < 10; i = i + 1) { a[i] = i; } print(a[4]); return 0; }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();

    let full = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("f.elf").to_str().unwrap(),
    ]))
    .unwrap();
    let writes_only = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("w.elf").to_str().unwrap(),
        "--writes-only",
    ]))
    .unwrap();
    let unopt = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("u.elf").to_str().unwrap(),
        "--no-elim",
        "--no-batch",
        "--no-merge",
    ]))
    .unwrap();
    let sites = |s: &str| -> usize {
        s.split(':')
            .nth(1)
            .unwrap()
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(sites(&writes_only) < sites(&full));
    assert!(sites(&unopt) >= sites(&full));

    // Unknown flags/commands fail cleanly.
    assert!(run_cli(&args(&["frobnicate"])).is_err());
    assert!(run_cli(&args(&["run", "/nonexistent.elf"])).is_err());
}

#[test]
fn error_symbolization_names_the_function() {
    let dir = tmpdir("sym");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    let hard = dir.join("p.hard");
    std::fs::write(
        &src,
        "fn vulnerable(buf, i) { buf[i] = 1; return 0; }
         fn main() { var a = malloc(40); var b = malloc(40); b[0] = 1; vulnerable(a, input()); return 0; }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();
    // Keep symbols (no --strip): bug-finding mode reports function names.
    run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        hard.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run_cli(&args(&[
        "run",
        hard.to_str().unwrap(),
        "--input",
        "10",
        "--log",
    ]))
    .unwrap();
    assert!(out.contains("in vulnerable+"), "{out}");
}

/// The `trace-cache:` counters of `redfat run --stats` output, as
/// (name, value) pairs.
fn trace_cache_stats(out: &str) -> Vec<(String, u64)> {
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("trace-cache: "))
        .expect("--stats prints the trace-cache line");
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .chunks(2)
        .map(|kv| (kv[0].to_string(), kv[1].parse().expect("numeric counter")))
        .collect()
}

#[test]
fn run_defaults_to_the_fast_tier() {
    let dir = tmpdir("backend");
    let src = dir.join("prog.mc");
    let elf = dir.join("prog.elf");
    std::fs::write(
        &src,
        "fn sq(x) { return x * x; }
         fn main() { var s = 0; for (var i = 0; i < 200; i = i + 1) { s = s + sq(i); } print(s); return 0; }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .expect("compile");
    let run = |extra: &[&str]| {
        let mut argv = vec!["run", elf.to_str().unwrap(), "--stats"];
        argv.extend_from_slice(extra);
        run_cli(&args(&argv))
    };

    // No --backend: the translated tier runs, and its cache is used.
    let default = run(&[]).expect("run");
    let hits = trace_cache_stats(&default)
        .into_iter()
        .find_map(|(k, v)| (k == "hits").then_some(v));
    assert!(hits > Some(0), "{default}");

    // --backend step: the reference interpreter touches no trace cache,
    // and everything the guest observes is identical.
    let step = run(&["--backend", "step"]).expect("run --backend step");
    assert!(
        trace_cache_stats(&step).iter().all(|(_, v)| *v == 0),
        "{step}"
    );
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.starts_with("trace-cache: "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&default), strip(&step));

    // The deleted tier is rejected, naming the accepted ones.
    let e = run(&["--backend", "superblock"]).expect_err("superblock is gone");
    assert!(e.message.contains("step|fast"), "{}", e.message);
    assert_eq!(e.code, 1);
}

#[test]
fn fuzzlist_reports_an_unloadable_image_as_an_error() {
    // The image parses and instruments, but one segment sits inside the
    // stack's reserved range, so every profiling run fails to load.
    let dir = tmpdir("fuzzlist-unloadable");
    let elf = dir.join("bad.elf");
    let lst = dir.join("allow.lst");
    // xor edi, edi; xor eax, eax (EXIT); syscall
    let code = vec![0x31, 0xFF, 0x31, 0xC0, 0x0F, 0x05];
    let image = Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![
            Segment::new(layout::CODE_BASE, SegFlags::RX, code),
            Segment::new(layout::STACK_TOP - 4096, SegFlags::RW, vec![0; 16]),
        ],
        symbols: vec![],
    };
    std::fs::write(&elf, image.to_bytes()).unwrap();
    let res = run_cli(&args(&[
        "fuzzlist",
        elf.to_str().unwrap(),
        "-o",
        lst.to_str().unwrap(),
        "--iters",
        "4",
    ]));
    let e = res.expect_err("an unloadable image must be an error");
    assert!(e.message.contains("load"), "{}", e.message);
    assert!(!lst.exists(), "no allow-list is written");
}

#[test]
fn alloc_policy_reaches_the_hardened_run() {
    // A computed-pointer slot skip: the deterministic policy places a
    // live same-class neighbor where the access lands and misses it; the
    // randomized policy leaves that slot free and reports it.
    let case = redfat_workloads::skips::all().remove(0);
    let dir = tmpdir("alloc-policy");
    let src = dir.join("skip.mc");
    let elf = dir.join("skip.elf");
    let hard = dir.join("skip.hard");
    std::fs::write(&src, &case.workload.source).unwrap();
    let path = |p: &std::path::Path| p.to_str().unwrap().to_string();
    run_cli(&args(&["compile", &path(&src), "-o", &path(&elf)])).expect("compile");
    run_cli(&args(&["harden", &path(&elf), "-o", &path(&hard)])).expect("harden");
    let attack = case
        .attack_input
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let run = |extra: &[&str]| {
        let mut argv = vec!["run", hard.to_str().unwrap(), "--input", &attack];
        argv.extend_from_slice(extra);
        run_cli(&args(&argv)).expect("run")
    };
    let default = run(&[]);
    assert!(!default.contains("MemoryError"), "{default}");
    let randomized = run(&["--alloc-policy", "rand-lowfat"]);
    assert!(randomized.contains("MemoryError"), "{randomized}");
}
