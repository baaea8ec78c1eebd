//! End-to-end CLI tests: the full Figure 5 workflow driven exactly as a
//! user would drive it, through files on disk.

use redfat_cli::run_cli;

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
