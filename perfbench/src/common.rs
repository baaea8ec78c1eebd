//! Pieces shared by the workloads: the in-process CLI call, parsing of
//! `redfat run` output, the scratch directory, set-up timing, the
//! seeded generator and the peak-RSS probe.

use crate::report::{median, percentile};
use redfat_core::selftest::SplitMix64;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups at the start of a run; the workloads add more later in the
/// run, so that `setup_s` sees the same host conditions as the
/// measured work.
pub const SETUPS: usize = 3;

/// Peak-RSS probes per run; `peak_rss_mb` is their median.
const RSS_PROBES: usize = 3;

/// Calls the `redfat` CLI in-process with `argv` (without the program
/// name) and returns its stdout text.
pub fn cli(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    redfat_cli::run_cli(&argv).map_err(|e| format!("redfat {}: {}", argv.join(" "), e.message))
}

/// Renders guest input values the way `--input` takes them.
pub fn input_arg(values: &[i64]) -> String {
    values
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// What `redfat run` printed, split into its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// How the run ended (`Exited(0)`, `MemoryError(..)`, ...).
    pub result: String,
    /// Guest output lines.
    pub output: Vec<String>,
    /// Distinct sites of the reported memory errors.
    pub error_sites: BTreeSet<u64>,
    /// Retired instructions.
    pub instructions: u64,
    /// Modeled cycles.
    pub cycles: u64,
}

impl RunOutput {
    /// Parses `redfat run` output: the result line, the guest output,
    /// one `error:` line per reported error, then the counter line.
    pub fn parse(text: &str) -> Result<RunOutput, String> {
        let lines: Vec<&str> = text.lines().collect();
        let (Some(result), Some(last)) = (lines.first(), lines.last()) else {
            return Err("empty run output".to_string());
        };
        let counters: Vec<&str> = last.split_whitespace().collect();
        let [_, instructions, _, cycles] = counters[..] else {
            return Err(format!("bad counter line {last:?}"));
        };
        let mut output = Vec::new();
        let mut error_sites = BTreeSet::new();
        for line in &lines[1..lines.len() - 1] {
            match line.strip_prefix("error: memory error at site 0x") {
                Some(rest) => {
                    let hex = rest.split(':').next().unwrap_or_default();
                    let site = u64::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad error line {line:?}: {e}"))?;
                    error_sites.insert(site);
                }
                None => output.push(line.to_string()),
            }
        }
        Ok(RunOutput {
            result: result.to_string(),
            output,
            error_sites,
            instructions: instructions.parse().map_err(|e| format!("{last:?}: {e}"))?,
            cycles: cycles.parse().map_err(|e| format!("{last:?}: {e}"))?,
        })
    }

    /// `true` if the guest exited (rather than aborting or running out
    /// of steps).
    pub fn exited(&self) -> bool {
        self.result.starts_with("Exited(")
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct Workdir {
    /// Its path, relative to the checkout root.
    pub path: PathBuf,
}

impl Workdir {
    /// Creates a fresh `.bench_run/<tag>-<pid>` directory.
    pub fn new(tag: &str) -> std::io::Result<Workdir> {
        let path = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Workdir { path })
    }

    /// A path inside the directory, as a string for CLI arguments.
    pub fn file(&self, name: &str) -> String {
        self.path.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The set-up durations of one run.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs `setup` [`SETUPS`] times.
    pub fn start<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Setups, T), String> {
        let mut setups = Setups::default();
        for _ in 1..SETUPS {
            setups.time(&mut setup)?;
        }
        let last = setups.time(&mut setup)?;
        Ok((setups, last))
    }

    /// Runs and times one more set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let out = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    /// The median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// A note line: the number of set-ups and their quartiles.
    pub fn note(&self) -> String {
        format!(
            "  setup_s over {} set-ups, quartiles {:.4}-{:.4} s",
            self.0.len(),
            percentile(&self.0, 0.25),
            percentile(&self.0, 0.75)
        )
    }
}

/// The benchmark's seeded generator.
pub struct Rng(SplitMix64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SplitMix64::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream,
        ))
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The hidden argument that turns the benchmark into the peak-RSS probe.
pub const RSS_PROBE: &str = "--rss-probe";

/// Probe body: runs one CLI invocation, then prints this process's
/// peak resident set (`VmHWM`, kB) from `/proc/self/status`.
pub fn rss_probe(argv: &[String]) -> Result<(), String> {
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    cli(&argv)?;
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?;
    println!("VmHWM {kb}");
    Ok(())
}

/// Runs the CLI invocation `argv` in a child process of this benchmark
/// [`RSS_PROBES`] times and returns the median of the children's peak
/// resident memory, in MB.
pub fn peak_rss_mb(argv: &[&str]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut mb = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .arg(RSS_PROBE)
            .args(argv)
            .output()
            .map_err(|e| format!("rss probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "rss probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let kb: f64 = stdout
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("rss probe printed {stdout:?}"))?;
        mb.push(kb / 1024.0);
    }
    Ok(median(&mb))
}

/// `(steal, total)` CPU time of the machine in clock ticks, from
/// `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A note giving the share of the machine's CPU time the hypervisor
/// gave to other guests since `start` (a [`cpu_ticks`] reading): the
/// main cause of run-to-run spread on a shared host.
pub fn steal_note(start: Option<(u64, u64)>) -> String {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "  host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => "  host: steal time not available".to_string(),
    }
}

/// Size of a file in bytes.
pub fn file_len(path: &str) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{path}: {e}"))
}

/// Reads a file.
pub fn read(path: impl AsRef<Path>) -> Result<Vec<u8>, String> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a file.
pub fn write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_output_parses() {
        let text = "Exited(0)\n42\nerror: memory error at site 0x4010a3: Bounds (read) in f+0x3\n\
                    error: memory error at site 0x4010a3: Bounds (read)\n\
                    instructions 100  cycles 250\n";
        let r = RunOutput::parse(text).expect("parses");
        assert!(r.exited());
        assert_eq!(r.output, vec!["42".to_string()]);
        assert_eq!(r.error_sites.len(), 1);
        assert_eq!((r.instructions, r.cycles), (100, 250));
    }
}
