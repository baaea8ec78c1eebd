//! `daemon-mix`: a closed loop of two clients against an in-process
//! hardening daemon (`redfat_service::Server`).
//!
//! Each epoch starts a daemon with an empty cache directory. Each
//! client sends its next `Op::Harden` only after the previous reply.
//! The seeded request sequence over the SPEC stand-ins and six
//! `harden` flag sets mixes four kinds of request in a ratio fixed by
//! construction, per client and epoch:
//!
//! * `FRESH` keys no one has asked for yet (compute, then artifact write);
//! * `REPEATS` of keys this client already got (verified artifact reads);
//! * `EDITS`: an image this client already got, with one constant
//!   changed in place, so all but one CFG component come from the
//!   component cache;
//! * `PAIRS`: a fresh key both clients send at the same moment
//!   (in-flight dedupe).
//!
//! The counts are a synthetic mix, not taken from observed traffic.
//! Repeats are about 70% of the requests, so `req_p50_ms` is the
//! latency of an artifact hit by construction; computations and edits
//! show in the 90th percentile, which is printed but not gated. No
//! guest code runs. Every reply is checked byte for byte against a
//! one-shot `redfat harden` of the same image and flags.

use crate::common::{cli, cpu_ticks, peak_rss_mb, read, steal_note, write, Rng, Setups, Workdir};
use crate::replay::{self, add, Traced};
use crate::report::{geomean, median, percentile, ratio, Report};
use crate::trace::Tracer;
use crate::{report_layers, Args, Layers};
use redfat_analysis::{disassemble, unknown_entries, Cfg};
use redfat_core::{HardenConfig, HardenStats, LowFatPolicy, MemoryComponentCache};
use redfat_elf::Image;
use redfat_service::{
    artifact_key, render_harden_stats, ArtifactCache, ArtifactEntry, Client, Op, Response, Server,
    ServerConfig, Source,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;
use std::time::Instant;

/// Closed-loop clients (the host's core count when the mix was set).
const CLIENTS: usize = 2;
/// Per client and epoch: fresh keys.
const FRESH: usize = 30;
/// Per client and epoch: one-constant edits of keys already served.
const EDITS: usize = 10;
/// Per client and epoch: repeats of keys already served.
const REPEATS: usize = 100;
/// Per epoch: fresh keys both clients send at once.
const PAIRS: usize = 6;
/// The daemon's worker threads (the `redfat serve` default).
const WORKERS: usize = 2;

/// Analysis threads per job, as `redfat serve` resolves them by default.
fn job_threads() -> usize {
    redfat_parallel::resolve_threads(None)
}

/// `harden` flag sets the requests use.
const VARIANTS: [&[&str]; 6] = [
    &[],
    &["--writes-only"],
    &["--no-size"],
    &["--no-batch"],
    &["--no-merge"],
    &["--redzone-only"],
];

/// The configuration `redfat harden <flags>` builds.
fn config(variant: usize) -> HardenConfig {
    let flags = VARIANTS[variant];
    let mut cfg = if flags.contains(&"--redzone-only") {
        HardenConfig::with_redundant(LowFatPolicy::Disabled)
    } else {
        HardenConfig::with_redundant(LowFatPolicy::All)
    };
    cfg.instrument_reads = !flags.contains(&"--writes-only");
    cfg.size_harden = !flags.contains(&"--no-size");
    cfg.batch = !flags.contains(&"--no-batch");
    cfg.merge = !flags.contains(&"--no-merge");
    cfg
}

/// An artifact key in benchmark terms: image, flag set, edited or not.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Key {
    image: usize,
    variant: usize,
    edited: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Fresh,
    Repeat,
    Edit,
    Pair,
}

#[derive(Clone, Copy)]
struct Step {
    kind: Kind,
    key: Key,
}

/// The inputs: each stand-in's image bytes and its edited twin.
struct Images {
    files: Vec<(String, String)>,
    bytes: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Images {
    fn bytes(&self, k: Key) -> &[u8] {
        let (base, edited) = &self.bytes[k.image];
        if k.edited {
            edited
        } else {
            base
        }
    }

    fn file(&self, k: Key) -> &str {
        let (base, edited) = &self.files[k.image];
        if k.edited {
            edited
        } else {
            base
        }
    }
}

/// Finds a one-byte edit of `image` that changes an instruction's
/// content but not the layout: same decode boundaries, same CFG
/// blocks, leaders, function entries and unknown-entry roots. Such an
/// edit changes exactly one CFG component's cache key.
fn one_constant_edit(image: &Image) -> Option<Image> {
    let d0 = disassemble(image);
    let cfg0 = Cfg::recover(&d0, image.entry, &[]);
    let roots0 = unknown_entries(&d0, &cfg0, image.entry);
    let bounds0: Vec<(u64, u8)> = d0.iter().map(|(a, _, l)| (a, l)).collect();
    for (addr, _, len) in d0.iter() {
        // Long instructions end in an immediate or displacement.
        if len < 4 || cfg0.block_of(addr).is_none() {
            continue;
        }
        let mut edited = image.clone();
        let target = addr + u64::from(len) - 1;
        let byte = edited.read_bytes(target, 1)?[0];
        edited.write_bytes(target, &[byte ^ 1]);
        let d1 = disassemble(&edited);
        if d1
            .iter()
            .map(|(a, _, l)| (a, l))
            .ne(bounds0.iter().copied())
        {
            continue;
        }
        let cfg1 = Cfg::recover(&d1, edited.entry, &[]);
        if cfg1.blocks == cfg0.blocks
            && cfg1.leaders == cfg0.leaders
            && cfg1.func_entries == cfg0.func_entries
            && unknown_entries(&d1, &cfg1, edited.entry) == roots0
        {
            return Some(edited);
        }
    }
    None
}

/// Set-up: compiles every stand-in with `redfat compile`, as the other
/// workloads' set-ups do. Returns each one's ELF path and bytes.
fn setup(dir: &Workdir) -> Result<Vec<(String, Vec<u8>)>, String> {
    redfat_workloads::spec::all()
        .into_iter()
        .map(|wl| {
            let (src, elf) = (
                dir.file(&format!("{}.mc", wl.name)),
                dir.file(&format!("{}.elf", wl.name)),
            );
            write(&src, wl.source.as_bytes())?;
            cli(&["compile", &src, "-o", &elf])?;
            let bytes = read(&elf)?;
            Ok((elf, bytes))
        })
        .collect()
}

/// Derives each compiled stand-in's edited twin, once per run and
/// outside the timed set-up (compiling is deterministic, so later
/// set-ups reproduce the same bases).
fn with_edits(compiled: Vec<(String, Vec<u8>)>) -> Result<Images, String> {
    let mut files = Vec::new();
    let mut bytes = Vec::new();
    for (elf, base) in compiled {
        let image = Image::parse(&base).map_err(|e| format!("{elf}: {e}"))?;
        let edited = one_constant_edit(&image)
            .ok_or_else(|| format!("{elf}: no layout-preserving edit"))?
            .to_bytes();
        let edit = format!("{}.edit.elf", elf.trim_end_matches(".elf"));
        write(&edit, &edited)?;
        files.push((elf, edit));
        bytes.push((base, edited));
    }
    Ok(Images { files, bytes })
}

/// Hands out fresh base keys: a seeded permutation of every
/// (image, flag set) pair, reshuffled when used up. Each epoch starts
/// with an empty cache, so a key is fresh again in a later epoch.
struct FreshKeys {
    rng: Rng,
    images: usize,
    keys: Vec<Key>,
}

impl FreshKeys {
    fn new(seed: u64, images: usize) -> FreshKeys {
        FreshKeys {
            rng: Rng::new(seed, 3),
            images,
            keys: Vec::new(),
        }
    }

    /// `n` distinct keys.
    fn take(&mut self, n: usize) -> Vec<Key> {
        if self.keys.len() < n {
            self.keys = (0..self.images)
                .flat_map(|image| {
                    (0..VARIANTS.len()).map(move |variant| Key {
                        image,
                        variant,
                        edited: false,
                    })
                })
                .collect();
            self.rng.shuffle(&mut self.keys);
        }
        self.keys.split_off(self.keys.len() - n)
    }
}

/// One epoch's request sequence per client. Pairs sit at the same
/// positions in both sequences; every other step's kind is drawn with
/// weight equal to how many of that kind are left, among the kinds
/// that are possible at that point (a repeat or edit needs a key the
/// client already got).
fn epoch_sequences(rng: &mut Rng, fresh: &mut FreshKeys) -> Vec<Vec<Step>> {
    let len = FRESH + EDITS + REPEATS + PAIRS;
    let mut keys = fresh.take(PAIRS + CLIENTS * FRESH);
    let pairs = keys.split_off(CLIENTS * FRESH);
    let pair_at: Vec<usize> = (1..=PAIRS).map(|j| j * len / (PAIRS + 1)).collect();
    (0..CLIENTS)
        .map(|_| {
            let mut fresh_keys = keys.split_off(keys.len() - FRESH);
            let mut left = [
                (Kind::Fresh, FRESH),
                (Kind::Repeat, REPEATS),
                (Kind::Edit, EDITS),
            ];
            let mut served: Vec<Key> = Vec::new();
            let mut editable: Vec<Key> = Vec::new();
            let mut seq = Vec::with_capacity(len);
            for pos in 0..len {
                let step = if let Some(j) = pair_at.iter().position(|&p| p == pos) {
                    Step {
                        kind: Kind::Pair,
                        key: pairs[j],
                    }
                } else {
                    let possible = |k: Kind| match k {
                        Kind::Repeat => !served.is_empty(),
                        Kind::Edit => !editable.is_empty(),
                        _ => true,
                    };
                    let total: usize = left
                        .iter()
                        .filter(|(k, _)| possible(*k))
                        .map(|(_, n)| n)
                        .sum();
                    let mut pick = rng.below(total);
                    let slot = left
                        .iter_mut()
                        .filter(|(k, _)| possible(*k))
                        .find(|(_, n)| {
                            let hit = pick < *n;
                            pick = pick.saturating_sub(*n);
                            hit
                        })
                        .expect("a possible kind is left");
                    slot.1 -= 1;
                    let key = match slot.0 {
                        Kind::Fresh => fresh_keys.pop().expect("FRESH keys"),
                        Kind::Repeat => served[rng.below(served.len())],
                        Kind::Edit => {
                            let base = editable.swap_remove(rng.below(editable.len()));
                            Key {
                                edited: true,
                                ..base
                            }
                        }
                        Kind::Pair => unreachable!("pairs are placed by position"),
                    };
                    Step { kind: slot.0, key }
                };
                if matches!(step.kind, Kind::Fresh | Kind::Pair) {
                    editable.push(step.key);
                }
                if step.kind != Kind::Repeat {
                    served.push(step.key);
                }
                seq.push(step);
            }
            seq
        })
        .collect()
}

/// One reply as a client saw it.
struct Reply {
    key: Key,
    kind: Kind,
    ms: f64,
    result: Result<(Source, Vec<u8>), String>,
}

/// Server counters after an epoch.
#[derive(Default)]
struct ServerCounts {
    artifact_hits: u64,
    computations: u64,
    deduped: u64,
    errors: u64,
    components_analyzed: u64,
    components_reused: u64,
}

fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs one epoch against a fresh daemon. Returns the replies, the
/// epoch's wall time and the daemon's counters.
fn socket_epoch(
    dir: &Workdir,
    epoch: usize,
    images: &Images,
    seqs: &[Vec<Step>],
) -> Result<(Vec<Reply>, f64, ServerCounts), String> {
    let cache_dir = dir.path.join(format!("cache{epoch}"));
    let socket = dir.path.join(format!("d{epoch}.sock"));
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        cache_dir: cache_dir.clone(),
        workers: WORKERS,
        threads: job_threads(),
    })
    .map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let configs: Vec<Vec<u8>> = (0..VARIANTS.len())
        .map(|v| config(v).canonical_bytes())
        .collect();
    let barrier = Barrier::new(CLIENTS);
    let (replies, secs, counts) = std::thread::scope(|s| {
        let daemon = s.spawn(move || server.run());
        let clients: Vec<_> = seqs
            .iter()
            .map(|seq| {
                let (socket, configs, barrier) = (&socket, &configs, &barrier);
                s.spawn(move || -> Result<(Vec<Reply>, Instant), String> {
                    let mut client =
                        Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
                    barrier.wait();
                    let start = Instant::now();
                    let mut replies = Vec::with_capacity(seq.len());
                    for step in seq {
                        if step.kind == Kind::Pair {
                            barrier.wait();
                        }
                        let image = images.bytes(step.key).to_vec();
                        let cfg = configs[step.key.variant].clone();
                        let t = Instant::now();
                        let r = client.job(Op::Harden, cfg, image);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let result = match r {
                            Ok(Response::Ok {
                                source, artifact, ..
                            }) => Ok((source, artifact)),
                            Ok(Response::Err(e)) => Err(format!("daemon error reply: {e}")),
                            Err(e) => Err(format!("protocol: {e}")),
                        };
                        let failed = result.is_err();
                        replies.push(Reply {
                            key: step.key,
                            kind: step.kind,
                            ms,
                            result,
                        });
                        if failed {
                            // The daemon closes a connection after an
                            // error reply.
                            client =
                                Client::connect(socket).map_err(|e| format!("reconnect: {e}"))?;
                        }
                    }
                    Ok((replies, start))
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut first_start: Option<Instant> = None;
        let mut errors = Vec::new();
        for c in clients {
            match c.join() {
                Ok(Ok((replies, start))) => {
                    first_start = Some(first_start.map_or(start, |f| f.min(start)));
                    all.extend(replies);
                }
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push("client thread panicked".to_string()),
            }
        }
        let secs = first_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
        let stats = Client::connect(&socket)
            .and_then(|mut c| {
                let stats = c.stats().map_err(std::io::Error::other)?;
                c.shutdown().map_err(std::io::Error::other)?;
                Ok(stats)
            })
            .map_err(|e| format!("stats/shutdown: {e}"));
        let ran = daemon.join();
        let stats = match (stats, ran) {
            (Ok(s), Ok(Ok(_))) if errors.is_empty() => Ok(s),
            (Err(e), _) => Err(e),
            (_, Ok(Err(e))) => Err(format!("daemon: {e}")),
            (_, Err(_)) => Err("daemon thread panicked".to_string()),
            _ => Err(errors.join("; ")),
        };
        stats.map(|stats| {
            let counts = ServerCounts {
                artifact_hits: counter(&stats, "artifact_hits"),
                computations: counter(&stats, "computations"),
                deduped: counter(&stats, "deduped"),
                errors: counter(&stats, "errors"),
                components_analyzed: counter(&stats, "components_analyzed"),
                components_reused: counter(&stats, "components_reused"),
            };
            (all, secs, counts)
        })
    })?;
    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok((replies, secs, counts))
}

/// One-shot `redfat harden` results, the ground truth replies are
/// checked against; computed on first use.
struct Expected<'a> {
    images: &'a Images,
    out: String,
    by_key: HashMap<Key, Result<Vec<u8>, String>>,
}

impl Expected<'_> {
    fn get(&mut self, k: Key) -> &Result<Vec<u8>, String> {
        let (images, out) = (self.images, &self.out);
        self.by_key.entry(k).or_insert_with(|| {
            let mut argv = vec!["harden", images.file(k), "-o", out];
            argv.extend_from_slice(VARIANTS[k.variant]);
            cli(&argv).and_then(|_| read(out))
        })
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = Workdir::new("daemon").map_err(|e| e.to_string())?;
    let (mut setups, compiled) = Setups::start(|| setup(&dir))?;
    let images = with_edits(compiled)?;
    if args.trace {
        return traced(args, &dir, &images);
    }
    let mut report = Report::default();
    let mut expected = Expected {
        images: &images,
        out: dir.file("oneshot.hard"),
        by_key: HashMap::new(),
    };
    let n = images.bytes.len();
    let mut rng = Rng::new(args.seed, 4);
    let mut fresh = FreshKeys::new(args.seed, n);
    let (mut epochs, mut latencies) = (Vec::new(), Vec::new());
    let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
    let mut bytes_ratio: BTreeMap<Key, f64> = BTreeMap::new();
    let mut by_source: HashMap<&str, usize> = HashMap::new();
    let mut server = ServerCounts::default();
    let ticks = cpu_ticks();
    let start = Instant::now();
    while epochs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if !epochs.is_empty() && epochs.len() % 2 == 0 {
            let again = setups.time(|| setup(&dir))?;
            if again
                .iter()
                .map(|(_, b)| b)
                .ne(images.bytes.iter().map(|(b, _)| b))
            {
                report.fail("recompiled stand-ins differ from the first set-up".to_string());
            }
        }
        let seqs = epoch_sequences(&mut rng, &mut fresh);
        let (replies, secs, counts) = socket_epoch(&dir, epochs.len(), &images, &seqs)?;
        epochs.push(secs);
        server.deduped += counts.deduped;
        server.errors += counts.errors;
        server.artifact_hits += counts.artifact_hits;
        server.computations += counts.computations;
        server.components_analyzed += counts.components_analyzed;
        server.components_reused += counts.components_reused;
        if counts.errors > 0 {
            report.fail(format!("daemon counted {} errors", counts.errors));
        }
        for r in replies {
            let what = format!("{:?} {:?}", r.kind, r.key);
            let Some((source, artifact)) = report.op(&what, r.result) else {
                continue;
            };
            latencies.push(r.ms);
            by_kind.entry(r.kind).or_default().push(r.ms);
            *by_source
                .entry(match source {
                    Source::Computed => "computed",
                    Source::ArtifactHit => "artifact-hit",
                    Source::Deduped => "deduped",
                })
                .or_default() += 1;
            match expected.get(r.key) {
                Ok(want) if *want == artifact => {
                    if !r.key.edited {
                        let ratio = artifact.len() as f64 / images.bytes(r.key).len() as f64;
                        bytes_ratio.insert(r.key, ratio);
                    }
                }
                Ok(_) => report.fail(format!("{what}: artifact differs from `redfat harden`")),
                Err(e) => report.fail(format!("{what}: one-shot harden failed: {e}")),
            }
        }
    }
    let largest = (0..n)
        .max_by_key(|&i| images.bytes[i].0.len())
        .ok_or("no images")?;
    let rss = peak_rss_mb(&[
        "harden",
        &images.files[largest].0,
        "-o",
        &dir.file("rss.hard"),
    ]);
    let rss = report.op("peak rss probe", rss).unwrap_or(0.0);

    let total_s: f64 = epochs.iter().sum();
    let p90 = percentile(&latencies, 0.9);
    let beyond = latencies.iter().filter(|&&l| l > p90).count();
    report.note(format!(
        "daemon-mix: {} epochs of {} requests, {CLIENTS} closed-loop clients, {WORKERS} daemon \
         workers of {} threads, nproc {}",
        epochs.len(),
        CLIENTS * (FRESH + EDITS + REPEATS + PAIRS),
        job_threads(),
        redfat_parallel::available_threads()
    ));
    let mut sources: Vec<_> = by_source.into_iter().collect();
    sources.sort();
    report.note(format!(
        "  replies by source {sources:?}; daemon: {} hits, {} computations, {} deduped, \
         {} errors, component reuse {:.4}",
        server.artifact_hits,
        server.computations,
        server.deduped,
        server.errors,
        ratio(
            server.components_reused as f64,
            (server.components_analyzed + server.components_reused) as f64
        )
    ));
    if beyond >= 10 {
        report.note(format!(
            "  req_p90_ms {p90:.4} ms (n={}, {beyond} beyond)",
            latencies.len()
        ));
    }
    report.note(format!(
        "  epoch wall time p50 {:.4} s (n={})  req_per_s {:.1}  fail_ratio {:.6}  \
         bytes ratio over {} distinct keys",
        median(&epochs),
        epochs.len(),
        ratio(latencies.len() as f64, total_s),
        ratio(report.failures.len() as f64, report.attempted as f64),
        bytes_ratio.len()
    ));
    let setup_s = setups.median();
    report.note(setups.note());
    report.note(steal_note(ticks));
    report.metric("setup_s", setup_s, "s");
    // One client's epoch at each request kind's median latency (the
    // clients run side by side), as spec-workflow's pass is a sum of
    // per-program medians: a host stall lengthens a few requests, not
    // the medians.
    let epoch_s: f64 = [
        (Kind::Fresh, FRESH),
        (Kind::Repeat, REPEATS),
        (Kind::Edit, EDITS),
        (Kind::Pair, PAIRS),
    ]
    .iter()
    .map(|(kind, n)| *n as f64 * median(by_kind.get(kind).map_or(&[][..], |v| &v[..])) / 1e3)
    .sum();
    report.metric("workflow_s", epoch_s, "s");
    report.metric("req_p50_ms", median(&latencies), "ms");
    report.metric(
        "hardened_bytes_ratio",
        geomean(&bytes_ratio.values().copied().collect::<Vec<_>>()),
        "ratio",
    );
    report.metric("peak_rss_mb", rss, "MB");
    Ok(report)
}

/// The traced run: each epoch runs once against the daemon (for its
/// dedupe and error counters), then is replayed in one thread through
/// the calls the daemon makes per request -- `artifact_key`, the
/// artifact-cache read, and on a miss `Image::parse`, `harden_cached`
/// with a component cache, serialization and the artifact-cache write
/// -- once with spans off and once with spans on. Per-layer figures are
/// per epoch.
fn traced(args: &Args, dir: &Workdir, images: &Images) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_trace = Tracer::new(true);
    for wl in redfat_workloads::spec::all() {
        setup_trace.span("minic.compile", |_| {
            redfat_minic::compile(&wl.source).is_ok()
        });
    }
    let n = images.bytes.len();
    let mut rng = Rng::new(args.seed, 4);
    let mut fresh = FreshKeys::new(args.seed, n);
    let mut traced = Traced::new();
    let mut epochs = 0;
    let mut class_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut components, mut reused) = (0.0, 0.0);
    let start = Instant::now();
    while epochs == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let seqs = epoch_sequences(&mut rng, &mut fresh);
        let (replies, _, counts) = socket_epoch(dir, epochs, images, &seqs)?;
        for r in replies {
            report.op("daemon request", r.result);
        }
        add(&mut traced.layers, "service.deduped", counts.deduped as f64);
        add(&mut traced.layers, "service.errors", counts.errors as f64);
        // Both clients' steps, interleaved as they would roughly arrive.
        let steps: Vec<Step> = (0..seqs[0].len())
            .flat_map(|i| seqs.iter().filter_map(move |s| s.get(i).copied()))
            .collect();
        let (on, off) = traced.pair(epochs, |t, layers| {
            replay_epoch(t, layers, dir, epochs, images, &steps)
        });
        for r in off? {
            report.op("replayed request", r);
        }
        for r in on? {
            if let Some((class, ms, stats)) = report.op("replayed request", r) {
                class_ms.entry(class).or_default().push(ms);
                if let Some(s) = stats {
                    components += s.components as f64;
                    reused += s.components_reused as f64;
                }
            }
        }
        epochs += 1;
    }
    let key_ms = median(&traced.t.durations("service.key")) * 1e3;
    let (mut layers, note) = traced.finish("daemon-mix", args.seed)?;
    layers.insert("minic.compile_s", setup_trace.total("minic.compile"));
    let p50 = |class: &str| median(class_ms.get(class).map_or(&[][..], |v| &v[..]));
    layers.insert("service.hit_ms_p50", p50("hit"));
    layers.insert("service.computed_ms_p50", p50("computed"));
    layers.insert("service.incremental_ms_p50", p50("incremental"));
    layers.insert("service.key_ms", key_ms);
    let count = |class: &str| class_ms.get(class).map_or(0, Vec::len) as f64;
    let requests = count("hit") + count("computed") + count("incremental");
    layers.insert("service.artifact_hit_ratio", ratio(count("hit"), requests));
    layers.insert("service.component_reuse_ratio", ratio(reused, components));
    replay::per_unit(&mut layers, epochs as f64);
    report.note(note);
    report_layers(&mut report, &layers);
    Ok(report)
}

/// A replayed request: its class, its duration in ms (0 when not
/// recording) and, for a computation, its hardening statistics.
type Replayed = (&'static str, f64, Option<HardenStats>);

/// One epoch's requests through the daemon's calls, in one thread,
/// against a fresh artifact cache and component cache.
fn replay_epoch(
    t: &mut Tracer,
    layers: &mut Layers,
    dir: &Workdir,
    epoch: usize,
    images: &Images,
    steps: &[Step],
) -> Result<Vec<Result<Replayed, String>>, String> {
    let cache =
        ArtifactCache::open(dir.path.join(format!("replay{epoch}"))).map_err(|e| e.to_string())?;
    let components = MemoryComponentCache::new();
    let out = steps
        .iter()
        .map(|step| {
            let (class, stats) = replay_request(t, layers, images, &cache, &components, *step)?;
            let span = t.spans().iter().rev().find(|s| s.name == "service.request");
            Ok((class, span.map_or(0.0, |s| s.dur() * 1e3), stats))
        })
        .collect();
    let _ = std::fs::remove_dir_all(cache.dir());
    Ok(out)
}

/// One request through the daemon's calls. Returns its class (`hit`,
/// `computed`, or `incremental` for an edited image) and, for a
/// computation, its hardening statistics.
fn replay_request(
    t: &mut Tracer,
    layers: &mut Layers,
    images: &Images,
    cache: &ArtifactCache,
    components: &MemoryComponentCache,
    step: Step,
) -> Result<(&'static str, Option<HardenStats>), String> {
    t.next_request();
    let image_bytes = images.bytes(step.key);
    let cfg = config(step.key.variant);
    let computed = t.span("service.request", |t| -> Result<_, String> {
        let cfg_bytes = cfg.canonical_bytes();
        let key = t.span("service.key", |_| {
            artifact_key(image_bytes, &cfg_bytes, Op::Harden.to_byte())
        });
        if t.span("service.get", |_| cache.get(&key)).is_some() {
            return Ok(None);
        }
        let image = t
            .span("elf.parse", |_| Image::parse(image_bytes))
            .map_err(|e| format!("parse: {e}"))?;
        let hardened = t
            .span("core.harden", |_| {
                redfat_core::harden_cached(&image, &cfg, job_threads(), components)
            })
            .map_err(|e| format!("harden: {e}"))?;
        let artifact = t.span("elf.write", |_| hardened.image.to_bytes());
        add(layers, "elf.bytes_out", artifact.len() as f64);
        replay::add_harden_stats(layers, &hardened.stats);
        let entry = ArtifactEntry {
            artifact,
            stats: render_harden_stats(&hardened.stats),
        };
        t.span("service.put", |_| cache.put(&key, &entry))
            .map_err(|e| format!("artifact write: {e}"))?;
        Ok(Some((image, hardened.stats)))
    })?;
    let Some((image, stats)) = computed else {
        return Ok(("hit", None));
    };
    if t.on {
        replay::split(t, layers, &image, &cfg);
    }
    let class = if step.key.edited {
        "incremental"
    } else {
        "computed"
    };
    Ok((class, Some(stats)))
}
