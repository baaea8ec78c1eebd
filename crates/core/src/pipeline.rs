//! The hardening pipeline: disassemble → CFG → batches → checks →
//! trampoline rewrite, plus the §5 two-phase profiling workflow.

use crate::allowlist::AllowList;
use crate::checks::{BatchPayload, CheckSpec, PayloadMode};
use crate::config::{HardenConfig, LowFatPolicy};
use crate::digest::{image_digest, Digest, Sha256, TOOL_VERSION};
use redfat_analysis::{disassemble, merge_checks, plan_batches, Batch, Cfg, Disasm, Liveness};
use redfat_analysis::{unreached_sites, FlowContext, SiteClassifier, SiteVerdict};
use redfat_elf::Image;
use redfat_emu::ProfileStats;
use redfat_parallel::parallel_map;
use redfat_rewriter::{rewrite_with_bases, Patch, RewriteBases, RewriteError, RewriteStats};
use redfat_x86::Inst;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A hardening failure.
#[derive(Debug)]
pub enum HardenError {
    /// The underlying rewrite failed.
    Rewrite(RewriteError),
}

impl std::fmt::Display for HardenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HardenError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
        }
    }
}

impl std::error::Error for HardenError {}

impl From<RewriteError> for HardenError {
    fn from(e: RewriteError) -> HardenError {
        HardenError::Rewrite(e)
    }
}

/// Instrumentation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardenStats {
    /// Memory-access instructions considered (post read/write filter).
    pub sites_considered: usize,
    /// Sites whose checks were eliminated by the syntactic rule
    /// (provably non-heap operand shape).
    pub sites_eliminated: usize,
    /// Sites *additionally* eliminated by flow-sensitive provenance
    /// (kept by the syntactic rule, proven non-heap by the interval
    /// analysis).
    pub sites_eliminated_flow: usize,
    /// Sites eliminated only with interprocedural call summaries
    /// applied: the intraprocedural provenance keeps them, the
    /// summary-augmented one proves them non-heap. Zero unless
    /// [`HardenConfig::interproc`] is set.
    pub sites_eliminated_interproc: usize,
    /// Full-check sites downgraded to redzone-only because a dominating
    /// identical check subsumes them. Counts materialized downgrades
    /// only: a merged check is downgraded iff every site it covers is
    /// subsumed.
    pub sites_redundant: usize,
    /// Sites instrumented with the full (Redzone)+(LowFat) check.
    pub sites_lowfat: usize,
    /// Sites instrumented with the (Redzone)-only fallback.
    pub sites_redzone: usize,
    /// Batches (= trampolines) emitted.
    pub batches: usize,
    /// Merged checks emitted across all batches.
    pub checks: usize,
    /// Sites skipped because a planned block member no longer decodes
    /// (graceful degradation on corrupt code; zero on well-formed
    /// inputs). Rewriter-level skips are counted separately in
    /// [`RewriteStats::skipped_sites`].
    pub sites_skipped: usize,
    /// Weakly-connected CFG components the image decomposed into (the
    /// unit of analysis sharding and of incremental reuse).
    pub components: usize,
    /// Components whose analysis/planning results were served from a
    /// [`ComponentCache`] instead of being recomputed. Always zero when
    /// no cache is supplied; equal to [`Self::components`] on a fully
    /// warm incremental re-harden.
    pub components_reused: usize,
    /// Underlying rewriter statistics.
    pub rewrite: RewriteStats,
}

impl HardenStats {
    /// Counts one considered site under its verdict.
    fn count_site(&mut self, verdict: SiteVerdict) {
        self.sites_considered += 1;
        match verdict {
            SiteVerdict::EliminatedSyntactic => self.sites_eliminated += 1,
            SiteVerdict::EliminatedFlow => self.sites_eliminated_flow += 1,
            SiteVerdict::EliminatedInterproc => self.sites_eliminated_interproc += 1,
            SiteVerdict::Checked | SiteVerdict::Redundant { .. } => {}
        }
    }

    /// `true` if any site was skipped rather than hardened -- the
    /// `DegradedHarden` outcome of the fault-injection taxonomy: the
    /// output image is valid and runs, but covers fewer sites than
    /// planned. Always `false` for well-formed inputs.
    pub fn degraded(&self) -> bool {
        self.sites_skipped > 0 || self.rewrite.skipped_sites > 0
    }
}

/// Liveness-derived clobber metadata for one instrumentation payload.
///
/// The payload only saves/restores registers (and flags) that are *live*
/// at its anchor; anything dead may legitimately differ from the baseline
/// after the payload runs. The differential oracle consumes this to
/// distinguish intended dead-register clobbers from real divergence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClobberInfo {
    /// Registers the payload may leave modified (dead at the anchor).
    pub regs: Vec<redfat_x86::Reg>,
    /// `true` if the payload may leave the arithmetic flags modified.
    pub flags: bool,
}

/// A hardened (or profiling-instrumented) binary.
pub struct Hardened {
    /// The rewritten image, a drop-in replacement for the original.
    pub image: Image,
    /// Statistics.
    pub stats: HardenStats,
    /// Clobber metadata per patched batch, keyed by anchor address.
    pub clobbers: HashMap<u64, ClobberInfo>,
}

/// Hardens `image` under `config` (paper §3/§6; production phase of §5
/// when the policy is an allow-list). Runs serially; callers wanting
/// parallel analysis use [`harden_threaded`].
pub fn harden(image: &Image, config: &HardenConfig) -> Result<Hardened, HardenError> {
    harden_threaded(image, config, 1)
}

/// [`harden`] with an explicit analysis thread count. The hardened
/// image, statistics and clobber metadata are byte-for-byte identical
/// at any thread count: analysis shards along weakly-connected CFG
/// components (whose results are exact restrictions of the whole-image
/// analyses), and the merged patch plan is ordered by anchor address
/// before the single serial rewrite.
pub fn harden_threaded(
    image: &Image,
    config: &HardenConfig,
    threads: usize,
) -> Result<Hardened, HardenError> {
    instrument(
        image,
        config,
        PayloadMode::Harden,
        RewriteBases::default(),
        threads,
    )
}

/// Hardens `image` with explicit trampoline/trap-table bases, for
/// instrumenting several images into one address space (separately
/// instrumented shared objects, paper §7.4).
pub fn harden_with_bases(
    image: &Image,
    config: &HardenConfig,
    bases: RewriteBases,
) -> Result<Hardened, HardenError> {
    instrument(image, config, PayloadMode::Harden, bases, 1)
}

/// Builds the §5 *profiling* binary: every heap-reachable access is
/// instrumented to record whether its (LowFat) check passes, via
/// `PROFILE_EVENT`. Run it against a test suite with [`crate::run`],
/// then feed the collected counters to [`collect_allowlist`].
pub fn instrument_profile(image: &Image) -> Result<Hardened, HardenError> {
    let bases = RewriteBases::default();
    let config = HardenConfig {
        elim: true,
        batch: false, // singleton batches: exact per-site attribution
        merge: false,
        elim_flow: false, // profile counters must cover every site
        elim_redundant: false,
        interproc: false,
        size_harden: true,
        instrument_reads: true,
        lowfat: LowFatPolicy::All,
        lowfat_only: false,
    };
    instrument(image, &config, PayloadMode::Profile, bases, 1)
}

/// Builds the allow-list from profiling counters: a site is allowed iff
/// it was observed and its (LowFat) check never failed (§5's hypothesis:
/// "each memory operation is always a false positive or never a false
/// positive").
pub fn collect_allowlist(profile: &HashMap<u64, ProfileStats>) -> AllowList {
    AllowList::from_sites(
        profile
            .iter()
            .filter(|(_, s)| s.fails == 0 && s.passes > 0)
            .map(|(&site, _)| site),
    )
}

/// The per-component output of the analysis + planning stages:
/// everything the serial rewrite needs, in a form that merges
/// deterministically. Opaque to callers -- it exists publicly only so
/// [`ComponentCache`] implementations can hold and hand back plans.
pub struct ComponentPlan {
    planned: Vec<(u64, BatchPayload)>,
    clobbers: Vec<(u64, ClobberInfo)>,
    stats: HardenStats,
}

/// A cache of per-CFG-component analysis/planning results, keyed by a
/// content digest over everything the component's analysis can observe
/// (instruction bytes, block structure, roots, function entries,
/// config, mode, tool version -- see [`component_key`]). Equal key
/// therefore implies equal plan, so a `get` hit may be substituted for
/// recomputation without changing the hardened output by a single
/// byte.
///
/// Implementations must be safe to call from the analysis worker
/// threads. `put` may be called concurrently for the same key with
/// equal plans; keeping either is correct.
pub trait ComponentCache: Sync {
    /// Looks up a previously published plan.
    fn get(&self, key: &Digest) -> Option<Arc<ComponentPlan>>;
    /// Publishes a freshly computed plan.
    fn put(&self, key: &Digest, plan: Arc<ComponentPlan>);
}

/// [`harden_threaded`] with a [`ComponentCache`]: per-component
/// analysis results are reused when a component's key (byte content +
/// analysis context) matches a cached entry, and newly computed
/// results are published for future runs. The output is byte-identical
/// to an uncached run; [`HardenStats::components_reused`] reports how
/// much analysis was skipped.
pub fn harden_cached(
    image: &Image,
    config: &HardenConfig,
    threads: usize,
    cache: &dyn ComponentCache,
) -> Result<Hardened, HardenError> {
    instrument_with_cache(
        image,
        config,
        PayloadMode::Harden,
        RewriteBases::default(),
        threads,
        Some(cache),
    )
}

/// The digest prefix shared by every component key of one (image,
/// config, mode) run: tool version, canonical config, payload mode,
/// and -- when interprocedural summaries are enabled -- the whole-image
/// digest. Summaries are a whole-image fixpoint handed to every shard,
/// so under `interproc` a component's plan can depend on bytes outside
/// the component; folding the image digest into the prefix keeps the
/// key sound at the cost of degrading reuse to whole-image granularity
/// for that (non-default) configuration.
fn cache_prefix(image: &Image, config: &HardenConfig, mode: PayloadMode) -> Digest {
    let mut h = Sha256::new();
    let tool = TOOL_VERSION.as_bytes();
    h.update_u64(tool.len() as u64);
    h.update(tool);
    let cfg_bytes = config.canonical_bytes();
    h.update_u64(cfg_bytes.len() as u64);
    h.update(&cfg_bytes);
    h.update(&[match mode {
        PayloadMode::Harden => 1,
        PayloadMode::Profile => 2,
    }]);
    if config.interproc {
        h.update(image_digest(image).as_bytes());
    }
    h.finalize()
}

/// The content key for one component: the run prefix plus every input
/// the shard analysis can observe -- block structure, member
/// instruction addresses and raw bytes, successor edges, opaque exits,
/// and the restrictions of the global root/leader/function-entry sets
/// to this component. A byte change anywhere in the component (or in
/// context it can see) changes the key; a change elsewhere in the
/// image leaves it untouched, which is exactly the incremental-reuse
/// granularity.
fn component_key(
    prefix: &Digest,
    disasm: &Disasm,
    image: &Image,
    sub: &Cfg,
    roots: Option<&BTreeSet<u64>>,
) -> Digest {
    let mut h = Sha256::new();
    h.update(prefix.as_bytes());
    h.update_u64(sub.blocks.len() as u64);
    for block in sub.blocks.values() {
        h.update_u64(block.start);
        h.update_u64(block.insts.len() as u64);
        let mut block_end = block.start;
        for &addr in &block.insts {
            h.update_u64(addr);
            match disasm.at(addr) {
                Some(&(_, len)) => {
                    h.update_u64(len as u64);
                    match image.read_bytes(addr, len as usize) {
                        Some(bytes) => h.update(bytes),
                        // Unreadable bytes for a decoded instruction
                        // cannot happen (decode read them); a distinct
                        // marker keeps the encoding total anyway.
                        None => h.update(&[0xFF]),
                    }
                    block_end = block_end.max(addr.saturating_add(len as u64));
                }
                // Member no longer decodes: the shard degrades to
                // skip-and-record, which the key must distinguish from
                // a decodable member.
                None => h.update_u64(u64::MAX),
            }
        }
        h.update_u64(block.succs.len() as u64);
        for &s in &block.succs {
            h.update_u64(s);
        }
        h.update(&[u8::from(block.opaque_exit)]);
        // Global leaders landing inside this block's byte span (block
        // splits seen by in-block planning).
        for &l in sub.leaders.range(block.start..block_end) {
            h.update_u64(l);
        }
        h.update_u64(u64::MAX); // leader-list terminator
    }
    // Unknown-entry roots this component's analyses can see. `None`
    // (analyses that need roots are disabled) must hash differently
    // from "enabled with no roots in this component".
    match roots {
        Some(roots) => {
            let in_comp: Vec<u64> = roots
                .iter()
                .copied()
                .filter(|&r| sub.block_of(r).is_some())
                .collect();
            h.update_u64(in_comp.len() as u64);
            for r in in_comp {
                h.update_u64(r);
            }
        }
        None => h.update_u64(u64::MAX),
    }
    // Function entries inside the component (call-boundary context for
    // the flow/redundant analyses).
    let entries: Vec<u64> = sub
        .func_entries
        .iter()
        .copied()
        .filter(|&e| sub.block_of(e).is_some())
        .collect();
    h.update_u64(entries.len() as u64);
    for e in entries {
        h.update_u64(e);
    }
    h.finalize()
}

/// Below this many instructions in recovered blocks a harden runs its
/// shards on the calling thread, whatever `threads` asks for: a helper
/// spawn then costs about what the second worker saves. DESIGN.md §9
/// records the crossover measurement behind the value.
const PARALLEL_MIN_INSTS: usize = 4096;

/// The worker count for sharding `cfg`'s components: `threads` once the
/// image is large enough to amortize a spawn, else one.
fn shard_workers(cfg: &Cfg, threads: usize) -> usize {
    let insts: usize = cfg.blocks.values().map(|b| b.insts.len()).sum();
    if insts < PARALLEL_MIN_INSTS {
        1
    } else {
        threads
    }
}

fn instrument(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
) -> Result<Hardened, HardenError> {
    instrument_with_cache(image, config, mode, bases, threads, None)
}

fn instrument_with_cache(
    image: &Image,
    config: &HardenConfig,
    mode: PayloadMode,
    bases: RewriteBases,
    threads: usize,
    cache: Option<&dyn ComponentCache>,
) -> Result<Hardened, HardenError> {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);

    // The flow passes' image-wide inputs -- unknown-entry roots and,
    // under `interproc`, the whole-image summary fixpoint -- computed
    // once here, serially, and handed to every shard. Only needed when
    // a flow pass runs.
    let need_flow = config.elim_flow || (config.elim_redundant && mode == PayloadMode::Harden);
    let flow = need_flow.then(|| {
        FlowContext::new(
            &disasm,
            &cfg,
            image.entry,
            config.interproc && config.elim_flow,
        )
    });

    // Shard along weakly-connected CFG components (≈ functions): no
    // edge crosses a shard, so every per-shard analysis result is the
    // exact restriction of its whole-image counterpart, and the shard
    // granularity -- not the thread count -- determines the output.
    // With a cache, each component is first looked up by content key;
    // a hit substitutes the cached plan for recomputation (same plan by
    // the key's soundness argument), a miss computes and publishes.
    let prefix = cache.map(|_| cache_prefix(image, config, mode));
    let workers = shard_workers(&cfg, threads);
    let shards: Vec<(Arc<ComponentPlan>, bool)> = parallel_map(cfg.components(), workers, |sub| {
        let key = prefix.as_ref().map(|p| {
            component_key(
                p,
                &disasm,
                image,
                sub,
                flow.as_ref().map(FlowContext::roots),
            )
        });
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            if let Some(plan) = cache.get(key) {
                return (plan, true);
            }
        }
        let plan = Arc::new(instrument_shard(&disasm, sub, config, mode, flow.as_ref()));
        if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
            cache.put(key, plan.clone());
        }
        (plan, false)
    });

    // Deterministic merge: shards arrive in component order; anchors
    // are globally unique, so the final sort is a total order.
    let mut stats = HardenStats::default();
    let mut clobbers: HashMap<u64, ClobberInfo> = HashMap::new();
    let mut planned: Vec<(u64, BatchPayload)> = Vec::new();
    for (shard, reused) in shards {
        stats.components += 1;
        stats.components_reused += reused as usize;
        stats.sites_considered += shard.stats.sites_considered;
        stats.sites_eliminated += shard.stats.sites_eliminated;
        stats.sites_eliminated_flow += shard.stats.sites_eliminated_flow;
        stats.sites_eliminated_interproc += shard.stats.sites_eliminated_interproc;
        stats.sites_redundant += shard.stats.sites_redundant;
        stats.sites_lowfat += shard.stats.sites_lowfat;
        stats.sites_redzone += shard.stats.sites_redzone;
        stats.checks += shard.stats.checks;
        stats.sites_skipped += shard.stats.sites_skipped;
        clobbers.extend(shard.clobbers.iter().cloned());
        planned.extend(shard.planned.iter().cloned());
    }
    planned.sort_by_key(|(anchor, _)| *anchor);
    stats.batches = planned.len();

    // Instructions in no recovered block belong to no shard; they are
    // never instrumented (batches only cover block members) but still
    // count toward the classification statistics.
    for (_, inst, verdict) in unreached_sites(&disasm, &cfg, config.elim) {
        if considered(config, inst) {
            stats.count_site(verdict);
        }
    }

    let patches: Vec<Patch> = planned
        .iter()
        .map(|(anchor, payload)| Patch {
            anchor: *anchor,
            payload: Box::new(move |a: &mut redfat_x86::Asm| payload.emit(a)),
        })
        .collect();

    let out = rewrite_with_bases(image, &disasm, &cfg, patches, bases)?;
    stats.rewrite = out.stats;
    Ok(Hardened {
        image: out.image,
        stats,
        clobbers,
    })
}

/// Whether the read/write policy considers `inst` a site at all.
fn considered(config: &HardenConfig, inst: &Inst) -> bool {
    config.instrument_reads || inst.writes_memory()
}

/// Runs analysis and batch/payload planning for one CFG component.
/// `cfg` is a sub-`Cfg` from [`Cfg::components`]; all queries stay
/// inside its blocks, so the results equal the whole-image pipeline's
/// restricted to this component.
fn instrument_shard(
    disasm: &Disasm,
    cfg: &Cfg,
    config: &HardenConfig,
    mode: PayloadMode,
    flow: Option<&FlowContext>,
) -> ComponentPlan {
    let liveness = Liveness::compute(disasm, cfg);
    let mut stats = HardenStats::default();

    // The shared classification (syntactic and, when enabled,
    // flow-sensitive check elimination) under the read/write policy.
    let classifier =
        SiteClassifier::new(disasm, cfg, config.elim, flow.filter(|_| config.elim_flow));
    let classify = |addr: u64, inst: &Inst| {
        if considered(config, inst) {
            classifier.classify(addr, inst)
        } else {
            None
        }
    };
    let filter = |addr: u64, inst: &Inst| classify(addr, inst) == Some(SiteVerdict::Checked);

    // Which sites the LowFat policy grants a *full* check.
    let allowed = |site: u64| match (&config.lowfat, mode) {
        (_, PayloadMode::Profile) => true,
        (LowFatPolicy::Disabled, _) => false,
        (LowFatPolicy::All, _) => true,
        (LowFatPolicy::AllowList(l), _) => l.contains(site),
    };

    // Redundant-check elimination: full checks subsumed by a dominating
    // identical full check are downgraded to redzone-only. The gen
    // predicate must be exactly "this site carries a full check", i.e.
    // the pipeline filter composed with the policy.
    let redundant = flow
        .filter(|_| config.elim_redundant && mode == PayloadMode::Harden)
        .map(|flow| flow.redundant_checks(disasm, cfg, |a, i| filter(a, i) && allowed(a)));
    // A site may be downgraded only when its root keeps its full check
    // (roots are non-redundant by construction, but an allow-list could
    // still withhold the root's LowFat component).
    let downgraded = |site: u64| {
        redundant
            .as_ref()
            .and_then(|r| r.root_of(site))
            .is_some_and(&allowed)
    };

    // Classification statistics for this shard's instructions.
    for block in cfg.blocks.values() {
        for &addr in &block.insts {
            // A block member that no longer decodes (corrupt input)
            // degrades to skip-and-record instead of aborting the
            // harden.
            let Some((inst, _)) = disasm.at(addr) else {
                stats.sites_skipped += 1;
                continue;
            };
            if let Some(verdict) = classify(addr, inst) {
                stats.count_site(verdict);
            }
        }
    }

    let batching = config.batch && mode == PayloadMode::Harden;
    let batches = plan_batches(disasm, cfg, batching, filter);

    // Build payloads; split any batch whose operand registers starve the
    // scratch allocator (extremely rare; singletons always succeed).
    let mut clobbers: Vec<(u64, ClobberInfo)> = Vec::new();
    let mut planned: Vec<(u64, BatchPayload)> = Vec::new();
    let mut queue: Vec<Batch> = batches;
    let mut qi = 0;
    while qi < queue.len() {
        let batch = queue[qi].clone();
        qi += 1;

        // Partition members by policy so merging never mixes policies.
        let (lf_members, rz_members): (Vec<u64>, Vec<u64>) =
            batch.members.iter().partition(|&&m| allowed(m));
        let mut specs: Vec<CheckSpec> = Vec::new();
        let mut batch_redundant = 0usize;
        // Redundant-check downgrades apply at merged-check granularity:
        // a check becomes redzone-only iff *every* site it covers is
        // subsumed by a dominating identical check. Downgrading a single
        // member would split its merge group and emit an extra check,
        // costing more than the downgrade saves.
        if !lf_members.is_empty() {
            let sub = Batch {
                anchor: batch.anchor,
                members: lf_members,
            };
            for check in merge_checks(disasm, &sub, config.merge) {
                let lowfat = !check.sites.iter().all(|&s| downgraded(s));
                if !lowfat {
                    batch_redundant += check.sites.len();
                }
                specs.push(CheckSpec { check, lowfat });
            }
        }
        if !rz_members.is_empty() {
            let sub = Batch {
                anchor: batch.anchor,
                members: rz_members,
            };
            for check in merge_checks(disasm, &sub, config.merge) {
                specs.push(CheckSpec {
                    check,
                    lowfat: false,
                });
            }
        }
        if specs.is_empty() {
            continue;
        }

        let dead = liveness.dead_regs_before(batch.anchor);
        let flags_dead = liveness.flags_dead_before(batch.anchor);
        let n_specs = specs.len();
        let site_counts: Vec<(usize, bool)> = specs
            .iter()
            .map(|s| (s.check.sites.len(), s.lowfat))
            .collect();
        match BatchPayload::plan(
            specs,
            &dead,
            flags_dead,
            config.size_harden,
            config.lowfat_only,
            mode,
        ) {
            Some(p) => {
                stats.checks += n_specs;
                stats.sites_redundant += batch_redundant;
                for (n, lowfat) in site_counts {
                    if lowfat {
                        stats.sites_lowfat += n;
                    } else {
                        stats.sites_redzone += n;
                    }
                }
                clobbers.push((
                    batch.anchor,
                    ClobberInfo {
                        regs: p.clobbers.clone(),
                        flags: !p.save_flags,
                    },
                ));
                planned.push((batch.anchor, p));
            }
            None => {
                // Scratch starvation: fall back to singleton batches.
                for &m in &batch.members {
                    queue.push(Batch {
                        anchor: m,
                        members: vec![m],
                    });
                }
            }
        }
    }

    ComponentPlan {
        planned,
        clobbers,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers(image: &Image, threads: usize) -> usize {
        let disasm = disassemble(image);
        shard_workers(&Cfg::recover(&disasm, image.entry, &[]), threads)
    }

    #[test]
    fn small_images_harden_on_the_calling_thread() {
        for w in redfat_workloads::spec::all() {
            assert_eq!(workers(&w.image(), 8), 1, "{} would spawn", w.name);
        }
        let kromium = redfat_workloads::kromium::build().image();
        assert_eq!(workers(&kromium, 8), 8);
        assert_eq!(workers(&kromium, 1), 1);
    }

    /// The stand-ins are below the threshold and harden serially at
    /// every thread count, so the threaded merge is checked here.
    #[test]
    fn threaded_harden_above_the_threshold_is_identical() {
        let source = redfat_workloads::kromium::source(24);
        let image = redfat_minic::compile(&source).unwrap();
        let config = HardenConfig::default();
        let serial = harden_threaded(&image, &config, 1).unwrap();
        for threads in [2usize, 8] {
            assert_eq!(workers(&image, threads), threads);
            let parallel = harden_threaded(&image, &config, threads).unwrap();
            assert_eq!(serial.image.to_bytes(), parallel.image.to_bytes());
            assert_eq!(serial.stats, parallel.stats);
            assert_eq!(serial.clobbers, parallel.clobbers);
        }
    }
}
