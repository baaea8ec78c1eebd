//! Per-site check classification (paper §6 "check elimination"): the one
//! place that decides whether a memory access needs a check. The
//! hardening pipeline (`redfat harden`) and the report (`redfat
//! analyze`) both ask [`SiteClassifier::classify`], so the checks the
//! pipeline drops are exactly the ones the report and its soundness
//! oracle see eliminated.
//!
//! [`FlowContext`] owns the image-wide inputs of the flow passes: the
//! unknown-entry roots and, with interprocedural summaries, the
//! call-effect and pure-write tables. A [`SiteClassifier`] holds one
//! CFG component's provenance and applies the verdict precedence:
//! syntactic rule first, then flow-sensitive provenance, with an
//! elimination the summary-free provenance cannot prove attributed to
//! the interprocedural tier.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::unknown_entries;
use crate::disasm::Disasm;
use crate::elim::can_reach_heap;
use crate::provenance::{CallEffect, Provenance};
use crate::redundant::RedundantChecks;
use crate::summary::Summaries;
use redfat_x86::Inst;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Why a site does or does not carry a full check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// Full Redzone + LowFat check required.
    Checked,
    /// Eliminated by the syntactic rule (`rsp`/`rip`/absolute base, no
    /// index).
    EliminatedSyntactic,
    /// Eliminated by flow-sensitive provenance: the abstract address
    /// span provably avoids the heap.
    EliminatedFlow,
    /// Eliminated only with interprocedural call summaries: the
    /// intraprocedural provenance cannot prove the span heap-free, but
    /// with callee effects applied at call sites it can.
    EliminatedInterproc,
    /// Full check downgraded to redzone-only: subsumed by the
    /// dominating check at `root`.
    Redundant {
        /// The dominating site whose full check subsumes this one.
        root: u64,
    },
}

impl fmt::Display for SiteVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteVerdict::Checked => write!(f, "checked"),
            SiteVerdict::EliminatedSyntactic => write!(f, "elim:syntactic"),
            SiteVerdict::EliminatedFlow => write!(f, "elim:flow"),
            SiteVerdict::EliminatedInterproc => write!(f, "elim:interproc"),
            SiteVerdict::Redundant { root } => write!(f, "redundant(root={root:#x})"),
        }
    }
}

/// The whole-image summary tables, handed to every component.
struct SummaryTables {
    graph: CallGraph,
    effects: HashMap<u64, CallEffect>,
    pure_masks: HashMap<u64, u16>,
}

/// The image-wide inputs of the flow passes, computed once per image
/// and shared by every component's analyses.
///
/// Unknown-entry roots are an image-wide property (the any-indirect
/// escape hatch scans every instruction), and interprocedural summaries
/// are a whole-image fixpoint (call edges cross component boundaries),
/// so neither can be computed per component. Each per-component
/// analysis intersects the roots with its own blocks, which makes its
/// result the exact restriction of the whole-image one.
pub struct FlowContext {
    roots: BTreeSet<u64>,
    summaries: Option<SummaryTables>,
}

impl FlowContext {
    /// Computes the unknown-entry roots of the image and, when
    /// `interproc`, the function summaries over them.
    pub fn new(disasm: &Disasm, cfg: &Cfg, entry: u64, interproc: bool) -> FlowContext {
        let roots = unknown_entries(disasm, cfg, entry);
        let summaries = interproc.then(|| {
            let sums = Summaries::compute(disasm, cfg, &roots);
            SummaryTables {
                effects: sums.call_effects(),
                pure_masks: sums.pure_write_masks(),
                graph: sums.graph,
            }
        });
        FlowContext { roots, summaries }
    }

    /// The image-wide unknown-entry roots.
    pub fn roots(&self) -> &BTreeSet<u64> {
        &self.roots
    }

    /// The call graph the summaries were computed over; `None` unless
    /// interprocedural.
    pub(crate) fn call_graph(&self) -> Option<&CallGraph> {
        self.summaries.as_ref().map(|s| &s.graph)
    }

    /// Redundant-check elimination over the component `cfg`, with the
    /// pure-write masks applied at calls when interprocedural.
    /// `checked` must be exactly "this site carries a full check".
    pub fn redundant_checks<F: Fn(u64, &Inst) -> bool>(
        &self,
        disasm: &Disasm,
        cfg: &Cfg,
        checked: F,
    ) -> RedundantChecks {
        let pure_masks = self
            .summaries
            .as_ref()
            .map(|s| s.pure_masks.clone())
            .unwrap_or_default();
        RedundantChecks::compute(disasm, cfg, &self.roots, checked, pure_masks)
    }
}

/// Classifies the memory-access sites of one CFG component.
pub struct SiteClassifier<'a> {
    disasm: &'a Disasm,
    cfg: &'a Cfg,
    /// Apply the syntactic rule.
    syntactic: bool,
    /// Flow provenance, with callee effects when interprocedural.
    flow: Option<Provenance>,
    /// The summary-free provenance, only when `flow` applies effects:
    /// it attributes an elimination to the interprocedural tier.
    plain: Option<Provenance>,
}

impl<'a> SiteClassifier<'a> {
    /// A classifier for the component `cfg`. `syntactic` enables the
    /// syntactic rule; `flow` enables flow-sensitive elimination
    /// (`None`: no flow facts, so only the syntactic rule can apply).
    pub fn new(
        disasm: &'a Disasm,
        cfg: &'a Cfg,
        syntactic: bool,
        flow: Option<&FlowContext>,
    ) -> SiteClassifier<'a> {
        let (flow, plain) = match flow {
            None => (None, None),
            Some(ctx) => {
                let effects = ctx.summaries.as_ref().map(|s| &s.effects);
                let prov = |e| Provenance::compute(disasm, cfg, &ctx.roots, e);
                let flow = prov(effects.cloned().unwrap_or_default());
                (Some(flow), effects.map(|_| prov(HashMap::new())))
            }
        };
        SiteClassifier {
            disasm,
            cfg,
            syntactic,
            flow,
            plain,
        }
    }

    /// The verdict for the instruction at `addr`: `None` when it does
    /// not access memory, otherwise `Checked` or the pass that
    /// eliminates its check. Never `Redundant`: that downgrade is the
    /// caller's, over the sites this returns `Checked` for.
    pub fn classify(&self, addr: u64, inst: &Inst) -> Option<SiteVerdict> {
        let mem = inst.memory_access()?;
        let reaches = |p: &Provenance| p.site_can_reach_heap(self.disasm, self.cfg, addr, inst);
        Some(if self.syntactic && !can_reach_heap(&mem) {
            SiteVerdict::EliminatedSyntactic
        } else if self.flow.as_ref().is_some_and(|p| !reaches(p)) {
            if self.plain.as_ref().is_some_and(reaches) {
                SiteVerdict::EliminatedInterproc
            } else {
                SiteVerdict::EliminatedFlow
            }
        } else {
            SiteVerdict::Checked
        })
    }

    /// Human-readable abstract address span at the site; "unreached"
    /// without flow facts.
    pub(crate) fn describe_span(&self, addr: u64, inst: &Inst) -> String {
        match &self.flow {
            Some(p) => p.describe_span(self.disasm, self.cfg, addr, inst),
            None => "unreached".to_string(),
        }
    }
}

/// The memory-access sites outside every block of the whole-image
/// `cfg`, classified. They belong to no component, and no dataflow
/// reaches them, so only the syntactic rule (when `syntactic`) can
/// eliminate their checks.
pub fn unreached_sites<'a>(
    disasm: &'a Disasm,
    cfg: &'a Cfg,
    syntactic: bool,
) -> impl Iterator<Item = (u64, &'a Inst, SiteVerdict)> + 'a {
    let classifier = SiteClassifier::new(disasm, cfg, syntactic, None);
    disasm
        .iter()
        .filter(move |&(addr, _, _)| cfg.block_of(addr).is_none())
        .filter_map(move |(addr, inst, _)| Some((addr, inst, classifier.classify(addr, inst)?)))
}
