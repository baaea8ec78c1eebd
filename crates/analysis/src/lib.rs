//! Static binary analyses for the RedFat rewriter (paper §6).
//!
//! Everything here is *conservative over-approximation*, in the precise
//! sense the paper requires: imprecision may shrink an optimization's
//! applicability (smaller batches, fewer free scratch registers) but can
//! never change program behavior.
//!
//! * [`disasm`]: linear-sweep disassembly of executable segments, with
//!   explicit *unknown gaps* where bytes do not decode -- unknown code is
//!   left untouched by the rewriter.
//! * [`cfg`]: basic-block recovery. Any direct branch/call target is a
//!   leader; indirect control flow marks the function boundary as opaque.
//! * [`liveness`]: backward register/flags liveness, used to find
//!   *clobbered* (dead) registers so trampolines can skip save/restore
//!   work (§6 "additional low-level optimizations"). Unknown successors
//!   are treated as reading everything.
//! * [`batch`]: grouping of checkable memory accesses into per-basic-
//!   block batches (§6 "check batching") and shape-compatible merge
//!   groups (§6 "check merging").
//! * [`elim`]: the check-elimination rule -- memory operands that provably
//!   cannot reach low-fat heap memory (§6 "check elimination").
//! * [`dataflow`]: a generic forward worklist solver over the recovered
//!   CFG (unknown-entry roots, widening), shared by the flow passes.
//! * [`domtree`]: iterative dominator tree rooted at a virtual super-root
//!   over all unknown entries.
//! * [`provenance`]: flow-sensitive non-heap provenance -- per-register
//!   value intervals proving that an access cannot touch the heap, a
//!   strict superset of the syntactic elimination rule.
//! * [`redundant`]: dominator-based redundant-check elimination -- a full
//!   check subsumed by an identical dominating check is downgraded to
//!   redzone-only.
//! * [`callgraph`]: call-graph recovery over the CFG -- direct call and
//!   tail-call edges, conservative Top for indirect calls, condensed to
//!   SCCs for bottom-up summary computation.
//! * [`summary`]: per-function summaries over the provenance lattice --
//!   return-register facts, may-write register masks, and heap purity --
//!   iterated over call-graph SCCs with recursion widening to Top.
//! * [`classify`]: the per-site check verdict -- syntactic, flow,
//!   interprocedural -- shared by the hardening pipeline and the report,
//!   over the image-wide roots and summaries of a [`FlowContext`].
//! * [`report`]: per-site classification report (`redfat analyze`),
//!   one entry point [`analyze_image`] taking [`AnalyzeOptions`].

pub mod batch;
pub mod callgraph;
pub mod cfg;
pub mod classify;
pub mod dataflow;
pub mod disasm;
pub mod domtree;
pub mod elim;
pub mod liveness;
pub mod provenance;
pub mod redundant;
pub mod report;
pub mod summary;

pub use batch::{merge_checks, plan_batches, Batch, MergedCheck};
pub use callgraph::{CallGraph, CallSite};
pub use cfg::{Cfg, MAX_BLOCK};
pub use classify::{unreached_sites, FlowContext, SiteClassifier, SiteVerdict};
pub use dataflow::{solve_forward, unknown_entries, ForwardAnalysis, ForwardSolution};
pub use disasm::{disassemble, Disasm};
pub use domtree::DomTree;
pub use elim::can_reach_heap;
pub use liveness::{dead_flags_in_run, flags_live_after_run, Liveness};
pub use provenance::{operand_non_heap, span_avoids_heap, AbsVal, Provenance, RegFacts};
pub use redundant::RedundantChecks;
pub use report::{
    analyze, analyze_image, render_callgraph, render_callgraph_dot, AnalysisReport, AnalyzeOptions,
    SiteReport,
};
pub use summary::{FuncSummary, Summaries};
