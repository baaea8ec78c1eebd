//! Structured per-site analysis reporting: what each memory-access site
//! is classified as, by which pass, and why. Backs the `redfat analyze`
//! CLI subcommand and the paper-style ablation accounting.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::classify::{unreached_sites, FlowContext, SiteClassifier, SiteVerdict};
use crate::disasm::{disassemble, Disasm};
use crate::provenance::AbsVal;
use crate::summary::Summaries;
use redfat_elf::Image;
use redfat_x86::{Inst, Reg};

/// Classification of one memory-access site.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Instruction address.
    pub addr: u64,
    /// Entry address of the recovered function owning the site, when
    /// the site lies inside a recovered block (nearest function entry
    /// at or below the address).
    pub func: Option<u64>,
    /// Disassembly text.
    pub inst: String,
    /// Bytes accessed.
    pub len: u8,
    /// Whether the instruction writes memory.
    pub is_write: bool,
    /// The classification.
    pub verdict: SiteVerdict,
    /// Human-readable abstract address span at the site.
    pub span: String,
}

/// Whole-image analysis summary.
pub struct AnalysisReport {
    /// Per-site classifications, in address order.
    pub sites: Vec<SiteReport>,
    /// Number of recovered basic blocks.
    pub blocks: usize,
    /// Number of decoded instructions.
    pub insts: usize,
    /// Number of unknown-entry roots the dataflow was seeded with.
    pub roots: usize,
    /// Whether interprocedural summaries were applied.
    pub interproc: bool,
}

impl AnalysisReport {
    /// Count of sites with the given verdict kind.
    pub fn count(&self, f: impl Fn(&SiteVerdict) -> bool) -> usize {
        self.sites.iter().filter(|s| f(&s.verdict)).count()
    }

    /// Sites still carrying a full check.
    pub fn checked(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::Checked))
    }

    /// Sites eliminated by the syntactic rule.
    pub fn eliminated_syntactic(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::EliminatedSyntactic))
    }

    /// Sites additionally eliminated by provenance flow analysis.
    pub fn eliminated_flow(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::EliminatedFlow))
    }

    /// Sites eliminated only with interprocedural summaries.
    pub fn eliminated_interproc(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::EliminatedInterproc))
    }

    /// Sites downgraded to redzone-only by the redundant pass.
    pub fn redundant(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::Redundant { .. }))
    }
}

/// Knobs for [`analyze_image`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Worker threads for per-component sharding; `0` and `1` both run
    /// the shards on the calling thread.
    pub threads: usize,
    /// Apply interprocedural function summaries at call sites.
    pub interproc: bool,
}

/// Runs the full static-analysis stack over an image -- disassembly, CFG
/// recovery, provenance, redundant-check elimination -- and classifies
/// every memory-access site the way the instrumentation pipeline would
/// under its most aggressive configuration (`instrument_reads = true`).
///
/// The per-component analyses are sharded across `threads` workers
/// (the calling thread alone at `0` or `1`). Each component carries the full image-wide
/// unknown-entry root set, so per-shard provenance and redundant-check
/// results are exactly the whole-image results restricted to that
/// component; the merged report is identical to the serial one at any
/// thread count. Interprocedural summaries are computed *globally*
/// (call edges cross component boundaries by construction) and handed
/// to every shard, which preserves the same property.
pub fn analyze_image(image: &Image, opts: AnalyzeOptions) -> AnalysisReport {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    analyze_with(&disasm, &cfg, image.entry, opts)
}

/// [`analyze_image`] over pre-computed disassembly and CFG, on the
/// calling thread and intraprocedural.
pub fn analyze(disasm: &Disasm, cfg: &Cfg, entry: u64) -> AnalysisReport {
    analyze_with(disasm, cfg, entry, AnalyzeOptions::default())
}

fn analyze_with(disasm: &Disasm, cfg: &Cfg, entry: u64, opts: AnalyzeOptions) -> AnalysisReport {
    let flow = FlowContext::new(disasm, cfg, entry, opts.interproc);
    // Function attribution wants the call graph; the summaries already
    // built one when interprocedural.
    let built;
    let graph = match flow.call_graph() {
        Some(g) => g,
        None => {
            built = CallGraph::build(disasm, cfg);
            &built
        }
    };

    let analyze_shard = |sub: &Cfg| -> Vec<SiteReport> {
        let classifier = SiteClassifier::new(disasm, sub, true, Some(&flow));
        let redundant = flow.redundant_checks(disasm, sub, |addr, inst| {
            classifier.classify(addr, inst) == Some(SiteVerdict::Checked)
        });
        let mut sites = Vec::new();
        for block in sub.blocks.values() {
            for &addr in &block.insts {
                let (inst, _) = disasm.at(addr).expect("block member decoded");
                let Some(verdict) = classifier.classify(addr, inst) else {
                    continue;
                };
                let verdict = match (verdict, redundant.root_of(addr)) {
                    (SiteVerdict::Checked, Some(root)) => SiteVerdict::Redundant { root },
                    (v, _) => v,
                };
                let span = classifier.describe_span(addr, inst);
                sites.push(site_report(
                    addr,
                    inst,
                    graph.owner_of_addr(addr),
                    verdict,
                    span,
                ));
            }
        }
        sites
    };

    let mut sites: Vec<SiteReport> =
        redfat_parallel::parallel_map(cfg.components(), opts.threads, |sub| analyze_shard(sub))
            .into_iter()
            .flatten()
            .collect();
    sites.extend(
        unreached_sites(disasm, cfg, true)
            .map(|(addr, inst, v)| site_report(addr, inst, None, v, "unreached".to_string())),
    );
    sites.sort_by_key(|s| s.addr);

    AnalysisReport {
        sites,
        blocks: cfg.blocks.len(),
        insts: disasm.len(),
        roots: flow
            .roots()
            .iter()
            .filter(|r| cfg.blocks.contains_key(r))
            .count(),
        interproc: opts.interproc,
    }
}

fn site_report(
    addr: u64,
    inst: &Inst,
    func: Option<u64>,
    verdict: SiteVerdict,
    span: String,
) -> SiteReport {
    SiteReport {
        addr,
        func,
        inst: inst.to_string(),
        len: inst.access_len().unwrap_or(8),
        is_write: inst.writes_memory(),
        verdict,
        span,
    }
}

/// Renders the report as the `redfat analyze` text output.
pub fn render(report: &AnalysisReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} instructions, {} blocks, {} dataflow roots{}",
        report.insts,
        report.blocks,
        report.roots,
        if report.interproc {
            " (interprocedural summaries applied)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "{} access sites: {} checked, {} elim:syntactic, {} elim:flow, {} elim:interproc, {} redundant",
        report.sites.len(),
        report.checked(),
        report.eliminated_syntactic(),
        report.eliminated_flow(),
        report.eliminated_interproc(),
        report.redundant()
    );
    for s in &report.sites {
        let rw = if s.is_write { "W" } else { "R" };
        let func = s
            .func
            .map_or_else(|| "-".to_string(), |f| format!("{f:#x}"));
        let _ = writeln!(
            out,
            "{:#10x}  {rw}{}  {:<24} {:<24} fn={func:<10} {}",
            s.addr,
            s.len,
            s.verdict.to_string(),
            s.span,
            s.inst
        );
    }
    out
}

fn describe_absval(v: AbsVal) -> String {
    match v {
        AbsVal::Top => "⊤".to_string(),
        AbsVal::Interval { lo, hi } if lo == hi => format!("{lo:#x}"),
        AbsVal::Interval { lo, hi } => format!("[{lo:#x},{hi:#x}]"),
    }
}

/// Renders the recovered call graph with per-function site and summary
/// counts (the `redfat analyze --callgraph` text output).
pub fn render_callgraph(sums: &Summaries) -> String {
    use std::fmt::Write as _;
    let g = &sums.graph;
    let direct = g
        .sites
        .iter()
        .filter(|s| s.callee.is_some() && !s.tail)
        .count();
    let tail = g.sites.iter().filter(|s| s.tail).count();
    let indirect = g.sites.iter().filter(|s| s.callee.is_none()).count();
    let summarized = sums.iter().filter(|s| s.closed).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "call graph: {} functions ({} summarized), {} call sites ({} direct, {} tail, {} indirect)",
        g.entries.len(),
        summarized,
        g.sites.len(),
        direct,
        tail,
        indirect
    );
    for &entry in &g.entries {
        let blocks = g.body[&entry].len();
        let nsites = g.sites.iter().filter(|s| s.caller == entry).count();
        let desc = match sums.get(entry) {
            Some(s) if s.closed => format!(
                "closed{} may_write={:#06x} ret rax∈{}",
                if s.heap_pure { " heap-pure" } else { "" },
                s.may_write,
                describe_absval(s.at_return.get(Reg::Rax))
            ),
            _ => "⊤ (not summarized)".to_string(),
        };
        let _ = writeln!(
            out,
            "fn {entry:#x}: {blocks} blocks, {nsites} call sites -- {desc}"
        );
        for site in g.sites.iter().filter(|s| s.caller == entry) {
            let target = match site.callee {
                Some(t) => format!("{t:#x}"),
                None => "⊤ (indirect)".to_string(),
            };
            let kind = if site.tail { "tail" } else { "call" };
            let _ = writeln!(out, "  {:#x}: {kind} -> {target}", site.addr);
        }
    }
    let sccs: Vec<String> = g
        .sccs_bottom_up()
        .iter()
        .map(|scc| {
            let members: Vec<String> = scc.iter().map(|e| format!("{e:#x}")).collect();
            let tag = if g.is_recursive(scc) { "*" } else { "" };
            format!("[{}]{tag}", members.join(" "))
        })
        .collect();
    let _ = writeln!(out, "sccs bottom-up (* = recursive): {}", sccs.join(" "));
    out
}

/// Renders the call graph in Graphviz DOT form.
pub fn render_callgraph_dot(sums: &Summaries) -> String {
    use std::fmt::Write as _;
    let g = &sums.graph;
    let mut out = String::new();
    let _ = writeln!(out, "digraph callgraph {{");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for &entry in &g.entries {
        let style = match sums.get(entry) {
            Some(s) if s.closed && s.heap_pure => ", style=filled, fillcolor=palegreen",
            Some(s) if s.closed => ", style=filled, fillcolor=lightyellow",
            _ => "",
        };
        let _ = writeln!(
            out,
            "  \"{entry:#x}\" [label=\"{entry:#x}\\n{} blocks\"{style}];",
            g.body[&entry].len()
        );
    }
    let mut has_indirect = false;
    for site in &g.sites {
        match site.callee {
            Some(t) => {
                let style = if site.tail {
                    " [style=dashed, label=\"tail\"]"
                } else {
                    ""
                };
                let _ = writeln!(out, "  \"{:#x}\" -> \"{t:#x}\"{style};", site.caller);
            }
            None => {
                has_indirect = true;
                let _ = writeln!(out, "  \"{:#x}\" -> \"⊤\";", site.caller);
            }
        }
    }
    if has_indirect {
        let _ = writeln!(out, "  \"⊤\" [shape=doublecircle];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fn weigh(x) {
            var t = malloc(4 * 8);
            for (var i = 0; i < 4; i = i + 1) { t[i] = x * i; }
            var s = 0;
            for (var i = 0; i < 4; i = i + 1) { s = s + t[i]; }
            free(t);
            return s;
        }
        fn main() {
            var a = malloc(16 * 8);
            var s = 0;
            for (var i = 0; i < 16; i = i + 1) { a[i] = weigh(i); }
            for (var i = 0; i < 16; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }";

    #[test]
    fn threaded_analysis_matches_serial() {
        let image = redfat_minic::compile(SRC).unwrap();
        for interproc in [false, true] {
            let opts = |threads| AnalyzeOptions { threads, interproc };
            let serial = analyze_image(&image, opts(0));
            assert!(!serial.sites.is_empty());
            for threads in [1usize, 2, 8] {
                let par = analyze_image(&image, opts(threads));
                assert_eq!(
                    render(&serial),
                    render(&par),
                    "report differs at {threads} threads (interproc: {interproc})"
                );
                assert_eq!(serial.insts, par.insts);
                assert_eq!(serial.blocks, par.blocks);
                assert_eq!(serial.roots, par.roots);
            }
        }
    }

    #[test]
    fn sites_carry_function_attribution() {
        let image = redfat_minic::compile(SRC).unwrap();
        let report = analyze_image(&image, AnalyzeOptions::default());
        // Every in-block site is attributed to some recovered function.
        assert!(report.sites.iter().all(|s| s.func.is_some()));
        // More than one function exists, and sites spread across them.
        let funcs: std::collections::BTreeSet<u64> =
            report.sites.iter().filter_map(|s| s.func).collect();
        assert!(funcs.len() >= 2, "weigh and main both have sites");
    }

    #[test]
    fn callgraph_render_smoke() {
        let image = redfat_minic::compile(SRC).unwrap();
        let disasm = disassemble(&image);
        let cfg = Cfg::recover(&disasm, image.entry, &[]);
        let roots = crate::dataflow::unknown_entries(&disasm, &cfg, image.entry);
        let sums = Summaries::compute(&disasm, &cfg, &roots);
        let text = render_callgraph(&sums);
        assert!(text.contains("call graph:"));
        assert!(text.contains("sccs bottom-up"));
        let dot = render_callgraph_dot(&sums);
        assert!(dot.starts_with("digraph callgraph {"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
