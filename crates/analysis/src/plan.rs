//! Whole-loop transformation legality: statement-level dependence
//! graphs, fission partitions, and DOACROSS lag schedules.
//!
//! The per-operand lattice ([`crate::Verdict`]) answers "may a *helper*
//! touch this stream ahead of the executor?". This module answers the
//! whole-loop question the next runtime layers need: "which
//! *reorderings of the loop itself* are legal?" — loop fission into
//! independently executable sub-loops, per-sub-loop DOALL parallelism,
//! and pipelined DOACROSS with a post/wait lag.
//!
//! ## Statements
//!
//! A [`cascade_trace::LoopSpec`] body (as the real-thread interpreter
//! executes it) folds **every** pure-read operand into an accumulator,
//! then stores a function of that accumulator through each write-mode
//! operand in operand order (`Modify` additionally reads its own old
//! value at the write). A *statement* is therefore one write-mode
//! operand — the anchor — together with the shared pure-read set; a
//! loop with no writes is a single pure-read statement. Fissioning the
//! loop at statement granularity re-executes the shared reads in each
//! sub-loop, so a fissioned statement computes bitwise-identical values
//! exactly when every read observes the same memory — which is what the
//! dependence edges govern.
//!
//! ## Edges
//!
//! Edges are directed `src → dst` = "`src`'s access must happen no
//! later than `dst`'s", each carrying the **minimal iteration lag** at
//! which the two statements touch a common element:
//!
//! * **flow** (write → read): statement `S` writes an element some
//!   later iteration reads. Since the shared reads feed every
//!   statement, a carried flow from `S` edges to *all* statements.
//!   Same-iteration write→read is *not* a dependence for the pure-read
//!   set (reads precede writes in the body) but *is* one (lag 0) into a
//!   later `Modify`'s own read.
//! * **anti** (read → write): a read observes an element `S` overwrites
//!   in the same (lag 0 — reads precede writes) or a later iteration.
//! * **output** (write → write): two writes touch a common element;
//!   lag-0 direction follows operand order.
//!
//! Lags come from the same machinery as [`crate::Verdict::lag`]: an
//! affine closed form where both patterns are affine, an exact
//! index-store replay otherwise, after a footprint-disjointness
//! short-circuit.
//!
//! ## Condensation and schedules
//!
//! Tarjan's SCC condensation of the statement graph yields the fission
//! partition in topological order ([`TransformPlan::partition`]): each
//! SCC is one sub-loop; singleton SCCs without carried self-dependences
//! are fully parallel (DOALL); an SCC whose minimal carried lag is
//! `L ≥ 2` admits a pipelined DOACROSS schedule in which iteration `i`
//! may start once every iteration `≤ i − L` has committed (the same
//! committed-frontier rule the helper horizon uses); `L = 1` is the
//! sequential residue. Verdicts are reported as typed diagnostics
//! (`AN009`–`AN013`), never panics, and every plan is falsifiable
//! against the dynamic replay oracle ([`crate::oracle::check_plan`]).

use std::collections::HashMap;

use cascade_trace::diag::{DiagCode, Diagnostic, Severity};
use cascade_trace::{LoopSpec, Mode, Pattern, StreamRef, Workload};

use crate::{analyze_loop, Journalability, LoopReport};

/// The kind of a statement-level dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write-then-read: the source statement produces a value the
    /// destination statement consumes.
    Flow,
    /// Read-then-write: the destination statement overwrites an element
    /// the source statement must observe first.
    Anti,
    /// Write-then-write: both statements store to a common element; the
    /// destination's store must land last.
    Output,
}

impl DepKind {
    /// Stable lower-case name for reports (`"flow"`, `"anti"`,
    /// `"output"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One statement of the loop body: a write-mode anchor operand plus the
/// shared pure-read set (or the pure-read body itself).
#[derive(Debug, Clone)]
pub struct Statement {
    /// Statement id (dense, in operand order).
    pub id: usize,
    /// Index into `spec.refs` of the anchoring write-mode operand;
    /// `None` for the pure-read body of a loop with no writes.
    pub anchor: Option<usize>,
    /// The anchor operand's name (or `"<reads>"`).
    pub name: &'static str,
}

/// One edge of the statement-level dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Source statement id (must execute no later than `dst`).
    pub src: usize,
    /// Destination statement id.
    pub dst: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Minimal iteration lag at which the dependence is realized;
    /// `0` = loop-independent (within one iteration), `L ≥ 1` =
    /// loop-carried at distance `L`.
    pub lag: u64,
    /// Name of the source statement's participating operand.
    pub src_ref: &'static str,
    /// Name of the destination statement's participating operand.
    pub dst_ref: &'static str,
}

/// The statement-level dependence graph of one loop.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Statements, in operand order (ids are dense indices).
    pub statements: Vec<Statement>,
    /// All dependence edges, deduplicated to the minimal lag per
    /// `(src, dst, kind, carried?)`.
    pub edges: Vec<DepEdge>,
    /// `Some(name)` when an operand's access pattern cannot be resolved
    /// statically (missing or loop-written index contents) — the graph
    /// proves nothing and the planner degrades to one sequential
    /// residue.
    pub opaque: Option<&'static str>,
}

/// Resolve the element a pattern touches at iteration `i`, or `None`
/// when it cannot be resolved (missing/short index contents, negative
/// affine index) — the same cases the analyzer flags separately.
pub(crate) fn elem_at(w: &Workload, p: &Pattern, i: u64) -> Option<u64> {
    match *p {
        Pattern::Affine { base, stride } => {
            let e = base + stride * i as i64;
            (e >= 0).then_some(e as u64)
        }
        Pattern::Indirect {
            index,
            ibase,
            istride,
        } => {
            let pos = ibase + istride * i as i64;
            let len = w.index.len_of(index)? as i64;
            (pos >= 0 && pos < len).then(|| w.index.get(index, pos as u64) as u64)
        }
    }
}

/// Minimal carried gap `min(i − j) ≥ 1` over pairs where `src` touches
/// an element at iteration `j` and `dst` touches the same element at
/// iteration `i > j`; `None` when no such pair exists. Affine closed
/// form when both patterns are affine, exact replay otherwise, after a
/// footprint-disjointness short-circuit.
fn carried_gap(w: &Workload, src: &StreamRef, dst: &StreamRef, n: u64) -> Option<u64> {
    if src.array != dst.array {
        return None;
    }
    if let (Some(sf), Some(df)) = (
        crate::ref_footprint(w, src, 0..n),
        crate::ref_footprint(w, dst, 0..n),
    ) {
        if !sf.overlaps(&df) {
            return None;
        }
    }
    if let (
        Pattern::Affine {
            base: sb,
            stride: ss,
        },
        Pattern::Affine {
            base: db,
            stride: ds,
        },
    ) = (src.pattern, dst.pattern)
    {
        // `dst` plays the "read" role of the closed form (later
        // iteration), `src` the "write" role.
        return crate::affine_flow_lag(db, ds, sb, ss, n);
    }
    let mut last: HashMap<u64, u64> = HashMap::new();
    let mut best: Option<u64> = None;
    for i in 0..n {
        if let Some(e) = elem_at(w, &dst.pattern, i) {
            if let Some(&j) = last.get(&e) {
                let gap = i - j;
                if best.is_none_or(|b| gap < b) {
                    best = Some(gap);
                }
                if best == Some(1) {
                    return best;
                }
            }
        }
        if let Some(e) = elem_at(w, &src.pattern, i) {
            last.insert(e, i);
        }
    }
    best
}

/// Do the two patterns touch a common element in the *same* iteration
/// somewhere in `0..n`? (Feeds the lag-0, loop-independent edges.)
fn same_iter_alias(w: &Workload, a: &StreamRef, b: &StreamRef, n: u64) -> bool {
    if a.array != b.array {
        return false;
    }
    if let (
        Pattern::Affine {
            base: ab,
            stride: asx,
        },
        Pattern::Affine {
            base: bb,
            stride: bs,
        },
    ) = (a.pattern, b.pattern)
    {
        if asx == bs {
            return ab == bb && n > 0;
        }
        let diff = bb - ab;
        let denom = asx - bs;
        if diff % denom != 0 {
            return false;
        }
        let i = diff / denom;
        return i >= 0 && (i as u64) < n && ab + asx * i >= 0;
    }
    (0..n).any(|i| {
        matches!(
            (elem_at(w, &a.pattern, i), elem_at(w, &b.pattern, i)),
            (Some(x), Some(y)) if x == y
        )
    })
}

impl DepGraph {
    /// Build the statement-level dependence graph of `spec`.
    pub fn build(w: &Workload, spec: &LoopSpec) -> DepGraph {
        let n = spec.iters;
        let written: Vec<_> = spec
            .refs
            .iter()
            .filter(|r| r.mode.writes())
            .map(|r| r.array)
            .collect();
        let opaque = spec
            .refs
            .iter()
            .find(|r| match r.pattern {
                Pattern::Affine { .. } => false,
                Pattern::Indirect { index, .. } => {
                    written.contains(&index) || !w.index.contains(index)
                }
            })
            .map(|r| r.name);

        let anchors: Vec<usize> = (0..spec.refs.len())
            .filter(|&k| spec.refs[k].mode.writes())
            .collect();
        let reads: Vec<usize> = (0..spec.refs.len())
            .filter(|&k| spec.refs[k].mode.is_read_only())
            .collect();
        let statements: Vec<Statement> = if anchors.is_empty() {
            vec![Statement {
                id: 0,
                anchor: None,
                name: "<reads>",
            }]
        } else {
            anchors
                .iter()
                .enumerate()
                .map(|(id, &a)| Statement {
                    id,
                    anchor: Some(a),
                    name: spec.refs[a].name,
                })
                .collect()
        };

        let mut g = DepGraph {
            statements,
            edges: Vec::new(),
            opaque,
        };
        if g.opaque.is_some() || anchors.is_empty() || n == 0 {
            return g;
        }

        let nstmt = anchors.len();
        for (s, &a) in anchors.iter().enumerate() {
            let wa = &spec.refs[a];

            // Carried flow from `wa` into the shared read set: the value
            // feeds the accumulator of *every* statement.
            let feed = reads
                .iter()
                .filter_map(|&r| carried_gap(w, wa, &spec.refs[r], n).map(|g| (g, r)))
                .min();
            if let Some((lag, r)) = feed {
                for t in 0..nstmt {
                    g.push(DepEdge {
                        src: s,
                        dst: t,
                        kind: DepKind::Flow,
                        lag,
                        src_ref: wa.name,
                        dst_ref: spec.refs[r].name,
                    });
                }
            }

            // Anti from the shared read set into `wa`: every statement
            // must observe the element before `wa` overwrites it. Reads
            // precede writes within an iteration, so a same-iteration
            // alias is a lag-0 edge.
            let carried_anti = reads
                .iter()
                .filter_map(|&r| carried_gap(w, &spec.refs[r], wa, n).map(|g| (g, r)))
                .min();
            let zero_anti = reads
                .iter()
                .find(|&&r| same_iter_alias(w, &spec.refs[r], wa, n))
                .copied();
            for (lag, r) in zero_anti.map(|r| (0, r)).into_iter().chain(carried_anti) {
                for t in 0..nstmt {
                    if lag == 0 && t == s {
                        continue; // a statement's own body is atomic
                    }
                    g.push(DepEdge {
                        src: t,
                        dst: s,
                        kind: DepKind::Anti,
                        lag,
                        src_ref: spec.refs[r].name,
                        dst_ref: wa.name,
                    });
                }
            }

            for (t, &b) in anchors.iter().enumerate() {
                let wb = &spec.refs[b];

                // Output: `wa`'s store must land before `wb`'s.
                if let Some(lag) = carried_gap(w, wa, wb, n) {
                    g.push(DepEdge {
                        src: s,
                        dst: t,
                        kind: DepKind::Output,
                        lag,
                        src_ref: wa.name,
                        dst_ref: wb.name,
                    });
                }
                if a < b && same_iter_alias(w, wa, wb, n) {
                    g.push(DepEdge {
                        src: s,
                        dst: t,
                        kind: DepKind::Output,
                        lag: 0,
                        src_ref: wa.name,
                        dst_ref: wb.name,
                    });
                }

                // `Modify` anchors read their own element at the write
                // phase: `wa`'s store feeds `wb`'s modify-read (flow),
                // and `wb`'s modify-read must precede `wa`'s store
                // (anti). Lag-0 direction follows operand order.
                if wb.mode == Mode::Modify {
                    if let Some(lag) = carried_gap(w, wa, wb, n) {
                        g.push(DepEdge {
                            src: s,
                            dst: t,
                            kind: DepKind::Flow,
                            lag,
                            src_ref: wa.name,
                            dst_ref: wb.name,
                        });
                    }
                    if a != b && same_iter_alias(w, wa, wb, n) {
                        let (src, dst, kind) = if a < b {
                            (s, t, DepKind::Flow)
                        } else {
                            (t, s, DepKind::Anti)
                        };
                        g.push(DepEdge {
                            src,
                            dst,
                            kind,
                            lag: 0,
                            src_ref: spec.refs[anchors[src]].name,
                            dst_ref: spec.refs[anchors[dst]].name,
                        });
                    }
                    if a != b {
                        if let Some(lag) = carried_gap(w, wb, wa, n) {
                            g.push(DepEdge {
                                src: t,
                                dst: s,
                                kind: DepKind::Anti,
                                lag,
                                src_ref: wb.name,
                                dst_ref: wa.name,
                            });
                        }
                    }
                }
            }
        }
        g
    }

    /// Insert an edge, keeping only the minimal lag per
    /// `(src, dst, kind, carried?)`.
    fn push(&mut self, e: DepEdge) {
        if let Some(old) = self.edges.iter_mut().find(|o| {
            o.src == e.src && o.dst == e.dst && o.kind == e.kind && (o.lag == 0) == (e.lag == 0)
        }) {
            if e.lag < old.lag {
                *old = e;
            }
            return;
        }
        self.edges.push(e);
    }

    /// Strongly connected components of the statement graph (Tarjan),
    /// in a canonical topological order of the condensation: among
    /// schedulable SCCs, the one containing the smallest statement id
    /// goes first (deterministic Kahn).
    pub fn condense(&self) -> Vec<Vec<usize>> {
        let n = self.statements.len();
        let mut succ = vec![Vec::new(); n];
        for e in &self.edges {
            if e.src != e.dst {
                succ[e.src].push(e.dst);
            }
        }
        struct Tarjan<'a> {
            succ: &'a [Vec<usize>],
            index: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            out: Vec<Vec<usize>>,
        }
        impl Tarjan<'_> {
            fn visit(&mut self, v: usize) {
                self.index[v] = Some(self.next);
                self.low[v] = self.next;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
                for &u in &self.succ[v] {
                    match self.index[u] {
                        None => {
                            self.visit(u);
                            self.low[v] = self.low[v].min(self.low[u]);
                        }
                        Some(i) if self.on_stack[u] => {
                            self.low[v] = self.low[v].min(i);
                        }
                        Some(_) => {}
                    }
                }
                if self.low[v] == self.index[v].unwrap() {
                    let mut scc = Vec::new();
                    loop {
                        let u = self.stack.pop().unwrap();
                        self.on_stack[u] = false;
                        scc.push(u);
                        if u == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    self.out.push(scc);
                }
            }
        }
        let mut t = Tarjan {
            succ: &succ,
            index: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for v in 0..n {
            if t.index[v].is_none() {
                t.visit(v);
            }
        }
        let sccs = t.out;

        // Kahn over the condensation, always picking the ready SCC with
        // the smallest leading statement id (each SCC is sorted, and the
        // Tarjan output order is traversal-dependent — this makes the
        // partition canonical).
        let mut scc_of = vec![0usize; n];
        for (k, scc) in sccs.iter().enumerate() {
            for &v in scc {
                scc_of[v] = k;
            }
        }
        let mut indeg = vec![0usize; sccs.len()];
        let mut csucc = vec![Vec::new(); sccs.len()];
        for e in &self.edges {
            let (a, b) = (scc_of[e.src], scc_of[e.dst]);
            if a != b && !csucc[a].contains(&b) {
                csucc[a].push(b);
                indeg[b] += 1;
            }
        }
        let mut order = Vec::with_capacity(sccs.len());
        let mut ready: Vec<usize> = (0..sccs.len()).filter(|&k| indeg[k] == 0).collect();
        while !ready.is_empty() {
            let pick = ready.iter().copied().min_by_key(|&k| sccs[k][0]).unwrap();
            ready.retain(|&k| k != pick);
            order.push(pick);
            for &b in &csucc[pick] {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    ready.push(b);
                }
            }
        }
        order.into_iter().map(|k| sccs[k].clone()).collect()
    }
}

/// How one fissioned sub-loop may be scheduled across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// No loop-carried dependence: iterations may run in any order
    /// (DOALL).
    Parallel,
    /// Pipelined post/wait at the minimal carried lag `L ≥ 2`:
    /// iteration `i` may start once every iteration `≤ i − L` has
    /// committed (the committed-frontier rule).
    DoAcross {
        /// The minimal carried dependence distance.
        lag: u64,
    },
    /// Minimal carried lag 1: iterations are totally ordered.
    Sequential,
}

impl Schedule {
    /// Stable lower-case name for reports (`"parallel"`, `"doacross"`,
    /// `"sequential"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Schedule::Parallel => "parallel",
            Schedule::DoAcross { .. } => "doacross",
            Schedule::Sequential => "sequential",
        }
    }

    fn from_lag(lag: Option<u64>) -> Schedule {
        match lag {
            None => Schedule::Parallel,
            Some(1) => Schedule::Sequential,
            Some(l) => Schedule::DoAcross { lag: l },
        }
    }
}

/// One fissioned sub-loop: an SCC of the dependence graph.
#[derive(Debug, Clone)]
pub struct SubLoop {
    /// Member statement ids, in operand order.
    pub statements: Vec<usize>,
    /// The sub-loop's cross-iteration schedule.
    pub schedule: Schedule,
    /// Minimal carried lag among the sub-loop's internal edges
    /// (`None` = no carried dependence).
    pub carried_lag: Option<u64>,
}

/// Which execution modes the analysis statically proves sound for one
/// loop — the per-kernel mode matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeMatrix {
    /// The real-thread cascade interpreter accepts the loop
    /// ([`LoopReport::rt_ok`]).
    pub cascade: bool,
    /// Helper horizon lag ([`LoopReport::helper_lag`]): helpers stay
    /// behind `committed + lag`; `None` = unrestricted.
    pub helper_lag: Option<u64>,
    /// Chunk write-sets are boundable, so undo journaling and bitwise
    /// rollback work ([`LoopReport::journalability`]).
    pub journalable: bool,
    /// The plan splits the loop into ≥ 2 sub-loops.
    pub fissionable: bool,
    /// Number of sub-loops in the fission partition.
    pub sub_loops: usize,
    /// Minimal carried dependence lag of the whole loop; `None` when no
    /// dependence is carried at all (or the loop is opaque).
    pub doacross_lag: Option<u64>,
    /// The whole loop carries no cross-iteration dependence: DOALL.
    pub parallel: bool,
}

/// A typed, machine-checkable transformation plan for one loop.
#[derive(Debug, Clone)]
pub struct TransformPlan {
    /// Loop name.
    pub loop_name: String,
    /// Iteration count.
    pub iters: u64,
    /// The statements of the loop body.
    pub statements: Vec<Statement>,
    /// The dependence edges between them.
    pub edges: Vec<DepEdge>,
    /// The fission partition, in the (topological) order the sub-loops
    /// must execute. A single entry means fission buys nothing: the
    /// loop *is* its own residue.
    pub partition: Vec<SubLoop>,
    /// True when some access pattern was statically unresolvable and
    /// the plan conservatively degraded to one sequential residue.
    pub opaque: bool,
    /// The execution-mode matrix for this loop.
    pub modes: ModeMatrix,
    /// Plan findings (`AN009`–`AN012`), loop-level.
    pub diagnostics: Vec<Diagnostic>,
}

impl TransformPlan {
    /// The distinct plan diagnostic codes, in first-seen order.
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut out = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Check a *proposed* fission partition (groups of statement ids in
    /// execution order) against the dependence graph. Legal iff every
    /// statement appears exactly once and no edge points from a later
    /// group to an earlier one. Violations come back as `AN013`
    /// diagnostics, never panics.
    pub fn check_partition(&self, groups: &[Vec<usize>]) -> Result<(), Vec<Diagnostic>> {
        let mut errs = Vec::new();
        let mut group_of = vec![None; self.statements.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &s in g {
                match group_of.get(s).copied() {
                    Some(None) => group_of[s] = Some(gi),
                    Some(Some(_)) => errs.push(
                        self.illegal(format!("statement {s} appears in more than one group")),
                    ),
                    None => {
                        errs.push(self.illegal(format!("group {gi} names unknown statement {s}")))
                    }
                }
            }
        }
        if let Some(s) = group_of.iter().position(|g| g.is_none()) {
            errs.push(self.illegal(format!("statement {s} missing from the partition")));
        }
        if errs.is_empty() && self.opaque && groups.len() > 1 {
            errs.push(self.illegal(
                "loop has unresolvable access patterns; no fission is provable".to_string(),
            ));
        }
        if errs.is_empty() {
            for e in &self.edges {
                let (Some(gs), Some(gd)) = (group_of[e.src], group_of[e.dst]) else {
                    continue;
                };
                if gs > gd {
                    errs.push(self.illegal(format!(
                        "{} edge {} -> {} (lag {}) runs backwards: group {gs} \
                         is scheduled after group {gd}",
                        e.kind.as_str(),
                        e.src_ref,
                        e.dst_ref,
                        e.lag
                    )));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn illegal(&self, message: String) -> Diagnostic {
        Diagnostic::loop_level(
            DiagCode::IllegalPartition,
            Severity::Error,
            &self.loop_name,
            message,
        )
    }
}

/// Plan one loop, reusing an existing [`LoopReport`] for the mode
/// matrix (avoids re-running the per-operand analysis).
pub fn plan_loop_with_report(w: &Workload, spec: &LoopSpec, report: &LoopReport) -> TransformPlan {
    let graph = DepGraph::build(w, spec);
    let mut diags = Vec::new();
    let all_ids: Vec<usize> = (0..graph.statements.len()).collect();

    let (partition, opaque) = if let Some(name) = graph.opaque {
        diags.push(Diagnostic::loop_level(
            DiagCode::PlanOpaque,
            Severity::Warning,
            &spec.name,
            format!(
                "{name} has a statically unresolvable access pattern; \
                 the plan degrades to a single sequential residue"
            ),
        ));
        (
            vec![SubLoop {
                statements: all_ids,
                schedule: Schedule::Sequential,
                carried_lag: None,
            }],
            true,
        )
    } else {
        let partition: Vec<SubLoop> = graph
            .condense()
            .into_iter()
            .map(|members| {
                let lag = graph
                    .edges
                    .iter()
                    .filter(|e| e.lag >= 1 && members.contains(&e.src) && members.contains(&e.dst))
                    .map(|e| e.lag)
                    .min();
                SubLoop {
                    statements: members,
                    schedule: Schedule::from_lag(lag),
                    carried_lag: lag,
                }
            })
            .collect();
        (partition, false)
    };

    if !opaque && partition.len() >= 2 {
        diags.push(Diagnostic::loop_level(
            DiagCode::FissionLegal,
            Severity::Info,
            &spec.name,
            format!(
                "fission into {} sub-loops is legal in the listed order",
                partition.len()
            ),
        ));
    }
    if !opaque {
        for (k, sub) in partition.iter().enumerate() {
            let anchors = || {
                sub.statements
                    .iter()
                    .map(|&s| graph.statements[s].name)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            match sub.schedule {
                Schedule::DoAcross { lag } => diags.push(Diagnostic::loop_level(
                    DiagCode::DoacrossLag,
                    Severity::Info,
                    &spec.name,
                    format!(
                        "sub-loop {k} ({}) admits a DOACROSS post/wait schedule \
                         with min lag {lag}",
                        anchors()
                    ),
                )),
                Schedule::Parallel => diags.push(Diagnostic::loop_level(
                    DiagCode::PlanParallel,
                    Severity::Info,
                    &spec.name,
                    format!(
                        "sub-loop {k} ({}) carries no dependence; iterations \
                         may run in any order",
                        anchors()
                    ),
                )),
                Schedule::Sequential => {}
            }
        }
    }

    let carried = graph.edges.iter().filter(|e| e.lag >= 1).map(|e| e.lag);
    let doacross_lag = if opaque { None } else { carried.min() };
    let journalable = matches!(report.journalability(), Journalability::Journalable);
    let cascade = report.rt_ok();
    let modes = ModeMatrix {
        cascade,
        helper_lag: report.helper_lag(),
        journalable,
        fissionable: partition.len() >= 2,
        sub_loops: partition.len(),
        doacross_lag,
        parallel: !opaque && doacross_lag.is_none() && !graph.statements.is_empty(),
    };

    TransformPlan {
        loop_name: spec.name.clone(),
        iters: spec.iters,
        statements: graph.statements,
        edges: graph.edges,
        partition,
        opaque,
        modes,
        diagnostics: diags,
    }
}

/// Analyze and plan one loop.
pub fn plan_loop(w: &Workload, spec: &LoopSpec) -> TransformPlan {
    plan_loop_with_report(w, spec, &analyze_loop(w, spec))
}

/// Plan every loop of a workload, in workload order.
pub fn plan_workload(w: &Workload) -> Vec<TransformPlan> {
    let report = crate::analyze_workload(w);
    w.loops
        .iter()
        .zip(&report.loops)
        .map(|(spec, rep)| plan_loop_with_report(w, spec, rep))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_trace::{AddressSpace, ArrayId, IndexStore};

    fn sref(name: &'static str, array: ArrayId, pattern: Pattern, mode: Mode) -> StreamRef {
        StreamRef {
            name,
            array,
            pattern,
            mode,
            bytes: 8,
            hoistable: false,
        }
    }

    fn workload(
        iters: u64,
        refs: Vec<StreamRef>,
        space: AddressSpace,
        index: IndexStore,
    ) -> Workload {
        Workload {
            space,
            index,
            loops: vec![LoopSpec {
                name: "t".into(),
                iters,
                refs,
                compute: 1.0,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }],
        }
    }

    fn aff(base: i64, stride: i64) -> Pattern {
        Pattern::Affine { base, stride }
    }

    /// Recurrence fused with an independent store: `b(i+1) = f(a(i), b(i))`
    /// and `c(i) = g(a(i), b(i))`.
    fn fused() -> Workload {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let b = s.alloc("b", 8, 65);
        let c = s.alloc("c", 8, 64);
        workload(
            64,
            vec![
                sref("a(i)", a, aff(0, 1), Mode::Read),
                sref("b(i)", b, aff(0, 1), Mode::Read),
                sref("b(i+1)", b, aff(1, 1), Mode::Write),
                sref("c(i)", c, aff(0, 1), Mode::Write),
            ],
            s,
            IndexStore::new(),
        )
    }

    #[test]
    fn fused_recurrence_fissions_into_residue_plus_doall() {
        let w = fused();
        let p = plan_loop(&w, &w.loops[0]);
        assert!(!p.opaque);
        assert_eq!(p.statements.len(), 2);
        assert_eq!(p.partition.len(), 2, "{:?}", p.partition);
        // The recurrence statement must come first.
        assert_eq!(p.partition[0].statements, vec![0]);
        assert_eq!(p.partition[0].schedule, Schedule::Sequential);
        assert_eq!(p.partition[1].statements, vec![1]);
        assert_eq!(p.partition[1].schedule, Schedule::Parallel);
        assert!(p.modes.fissionable);
        assert_eq!(p.modes.doacross_lag, Some(1));
        assert!(!p.modes.parallel);
        assert!(p.codes().contains(&DiagCode::FissionLegal));
        assert!(p.codes().contains(&DiagCode::PlanParallel));
        // The flow edge from the b-write reaches *both* statements.
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Flow && e.src == 0 && e.dst == 1 && e.lag == 1));
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Flow && e.src == 0 && e.dst == 0 && e.lag == 1));
    }

    #[test]
    fn illegal_partition_is_rejected_with_an013() {
        let w = fused();
        let p = plan_loop(&w, &w.loops[0]);
        // Swapping the two sub-loops runs the recurrence after its consumer.
        let err = p
            .check_partition(&[vec![1], vec![0]])
            .expect_err("backwards partition must be rejected");
        assert!(err.iter().all(|d| d.code == DiagCode::IllegalPartition));
        assert!(err.iter().any(|d| d.message.contains("runs backwards")));
        // The plan's own partition is legal.
        let groups: Vec<Vec<usize>> = p.partition.iter().map(|s| s.statements.clone()).collect();
        p.check_partition(&groups).expect("own partition is legal");
        // Incomplete and duplicated partitions are rejected too.
        assert!(p.check_partition(&[vec![0]]).is_err());
        assert!(p.check_partition(&[vec![0, 1], vec![1]]).is_err());
    }

    #[test]
    fn carried_anti_dependence_serializes_a_sub_loop() {
        // `x(i) = f(y(i+1))` with `y(i) = g(...)`: the y-read looks one
        // ahead of the y-write, an anti dependence at distance 1.
        let mut s = AddressSpace::new();
        let x = s.alloc("x", 8, 64);
        let y = s.alloc("y", 8, 65);
        let w = workload(
            64,
            vec![
                sref("y(i+1)", y, aff(1, 1), Mode::Read),
                sref("x(i)", x, aff(0, 1), Mode::Write),
                sref("y(i)", y, aff(0, 1), Mode::Write),
            ],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        // Both statements consume y(i+1), so the y-writer has an incoming
        // anti edge from every statement, fusing the two into one SCC? No:
        // anti edges point *into* the y-writer (statement 1), so statement
        // 0 can still be peeled off ahead of it.
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Anti && e.src == 1 && e.dst == 1 && e.lag == 1));
        let yw = p
            .partition
            .iter()
            .find(|s| s.statements.contains(&1))
            .unwrap();
        assert_eq!(yw.schedule, Schedule::Sequential, "{:?}", p.edges);
    }

    #[test]
    fn wide_lag_yields_doacross_schedule() {
        // y(i+8) = f(y(i)): carried flow at distance 8.
        let mut s = AddressSpace::new();
        let y = s.alloc("y", 8, 72);
        let w = workload(
            64,
            vec![
                sref("y(i)", y, aff(0, 1), Mode::Read),
                sref("y(i+8)", y, aff(8, 1), Mode::Write),
            ],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert_eq!(p.partition.len(), 1);
        assert_eq!(p.partition[0].schedule, Schedule::DoAcross { lag: 8 });
        assert_eq!(p.modes.doacross_lag, Some(8));
        assert!(p.codes().contains(&DiagCode::DoacrossLag));
    }

    #[test]
    fn scatter_modify_collisions_come_from_the_replay_scan() {
        // hist(key(i)) += ... with a key stream whose nearest repeat is 3
        // iterations apart.
        let mut s = AddressSpace::new();
        let h = s.alloc("hist", 8, 8);
        let key = s.alloc("key", 4, 16);
        let mut index = IndexStore::new();
        index.set(key, vec![0, 1, 2, 0, 1, 2, 7, 6, 5, 7, 6, 5, 3, 4, 3, 4]);
        let w = workload(
            16,
            vec![sref(
                "hist(key(i))",
                h,
                Pattern::Indirect {
                    index: key,
                    ibase: 0,
                    istride: 1,
                },
                Mode::Modify,
            )],
            s,
            index,
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert_eq!(p.partition.len(), 1);
        // Nearest collision: key[12]=3, key[14]=3 → lag 2.
        assert_eq!(p.partition[0].carried_lag, Some(2));
        assert_eq!(p.partition[0].schedule, Schedule::DoAcross { lag: 2 });
    }

    #[test]
    fn unresolvable_index_degrades_to_opaque_residue() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let idx = s.alloc("idx", 4, 64);
        // No contents installed for idx.
        let w = workload(
            64,
            vec![
                sref(
                    "a(idx(i))",
                    a,
                    Pattern::Indirect {
                        index: idx,
                        ibase: 0,
                        istride: 1,
                    },
                    Mode::Write,
                ),
                sref("a(i)", a, aff(0, 1), Mode::Read),
            ],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert!(p.opaque);
        assert_eq!(p.partition.len(), 1);
        assert_eq!(p.partition[0].schedule, Schedule::Sequential);
        assert!(p.codes().contains(&DiagCode::PlanOpaque));
        assert!(!p.modes.fissionable);
        assert!(!p.modes.parallel);
        // Opaque loops admit no multi-group partition.
        assert!(p.check_partition(&[vec![0]]).is_ok());
        assert!(p.check_partition(&[vec![0], vec![]]).is_err());
    }

    #[test]
    fn pure_read_loop_is_one_parallel_statement() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let w = workload(
            64,
            vec![sref("a(i)", a, aff(0, 1), Mode::Read)],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert_eq!(p.statements.len(), 1);
        assert_eq!(p.statements[0].anchor, None);
        assert_eq!(p.partition[0].schedule, Schedule::Parallel);
        assert!(p.modes.parallel);
        assert_eq!(p.modes.doacross_lag, None);
    }

    #[test]
    fn disjoint_writes_fission_into_parallel_sub_loops() {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let x = s.alloc("x", 8, 64);
        let y = s.alloc("y", 8, 64);
        let w = workload(
            64,
            vec![
                sref("a(i)", a, aff(0, 1), Mode::Read),
                sref("x(i)", x, aff(0, 1), Mode::Write),
                sref("y(i)", y, aff(0, 1), Mode::Write),
            ],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert_eq!(p.partition.len(), 2);
        assert!(p.partition.iter().all(|s| s.schedule == Schedule::Parallel));
        assert!(p.modes.parallel);
        assert!(p.modes.fissionable);
    }

    #[test]
    fn same_iteration_output_alias_orders_by_operand_position() {
        // Two writes to the same stream element every iteration: operand
        // order is the only legal order, as a lag-0 output edge.
        let mut s = AddressSpace::new();
        let a = s.alloc("a", 8, 64);
        let w = workload(
            64,
            vec![
                sref("a(i) first", a, aff(0, 1), Mode::Write),
                sref("a(i) second", a, aff(0, 1), Mode::Write),
            ],
            s,
            IndexStore::new(),
        );
        let p = plan_loop(&w, &w.loops[0]);
        assert!(p
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Output && e.src == 0 && e.dst == 1 && e.lag == 0));
        assert!(p.check_partition(&[vec![1], vec![0]]).is_err());
        assert!(p.check_partition(&[vec![0], vec![1]]).is_ok());
        assert!(p.check_partition(&[vec![0, 1]]).is_ok());
    }
}
