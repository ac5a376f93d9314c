//! Query execution: a streaming executor over slot-addressed rows.
//!
//! The planner is deliberately simple — label-indexed candidate scans
//! with backtracking extension — because the paper's generated rules
//! are short linear patterns over graphs of ≤ 43k nodes. Cypher
//! semantics that matter to the study are honoured:
//!
//! * **relationship uniqueness** within one `MATCH` clause (no edge is
//!   used twice in a single pattern instantiation);
//! * **grouping** keys are the non-aggregate projection items;
//! * `OPTIONAL MATCH` emits a null-extended row on no match;
//! * `WHERE` filters with three-valued logic (`NULL` drops the row).
//!
//! Execution streams (DESIGN.md §16). A [`Plan`] resolves every
//! variable to a fixed row slot once; `MATCH` expands depth-first into
//! one reused row, binding slots on the way down and unbinding them on
//! the way back, and pushes each complete row straight into the next
//! clause. Aggregating projections fold rows into per-group
//! accumulators. Rows are materialised only where a full set is
//! needed: `ORDER BY`, `DISTINCT` keys and the final [`ResultSet`].

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;

use grm_pgraph::{Edge, EdgeId, Node, NodeId, PropertyGraph, Value, ValueKey};

use crate::ast::*;
use crate::error::{CypherError, Result};
use crate::eval::{Binding, CExpr, EvalCtx, Row, Slots};
use crate::parser::parse;
use crate::profile::{OpDesc, Profiler, QueryProfile};

/// A fully materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single integer cell of a 1×1 result (the common shape of
    /// `RETURN COUNT(*) AS support`), if that is what this is.
    pub fn single_int(&self) -> Option<i64> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            match &self.rows[0][0] {
                Value::Int(i) => Some(*i),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Parses and executes `src` against `graph`.
pub fn execute(graph: &PropertyGraph, src: &str) -> Result<ResultSet> {
    let query = parse(src)?;
    execute_query(graph, &query)
}

/// [`execute`] with query/row counters recorded on `scope`. No span
/// is opened — metric evaluation runs thousands of queries, and one
/// span each would dwarf the journal; the enclosing stage span owns
/// the time. The per-query row count feeds the
/// `cypher_rows_per_query` histogram, whose tail percentiles expose
/// rules that scan far more than the typical pattern.
pub fn execute_traced(
    graph: &PropertyGraph,
    src: &str,
    scope: &grm_obs::Scope,
) -> Result<ResultSet> {
    scope.add(grm_obs::Counter::CypherQueriesExecuted, 1);
    let result = execute(graph, src);
    if let Ok(rs) = &result {
        scope.add(grm_obs::Counter::CypherRowsMatched, rs.len() as u64);
        scope.observe(grm_obs::Histo::CypherRowsPerQuery, rs.len() as f64);
    }
    result
}

/// Parses and executes `src` with operator-level profiling — this
/// engine's `PROFILE`. Returns the result set together with the
/// recorded plan tree ([`QueryProfile`]); the un-profiled entry
/// points ([`execute`], [`execute_query`]) do zero accounting.
pub fn execute_profiled(graph: &PropertyGraph, src: &str) -> Result<(ResultSet, QueryProfile)> {
    Plan::new(&parse(src)?).run_profiled(graph, src)
}

/// Parses `src`, runs the optimizer rewrite pass against `graph`'s
/// statistics, and executes the rewritten query. Result-identical to
/// [`execute`] — the rewrite rules are proven order-preserving (see
/// `optimizer`) — but typically far cheaper in db-hits. For repeated
/// queries prefer a [`crate::BatchSession`], which also caches the
/// compiled plan and memoizes results.
pub fn execute_optimized(graph: &PropertyGraph, src: &str) -> Result<ResultSet> {
    let (query, _) = crate::optimizer::optimize(&parse(src)?, graph);
    Plan::new(&query).run(graph, None)
}

/// [`execute_optimized`] with operator-level profiling; also returns
/// the rewrite tally so callers can report what the optimizer did.
pub fn execute_optimized_profiled(
    graph: &PropertyGraph,
    src: &str,
) -> Result<(ResultSet, QueryProfile, crate::optimizer::RewriteStats)> {
    let (query, rewrites) = crate::optimizer::optimize(&parse(src)?, graph);
    let (rs, profile) = Plan::new(&query).run_profiled(graph, src)?;
    Ok((rs, profile, rewrites))
}

/// Executes an already-parsed query.
pub fn execute_query(graph: &PropertyGraph, query: &Query) -> Result<ResultSet> {
    Plan::new(query).run(graph, None)
}

// ---------------------------------------------------------------------------
// Prepared plans
// ---------------------------------------------------------------------------

/// A query prepared for execution: variables resolved to row slots,
/// expressions compiled, profiler operator slots laid out. Built once
/// per query text and cached with the plan in the
/// [`crate::QueryPlanCache`].
#[derive(Debug)]
pub(crate) struct Plan {
    /// Row width: one slot per variable name in the query.
    width: usize,
    clauses: Vec<Stage>,
    ret: ReturnStage,
    /// Profiler operator slots, in execution order.
    ops: Vec<OpDesc>,
}

#[derive(Debug)]
enum Stage {
    Match(MatchStage),
    With(WithStage),
    Unwind(UnwindStage),
}

#[derive(Debug)]
struct MatchStage {
    optional: bool,
    patterns: Vec<PatternPlan>,
    filter: Option<(CExpr, usize)>,
    /// Slots an `OPTIONAL MATCH` null-pads when nothing matched: the
    /// clause's variables not bound before it.
    pad: Vec<usize>,
}

/// One path pattern, compiled in both orientations; which one runs
/// is decided per execution from the graph's label cardinalities.
#[derive(Debug)]
struct PatternPlan {
    written: PathPattern,
    /// Endpoint variables already bound when the pattern runs.
    bound_ends: Vec<String>,
    forward: PathPlan,
    reversed: Option<PathPlan>,
}

#[derive(Debug)]
struct PathPlan {
    start: NodePlan,
    steps: Vec<StepPlan>,
    scan_op: usize,
    scan_name: &'static str,
    scan_detail: String,
}

#[derive(Debug)]
struct NodePlan {
    slot: Option<usize>,
    labels: Vec<String>,
    props: Vec<(String, CExpr)>,
}

#[derive(Debug)]
struct StepPlan {
    slot: Option<usize>,
    types: Vec<String>,
    props: Vec<(String, CExpr)>,
    direction: Direction,
    length: Option<(u32, Option<u32>)>,
    node: NodePlan,
    op: usize,
}

#[derive(Debug)]
struct WithStage {
    proj: Projection,
    filter: Option<(CExpr, usize)>,
    distinct: Option<usize>,
}

#[derive(Debug)]
struct UnwindStage {
    expr: CExpr,
    slot: usize,
    op: usize,
}

#[derive(Debug)]
struct ReturnStage {
    proj: Projection,
    distinct: Option<usize>,
    order: Vec<(CExpr, bool)>,
    sort_op: Option<usize>,
    skip: usize,
    limit: usize,
    window_op: Option<usize>,
    root_op: usize,
    columns: Vec<String>,
}

/// A `WITH` or `RETURN` projection.
#[derive(Debug)]
struct Projection {
    /// Raised when the clause runs — the alias and aggregate-placement
    /// checks hold for the clause as written, whatever the rows.
    error: Option<CypherError>,
    aggregate: bool,
    /// Plain items; the grouping keys when `aggregate`.
    keys: Vec<Item>,
    aggs: Vec<AggItem>,
    /// Output slot of every item, in item order (the `DISTINCT` key).
    outs: Vec<usize>,
    /// True when projecting a row evaluates expressions (and so may
    /// read properties).
    evaluates: bool,
    op: usize,
}

#[derive(Debug)]
struct Item {
    out: usize,
    expr: ItemExpr,
}

/// Bare variables keep their graph-element binding through
/// projection; all other expressions are materialised to values.
#[derive(Debug)]
enum ItemExpr {
    Var { slot: usize, name: String },
    Expr(CExpr),
}

#[derive(Debug)]
struct AggItem {
    out: usize,
    func: AggFunc,
    distinct: bool,
    arg: Option<CExpr>,
}

#[derive(Debug, PartialEq)]
enum AggFunc {
    CountStar,
    Count,
    Collect,
    Sum,
    Avg,
    Min,
    Max,
    /// Fails when the group is emitted, as a bad aggregate call does.
    Invalid(CypherError),
}

fn join_items(items: &[ProjItem]) -> String {
    items.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

fn projection_op(items: &[ProjItem]) -> &'static str {
    if items.iter().any(|i| i.expr.contains_aggregate()) {
        "EagerAggregation"
    } else {
        "Projection"
    }
}

/// The checks a projection fails regardless of its input: `WITH`
/// requires `expr AS name` for non-variables, and aggregates must sit
/// at the top level of their item.
fn projection_error(items: &[ProjItem], require_alias: bool) -> Option<CypherError> {
    if require_alias {
        if let Some(item) =
            items.iter().find(|i| i.alias.is_none() && !matches!(i.expr, Expr::Var(_)))
        {
            return Some(CypherError::semantic(format!(
                "expression `{}` in WITH must be aliased",
                item.expr
            )));
        }
    }
    let aggregate = items.iter().any(|i| i.expr.contains_aggregate());
    items
        .iter()
        .find(|i| {
            aggregate && i.expr.contains_aggregate() && !matches!(i.expr, Expr::FnCall { .. })
        })
        .map(|item| {
            CypherError::semantic(format!(
                "aggregate must be a top-level function call, got `{}`",
                item.expr
            ))
        })
}

/// Walks the query once, in clause order, tracking which variables
/// rows carry at each point (row shapes are static per clause
/// position, so this is exact).
struct Compiler {
    slots: Slots,
    bound: HashSet<String>,
    ops: Vec<OpDesc>,
}

impl Compiler {
    fn op(&mut self, name: &'static str, detail: String) -> usize {
        self.ops.push(OpDesc { name, detail });
        self.ops.len() - 1
    }

    fn expr(&mut self, e: &Expr) -> CExpr {
        CExpr::compile(e, &mut self.slots)
    }

    fn var(&mut self, v: &Option<String>) -> Option<usize> {
        v.as_ref().map(|v| self.slots.of(v))
    }

    fn props(&mut self, props: &[(String, Expr)]) -> Vec<(String, CExpr)> {
        props.iter().map(|(k, e)| (k.clone(), self.expr(e))).collect()
    }

    fn node(&mut self, n: &NodePattern) -> NodePlan {
        NodePlan { slot: self.var(&n.var), labels: n.labels.clone(), props: self.props(&n.props) }
    }

    /// Compiles `p` as written, charging its scan to `scan_op` and its
    /// steps, in order, to `step_ops`.
    fn path(&mut self, p: &PathPattern, scan_op: usize, step_ops: &[usize]) -> PathPlan {
        let scan_name = if p.start.var.as_ref().is_some_and(|v| self.bound.contains(v)) {
            "Argument"
        } else if p.start.labels.is_empty() {
            "AllNodesScan"
        } else {
            "NodeByLabelScan"
        };
        PathPlan {
            start: self.node(&p.start),
            steps: p
                .steps
                .iter()
                .zip(step_ops)
                .map(|((rel, node), &op)| StepPlan {
                    slot: self.var(&rel.var),
                    types: rel.types.clone(),
                    props: self.props(&rel.props),
                    direction: rel.direction,
                    length: rel.length,
                    node: self.node(node),
                    op,
                })
                .collect(),
            scan_op,
            scan_name,
            scan_detail: p.start.to_string(),
        }
    }

    fn match_clause(
        &mut self,
        optional: bool,
        patterns: &[PathPattern],
        where_clause: Option<&Expr>,
    ) -> MatchStage {
        let ops: Vec<(usize, Vec<usize>)> = patterns
            .iter()
            .map(|p| {
                let scan_op = self.op(
                    if p.start.labels.is_empty() { "AllNodesScan" } else { "NodeByLabelScan" },
                    p.start.to_string(),
                );
                let steps = p
                    .steps
                    .iter()
                    .map(|(rel, node)| {
                        let name = if rel.length.is_some() { "VarLengthExpand" } else { "Expand" };
                        self.op(name, format!("{rel}{node}"))
                    })
                    .collect();
                (scan_op, steps)
            })
            .collect();
        let filter_op = where_clause.map(|w| self.op("Filter", w.to_string()));

        let mut clause_vars: Vec<String> = Vec::new();
        let mut plans = Vec::with_capacity(patterns.len());
        for (p, (scan_op, step_ops)) in patterns.iter().zip(ops) {
            let end = p.steps.last().map(|(_, n)| n);
            let bound_ends = [&p.start.var, &end.and_then(|n| n.var.clone())]
                .into_iter()
                .flatten()
                .filter(|v| self.bound.contains(*v))
                .cloned()
                .collect();
            let forward = self.path(p, scan_op, &step_ops);
            let reversed = (!p.steps.is_empty()).then(|| {
                let back: Vec<usize> = step_ops.iter().rev().copied().collect();
                self.path(&p.reversed(), scan_op, &back)
            });
            plans.push(PatternPlan { written: p.clone(), bound_ends, forward, reversed });
            let vars = std::iter::once(&p.start.var)
                .chain(p.steps.iter().flat_map(|(rel, node)| [&rel.var, &node.var]))
                .flatten();
            for v in vars {
                if !self.bound.contains(v) && !clause_vars.contains(v) {
                    clause_vars.push(v.clone());
                }
            }
            self.bound.extend(clause_vars.iter().cloned());
        }
        MatchStage {
            optional,
            patterns: plans,
            filter: where_clause.map(|w| (self.expr(w), filter_op.expect("filter op"))),
            pad: clause_vars.iter().map(|v| self.slots.of(v)).collect(),
        }
    }

    fn projection(&mut self, items: &[ProjItem], require_alias: bool, op: usize) -> Projection {
        let aggregate = items.iter().any(|i| i.expr.contains_aggregate());
        let mut keys = Vec::new();
        let mut aggs = Vec::new();
        let mut outs = Vec::with_capacity(items.len());
        for item in items {
            let out = self.slots.of(&item.name());
            outs.push(out);
            if aggregate && item.expr.contains_aggregate() {
                aggs.push(self.aggregate(out, &item.expr));
            } else {
                let expr = match &item.expr {
                    Expr::Var(name) => {
                        ItemExpr::Var { slot: self.slots.of(name), name: name.clone() }
                    }
                    e => ItemExpr::Expr(self.expr(e)),
                };
                keys.push(Item { out, expr });
            }
        }
        let evaluates = !keys.is_empty() || aggs.iter().any(|a| a.arg.is_some());
        self.bound = items.iter().map(ProjItem::name).collect();
        Projection {
            error: projection_error(items, require_alias),
            aggregate,
            keys,
            aggs,
            outs,
            evaluates,
            op,
        }
    }

    fn aggregate(&mut self, out: usize, expr: &Expr) -> AggItem {
        let Expr::FnCall { name, distinct, star, args } = expr else {
            // Only reachable in a projection that fails before it runs.
            let err = CypherError::semantic("aggregate must be a function call");
            return AggItem { out, func: AggFunc::Invalid(err), distinct: false, arg: None };
        };
        if *star {
            return AggItem { out, func: AggFunc::CountStar, distinct: false, arg: None };
        }
        let func = match name.as_str() {
            _ if args.is_empty() => AggFunc::Invalid(CypherError::semantic(format!(
                "{name}() aggregate requires an argument"
            ))),
            "count" => AggFunc::Count,
            "collect" => AggFunc::Collect,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            other => {
                AggFunc::Invalid(CypherError::semantic(format!("unknown aggregate `{other}`")))
            }
        };
        AggItem { out, func, distinct: *distinct, arg: args.first().map(|a| self.expr(a)) }
    }
}

impl Plan {
    /// Prepares `query`.
    pub(crate) fn new(query: &Query) -> Plan {
        let mut c = Compiler { slots: Slots::default(), bound: HashSet::new(), ops: Vec::new() };
        let mut clauses = Vec::with_capacity(query.clauses.len());
        for clause in &query.clauses {
            clauses.push(match clause {
                Clause::Match { optional, patterns, where_clause } => {
                    Stage::Match(c.match_clause(*optional, patterns, where_clause.as_ref()))
                }
                Clause::With { distinct, items, where_clause } => {
                    let op = c.op(projection_op(items), join_items(items));
                    let filter_op = where_clause.as_ref().map(|w| c.op("Filter", w.to_string()));
                    let distinct = distinct.then(|| c.op("Distinct", join_items(items)));
                    let proj = c.projection(items, true, op);
                    let filter = where_clause.as_ref().map(|w| (c.expr(w), filter_op.unwrap()));
                    Stage::With(WithStage { proj, filter, distinct })
                }
                Clause::Unwind { expr, var } => {
                    let op = c.op("Unwind", format!("{expr} AS {var}"));
                    let expr = c.expr(expr);
                    c.bound.insert(var.clone());
                    Stage::Unwind(UnwindStage { expr, slot: c.slots.of(var), op })
                }
            });
        }
        let ret = &query.ret;
        let op = c.op(projection_op(&ret.items), join_items(&ret.items));
        let distinct = ret.distinct.then(|| c.op("Distinct", join_items(&ret.items)));
        let sort_op = (!ret.order_by.is_empty()).then(|| {
            let detail = ret
                .order_by
                .iter()
                .map(|o| format!("{}{}", o.expr, if o.descending { " DESC" } else { "" }))
                .collect::<Vec<_>>()
                .join(", ");
            c.op("Sort", detail)
        });
        let window_op = (ret.skip.is_some() || ret.limit.is_some()).then(|| {
            let mut parts = Vec::new();
            if let Some(s) = ret.skip {
                parts.push(format!("SKIP {s}"));
            }
            if let Some(l) = ret.limit {
                parts.push(format!("LIMIT {l}"));
            }
            c.op(if ret.limit.is_some() { "Limit" } else { "Skip" }, parts.join(" "))
        });
        let columns: Vec<String> = ret.items.iter().map(ProjItem::name).collect();
        let root_op = c.op("ProduceResults", columns.join(", "));
        let proj = c.projection(&ret.items, false, op);
        let order = ret.order_by.iter().map(|o| (c.expr(&o.expr), o.descending)).collect();
        Plan {
            width: c.slots.len(),
            clauses,
            ret: ReturnStage {
                proj,
                distinct,
                order,
                sort_op,
                skip: ret.skip.unwrap_or(0) as usize,
                limit: ret.limit.map(|l| l as usize).unwrap_or(usize::MAX),
                window_op,
                root_op,
                columns,
            },
            ops: c.ops,
        }
    }

    /// Executes the plan against `graph`, charging `prof` when given.
    pub(crate) fn run(&self, graph: &PropertyGraph, prof: Option<&Profiler>) -> Result<ResultSet> {
        let mut exec = Exec::new(self, graph, prof);
        let mut row = vec![None; self.width];
        exec.push(0, &mut row)?;
        for si in 0..self.clauses.len() {
            exec.finish(si)?;
        }
        exec.finish_return()
    }

    /// [`Plan::run`] under a fresh profiler; `src` labels the profile.
    pub(crate) fn run_profiled(
        &self,
        graph: &PropertyGraph,
        src: &str,
    ) -> Result<(ResultSet, QueryProfile)> {
        let prof = Profiler::new(&self.ops);
        let rs = self.run(graph, Some(&prof))?;
        Ok((rs, prof.finish(src)))
    }
}

// ---------------------------------------------------------------------------
// Grouping and DISTINCT keys
// ---------------------------------------------------------------------------

/// Hash → entry-id chains for tables whose keys live elsewhere, so a
/// probe compares borrowed keys in place and only a new entry stores
/// (or clones) its key.
#[derive(Default)]
struct HashIndex {
    heads: HashMap<u64, u32>,
    next: Vec<u32>,
}

const NO_ENTRY: u32 = u32::MAX;

impl HashIndex {
    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut at = *self.heads.get(&hash)?;
        while at != NO_ENTRY {
            if eq(at as usize) {
                return Some(at as usize);
            }
            at = self.next[at as usize];
        }
        None
    }

    /// Records entry `self.len()` under `hash`.
    fn push(&mut self, hash: u64) {
        let id = self.next.len() as u32;
        let prev = self.heads.insert(hash, id).unwrap_or(NO_ENTRY);
        self.next.push(prev);
    }

    fn len(&self) -> usize {
        self.next.len()
    }
}

/// One grouping-key part: graph elements by id, values under
/// [`Value::group_eq`], borrowed from the graph when they were read
/// from it.
#[derive(Debug)]
enum Key<'g> {
    Node(NodeId),
    Edge(EdgeId),
    Val(Cow<'g, Value>),
}

impl Key<'_> {
    fn hash(&self, h: &mut impl Hasher) {
        match self {
            Key::Node(id) => {
                h.write_u8(0);
                h.write_u32(id.0);
            }
            Key::Edge(id) => {
                h.write_u8(1);
                h.write_u32(id.0);
            }
            Key::Val(v) => {
                h.write_u8(2);
                v.group_hash(h);
            }
        }
    }

    fn group_eq(&self, other: &Key<'_>) -> bool {
        match (self, other) {
            (Key::Node(a), Key::Node(b)) => a == b,
            (Key::Edge(a), Key::Edge(b)) => a == b,
            (Key::Val(a), Key::Val(b)) => a.group_eq(b),
            _ => false,
        }
    }

    fn binding(&self) -> Binding {
        match self {
            Key::Node(id) => Binding::Node(*id),
            Key::Edge(id) => Binding::Edge(*id),
            Key::Val(v) => Binding::Val(v.as_ref().clone()),
        }
    }
}

impl<'a> Key<'a> {
    /// The key part of a binding, borrowing its value.
    fn of(b: &'a Binding) -> Key<'a> {
        match b {
            Binding::Node(id) => Key::Node(*id),
            Binding::Edge(id) => Key::Edge(*id),
            Binding::Val(v) => Key::Val(Cow::Borrowed(v)),
        }
    }

    fn into_owned(self) -> Key<'static> {
        match self {
            Key::Node(id) => Key::Node(id),
            Key::Edge(id) => Key::Edge(id),
            Key::Val(v) => Key::Val(Cow::Owned(v.into_owned())),
        }
    }
}

/// Rows seen by a `DISTINCT`, keyed on the projected slots.
#[derive(Default)]
struct DistinctSet {
    keys: Vec<Key<'static>>,
    index: HashIndex,
}

impl DistinctSet {
    /// True when `row`'s key over `slots` is new (and records it).
    fn insert(&mut self, row: &Row, slots: &[usize]) -> bool {
        let part = |s: usize| Key::of(row[s].as_ref().expect("projection binds every item"));
        let mut h = DefaultHasher::new();
        for &s in slots {
            part(s).hash(&mut h);
        }
        let hash = h.finish();
        let (keys, width) = (&self.keys, slots.len());
        let seen = self.index.find(hash, |i| {
            slots.iter().enumerate().all(|(j, &s)| keys[i * width + j].group_eq(&part(s)))
        });
        if seen.is_some() {
            return false;
        }
        self.keys.extend(slots.iter().map(|&s| part(s).into_owned()));
        self.index.push(hash);
        true
    }

    /// [`DistinctSet::insert`] as `Distinct` operator `op`, counted.
    fn pass(&mut self, prof: Option<&Profiler>, op: usize, row: &Row, slots: &[usize]) -> bool {
        let new = self.insert(row, slots);
        if let Some(p) = prof {
            p.rows_in(op, 1);
            p.rows(op, u64::from(new));
        }
        new
    }
}

/// Running state of one aggregate in one group.
enum Acc {
    Count(i64),
    Collect(Vec<Value>),
    Sum { acc: f64, all_int: bool },
    Avg { acc: f64, n: usize },
    Best(Option<Value>),
    Invalid,
}

struct AccSlot<'g> {
    acc: Acc,
    /// Values already folded, for `DISTINCT` aggregates.
    seen: Option<HashSet<ValueKey<Cow<'g, Value>>>>,
}

impl<'g> AccSlot<'g> {
    fn new(agg: &AggItem) -> Self {
        let acc = match agg.func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Collect => Acc::Collect(Vec::new()),
            AggFunc::Sum => Acc::Sum { acc: 0.0, all_int: true },
            AggFunc::Avg => Acc::Avg { acc: 0.0, n: 0 },
            AggFunc::Min | AggFunc::Max => Acc::Best(None),
            AggFunc::Invalid(_) => Acc::Invalid,
        };
        AccSlot { acc, seen: agg.distinct.then(HashSet::default) }
    }

    /// Counts one row (`COUNT(*)`, or a non-null `COUNT(x)`).
    fn count(&mut self) {
        if let Acc::Count(n) = &mut self.acc {
            *n += 1;
        }
    }

    /// Folds one non-null argument value.
    fn fold(&mut self, func: &AggFunc, v: Cow<'g, Value>) -> Result<()> {
        if let Some(seen) = &mut self.seen {
            if !seen.insert(ValueKey(v.clone())) {
                return Ok(());
            }
        }
        match &mut self.acc {
            Acc::Count(n) => *n += 1,
            Acc::Collect(values) => values.push(v.into_owned()),
            Acc::Sum { acc, all_int } => match v.as_ref() {
                Value::Int(i) => *acc += *i as f64,
                Value::Float(f) => {
                    *all_int = false;
                    *acc += *f;
                }
                other => {
                    return Err(CypherError::runtime(format!(
                        "SUM over non-numeric {}",
                        other.type_name()
                    )))
                }
            },
            Acc::Avg { acc, n } => {
                *acc += v.as_f64().ok_or_else(|| {
                    CypherError::runtime(format!("AVG over non-numeric {}", v.type_name()))
                })?;
                *n += 1;
            }
            Acc::Best(best) => {
                let want_min = *func == AggFunc::Min;
                let better = match best {
                    None => true,
                    Some(b) => matches!(
                        v.cypher_cmp(b),
                        Some(ord) if (want_min && ord.is_lt()) || (!want_min && ord.is_gt())
                    ),
                };
                if better {
                    *best = Some(v.into_owned());
                }
            }
            Acc::Invalid => {}
        }
        Ok(())
    }

    fn finish(self, func: &AggFunc) -> Result<Value> {
        Ok(match self.acc {
            Acc::Count(n) => Value::Int(n),
            Acc::Collect(values) => Value::List(values),
            Acc::Sum { acc, all_int } => {
                if all_int {
                    Value::Int(acc as i64)
                } else {
                    Value::Float(acc)
                }
            }
            Acc::Avg { n: 0, .. } => Value::Null,
            Acc::Avg { acc, n } => Value::Float(acc / n as f64),
            Acc::Best(best) => best.unwrap_or(Value::Null),
            Acc::Invalid => match func {
                AggFunc::Invalid(e) => return Err(e.clone()),
                _ => unreachable!("only invalid aggregates start invalid"),
            },
        })
    }
}

/// The groups of an aggregating projection, in first-seen order:
/// `keys` and `accs` hold one fixed-width run per group.
#[derive(Default)]
struct Groups<'g> {
    keys: Vec<Key<'g>>,
    accs: Vec<AccSlot<'g>>,
    index: HashIndex,
    /// Key parts of the row being folded.
    scratch: Vec<Key<'g>>,
}

impl<'g> Groups<'g> {
    /// Folds `row` into its group, creating the group on first sight.
    fn fold(&mut self, ctx: &EvalCtx<'g>, proj: &'g Projection, row: &Row) -> Result<()> {
        let group = if proj.keys.is_empty() {
            if self.index.len() == 0 {
                self.accs.extend(proj.aggs.iter().map(AccSlot::new));
                self.index.push(0);
            }
            0
        } else {
            self.group_of(ctx, proj, row)?
        };
        let accs = &mut self.accs[group * proj.aggs.len()..];
        for (agg, acc) in proj.aggs.iter().zip(accs) {
            let Some(arg) = &agg.arg else {
                if agg.func == AggFunc::CountStar {
                    acc.count();
                }
                continue;
            };
            // COUNT(var) needs the binding's null-ness, not its rendering.
            if let (AggFunc::Count, false, CExpr::Var { slot, .. }) = (&agg.func, agg.distinct, arg)
            {
                if let Some(b) = &row[*slot] {
                    if !matches!(b, Binding::Val(Value::Null)) {
                        acc.count();
                    }
                    continue;
                }
            }
            let v = ctx.eval(arg, row)?;
            if !v.is_null() {
                acc.fold(&agg.func, v)?;
            }
        }
        Ok(())
    }

    /// The group of `row`'s key: key parts are evaluated into the
    /// scratch buffer and compared in place; only a new group keeps
    /// them.
    fn group_of(&mut self, ctx: &EvalCtx<'g>, proj: &'g Projection, row: &Row) -> Result<usize> {
        self.scratch.clear();
        let mut h = DefaultHasher::new();
        for item in &proj.keys {
            let key = match &item.expr {
                ItemExpr::Var { slot, name } => match &row[*slot] {
                    Some(b) => Key::of(b).into_owned(),
                    None => {
                        return Err(CypherError::semantic(format!("unknown variable `{name}`")))
                    }
                },
                ItemExpr::Expr(e) => Key::Val(ctx.eval(e, row)?),
            };
            key.hash(&mut h);
            self.scratch.push(key);
        }
        let hash = h.finish();
        let (keys, scratch, width) = (&self.keys, &self.scratch, proj.keys.len());
        let found = self.index.find(hash, |g| {
            keys[g * width..(g + 1) * width].iter().zip(scratch).all(|(a, b)| a.group_eq(b))
        });
        Ok(match found {
            Some(g) => g,
            None => {
                self.keys.append(&mut self.scratch);
                self.accs.extend(proj.aggs.iter().map(AccSlot::new));
                self.index.push(hash);
                self.index.len() - 1
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Per-clause execution state.
#[derive(Default)]
enum StageState<'g> {
    #[default]
    None,
    Match {
        /// Per pattern: run end-to-start?
        reversed: Vec<bool>,
        /// Relationships consumed by the partial match, across the
        /// clause's patterns (relationship uniqueness).
        used: Vec<EdgeId>,
    },
    With {
        out: Vec<Option<Binding>>,
        groups: Box<Groups<'g>>,
        seen: DistinctSet,
    },
}

struct ReturnState<'g> {
    out: Vec<Option<Binding>>,
    groups: Groups<'g>,
    seen: DistinctSet,
    /// Projected rows kept for `ORDER BY`.
    sorted: Vec<Vec<Option<Binding>>>,
    /// Rows that reached the SKIP/LIMIT window so far.
    windowed: usize,
    rows: Vec<Vec<Value>>,
}

/// Hop ceiling for unbounded variable-length patterns (`*`, `*2..`).
/// Neo4j has no hard limit but warns above similar depths; the rule
/// queries this engine serves never need longer chains.
const MAX_VAR_HOPS: u32 = 16;

/// Candidate (edge, neighbour) pairs of `n` respecting `dir`.
/// Undirected expansion skips self-loops on the incoming side so each
/// edge matches once.
fn neighbours<'g>(
    g: &'g PropertyGraph,
    n: NodeId,
    dir: Direction,
) -> impl Iterator<Item = (&'g Edge, NodeId)> + 'g {
    let out = matches!(dir, Direction::Out | Direction::Undirected)
        .then(|| g.out_edges(n).map(|e| (e, e.dst)));
    let inc = matches!(dir, Direction::In | Direction::Undirected).then(|| {
        g.in_edges(n).filter(move |e| dir == Direction::In || e.src != e.dst).map(|e| (e, e.src))
    });
    out.into_iter().flatten().chain(inc.into_iter().flatten())
}

struct Exec<'g> {
    plan: &'g Plan,
    ctx: EvalCtx<'g>,
    prof: Option<&'g Profiler>,
    states: Vec<StageState<'g>>,
    ret: ReturnState<'g>,
}

impl<'g> Exec<'g> {
    fn new(plan: &'g Plan, graph: &'g PropertyGraph, prof: Option<&'g Profiler>) -> Self {
        let states = plan
            .clauses
            .iter()
            .map(|stage| match stage {
                // Begin each path at whichever end is cheaper to
                // enumerate — a bound variable beats a label scan beats
                // a full scan. The decision function is shared with the
                // plan-time rewrite pass; on a pre-reversed plan its
                // strict `<` answers no, so the two never fight.
                Stage::Match(m) => StageState::Match {
                    reversed: m
                        .patterns
                        .iter()
                        .map(|p| {
                            let is_bound = |v: &str| p.bound_ends.iter().any(|b| b == v);
                            crate::optimizer::should_reverse(graph, &is_bound, &p.written)
                        })
                        .collect(),
                    used: Vec::new(),
                },
                Stage::With(_) => StageState::With {
                    out: vec![None; plan.width],
                    groups: Box::default(),
                    seen: DistinctSet::default(),
                },
                Stage::Unwind(_) => StageState::None,
            })
            .collect();
        Exec {
            plan,
            ctx: EvalCtx::new(graph, prof),
            prof,
            states,
            ret: ReturnState {
                out: vec![None; plan.width],
                groups: Groups::default(),
                seen: DistinctSet::default(),
                sorted: Vec::new(),
                windowed: 0,
                rows: Vec::new(),
            },
        }
    }

    fn enter(&self, op: usize) {
        if let Some(p) = self.prof {
            p.enter(op);
        }
    }

    /// Pushes one row into clause `si` (the RETURN section past the
    /// last clause).
    fn push(&mut self, si: usize, row: &mut Row) -> Result<()> {
        let plan: &'g Plan = self.plan;
        let Some(stage) = plan.clauses.get(si) else {
            return self.push_return(row);
        };
        let mut state = std::mem::take(&mut self.states[si]);
        let result = match (stage, &mut state) {
            (Stage::Match(m), StageState::Match { reversed, used }) => {
                let mut matched = false;
                let mut cx = MatchCx { si, m, reversed, used, matched: &mut matched };
                self.expand(&mut cx, 0, row).and_then(|()| {
                    if matched || !m.optional {
                        return Ok(());
                    }
                    for &s in &m.pad {
                        row[s] = Some(Binding::Val(Value::Null));
                    }
                    self.push(si + 1, row)?;
                    for &s in &m.pad {
                        row[s] = None;
                    }
                    Ok(())
                })
            }
            (Stage::With(w), StageState::With { out, groups, seen }) => {
                self.push_with(si, w, out, groups, seen, row)
            }
            (Stage::Unwind(u), _) => self.push_unwind(si, u, row),
            _ => unreachable!("stage state matches its stage"),
        };
        self.states[si] = state;
        result
    }

    // -- MATCH ---------------------------------------------------------------

    /// Expands pattern `pi` onward; a complete row goes through the
    /// clause's WHERE and on to the next clause.
    fn expand(&mut self, cx: &mut MatchCx<'_, 'g>, pi: usize, row: &mut Row) -> Result<()> {
        let m: &'g MatchStage = cx.m;
        let Some(pattern) = m.patterns.get(pi) else {
            if let Some((w, op)) = &m.filter {
                if let Some(p) = self.prof {
                    p.enter(*op);
                    p.call(*op);
                    p.rows_in(*op, 1);
                }
                if !self.ctx.eval_filter(w, row)? {
                    return Ok(());
                }
                if let Some(p) = self.prof {
                    p.rows(*op, 1);
                }
            }
            *cx.matched = true;
            return self.push(cx.si + 1, row);
        };
        let path = match (&pattern.reversed, cx.reversed[pi]) {
            (Some(rev), true) => rev,
            _ => &pattern.forward,
        };
        let op = path.scan_op;
        if let Some(p) = self.prof {
            p.call(op);
            p.rows_in(op, 1);
            p.set_scan(op, path.scan_name, &path.scan_detail);
        }
        let g = self.ctx.graph;
        // Already bound: just re-check constraints.
        if let Some(bound) = path.start.slot.and_then(|s| row[s].as_ref()) {
            if let Binding::Node(id) = *bound {
                if self.node_matches(&path.start, g.node(id), row, op)? {
                    if let Some(p) = self.prof {
                        p.rows(op, 1);
                    }
                    self.walk(cx, pi, path, 0, id, row)?;
                }
            }
            return Ok(());
        }
        // Fresh scan over the first label's index (or every node).
        match path.start.labels.first() {
            Some(label) => {
                if let Some(p) = self.prof {
                    p.hit_nodes(op, g.label_count(label) as u64);
                }
                for node in g.nodes_with_label(label) {
                    self.scan_candidate(cx, pi, path, 1, node, row)?;
                }
            }
            None => {
                if let Some(p) = self.prof {
                    p.hit_nodes(op, g.node_count() as u64);
                }
                for node in g.nodes() {
                    self.scan_candidate(cx, pi, path, 0, node, row)?;
                }
            }
        }
        Ok(())
    }

    fn scan_candidate(
        &mut self,
        cx: &mut MatchCx<'_, 'g>,
        pi: usize,
        path: &'g PathPlan,
        known_labels: usize,
        node: &'g Node,
        row: &mut Row,
    ) -> Result<()> {
        if !self.node_matches_from(&path.start, known_labels, node, row, path.scan_op)? {
            return Ok(());
        }
        if let Some(p) = self.prof {
            p.rows(path.scan_op, 1);
        }
        if let Some(s) = path.start.slot {
            row[s] = Some(Binding::Node(node.id));
        }
        self.walk(cx, pi, path, 0, node.id, row)?;
        if let Some(s) = path.start.slot {
            row[s] = None;
        }
        Ok(())
    }

    /// Labels and property map of `np` hold on `node` (property reads
    /// charge `op`).
    fn node_matches(&self, np: &'g NodePlan, node: &Node, row: &Row, op: usize) -> Result<bool> {
        self.node_matches_from(np, 0, node, row, op)
    }

    /// [`Exec::node_matches`] trusting the first `known` labels (a
    /// label-index scan already guarantees its label).
    fn node_matches_from(
        &self,
        np: &'g NodePlan,
        known: usize,
        node: &Node,
        row: &Row,
        op: usize,
    ) -> Result<bool> {
        if !np.labels[known.min(np.labels.len())..].iter().all(|l| node.has_label(l)) {
            return Ok(false);
        }
        self.props_match(&np.props, &node.props, row, op)
    }

    fn props_match(
        &self,
        want: &'g [(String, CExpr)],
        have: &grm_pgraph::PropertyMap,
        row: &Row,
        op: usize,
    ) -> Result<bool> {
        if want.is_empty() {
            return Ok(true);
        }
        self.enter(op);
        for (k, expr) in want {
            let want = self.ctx.eval(expr, row)?;
            self.ctx.record_prop_read();
            if have.get(k).unwrap_or(&Value::Null).cypher_eq(&want) != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Binds `np`'s variable to `id` unless it is already bound:
    /// `None` when bound to something else, else whether this call
    /// bound it (and so must unbind it).
    fn bind_node(np: &NodePlan, id: NodeId, row: &mut Row) -> Option<bool> {
        let Some(s) = np.slot else {
            return Some(false);
        };
        match &row[s] {
            Some(Binding::Node(bound)) if *bound == id => Some(false),
            Some(_) => None,
            None => {
                row[s] = Some(Binding::Node(id));
                Some(true)
            }
        }
    }

    /// Walks `path.steps[k..]` from `current`.
    fn walk(
        &mut self,
        cx: &mut MatchCx<'_, 'g>,
        pi: usize,
        path: &'g PathPlan,
        k: usize,
        current: NodeId,
        row: &mut Row,
    ) -> Result<()> {
        let Some(step) = path.steps.get(k) else {
            return self.expand(cx, pi + 1, row);
        };
        if let Some(p) = self.prof {
            p.call(step.op);
            p.rows_in(step.op, 1);
        }
        // Variable-length relationships expand through a bounded DFS.
        if let Some((min, max)) = step.length {
            if step.slot.is_some() {
                return Err(CypherError::semantic(
                    "variable binding on variable-length relationships is not supported",
                ));
            }
            let max = max.unwrap_or(MAX_VAR_HOPS).min(MAX_VAR_HOPS);
            return self.var_walk(cx, pi, path, k, current, 0, (min, max), row);
        }
        let g = self.ctx.graph;
        if let Some(p) = self.prof {
            p.hit_edges(step.op, neighbours(g, current, step.direction).count() as u64);
        }
        for (edge, neighbour) in neighbours(g, current, step.direction) {
            if !self.edge_matches(cx, step, edge, row)? {
                continue;
            }
            // Relationship variable binding / consistency.
            let bound_rel = match step.slot {
                None => false,
                Some(s) => match &row[s] {
                    Some(Binding::Edge(b)) if *b == edge.id => false,
                    Some(_) => continue,
                    None => {
                        row[s] = Some(Binding::Edge(edge.id));
                        true
                    }
                },
            };
            // Target node check / binding.
            if self.node_matches(&step.node, g.node(neighbour), row, step.op)? {
                if let Some(bound_node) = Self::bind_node(&step.node, neighbour, row) {
                    if let Some(p) = self.prof {
                        p.rows(step.op, 1);
                    }
                    cx.used.push(edge.id);
                    self.walk(cx, pi, path, k + 1, neighbour, row)?;
                    cx.used.pop();
                    if bound_node {
                        row[step.node.slot.expect("bound slot")] = None;
                    }
                }
            }
            if bound_rel {
                row[step.slot.expect("bound slot")] = None;
            }
        }
        Ok(())
    }

    /// `edge` is unused in this clause and passes the step's type and
    /// property filters.
    fn edge_matches(
        &self,
        cx: &MatchCx<'_, 'g>,
        step: &'g StepPlan,
        edge: &Edge,
        row: &Row,
    ) -> Result<bool> {
        if cx.used.contains(&edge.id) {
            return Ok(false);
        }
        if !step.types.is_empty() && !step.types.contains(&edge.label) {
            return Ok(false);
        }
        self.props_match(&step.props, &edge.props, row, step.op)
    }

    /// DFS expansion of a variable-length relationship: every
    /// edge-distinct path of `min..=max` hops whose edges satisfy the
    /// type/property filters, ending at a node matching the step's
    /// node pattern.
    #[allow(clippy::too_many_arguments)]
    fn var_walk(
        &mut self,
        cx: &mut MatchCx<'_, 'g>,
        pi: usize,
        path: &'g PathPlan,
        k: usize,
        current: NodeId,
        depth: u32,
        (min, max): (u32, u32),
        row: &mut Row,
    ) -> Result<()> {
        let step = &path.steps[k];
        let g = self.ctx.graph;
        // Enough hops taken: the current node may close this step.
        if depth >= min && self.node_matches(&step.node, g.node(current), row, step.op)? {
            if let Some(bound_node) = Self::bind_node(&step.node, current, row) {
                if let Some(p) = self.prof {
                    p.rows(step.op, 1);
                }
                self.walk(cx, pi, path, k + 1, current, row)?;
                if bound_node {
                    row[step.node.slot.expect("bound slot")] = None;
                }
            }
        }
        if depth >= max {
            return Ok(());
        }
        if let Some(p) = self.prof {
            p.hit_edges(step.op, neighbours(g, current, step.direction).count() as u64);
        }
        for (edge, neighbour) in neighbours(g, current, step.direction) {
            if !self.edge_matches(cx, step, edge, row)? {
                continue;
            }
            cx.used.push(edge.id);
            self.var_walk(cx, pi, path, k, neighbour, depth + 1, (min, max), row)?;
            cx.used.pop();
        }
        Ok(())
    }

    // -- UNWIND --------------------------------------------------------------

    fn push_unwind(&mut self, si: usize, u: &'g UnwindStage, row: &mut Row) -> Result<()> {
        if let Some(p) = self.prof {
            p.enter(u.op);
            p.rows_in(u.op, 1);
        }
        let list = self.ctx.eval(&u.expr, row)?;
        match list.as_ref() {
            Value::Null => Ok(()),
            Value::List(items) => {
                for item in items {
                    let prev = row[u.slot].replace(Binding::Val(item.clone()));
                    if let Some(p) = self.prof {
                        p.rows(u.op, 1);
                    }
                    self.push(si + 1, row)?;
                    row[u.slot] = prev;
                }
                Ok(())
            }
            other => Err(CypherError::runtime(format!(
                "UNWIND expects a list, got {}",
                other.type_name()
            ))),
        }
    }

    // -- Projection ------------------------------------------------------------

    /// Accounts one input row of `proj` (and makes it current when it
    /// will read properties).
    fn projection_in(&self, proj: &Projection) {
        if let Some(p) = self.prof {
            if proj.evaluates {
                p.enter(proj.op);
            }
            p.rows_in(proj.op, 1);
        }
    }

    /// Projects `row` through the plain items of `proj` into `out`.
    fn project_row(&self, proj: &'g Projection, out: &mut Row, row: &Row) -> Result<()> {
        for item in &proj.keys {
            out[item.out] = Some(match &item.expr {
                ItemExpr::Var { slot, name } => row[*slot]
                    .clone()
                    .ok_or_else(|| CypherError::semantic(format!("unknown variable `{name}`")))?,
                ItemExpr::Expr(e) => Binding::Val(self.ctx.eval(e, row)?.into_owned()),
            });
        }
        if let Some(p) = self.prof {
            p.rows(proj.op, 1);
        }
        Ok(())
    }

    /// Ends an aggregating projection: a global aggregation over no
    /// rows still yields one group (`COUNT(*)` over an empty match is
    /// 0, not no rows). Returns the groups' output rows in first-seen
    /// order through `emit`.
    fn flush_groups(
        &mut self,
        proj: &'g Projection,
        groups: Groups<'g>,
        out: &mut Row,
        mut emit: impl FnMut(&mut Self, &mut Row) -> Result<()>,
    ) -> Result<()> {
        let Groups { keys, accs, mut index, .. } = groups;
        if index.len() == 0 && proj.keys.is_empty() {
            index.push(0);
        }
        let mut accs = accs.into_iter();
        let mut fresh = proj.aggs.iter().map(AccSlot::new);
        if let Some(p) = self.prof {
            p.rows(proj.op, index.len() as u64);
        }
        for g in 0..index.len() {
            let width = proj.keys.len();
            for (item, key) in proj.keys.iter().zip(&keys[g * width..(g + 1) * width]) {
                out[item.out] = Some(key.binding());
            }
            for agg in &proj.aggs {
                let acc = accs.next().or_else(|| fresh.next()).expect("one slot per aggregate");
                out[agg.out] = Some(Binding::Val(acc.finish(&agg.func)?));
            }
            emit(self, out)?;
        }
        Ok(())
    }

    // -- WITH ----------------------------------------------------------------

    fn push_with(
        &mut self,
        si: usize,
        w: &'g WithStage,
        out: &mut Row,
        groups: &mut Groups<'g>,
        seen: &mut DistinctSet,
        row: &Row,
    ) -> Result<()> {
        if w.proj.error.is_some() {
            // The clause fails once its input is complete.
            return Ok(());
        }
        self.projection_in(&w.proj);
        if w.proj.aggregate {
            return groups.fold(&self.ctx, &w.proj, row);
        }
        self.project_row(&w.proj, out, row)?;
        self.emit_with(si, w, seen, out)
    }

    /// A projected WITH row through the clause's WHERE and DISTINCT.
    fn emit_with(
        &mut self,
        si: usize,
        w: &'g WithStage,
        seen: &mut DistinctSet,
        row: &mut Row,
    ) -> Result<()> {
        if let Some((f, op)) = &w.filter {
            if let Some(p) = self.prof {
                p.enter(*op);
                p.rows_in(*op, 1);
            }
            if !self.ctx.eval_filter(f, row)? {
                return Ok(());
            }
            if let Some(p) = self.prof {
                p.rows(*op, 1);
            }
        }
        if let Some(op) = w.distinct {
            if !seen.pass(self.prof, op, row, &w.proj.outs) {
                return Ok(());
            }
        }
        self.push(si + 1, row)
    }

    /// Completes clause `si` once every input row has been pushed.
    fn finish(&mut self, si: usize) -> Result<()> {
        let plan: &'g Plan = self.plan;
        match &plan.clauses[si] {
            Stage::Match(_) => Ok(()),
            Stage::Unwind(u) => {
                if let Some(p) = self.prof {
                    p.call(u.op);
                }
                Ok(())
            }
            Stage::With(w) => {
                if let Some(e) = &w.proj.error {
                    return Err(e.clone());
                }
                if let Some(p) = self.prof {
                    p.call(w.proj.op);
                    for op in w.filter.as_ref().map(|(_, op)| *op).into_iter().chain(w.distinct) {
                        p.call(op);
                    }
                }
                if !w.proj.aggregate {
                    return Ok(());
                }
                let StageState::With { mut out, groups, mut seen } =
                    std::mem::take(&mut self.states[si])
                else {
                    unreachable!("WITH state");
                };
                self.flush_groups(&w.proj, *groups, &mut out, |exec, row| {
                    exec.emit_with(si, w, &mut seen, row)
                })
            }
        }
    }

    // -- RETURN --------------------------------------------------------------

    fn push_return(&mut self, row: &Row) -> Result<()> {
        let plan: &'g Plan = self.plan;
        let proj = &plan.ret.proj;
        if proj.error.is_some() {
            return Ok(());
        }
        self.projection_in(proj);
        if proj.aggregate {
            return self.ret.groups.fold(&self.ctx, proj, row);
        }
        let mut out = std::mem::take(&mut self.ret.out);
        let result = self.project_row(proj, &mut out, row).and_then(|()| self.emit_return(&out));
        self.ret.out = out;
        result
    }

    /// A projected RETURN row through DISTINCT, then into the sort
    /// buffer or the SKIP/LIMIT window.
    fn emit_return(&mut self, row: &Row) -> Result<()> {
        let plan: &'g Plan = self.plan;
        let ret = &plan.ret;
        if let Some(op) = ret.distinct {
            if !self.ret.seen.pass(self.prof, op, row, &ret.proj.outs) {
                return Ok(());
            }
        }
        if ret.sort_op.is_some() {
            self.ret.sorted.push(row.to_vec());
        } else {
            self.window(row);
        }
        Ok(())
    }

    fn window(&mut self, row: &Row) {
        let plan: &'g Plan = self.plan;
        let ret = &plan.ret;
        let at = self.ret.windowed;
        self.ret.windowed += 1;
        if let (Some(p), Some(op)) = (self.prof, ret.window_op) {
            p.rows_in(op, 1);
        }
        if at < ret.skip || at - ret.skip >= ret.limit {
            return;
        }
        if let (Some(p), Some(op)) = (self.prof, ret.window_op) {
            p.rows(op, 1);
        }
        let g = self.ctx.graph;
        let cells = ret
            .proj
            .outs
            .iter()
            .map(|&s| row[s].as_ref().map(|b| b.to_value(g)).unwrap_or(Value::Null))
            .collect();
        self.ret.rows.push(cells);
    }

    fn finish_return(mut self) -> Result<ResultSet> {
        let plan: &'g Plan = self.plan;
        let ret = &plan.ret;
        if let Some(e) = &ret.proj.error {
            return Err(e.clone());
        }
        if let Some(p) = self.prof {
            p.call(ret.proj.op);
        }
        if ret.proj.aggregate {
            let groups = std::mem::take(&mut self.ret.groups);
            let mut out = std::mem::take(&mut self.ret.out);
            self.flush_groups(&ret.proj, groups, &mut out, |exec, row| exec.emit_return(row))?;
        }
        if let (Some(p), Some(op)) = (self.prof, ret.distinct) {
            p.call(op);
        }
        // ORDER BY over the projected rows (aliases are visible).
        if let Some(op) = ret.sort_op {
            let sorted = std::mem::take(&mut self.ret.sorted);
            if let Some(p) = self.prof {
                p.enter(op);
                p.call(op);
                p.rows_in(op, sorted.len() as u64);
                p.rows(op, sorted.len() as u64);
            }
            let mut keyed = Vec::with_capacity(sorted.len());
            for row in sorted {
                let mut keys = Vec::with_capacity(ret.order.len());
                for (expr, _) in &ret.order {
                    keys.push(self.ctx.eval(expr, &row)?.into_owned());
                }
                keyed.push((keys, row));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, descending)) in ret.order.iter().enumerate() {
                    let ord = a[i]
                        .cypher_cmp(&b[i])
                        .unwrap_or_else(|| a[i].group_key().cmp(&b[i].group_key()));
                    let ord = if *descending { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            for (_, row) in &keyed {
                self.window(row);
            }
        }
        let rows = std::mem::take(&mut self.ret.rows);
        if let Some(p) = self.prof {
            if let Some(op) = ret.window_op {
                p.call(op);
            }
            p.call(ret.root_op);
            p.rows_in(ret.root_op, rows.len() as u64);
            p.rows(ret.root_op, rows.len() as u64);
        }
        Ok(ResultSet { columns: ret.columns.clone(), rows })
    }
}

/// The MATCH clause being expanded, and its per-row state.
struct MatchCx<'a, 'g> {
    si: usize,
    m: &'g MatchStage,
    reversed: &'a [bool],
    used: &'a mut Vec<EdgeId>,
    matched: &'a mut bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_pgraph::props;

    /// A tiny football graph mirroring WWC2019's core shape.
    fn football() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let t = g.add_node(["Tournament"], props([("id", Value::Int(1))]));
        let m1 = g.add_node(
            ["Match"],
            props([("id", Value::from("m1")), ("date", Value::from("2019-06-11"))]),
        );
        let m2 = g.add_node(
            ["Match"],
            props([("id", Value::from("m2")), ("date", Value::from("2019-06-12"))]),
        );
        let p1 = g.add_node(["Person"], props([("name", Value::from("Ada"))]));
        let p2 = g.add_node(["Person"], props([("name", Value::from("Bea"))]));
        g.add_edge(m1, t, "IN_TOURNAMENT", Default::default());
        g.add_edge(m2, t, "IN_TOURNAMENT", Default::default());
        g.add_edge(p1, m1, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        g.add_edge(p2, m1, "PLAYED_IN", props([("minutes", Value::Int(45))]));
        g.add_edge(p1, m2, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        g.add_edge(p1, m1, "SCORED_GOAL", props([("minute", Value::Int(23))]));
        g.add_edge(p1, m1, "SCORED_GOAL", props([("minute", Value::Int(67))]));
        g
    }

    #[test]
    fn count_all_nodes() {
        let g = football();
        let rs = execute(&g, "MATCH (n) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(5));
    }

    #[test]
    fn count_by_label() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn directed_match_respects_direction() {
        let g = football();
        let right =
            execute(&g, "MATCH (m:Match)-[:IN_TOURNAMENT]->(t:Tournament) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(right.single_int(), Some(2));
        // The paper's wrong-direction query returns 0, silently.
        let wrong =
            execute(&g, "MATCH (t:Tournament)-[:IN_TOURNAMENT]->(m:Match) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(wrong.single_int(), Some(0));
    }

    #[test]
    fn incoming_arrow_equivalent() {
        let g = football();
        let rs =
            execute(&g, "MATCH (t:Tournament)<-[:IN_TOURNAMENT]-(m:Match) RETURN COUNT(*) AS c")
                .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn undirected_match_counts_each_edge_once() {
        let g = football();
        let rs = execute(&g, "MATCH (a)-[:IN_TOURNAMENT]-(b) RETURN COUNT(*) AS c").unwrap();
        // Each of the 2 edges matches in both orientations: 4 rows.
        assert_eq!(rs.single_int(), Some(4));
    }

    #[test]
    fn where_filters() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn grouped_aggregation() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) \
             WITH p.name AS name, COUNT(*) AS games \
             WHERE games > 1 RETURN name, games",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Ada"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn collect_and_size() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[sg:SCORED_GOAL]->(m:Match) \
             WITH m.id AS mid, p.name AS name, COLLECT(DISTINCT sg.minute) AS minutes \
             WHERE SIZE(minutes) > 1 RETURN mid, name, minutes",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("m1"));
    }

    #[test]
    fn hallucinated_property_runs_but_finds_nothing() {
        let g = football();
        // `penaltyScore` does not exist — query runs, count is 0.
        let rs =
            execute(&g, "MATCH (m:Match) WHERE m.penaltyScore > 0 RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(0));
    }

    #[test]
    fn optional_match_pads_with_null() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person) OPTIONAL MATCH (p)-[:SCORED_GOAL]->(m:Match) \
             RETURN p.name AS name, COUNT(m) AS goals ORDER BY name",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::from("Ada"), Value::Int(2)]);
        assert_eq!(rs.rows[1], vec![Value::from("Bea"), Value::Int(0)]);
    }

    #[test]
    fn relationship_uniqueness_within_clause() {
        let g = football();
        // Two SCORED_GOAL edges from Ada to m1: a two-step pattern
        // through distinct rels must not reuse one edge twice.
        let rs = execute(
            &g,
            "MATCH (a:Person)-[r1:SCORED_GOAL]->(m:Match)<-[r2:SCORED_GOAL]-(b:Person) \
             RETURN COUNT(*) AS c",
        )
        .unwrap();
        // Ordered pairs of distinct edges: 2 permutations.
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn distinct_return() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN DISTINCT p.name AS n ORDER BY n",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_skip_limit() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match) RETURN m.id AS id ORDER BY id DESC SKIP 1 LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::from("m1")]]);
    }

    #[test]
    fn global_count_over_empty_match_is_zero() {
        let g = football();
        let rs = execute(&g, "MATCH (x:Ghost) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(0));
    }

    #[test]
    fn multiple_patterns_in_one_match() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match), (m)-[:IN_TOURNAMENT]->(t:Tournament) \
             RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(3));
    }

    #[test]
    fn unwind_expands_lists() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (m:Match) WITH COLLECT(m.id) AS ids UNWIND ids AS id RETURN id ORDER BY id",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn property_map_filter_in_pattern() {
        let g = football();
        let rs = execute(&g, "MATCH (m:Match {id: 'm1'}) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    #[test]
    fn regex_in_where() {
        let g = football();
        let rs = execute(
            &g,
            r"MATCH (m:Match) WHERE m.date =~ '\d{4}-\d{2}-\d{2}' RETURN COUNT(*) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn with_requires_alias_for_expressions() {
        let g = football();
        let err = execute(&g, "MATCH (m:Match) WITH m.id RETURN COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn return_without_match() {
        let g = football();
        let rs = execute(&g, "RETURN 1 + 1 AS two").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn reused_variable_joins() {
        let g = football();
        // `m` reused across two clauses is a join, not a new scan.
        let rs = execute(
            &g,
            "MATCH (p:Person {name: 'Ada'})-[:SCORED_GOAL]->(m) \
             MATCH (m)-[:IN_TOURNAMENT]->(t:Tournament) \
             RETURN COUNT(DISTINCT m.id) AS c",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    #[test]
    fn variable_length_chain() {
        // a -> b -> c -> d linear chain.
        let mut g = PropertyGraph::new();
        let ids: Vec<_> =
            (0..4i64).map(|i| g.add_node(["N"], props([("id", Value::Int(i))]))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], "NEXT", Default::default());
        }
        // Reachable in 1..3 hops from the head: b, c, d.
        let rs =
            execute(&g, "MATCH (a:N {id: 0})-[:NEXT*1..3]->(b:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(3));
        // Exactly 2 hops: just c.
        let rs = execute(&g, "MATCH (a:N {id: 0})-[:NEXT*2]->(b:N) RETURN b.id AS id").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
        // Unbounded star covers the whole chain.
        let rs = execute(&g, "MATCH (a:N {id: 0})-[:NEXT*]->(b:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(3));
    }

    #[test]
    fn variable_length_zero_hops_binds_self() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        g.add_edge(a, b, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (a:N {id: 0})-[:NEXT*0..1]->(b:N) RETURN COUNT(*) AS c").unwrap();
        // Zero hops (a itself) + one hop (b).
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_respects_edge_uniqueness_in_cycles() {
        // A 2-cycle: a <-> b. Paths from a of length ≤4 without edge
        // reuse: a->b (1 hop), a->b->a (2 hops). No longer paths.
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        g.add_edge(a, b, "NEXT", Default::default());
        g.add_edge(b, a, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (x:N {id: 0})-[:NEXT*1..4]->(y:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_incoming_direction() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["N"], props([("id", Value::Int(0))]));
        let b = g.add_node(["N"], props([("id", Value::Int(1))]));
        let c = g.add_node(["N"], props([("id", Value::Int(2))]));
        g.add_edge(a, b, "NEXT", Default::default());
        g.add_edge(b, c, "NEXT", Default::default());
        let rs =
            execute(&g, "MATCH (x:N {id: 2})<-[:NEXT*1..2]-(y:N) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn variable_length_rejects_variable_binding() {
        let mut g = PropertyGraph::new();
        g.add_node(["N"], props([("id", Value::Int(0))]));
        let err = execute(&g, "MATCH (a:N)-[r:NEXT*1..2]->(b) RETURN COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn self_loop_undirected_matches_once() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["U"], props([("id", Value::Int(1))]));
        g.add_edge(a, a, "FOLLOWS", Default::default());
        let rs = execute(&g, "MATCH (x:U)-[:FOLLOWS]-(y) RETURN COUNT(*) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }

    // -- Grouping keys ----------------------------------------------

    /// Distinct values that joined-string keys merge: `['a,s:b']` and
    /// `['a','b']` both render as `Value::group_key` `l:[s:a,s:b]`,
    /// and joining two columns with U+0001 maps `('a\u{1}s:b', 'c')`
    /// and `('a', 'b\u{1}s:c')` to one string.
    fn colliding() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let list = |items: &[&str]| Value::List(items.iter().map(|s| Value::from(*s)).collect());
        g.add_node(["L"], props([("k", list(&["a,s:b"]))]));
        g.add_node(["L"], props([("k", list(&["a", "b"]))]));
        g.add_node(["P"], props([("x", Value::from("a\u{1}s:b")), ("y", Value::from("c"))]));
        g.add_node(["P"], props([("x", Value::from("a")), ("y", Value::from("b\u{1}s:c"))]));
        g
    }

    #[test]
    fn count_distinct_keeps_lists_that_render_alike_apart() {
        let rs = execute(&colliding(), "MATCH (n:L) RETURN COUNT(DISTINCT n.k) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn return_distinct_keeps_lists_that_render_alike_apart() {
        let rs = execute(&colliding(), "MATCH (n:L) RETURN DISTINCT n.k AS k").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn grouping_keeps_lists_that_render_alike_apart() {
        let rs = execute(
            &colliding(),
            "MATCH (n:L) WITH n.k AS k, COUNT(*) AS c RETURN COUNT(*) AS groups",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn multi_column_keys_do_not_merge_across_columns() {
        let g = colliding();
        let rs = execute(&g, "MATCH (n:P) RETURN DISTINCT n.x AS x, n.y AS y").unwrap();
        assert_eq!(rs.len(), 2);
        let rs = execute(&g, "MATCH (n:P) WITH DISTINCT n.x AS x, n.y AS y RETURN COUNT(*) AS c")
            .unwrap();
        assert_eq!(rs.single_int(), Some(2));
        let rs = execute(
            &g,
            "MATCH (n:P) WITH n.x AS x, n.y AS y, COUNT(*) AS c RETURN COUNT(*) AS groups",
        )
        .unwrap();
        assert_eq!(rs.single_int(), Some(2));
    }

    #[test]
    fn grouping_treats_nan_as_one_key_and_keeps_int_and_float_apart() {
        let mut g = PropertyGraph::new();
        for v in [Value::Float(f64::NAN), Value::Float(f64::NAN), Value::Int(1), Value::Float(1.0)]
        {
            g.add_node(["N"], props([("v", v)]));
        }
        let rs = execute(&g, "MATCH (n:N) RETURN COUNT(DISTINCT n.v) AS c").unwrap();
        assert_eq!(rs.single_int(), Some(3));
    }

    #[test]
    fn aggregates_fold_in_row_order() {
        let g = football();
        let rs = execute(
            &g,
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) \
             RETURN SUM(r.minutes) AS s, AVG(r.minutes) AS a, MIN(r.minutes) AS lo, \
             MAX(r.minutes) AS hi, COLLECT(r.minutes) AS all, COUNT(DISTINCT r.minutes) AS d",
        )
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![
                Value::Int(225),
                Value::Float(75.0),
                Value::Int(45),
                Value::Int(90),
                Value::List(vec![Value::Int(90), Value::Int(90), Value::Int(45)]),
                Value::Int(2),
            ]]
        );
    }

    #[test]
    fn static_projection_errors_wait_for_the_clause_to_run() {
        let g = football();
        // The bad WITH fails even with no input rows ...
        let err = execute(&g, "MATCH (x:Ghost) WITH x.id RETURN COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
        // ... and an aggregate buried in an expression fails too.
        let err = execute(&g, "MATCH (m:Match) RETURN 1 + COUNT(*) AS c");
        assert!(matches!(err, Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn cached_plans_run_repeatedly_with_fresh_state() {
        let g = football();
        let plan = Plan::new(
            &parse("MATCH (p:Person)-[:PLAYED_IN]->(m:Match) WITH p, COUNT(*) AS c RETURN COUNT(*) AS n")
                .unwrap(),
        );
        for _ in 0..3 {
            assert_eq!(plan.run(&g, None).unwrap().single_int(), Some(2));
        }
    }

    // -- PROFILE ------------------------------------------------------

    use crate::profile::{PlanNode, QueryProfile};

    fn profiled(g: &PropertyGraph, src: &str) -> (ResultSet, QueryProfile) {
        execute_profiled(g, src).unwrap()
    }

    fn op<'a>(profile: &'a QueryProfile, name: &str) -> &'a PlanNode {
        fn find<'a>(n: &'a PlanNode, name: &str) -> Option<&'a PlanNode> {
            if n.op == name {
                return Some(n);
            }
            n.children.iter().find_map(|c| find(c, name))
        }
        find(&profile.root, name)
            .unwrap_or_else(|| panic!("operator {name} not in plan:\n{}", profile.render()))
    }

    #[test]
    fn profiled_results_match_unprofiled() {
        let g = football();
        for q in [
            "MATCH (n) RETURN COUNT(*) AS c",
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 \
             RETURN p.name AS n ORDER BY n",
            "MATCH (m:Match) WITH m.date AS d RETURN DISTINCT d ORDER BY d DESC LIMIT 1",
        ] {
            let plain = execute(&g, q).unwrap();
            let (rs, profile) = profiled(&g, q);
            assert_eq!(rs, plain, "query: {q}");
            assert_eq!(profile.rows, rs.len() as u64, "query: {q}");
        }
    }

    #[test]
    fn profiled_label_scan_charges_node_hits() {
        let g = football();
        let (rs, profile) = profiled(&g, "MATCH (m:Match) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let scan = op(&profile, "NodeByLabelScan");
        assert_eq!(scan.db_hits.nodes, 2);
        assert_eq!(scan.rows, 2);
        assert_eq!(profile.root.op, "ProduceResults");
        assert_eq!(profile.root.rows, 1);
        // Aggregation sits between the scan and the result.
        let agg = op(&profile, "EagerAggregation");
        assert_eq!(agg.rows_in, 2);
        assert_eq!(agg.rows, 1);
    }

    #[test]
    fn profiled_expand_and_filter_attribute_hits_per_operator() {
        let g = football();
        let (rs, profile) = profiled(
            &g,
            "MATCH (p:Person)-[r:PLAYED_IN]->(m:Match) WHERE r.minutes >= 90 RETURN p.name AS n",
        );
        assert_eq!(rs.len(), 2);
        // Scan enumerates both Person nodes.
        let scan = op(&profile, "NodeByLabelScan");
        assert_eq!(scan.db_hits.nodes, 2);
        assert_eq!(scan.rows, 2);
        // Expand examines all 5 out-edges of the two people (type
        // filtering happens after the candidates are materialised)
        // and produces the 3 PLAYED_IN bindings.
        let expand = op(&profile, "Expand");
        assert_eq!(expand.db_hits.edges, 5);
        assert_eq!(expand.rows, 3);
        // The WHERE filter reads r.minutes once per candidate row and
        // keeps the two 90-minute appearances.
        let filter = op(&profile, "Filter");
        assert_eq!(filter.rows_in, 3);
        assert_eq!(filter.db_hits.props, 3);
        assert_eq!(filter.rows, 2);
        // RETURN projection reads p.name per surviving row.
        let proj = op(&profile, "Projection");
        assert_eq!(proj.db_hits.props, 2);
        assert_eq!(profile.db_hits().total(), 2 + 5 + 3 + 2);
    }

    #[test]
    fn profiled_reversed_pattern_resolves_scan_at_runtime() {
        let g = football();
        // Written start is unlabelled (cost 5); the Tournament end
        // (cost 1) wins, so the scan slot must resolve to a label
        // scan of the *end* pattern and the expand walks in-edges.
        let (rs, profile) =
            profiled(&g, "MATCH (n)-[:IN_TOURNAMENT]->(t:Tournament) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let scan = op(&profile, "NodeByLabelScan");
        assert!(scan.detail.contains("Tournament"), "detail: {}", scan.detail);
        assert_eq!(scan.db_hits.nodes, 1);
        let expand = op(&profile, "Expand");
        assert_eq!(expand.db_hits.edges, 2);
        assert_eq!(expand.rows, 2);
    }

    #[test]
    fn profiled_plan_ops_paths_are_rooted_and_self_times_bounded() {
        let g = football();
        let (_, profile) = profiled(
            &g,
            "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) RETURN m.date AS d ORDER BY d LIMIT 1",
        );
        let ops = profile.plan_ops();
        assert_eq!(ops[0].path, "ProduceResults");
        assert!(ops.iter().skip(1).all(|o| o.path.starts_with("ProduceResults/")));
        let chain: Vec<&str> = ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(
            chain,
            ["ProduceResults", "Limit", "Sort", "Projection", "Expand", "NodeByLabelScan"]
        );
        // The switch protocol partitions wall-clock time: per-operator
        // self-times can never sum past the inclusive total.
        let self_sum: u64 = ops.iter().map(|o| o.self_us).sum();
        assert!(self_sum <= profile.total_us, "{self_sum} > {}", profile.total_us);
        assert_eq!(profile.sim_us, ops.iter().map(|o| o.db_hits() + o.rows).sum::<u64>());
    }

    #[test]
    fn profiled_var_length_walks_charge_the_one_slot() {
        let mut g = PropertyGraph::new();
        let a = g.add_node(["U"], props([("id", Value::Int(1))]));
        let b = g.add_node(["U"], props([("id", Value::Int(2))]));
        let c = g.add_node(["U"], props([("id", Value::Int(3))]));
        g.add_edge(a, b, "FOLLOWS", Default::default());
        g.add_edge(b, c, "FOLLOWS", Default::default());
        let (rs, profile) =
            profiled(&g, "MATCH (x:U {id: 1})-[:FOLLOWS*1..2]->(y) RETURN COUNT(*) AS c");
        assert_eq!(rs.single_int(), Some(2));
        let var = op(&profile, "VarLengthExpand");
        assert_eq!(var.rows, 2);
        assert!(var.db_hits.edges >= 2);
    }
}
