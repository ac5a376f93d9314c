//! Operator-level query profiling — the engine side of Neo4j's
//! `PROFILE`.
//!
//! The prepared plan allocates one operator slot per executor stage
//! straight from the AST (scan, expand, filter, projection,
//! aggregation, sort, limit, produce-results), and [`Profiler`]
//! tallies calls, rows in/out, [`DbHits`] and *self*-time per slot:
//!
//! * **Self-time** uses a switch protocol — [`Profiler::enter`]
//!   attributes the wall-clock elapsed since the previous switch to
//!   the operator that was current, so the per-operator times
//!   partition the run exactly and their sum can never exceed the
//!   root's inclusive total (the property the proptests pin down).
//! * **Db-hits** follow the [`DbHits`] definition in `grm-pgraph`:
//!   nodes materialised by scans, edges examined by expansions,
//!   property-map lookups anywhere.
//! * **Sim-time** is a deterministic cost model — 1 µs per db-hit
//!   plus 1 µs per produced row — so plan baselines gate in CI
//!   without wall-clock noise.
//!
//! The public result is a [`QueryProfile`]: the operator chain as a
//! [`PlanNode`] tree (root `ProduceResults`, leaves the scans),
//! convertible to `grm-obs` journal records via
//! [`QueryProfile::plan_ops`]. Entry point:
//! [`crate::execute_profiled`]. A `None` profiler costs the executor
//! one `Option` check per site — the un-profiled path does zero
//! accounting.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use grm_obs::PlanOpRecord;
use grm_pgraph::DbHits;

/// One operator of an executed plan, with its recorded statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name (`NodeByLabelScan`, `Expand`, `Filter`, …).
    pub op: String,
    /// The AST fragment the operator executes, rendered as Cypher.
    pub detail: String,
    /// Times the operator ran.
    pub calls: u64,
    /// Rows consumed from the child operator.
    pub rows_in: u64,
    /// Rows produced.
    pub rows: u64,
    /// Store accesses attributed to this operator.
    pub db_hits: DbHits,
    /// Real self-time, microseconds (exclusive of children).
    pub self_us: u64,
    /// Deterministic simulated self-cost, microseconds.
    pub sim_us: u64,
    /// Child operators (this executor produces a chain: ≤ 1 child).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn render(&self, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{:<20} {:<30} rows {:>7}  hits {:>8}  self {:>8.2}ms  sim {:>8.2}ms\n",
            "",
            self.op,
            self.detail,
            self.rows,
            self.db_hits.total(),
            self.self_us as f64 / 1_000.0,
            self.sim_us as f64 / 1_000.0,
            indent = depth * 2
        ));
        for child in &self.children {
            child.render(depth + 1, out);
        }
    }
}

/// The full profile of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The source text that was executed.
    pub query: String,
    /// Result rows produced.
    pub rows: u64,
    /// Real inclusive time, microseconds (parse excluded).
    pub total_us: u64,
    /// Deterministic simulated cost, microseconds (sum over operators).
    pub sim_us: u64,
    /// The operator tree, `ProduceResults` at the root.
    pub root: PlanNode,
}

impl QueryProfile {
    /// Total store accesses across all operators.
    pub fn db_hits(&self) -> DbHits {
        fn sum(node: &PlanNode, acc: &mut DbHits) {
            *acc += node.db_hits;
            for c in &node.children {
                sum(c, acc);
            }
        }
        let mut acc = DbHits::new();
        sum(&self.root, &mut acc);
        acc
    }

    /// Flattens the tree to journal operator records, each keyed by
    /// its slash-joined root-to-operator path.
    pub fn plan_ops(&self) -> Vec<PlanOpRecord> {
        fn walk(node: &PlanNode, prefix: &str, out: &mut Vec<PlanOpRecord>) {
            let path =
                if prefix.is_empty() { node.op.clone() } else { format!("{prefix}/{}", node.op) };
            out.push(PlanOpRecord {
                path: path.clone(),
                op: node.op.clone(),
                detail: node.detail.clone(),
                calls: node.calls,
                rows_in: node.rows_in,
                rows: node.rows,
                db_nodes: node.db_hits.nodes,
                db_edges: node.db_hits.edges,
                db_props: node.db_hits.props,
                self_us: node.self_us,
                sim_us: node.sim_us,
            });
            for c in &node.children {
                walk(c, &path, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }

    /// Human-readable plan tree, `PROFILE`-style.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\nrows {}  db-hits {}  real {:.2}ms  sim {:.2}ms\n",
            self.query,
            self.rows,
            self.db_hits().total(),
            self.total_us as f64 / 1_000.0,
            self.sim_us as f64 / 1_000.0,
        );
        self.root.render(0, &mut out);
        out
    }
}

/// Name and detail an operator slot starts with. The plan allocates
/// one per executor stage straight from the AST, in execution order
/// (deepest leaf first, `ProduceResults` last), so the slots form the
/// plan chain.
#[derive(Debug)]
pub(crate) struct OpDesc {
    pub(crate) name: &'static str,
    pub(crate) detail: String,
}

/// Mutable per-operator tally. Scan slots resolve their final name
/// (`Argument` / `NodeByLabelScan` / `AllNodesScan`) and detail at
/// run time, because the cost-based pattern reversal decides which
/// end actually gets enumerated.
struct OpSlot {
    name: Cell<&'static str>,
    detail: RefCell<String>,
    calls: Cell<u64>,
    rows_in: Cell<u64>,
    rows: Cell<u64>,
    hits: Cell<DbHits>,
    self_ns: Cell<u64>,
}

/// The recording half of `PROFILE`: operator slots plus the ambient
/// "current operator" that self-time and property-read db-hits are
/// charged to. Single-threaded by construction (the executor is),
/// hence `Cell`s.
///
/// Counters other than property reads name their operator
/// explicitly, so the streaming executor only makes an operator
/// current when it is about to evaluate expressions (or starts a
/// batch of work); the time until the next switch is that operator's.
pub(crate) struct Profiler {
    ops: Vec<OpSlot>,
    root: usize,
    cur: Cell<usize>,
    last: Cell<Instant>,
    started: Instant,
}

impl Profiler {
    /// One slot per descriptor; the last one (`ProduceResults`) is the
    /// root and starts out current.
    pub(crate) fn new(descs: &[OpDesc]) -> Profiler {
        let ops: Vec<OpSlot> = descs
            .iter()
            .map(|d| OpSlot {
                name: Cell::new(d.name),
                detail: RefCell::new(d.detail.clone()),
                calls: Cell::new(0),
                rows_in: Cell::new(0),
                rows: Cell::new(0),
                hits: Cell::new(DbHits::new()),
                self_ns: Cell::new(0),
            })
            .collect();
        let root = ops.len() - 1;
        let now = Instant::now();
        Profiler { ops, root, cur: Cell::new(root), last: Cell::new(now), started: now }
    }

    /// Makes `op` the current operator, attributing the wall-clock
    /// elapsed since the last switch to the operator that *was*
    /// current. Re-entering the current operator reads no clock.
    pub(crate) fn enter(&self, op: usize) {
        if self.cur.get() == op {
            return;
        }
        let now = Instant::now();
        let prev = &self.ops[self.cur.get()];
        prev.self_ns
            .set(prev.self_ns.get() + now.duration_since(self.last.get()).as_nanos() as u64);
        self.last.set(now);
        self.cur.set(op);
    }

    /// One invocation of `op`.
    pub(crate) fn call(&self, op: usize) {
        let s = &self.ops[op];
        s.calls.set(s.calls.get() + 1);
    }

    /// `n` rows consumed by `op`.
    pub(crate) fn rows_in(&self, op: usize, n: u64) {
        let s = &self.ops[op];
        s.rows_in.set(s.rows_in.get() + n);
    }

    /// `n` rows produced by `op`.
    pub(crate) fn rows(&self, op: usize, n: u64) {
        let s = &self.ops[op];
        s.rows.set(s.rows.get() + n);
    }

    fn hit(&self, op: usize, add: impl FnOnce(&mut DbHits)) {
        let s = &self.ops[op];
        let mut h = s.hits.get();
        add(&mut h);
        s.hits.set(h);
    }

    /// `n` nodes materialised by `op`'s scan.
    pub(crate) fn hit_nodes(&self, op: usize, n: u64) {
        self.hit(op, |h| h.nodes += n);
    }

    /// `n` candidate edges examined by `op`.
    pub(crate) fn hit_edges(&self, op: usize, n: u64) {
        self.hit(op, |h| h.edges += n);
    }

    /// `n` property-map lookups by the current operator.
    pub(crate) fn hit_props(&self, n: u64) {
        self.hit(self.cur.get(), |h| h.props += n);
    }

    /// Resolves a scan operator's name and detail to what actually
    /// ran — the cost-based reversal may enumerate the other end of
    /// the pattern than the written one.
    pub(crate) fn set_scan(&self, op: usize, name: &'static str, detail: &str) {
        let s = &self.ops[op];
        s.name.set(name);
        if *s.detail.borrow() != detail {
            *s.detail.borrow_mut() = detail.to_owned();
        }
    }

    /// Flushes the final time slice and freezes the tally into a
    /// [`QueryProfile`]. The slots were allocated in execution order,
    /// so folding them in order builds the chain leaf-up; the last
    /// slot (`ProduceResults`) becomes the root.
    pub(crate) fn finish(self, src: &str) -> QueryProfile {
        self.enter(self.root);
        let total_us = self.started.elapsed().as_micros() as u64;
        let mut node: Option<PlanNode> = None;
        let mut sim_us = 0u64;
        for s in &self.ops {
            let hits = s.hits.get();
            let sim = hits.total() + s.rows.get();
            sim_us += sim;
            let mut n = PlanNode {
                op: s.name.get().to_string(),
                detail: s.detail.borrow().clone(),
                calls: s.calls.get(),
                rows_in: s.rows_in.get(),
                rows: s.rows.get(),
                db_hits: hits,
                self_us: s.self_ns.get() / 1_000,
                sim_us: sim,
                children: Vec::new(),
            };
            if let Some(child) = node.take() {
                n.children.push(child);
            }
            node = Some(n);
        }
        let root = node.expect("ProduceResults slot always exists");
        QueryProfile { query: src.to_string(), rows: root.rows, total_us, sim_us, root }
    }
}
