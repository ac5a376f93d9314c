//! Expression evaluation with Cypher's three-valued logic.
//!
//! `NULL` propagates through comparisons and arithmetic, `AND`/`OR`
//! follow Kleene logic, and property access on an element that lacks
//! the key yields `NULL` rather than an error — this last point is
//! what makes a *hallucinated property* (paper §4.4, error class 2)
//! produce an empty-but-running query instead of a failure.
//!
//! Expressions are compiled once per prepared plan ([`CExpr`]):
//! variables resolve to row slots, scalar functions to a [`Func`],
//! literal lists fold to constants and literal regex patterns
//! compile up front. Evaluation returns `Cow<'g, Value>`: property
//! reads and literals borrow from the graph and the plan, so filters
//! and group keys read values without cloning them.

use std::borrow::Cow;

use grm_pgraph::{EdgeId, NodeId, PropertyGraph, Value};

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::error::{CypherError, Result};
use crate::profile::Profiler;
use crate::regex::{Regex, RegexError};

/// What a variable may be bound to during execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Binding {
    Node(NodeId),
    Edge(EdgeId),
    Val(Value),
}

impl Binding {
    /// Projects the binding to a plain value (for result sets and
    /// scalar evaluation). Nodes/edges project to an opaque id string
    /// — the paper's rules only ever count or compare them.
    pub(crate) fn to_value(&self, g: &PropertyGraph) -> Value {
        match self {
            Binding::Node(id) => {
                let n = g.node(*id);
                Value::Str(format!("({}:{})", id, n.labels.join(":")))
            }
            Binding::Edge(id) => {
                let e = g.edge(*id);
                Value::Str(format!("[{}:{}]", id, e.label))
            }
            Binding::Val(v) => v.clone(),
        }
    }
}

/// A row: one optional binding per variable slot of the plan.
pub(crate) type Row = [Option<Binding>];

/// Assigns row slots to variable names while a plan compiles.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    names: Vec<String>,
}

impl Slots {
    /// The slot of `name`, allocating one on first sight.
    pub(crate) fn of(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        }
    }

    /// Slots allocated so far (the row width).
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// Scalar functions, resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Func {
    Size,
    ToString,
    ToLower,
    ToUpper,
    ToInteger,
    Abs,
    Coalesce,
    Id,
    Labels,
    Type,
    Exists,
}

impl Func {
    fn resolve(name: &str) -> Option<Func> {
        Some(match name {
            "size" | "length" => Func::Size,
            "tostring" => Func::ToString,
            "tolower" => Func::ToLower,
            "toupper" => Func::ToUpper,
            "tointeger" => Func::ToInteger,
            "abs" => Func::Abs,
            "coalesce" => Func::Coalesce,
            "id" => Func::Id,
            "labels" => Func::Labels,
            "type" => Func::Type,
            "exists" => Func::Exists,
            _ => return None,
        })
    }
}

/// A compiled expression: [`Expr`] with variables resolved to slots.
#[derive(Debug)]
pub(crate) enum CExpr {
    Lit(Value),
    Var {
        slot: usize,
        name: String,
    },
    Prop {
        base: Box<CExpr>,
        key: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<CExpr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<CExpr>,
        rhs: Box<CExpr>,
    },
    /// `=~` against a literal pattern, compiled once.
    RegexLit {
        lhs: Box<CExpr>,
        pattern: String,
        re: std::result::Result<Regex, RegexError>,
    },
    IsNull {
        expr: Box<CExpr>,
        negated: bool,
    },
    In {
        expr: Box<CExpr>,
        list: Box<CExpr>,
    },
    List(Vec<CExpr>),
    Exists(Box<CExpr>),
    Call {
        func: Func,
        name: String,
        args: Vec<CExpr>,
    },
    /// An aggregate or unknown function: an error wherever it is
    /// evaluated as a scalar.
    Invalid(CypherError),
}

impl CExpr {
    /// Compiles `expr`, resolving its variables through `slots`.
    pub(crate) fn compile(expr: &Expr, slots: &mut Slots) -> CExpr {
        let mut c = |e: &Expr| Box::new(CExpr::compile(e, slots));
        match expr {
            Expr::Literal(v) => CExpr::Lit(v.clone()),
            Expr::Var(name) => CExpr::Var { slot: slots.of(name), name: name.clone() },
            Expr::Prop { base, key } => CExpr::Prop { base: c(base), key: key.clone() },
            Expr::Unary { op, expr } => CExpr::Unary { op: *op, expr: c(expr) },
            Expr::Binary { op: BinOp::Regex, lhs, rhs } => match rhs.as_ref() {
                Expr::Literal(Value::Str(pattern)) => CExpr::RegexLit {
                    lhs: c(lhs),
                    pattern: pattern.clone(),
                    re: Regex::new(pattern),
                },
                _ => CExpr::Binary { op: BinOp::Regex, lhs: c(lhs), rhs: c(rhs) },
            },
            Expr::Binary { op, lhs, rhs } => CExpr::Binary { op: *op, lhs: c(lhs), rhs: c(rhs) },
            Expr::IsNull { expr, negated } => CExpr::IsNull { expr: c(expr), negated: *negated },
            Expr::In { expr, list } => CExpr::In { expr: c(expr), list: c(list) },
            Expr::List(items) => {
                let items: Vec<CExpr> = items.iter().map(|e| CExpr::compile(e, slots)).collect();
                if items.iter().all(|i| matches!(i, CExpr::Lit(_))) {
                    let values = items
                        .into_iter()
                        .map(|i| match i {
                            CExpr::Lit(v) => v,
                            _ => unreachable!("all items are literals"),
                        })
                        .collect();
                    CExpr::Lit(Value::List(values))
                } else {
                    CExpr::List(items)
                }
            }
            Expr::ExistsProp(inner) => CExpr::Exists(c(inner)),
            Expr::FnCall { name, args, star, .. } => {
                if *star || crate::ast::is_aggregate_fn(name) {
                    return CExpr::Invalid(CypherError::semantic(format!(
                        "aggregate function {name} not allowed in this context"
                    )));
                }
                match Func::resolve(name) {
                    Some(func) => CExpr::Call {
                        func,
                        name: name.clone(),
                        args: args.iter().map(|a| CExpr::compile(a, slots)).collect(),
                    },
                    None => {
                        CExpr::Invalid(CypherError::semantic(format!("unknown function `{name}`")))
                    }
                }
            }
        }
    }
}

/// Evaluation context: the graph being queried, plus the profiler
/// when the query runs under `PROFILE` (property reads anywhere in
/// expression evaluation charge a db-hit to whichever operator is
/// current).
pub(crate) struct EvalCtx<'g> {
    pub(crate) graph: &'g PropertyGraph,
    prof: Option<&'g Profiler>,
}

fn unknown_variable(name: &str) -> CypherError {
    CypherError::semantic(format!("unknown variable `{name}`"))
}

impl<'g> EvalCtx<'g> {
    pub(crate) fn new(graph: &'g PropertyGraph, prof: Option<&'g Profiler>) -> Self {
        EvalCtx { graph, prof }
    }

    /// Charges one property-map lookup to the current operator. Used
    /// by the executor for the property reads it performs directly.
    pub(crate) fn record_prop_read(&self) {
        if let Some(p) = self.prof {
            p.hit_props(1);
        }
    }

    /// Evaluates `expr` under `row`. Property reads and literals come
    /// back borrowed; computed values are owned.
    pub(crate) fn eval(&self, expr: &'g CExpr, row: &Row) -> Result<Cow<'g, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match expr {
            CExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            CExpr::Var { slot, name } => match &row[*slot] {
                Some(b) => owned(b.to_value(self.graph)),
                None => Err(unknown_variable(name)),
            },
            CExpr::Prop { base, key } => self.eval_prop(base, key, row),
            CExpr::Unary { op, expr } => {
                let v = self.eval(expr, row)?;
                match op {
                    UnaryOp::Not => owned(match v.as_truth() {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    }),
                    UnaryOp::Neg => match v.as_ref() {
                        Value::Int(i) => owned(Value::Int(-i)),
                        Value::Float(f) => owned(Value::Float(-f)),
                        Value::Null => owned(Value::Null),
                        other => Err(CypherError::runtime(format!(
                            "cannot negate {}",
                            other.type_name()
                        ))),
                    },
                }
            }
            CExpr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, row).map(Cow::Owned),
            CExpr::RegexLit { lhs, pattern, re } => {
                let l = self.eval(lhs, row)?;
                match l.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::Str(s) => match re {
                        Ok(re) => owned(Value::Bool(re.is_match(s))),
                        Err(e) => Err(invalid_regex(pattern, e)),
                    },
                    other => Err(regex_type_error(other, "STRING")),
                }
            }
            CExpr::IsNull { expr, negated } => {
                let v = self.eval(expr, row)?;
                owned(Value::Bool(v.is_null() != *negated))
            }
            CExpr::In { expr, list } => {
                let needle = self.eval(expr, row)?;
                let haystack = self.eval(list, row)?;
                match haystack.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::List(items) => {
                        if needle.is_null() {
                            return owned(Value::Null);
                        }
                        let mut saw_null = false;
                        for item in items {
                            match needle.cypher_eq(item) {
                                Some(true) => return owned(Value::Bool(true)),
                                Some(false) => {}
                                None => saw_null = true,
                            }
                        }
                        owned(if saw_null { Value::Null } else { Value::Bool(false) })
                    }
                    other => Err(CypherError::runtime(format!(
                        "IN expects a list, got {}",
                        other.type_name()
                    ))),
                }
            }
            CExpr::List(items) => {
                let vals: Result<Vec<Value>> =
                    items.iter().map(|e| self.eval(e, row).map(Cow::into_owned)).collect();
                owned(Value::List(vals?))
            }
            CExpr::Exists(inner) => {
                let v = self.eval(inner, row)?;
                owned(Value::Bool(!v.is_null()))
            }
            CExpr::Call { func, name, args } => self.eval_fn(*func, name, args, row),
            CExpr::Invalid(e) => Err(e.clone()),
        }
    }

    /// Boolean filter semantics: `NULL` and non-booleans filter out.
    pub(crate) fn eval_filter(&self, expr: &'g CExpr, row: &Row) -> Result<bool> {
        Ok(self.eval(expr, row)?.as_truth().unwrap_or(false))
    }

    fn eval_prop(&self, base: &'g CExpr, key: &str, row: &Row) -> Result<Cow<'g, Value>> {
        // Fast path: `var.key` on a bound graph element.
        if let CExpr::Var { slot, name } = base {
            return match &row[*slot] {
                Some(Binding::Node(id)) => {
                    self.record_prop_read();
                    Ok(Cow::Borrowed(self.graph.node(*id).prop(key)))
                }
                Some(Binding::Edge(id)) => {
                    self.record_prop_read();
                    Ok(Cow::Borrowed(self.graph.edge(*id).prop(key)))
                }
                Some(Binding::Val(Value::Null)) => Ok(Cow::Owned(Value::Null)),
                Some(Binding::Val(other)) => Err(CypherError::runtime(format!(
                    "property access on {} value `{name}`",
                    other.type_name()
                ))),
                None => Err(unknown_variable(name)),
            };
        }
        // `expr.key` on a computed value: only NULL passes through.
        let v = self.eval(base, row)?;
        if v.is_null() {
            Ok(Cow::Owned(Value::Null))
        } else {
            Err(CypherError::runtime(format!("property access on {} value", v.type_name())))
        }
    }

    fn eval_binary(&self, op: BinOp, lhs: &'g CExpr, rhs: &'g CExpr, row: &Row) -> Result<Value> {
        use BinOp::*;
        // Kleene logic needs lazy handling of NULL, evaluate both but
        // combine carefully (expressions here are side-effect free).
        if matches!(op, And | Or | Xor) {
            let l = self.eval(lhs, row)?.as_truth();
            let r = self.eval(rhs, row)?.as_truth();
            let out = match (op, l, r) {
                (And, Some(false), _) | (And, _, Some(false)) => Some(false),
                (And, Some(true), Some(true)) => Some(true),
                (And, _, _) => None,
                (Or, Some(true), _) | (Or, _, Some(true)) => Some(true),
                (Or, Some(false), Some(false)) => Some(false),
                (Or, _, _) => None,
                (Xor, Some(a), Some(b)) => Some(a != b),
                (Xor, _, _) => None,
                _ => unreachable!(),
            };
            return Ok(out.map(Value::Bool).unwrap_or(Value::Null));
        }
        let l = self.eval(lhs, row)?;
        let r = self.eval(rhs, row)?;
        let (l, r) = (l.as_ref(), r.as_ref());
        match op {
            Eq => Ok(l.cypher_eq(r).map(Value::Bool).unwrap_or(Value::Null)),
            Neq => Ok(l.cypher_eq(r).map(|b| Value::Bool(!b)).unwrap_or(Value::Null)),
            Lt | Le | Gt | Ge => {
                let ord = l.cypher_cmp(r);
                Ok(match ord {
                    None => Value::Null,
                    Some(o) => Value::Bool(match op {
                        Lt => o.is_lt(),
                        Le => o.is_le(),
                        Gt => o.is_gt(),
                        Ge => o.is_ge(),
                        _ => unreachable!(),
                    }),
                })
            }
            StartsWith | EndsWith | Contains => match (l, r) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(match op {
                    StartsWith => a.starts_with(b.as_str()),
                    EndsWith => a.ends_with(b.as_str()),
                    Contains => a.contains(b.as_str()),
                    _ => unreachable!(),
                })),
                _ => Err(CypherError::runtime(format!(
                    "{op:?} expects STRING operands, got {} and {}",
                    l.type_name(),
                    r.type_name()
                ))),
            },
            Regex => match (l, r) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    let re = crate::regex::Regex::new(pat).map_err(|e| invalid_regex(pat, &e))?;
                    Ok(Value::Bool(re.is_match(s)))
                }
                // Neo4j raises a type error when `=~` is applied to a
                // non-string subject.
                _ => Err(regex_type_error(l, r.type_name())),
            },
            Add | Sub | Mul | Div | Mod | Pow => arith(l, r, op),
            And | Or | Xor => unreachable!("handled above"),
        }
    }

    fn eval_fn(
        &self,
        func: Func,
        name: &str,
        args: &'g [CExpr],
        row: &Row,
    ) -> Result<Cow<'g, Value>> {
        let arity = |n: usize| -> Result<()> {
            if args.len() == n {
                Ok(())
            } else {
                Err(CypherError::semantic(format!(
                    "{name}() expects {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        let owned = |v: Value| Ok(Cow::Owned(v));
        // The element a variable argument is bound to (`id(n)`, ...).
        let bound = |arg: &CExpr| match arg {
            CExpr::Var { slot, .. } => row[*slot].as_ref(),
            _ => None,
        };
        match func {
            Func::Size => {
                arity(1)?;
                match self.eval(&args[0], row)?.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::List(items) => owned(Value::Int(items.len() as i64)),
                    Value::Str(s) => owned(Value::Int(s.chars().count() as i64)),
                    other => Err(CypherError::runtime(format!(
                        "size() expects LIST or STRING, got {}",
                        other.type_name()
                    ))),
                }
            }
            Func::ToString => {
                arity(1)?;
                let v = self.eval(&args[0], row)?;
                match v.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::Str(_) => Ok(v),
                    other => owned(Value::Str(other.to_string())),
                }
            }
            Func::ToLower | Func::ToUpper => {
                arity(1)?;
                match self.eval(&args[0], row)?.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::Str(s) => owned(Value::Str(if func == Func::ToLower {
                        s.to_lowercase()
                    } else {
                        s.to_uppercase()
                    })),
                    other => Err(CypherError::runtime(format!(
                        "{}() expects STRING, got {}",
                        if func == Func::ToLower { "toLower" } else { "toUpper" },
                        other.type_name()
                    ))),
                }
            }
            Func::ToInteger => {
                arity(1)?;
                owned(match self.eval(&args[0], row)?.as_ref() {
                    Value::Int(i) => Value::Int(*i),
                    Value::Float(f) => Value::Int(*f as i64),
                    Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
                    _ => Value::Null,
                })
            }
            Func::Abs => {
                arity(1)?;
                match self.eval(&args[0], row)?.as_ref() {
                    Value::Null => owned(Value::Null),
                    Value::Int(i) => owned(Value::Int(i.abs())),
                    Value::Float(f) => owned(Value::Float(f.abs())),
                    other => Err(CypherError::runtime(format!(
                        "abs() expects a number, got {}",
                        other.type_name()
                    ))),
                }
            }
            Func::Coalesce => {
                for a in args {
                    let v = self.eval(a, row)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                owned(Value::Null)
            }
            Func::Id => {
                arity(1)?;
                match bound(&args[0]) {
                    Some(Binding::Node(id)) => owned(Value::Int(i64::from(id.0))),
                    Some(Binding::Edge(id)) => owned(Value::Int(i64::from(id.0))),
                    _ => Err(CypherError::runtime("id() expects a bound node or relationship")),
                }
            }
            Func::Labels => {
                arity(1)?;
                match bound(&args[0]) {
                    Some(Binding::Node(id)) => owned(Value::List(
                        self.graph.node(*id).labels.iter().map(|l| Value::Str(l.clone())).collect(),
                    )),
                    _ => Err(CypherError::runtime("labels() expects a bound node")),
                }
            }
            Func::Type => {
                arity(1)?;
                match bound(&args[0]) {
                    Some(Binding::Edge(id)) => {
                        owned(Value::Str(self.graph.edge(*id).label.clone()))
                    }
                    _ => Err(CypherError::runtime("type() expects a bound relationship")),
                }
            }
            Func::Exists => {
                arity(1)?;
                let v = self.eval(&args[0], row)?;
                owned(Value::Bool(!v.is_null()))
            }
        }
    }
}

fn invalid_regex(pattern: &str, e: &RegexError) -> CypherError {
    CypherError::runtime(format!("invalid regex {pattern:?}: {e}"))
}

fn regex_type_error(subject: &Value, pattern_type: &str) -> CypherError {
    CypherError::runtime(format!(
        "=~ expects STRING operands, got {} and {pattern_type}",
        subject.type_name()
    ))
}

fn arith(l: &Value, r: &Value, op: BinOp) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String / list concatenation with `+`.
    if op == Add {
        match (l, r) {
            (Value::Str(a), Value::Str(b)) => return Ok(Value::Str(format!("{a}{b}"))),
            (Value::Str(a), b) => return Ok(Value::Str(format!("{a}{b}"))),
            (a, Value::Str(b)) => return Ok(Value::Str(format!("{a}{b}"))),
            (Value::List(a), Value::List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                return Ok(Value::List(out));
            }
            _ => {}
        }
    }
    // Integer arithmetic stays integral (Cypher semantics).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div => {
                if b == 0 {
                    return Err(CypherError::runtime("division by zero"));
                }
                Value::Int(a / b)
            }
            Mod => {
                if b == 0 {
                    return Err(CypherError::runtime("modulo by zero"));
                }
                Value::Int(a % b)
            }
            Pow => Value::Float((a as f64).powf(b as f64)),
            _ => unreachable!(),
        });
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Mod => Value::Float(a % b),
            Pow => Value::Float(a.powf(b)),
            _ => unreachable!(),
        }),
        _ => Err(CypherError::runtime(format!(
            "cannot apply {op:?} to {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use grm_pgraph::{props, PropertyGraph};

    /// A graph plus a row binding `n`, `m` (nodes) and `r` (an edge).
    fn ctx_and_row() -> (PropertyGraph, Slots, Vec<Option<Binding>>) {
        let mut g = PropertyGraph::new();
        let n = g.add_node(
            ["Person"],
            props([
                ("name", Value::from("Ada")),
                ("age", Value::Int(36)),
                ("domain", Value::from("example.com")),
            ]),
        );
        let m = g.add_node(["Match"], props([("id", Value::from("m1"))]));
        let e = g.add_edge(n, m, "PLAYED_IN", props([("minutes", Value::Int(90))]));
        let mut slots = Slots::default();
        let mut row = Vec::new();
        for (name, b) in [("n", Binding::Node(n)), ("m", Binding::Node(m)), ("r", Binding::Edge(e))]
        {
            assert_eq!(slots.of(name), row.len());
            row.push(Some(b));
        }
        (g, slots, row)
    }

    fn try_ev(src: &str) -> Result<Value> {
        let (g, mut slots, mut row) = ctx_and_row();
        let expr = CExpr::compile(&parse_expr(src).unwrap(), &mut slots);
        row.resize(slots.len(), None);
        EvalCtx::new(&g, None).eval(&expr, &row).map(Cow::into_owned)
    }

    fn ev(src: &str) -> Value {
        try_ev(src).unwrap()
    }

    fn filter(src: &str) -> bool {
        let (g, mut slots, row) = ctx_and_row();
        let expr = CExpr::compile(&parse_expr(src).unwrap(), &mut slots);
        EvalCtx::new(&g, None).eval_filter(&expr, &row).unwrap()
    }

    #[test]
    fn property_access() {
        assert_eq!(ev("n.name"), Value::from("Ada"));
        assert_eq!(ev("r.minutes"), Value::Int(90));
        // Missing ("hallucinated") property reads NULL, not error.
        assert_eq!(ev("n.penaltyScore"), Value::Null);
    }

    #[test]
    fn property_reads_borrow_from_the_graph() {
        let (g, mut slots, row) = ctx_and_row();
        let expr = CExpr::compile(&parse_expr("n.name").unwrap(), &mut slots);
        assert!(matches!(EvalCtx::new(&g, None).eval(&expr, &row).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(ev("n.ghost = 1"), Value::Null);
        assert_eq!(ev("n.ghost > 1"), Value::Null);
        assert_eq!(ev("n.ghost + 1"), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        assert_eq!(ev("n.ghost = 1 AND false"), Value::Bool(false));
        assert_eq!(ev("n.ghost = 1 OR true"), Value::Bool(true));
        assert_eq!(ev("n.ghost = 1 AND true"), Value::Null);
        assert_eq!(ev("NOT (n.ghost = 1)"), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(ev("n.ghost IS NULL"), Value::Bool(true));
        assert_eq!(ev("n.name IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn regex_match() {
        assert_eq!(ev(r"n.domain =~ '^([a-zA-Z0-9-]+\.)+[a-zA-Z]{2,}$'"), Value::Bool(true));
        assert_eq!(ev("n.name =~ '^[0-9]+$'"), Value::Bool(false));
        assert_eq!(ev("n.ghost =~ '^a$'"), Value::Null);
        // A computed pattern compiles per evaluation.
        assert_eq!(ev("n.name =~ ('^A' + '.*')"), Value::Bool(true));
    }

    #[test]
    fn invalid_literal_regex_errors_only_when_evaluated() {
        assert!(matches!(try_ev("n.name =~ '('"), Err(CypherError::Runtime { .. })));
        assert_eq!(ev("n.ghost =~ '('"), Value::Null);
    }

    #[test]
    fn string_predicates() {
        assert_eq!(ev("n.name STARTS WITH 'A'"), Value::Bool(true));
        assert_eq!(ev("n.name STARTS WITH 'B'"), Value::Bool(false));
        assert_eq!(ev("n.name ENDS WITH 'da'"), Value::Bool(true));
        assert_eq!(ev("n.domain CONTAINS 'ample'"), Value::Bool(true));
        assert_eq!(ev("n.domain CONTAINS 'nope'"), Value::Bool(false));
        // NULL propagates.
        assert_eq!(ev("n.ghost CONTAINS 'x'"), Value::Null);
    }

    #[test]
    fn string_predicates_on_non_strings_error() {
        assert!(try_ev("n.age CONTAINS 'x'").is_err());
    }

    #[test]
    fn regex_on_non_string_is_error() {
        assert!(try_ev("n.age =~ 'x'").is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3"), Value::Int(7));
        assert_eq!(ev("7 / 2"), Value::Int(3));
        assert_eq!(ev("7.0 / 2"), Value::Float(3.5));
        assert_eq!(ev("7 % 3"), Value::Int(1));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(try_ev("1 / 0").is_err());
    }

    #[test]
    fn string_concat() {
        assert_eq!(ev("n.name + ':' + toString(n.age)"), Value::from("Ada:36"));
    }

    #[test]
    fn in_operator() {
        assert_eq!(ev("n.age IN [35, 36]"), Value::Bool(true));
        assert_eq!(ev("n.age IN [1, 2]"), Value::Bool(false));
        assert_eq!(ev("n.ghost IN [1]"), Value::Null);
        assert_eq!(ev("1 IN [n.ghost, 2]"), Value::Null);
        assert_eq!(ev("2 IN [n.ghost, 2]"), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(ev("size([1,2,3])"), Value::Int(3));
        assert_eq!(ev("size(n.name)"), Value::Int(3));
        assert_eq!(ev("toLower('ABC')"), Value::from("abc"));
        assert_eq!(ev("toUpper('abc')"), Value::from("ABC"));
        assert_eq!(ev("toInteger('42')"), Value::Int(42));
        assert_eq!(ev("toInteger('nope')"), Value::Null);
        assert_eq!(ev("coalesce(n.ghost, n.name)"), Value::from("Ada"));
        assert_eq!(ev("abs(-3)"), Value::Int(3));
        assert_eq!(ev("type(r)"), Value::from("PLAYED_IN"));
        assert_eq!(ev("labels(m)"), Value::List(vec![Value::from("Match")]));
        assert_eq!(ev("EXISTS(n.name)"), Value::Bool(true));
        assert_eq!(ev("EXISTS(n.ghost)"), Value::Bool(false));
    }

    #[test]
    fn filter_semantics_treat_null_as_false() {
        assert!(!filter("n.ghost = 1"));
        assert!(filter("n.age = 36"));
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        assert!(try_ev("COUNT(*)").is_err());
    }

    #[test]
    fn unknown_variable_is_semantic_error() {
        assert!(matches!(try_ev("zz.name"), Err(CypherError::Semantic { .. })));
    }

    #[test]
    fn unknown_function_is_semantic_error() {
        assert!(matches!(try_ev("frobnicate(1)"), Err(CypherError::Semantic { .. })));
    }
}
