//! Property values.
//!
//! The value model mirrors what the paper's datasets actually store in
//! Neo4j: booleans, integers, floats, strings, timestamps and lists.
//! `Value::Null` participates in three-valued logic inside the Cypher
//! engine (`grm-cypher`), which is how hallucinated properties surface
//! as silently-empty results rather than hard errors — the behaviour
//! §4.4 of the paper relies on.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A property value attached to a node or an edge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// Absent / unknown value (SQL-style three-valued logic).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Timestamp as seconds since the Unix epoch. Neo4j's `datetime`
    /// is richer; epoch seconds preserve everything the paper's
    /// temporal rules ("a retweet can occur only after the original
    /// tweet") need: a total order.
    DateTime(i64),
    /// Heterogeneous list.
    List(Vec<Value>),
}

impl Value {
    /// Human-readable type name, used in schema reports and error
    /// messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::DateTime(_) => "DATETIME",
            Value::List(_) => "LIST",
        }
    }

    /// True when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truthiness for boolean contexts. `Null` is neither true nor
    /// false (returns `None`), any non-`Bool` value is an error
    /// surfaced as `None` as well — the Cypher executor treats it as
    /// "unknown", matching Neo4j's lenient `WHERE` semantics.
    pub fn as_truth(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Null => None,
            _ => None,
        }
    }

    /// Numeric view for arithmetic and ordered comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::DateTime(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Cypher-style equality: `Null = anything` is unknown (`None`);
    /// numbers compare across `Int`/`Float`; otherwise same-variant
    /// structural equality.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x == y),
                _ => Some(a == b),
            },
        }
    }

    /// Cypher-style ordered comparison. `None` when either side is
    /// `Null` or the two values are not comparable (e.g. string vs
    /// int), which propagates as "unknown" in `WHERE`.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Heap bytes owned by this value beyond its inline
    /// `size_of::<Value>()`: string capacity for `Str`, buffer
    /// capacity plus recursive element heap for `List`, zero for the
    /// inline variants. Capacities grow deterministically (doubling),
    /// so footprint accounting built on this is byte-exact for a
    /// fixed build sequence.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Value::Str(s) => s.capacity() as u64,
            Value::List(vs) => {
                let buffer = (vs.capacity() * std::mem::size_of::<Value>()) as u64;
                buffer + vs.iter().map(Value::heap_bytes).sum::<u64>()
            }
            _ => 0,
        }
    }

    /// Grouping equality — the equality of `DISTINCT`, grouping keys
    /// and distinct counts. Values are equal when they have the same
    /// variant and content: floats compare by bit pattern with every
    /// NaN equal (so `0.0` and `-0.0` differ), and lists compare
    /// element by element. Unlike [`Value::cypher_eq`], `Null` equals
    /// `Null` and `1` differs from `1.0`.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) | (Value::DateTime(a), Value::DateTime(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => float_bits(*a) == float_bits(*b),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.group_eq(y))
            }
            _ => false,
        }
    }

    /// Hashes the value consistently with [`Value::group_eq`].
    pub fn group_hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(u8::from(*b));
            }
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(3);
                state.write_u64(float_bits(*f));
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::DateTime(t) => {
                state.write_u8(5);
                state.write_i64(*t);
            }
            Value::List(vs) => {
                state.write_u8(6);
                state.write_usize(vs.len());
                for v in vs {
                    v.group_hash(state);
                }
            }
        }
    }

    /// A stable, readable sort key. Floats are rendered with full
    /// precision; lists recurse. It is not injective (list elements
    /// are joined with `,`), so equality of values goes through
    /// [`Value::group_eq`] / [`ValueKey`] instead.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "∅".to_owned(),
            Value::Bool(b) => format!("b:{b}"),
            Value::Int(i) => format!("i:{i}"),
            Value::Float(f) => format!("f:{f}"),
            Value::Str(s) => format!("s:{s}"),
            Value::DateTime(t) => format!("t:{t}"),
            Value::List(vs) => {
                let inner: Vec<String> = vs.iter().map(Value::group_key).collect();
                format!("l:[{}]", inner.join(","))
            }
        }
    }
}

/// Bit pattern of a float under grouping equality: every NaN maps to
/// one pattern.
fn float_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else {
        f.to_bits()
    }
}

/// A value, owned or borrowed, hashed and compared under
/// [`Value::group_eq`]: the typed, injective key that grouping,
/// `DISTINCT`, distinct counts and schema inference use.
#[derive(Debug, Clone, Copy)]
pub struct ValueKey<V>(pub V);

impl<V: Borrow<Value>> Hash for ValueKey<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.borrow().group_hash(state);
    }
}

impl<V: Borrow<Value>> PartialEq for ValueKey<V> {
    fn eq(&self, other: &Self) -> bool {
        self.0.borrow().group_eq(other.0.borrow())
    }
}

impl<V: Borrow<Value>> Eq for ValueKey<V> {}

impl fmt::Display for Value {
    /// Renders a Cypher-compatible literal; used by the text encoders
    /// so the simulated LLM "sees" values the way a prompt would.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "\\'")),
            Value::DateTime(t) => write!(f, "datetime({t})"),
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_equality_is_unknown() {
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Null), None);
        assert_eq!(Value::Null.cypher_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_equality_crosses_int_float() {
        assert_eq!(Value::Int(2).cypher_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(Value::Int(2).cypher_eq(&Value::Float(2.5)), Some(false));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(Value::from("abc").cypher_cmp(&Value::from("abd")), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types_yield_unknown() {
        assert_eq!(Value::from("a").cypher_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn datetime_orders_like_integers() {
        assert_eq!(Value::DateTime(10).cypher_cmp(&Value::DateTime(20)), Some(Ordering::Less));
    }

    #[test]
    fn display_renders_cypher_literals() {
        assert_eq!(Value::from("o'neil").to_string(), "'o\\'neil'");
        assert_eq!(Value::List(vec![Value::Int(1), Value::from("x")]).to_string(), "[1, 'x']");
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::from("1").group_key());
        assert_ne!(Value::Bool(true).group_key(), Value::from("true").group_key());
    }

    fn key_eq(a: &Value, b: &Value) -> bool {
        ValueKey(a) == ValueKey(b)
    }

    #[test]
    fn group_equality_is_typed_and_injective() {
        // `group_key` renders both lists as "l:[s:a,s:b]".
        let joined = Value::List(vec![Value::from("a,s:b")]);
        let split = Value::List(vec![Value::from("a"), Value::from("b")]);
        assert_eq!(joined.group_key(), split.group_key());
        assert!(!key_eq(&joined, &split));
        assert!(!key_eq(&Value::Int(1), &Value::Float(1.0)));
        assert!(!key_eq(&Value::Int(1), &Value::DateTime(1)));
        assert!(!key_eq(&Value::Null, &Value::from("∅")));
        assert!(!key_eq(&Value::Float(0.0), &Value::Float(-0.0)));
        assert!(key_eq(&Value::Float(f64::NAN), &Value::Float(-f64::NAN)));
        assert!(key_eq(&Value::Null, &Value::Null));
        assert!(key_eq(&split, &split.clone()));
    }

    #[test]
    fn value_keys_hash_consistently_across_ownership() {
        use std::collections::HashSet;
        let v = Value::List(vec![Value::Float(f64::NAN), Value::from("x")]);
        let mut set = HashSet::new();
        set.insert(ValueKey(v.clone()));
        let w = Value::List(vec![Value::Float(-f64::NAN), Value::from("x")]);
        assert!(set.contains(&ValueKey(w)));
        let borrowed: HashSet<ValueKey<&Value>> = [ValueKey(&v)].into_iter().collect();
        assert!(borrowed.contains(&ValueKey(&v)));
    }

    #[test]
    fn heap_bytes_counts_string_and_list_capacity() {
        assert_eq!(Value::Int(1).heap_bytes(), 0);
        assert_eq!(Value::Null.heap_bytes(), 0);
        let s = String::with_capacity(32);
        assert_eq!(Value::Str(s).heap_bytes(), 32);
        let vs = vec![Value::Int(1), Value::Str(String::with_capacity(8))];
        let expected = 2 * std::mem::size_of::<Value>() as u64 + 8;
        assert_eq!(Value::List(vs).heap_bytes(), expected);
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).as_truth(), Some(true));
        assert_eq!(Value::Null.as_truth(), None);
        assert_eq!(Value::Int(1).as_truth(), None);
    }
}
