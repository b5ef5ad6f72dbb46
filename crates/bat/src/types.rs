//! Logical types, runtime values and nil sentinels.
//!
//! MonetDB represents SQL NULL with in-domain sentinel values ("nil") instead
//! of validity bitmaps; we follow it faithfully (`i64::MIN` for integers,
//! `NaN` for floats, `u32::MAX` dictionary code for strings, a third state
//! for booleans). Keeping nil in-band keeps every vectorized kernel a single
//! tight loop.

use std::fmt;

/// Nil sentinel for [`DataType::Int`] and [`DataType::Timestamp`] values.
pub const NIL_INT: i64 = i64::MIN;

/// Nil dictionary code for [`DataType::Str`] values.
pub const NIL_STR_CODE: u32 = u32::MAX;

/// Returns the nil sentinel for floats (`NaN`).
///
/// Use [`is_nil_float`] to test — `NaN != NaN`, so direct comparison is wrong.
#[inline]
pub fn nil_float() -> f64 {
    f64::NAN
}

/// True iff `v` is the float nil sentinel.
#[inline]
pub fn is_nil_float(v: f64) -> bool {
    v.is_nan()
}

/// True iff `v` is the integer nil sentinel.
#[inline]
pub fn is_nil_int(v: i64) -> bool {
    v == NIL_INT
}

/// Total-order key of a float: comparing keys as `i64` reproduces
/// [`f64::total_cmp`] with plain integer comparisons, which lets the
/// vectorized kernels evaluate total-order predicates branchlessly.
#[inline]
pub fn total_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Logical column types supported by the kernel.
///
/// `Timestamp` is stored as microseconds since an arbitrary epoch in an
/// `i64`; it is a distinct logical type so the planner can type-check stream
/// operations (every basket carries an implicit timestamp column, §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Boolean (true/false/nil).
    Bool,
    /// Dictionary-encoded UTF-8 string.
    Str,
    /// Microseconds since epoch, stored as `i64`.
    Timestamp,
}

impl DataType {
    /// Short lowercase name, used in error messages and `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Str => "str",
            DataType::Timestamp => "timestamp",
        }
    }

    /// True for types on which `+ - * /` are defined.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The common type two operands coerce to, if any (int widens to float).
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            (Int, Timestamp) | (Timestamp, Int) => Some(Timestamp),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single runtime value; the boundary representation between the textual
/// receptor/emitter interface and the columnar kernel.
///
/// Inside kernels values never appear — everything is columnar. `Value` is
/// used by the SQL layer for literals, by tuple ingestion, and by result
/// rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Nil,
    /// Integer literal/value.
    Int(i64),
    /// Float literal/value.
    Float(f64),
    /// Boolean literal/value.
    Bool(bool),
    /// String literal/value.
    Str(String),
    /// Timestamp (microseconds since epoch).
    Timestamp(i64),
}

impl Value {
    /// The logical type of this value, or `None` for `Nil` (untyped null).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Nil => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True iff this is SQL NULL (including the in-band float NaN nil).
    pub fn is_nil(&self) -> bool {
        match self {
            Value::Nil => true,
            Value::Int(v) | Value::Timestamp(v) => is_nil_int(*v),
            Value::Float(v) => is_nil_float(*v),
            _ => false,
        }
    }

    /// Integer view, coercing timestamps; `None` for other types or nil.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) if !is_nil_int(*v) => Some(*v),
            _ => None,
        }
    }

    /// Float view, coercing integers; `None` for other types or nil.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) if !is_nil_float(*v) => Some(*v),
            Value::Int(v) if !is_nil_int(*v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean view; `None` for other types or nil.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view; `None` for other types.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce this value to `ty`, if a lossless coercion exists.
    pub fn coerce_to(&self, ty: DataType) -> Option<Value> {
        if self.is_nil() {
            return Some(Value::Nil);
        }
        match (self, ty) {
            (Value::Int(v), DataType::Int) => Some(Value::Int(*v)),
            (Value::Int(v), DataType::Float) => Some(Value::Float(*v as f64)),
            (Value::Int(v), DataType::Timestamp) => Some(Value::Timestamp(*v)),
            (Value::Float(v), DataType::Float) => Some(Value::Float(*v)),
            (Value::Bool(v), DataType::Bool) => Some(Value::Bool(*v)),
            (Value::Str(v), DataType::Str) => Some(Value::Str(v.clone())),
            (Value::Timestamp(v), DataType::Timestamp) => Some(Value::Timestamp(*v)),
            (Value::Timestamp(v), DataType::Int) => Some(Value::Int(*v)),
            _ => None,
        }
    }

    /// Total ordering used by ORDER BY and min/max: nil sorts first, numbers
    /// compare across int/float, otherwise values must be of the same type.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.is_nil(), other.is_nil()) {
            (true, true) => return Equal,
            (true, false) => return Less,
            (false, true) => return Greater,
            _ => {}
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Heterogeneous comparisons order by type tag so sorting is total.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

macro_rules! impl_value_from {
    ($($t:ty => $variant:ident $(as $cast:ty)?),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::$variant(v $(as $cast)?)
            }
        }
    )*};
}

impl_value_from! {
    i64 => Int,
    i32 => Int as i64,
    u32 => Int as i64,
    f64 => Float,
    f32 => Float as f64,
    bool => Bool,
    String => Str,
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Nil,
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Nil => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Timestamp(_) => 4,
        Value::Str(_) => 5,
    }
}

/// `Display` writes the textual wire format used by receptors/emitters
/// (§2.1: "a textual interface for exchanging flat relational tuples").
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => f.write_str("nil"),
            Value::Int(v) if is_nil_int(*v) => f.write_str("nil"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if is_nil_float(*v) => f.write_str("nil"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Timestamp(v) if is_nil_int(*v) => f.write_str("nil"),
            Value::Timestamp(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn unify_widens_int_to_float() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Float.unify(DataType::Int), Some(DataType::Float));
        assert_eq!(DataType::Int.unify(DataType::Int), Some(DataType::Int));
        assert_eq!(DataType::Str.unify(DataType::Int), None);
    }

    #[test]
    fn unify_timestamp_with_int() {
        assert_eq!(
            DataType::Timestamp.unify(DataType::Int),
            Some(DataType::Timestamp)
        );
    }

    #[test]
    fn nil_detection() {
        assert!(Value::Nil.is_nil());
        assert!(Value::Int(NIL_INT).is_nil());
        assert!(Value::Float(nil_float()).is_nil());
        assert!(!Value::Int(0).is_nil());
        assert!(!Value::Float(0.0).is_nil());
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::Str("x".into()).coerce_to(DataType::Int), None);
        assert_eq!(Value::Nil.coerce_to(DataType::Int), Some(Value::Nil));
        assert_eq!(
            Value::Timestamp(42).coerce_to(DataType::Int),
            Some(Value::Int(42))
        );
    }

    #[test]
    fn total_cmp_nil_first_and_cross_numeric() {
        assert_eq!(Value::Nil.total_cmp(&Value::Int(1)), Ordering::Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert_eq!(
            Value::Str("b".into()).total_cmp(&Value::Str("a".into())),
            Ordering::Greater
        );
    }

    #[test]
    fn display_wire_format() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(Value::Int(NIL_INT).to_string(), "nil");
        assert_eq!(Value::Float(nil_float()).to_string(), "nil");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Str("abc".into()).to_string(), "abc");
    }

    #[test]
    fn as_views() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Int(NIL_INT).as_int(), None);
    }
}
