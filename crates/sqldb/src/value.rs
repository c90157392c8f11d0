//! Runtime SQL values and their operator semantics.
//!
//! The engine has four types and no NULL: 64-bit integers, 64-bit floats,
//! UTF-8 text, and [`BigBits`] arbitrary-width unsigned integers (exposed to
//! SQL as `HUGEINT`, produced by hex literals and oversized decimal
//! literals). Numeric operators promote `Int → Float` and `Int → Big` as
//! needed; a comparison is always true or false. A result's type follows
//! from its operands' types, never from their values: an `INTEGER` result
//! that leaves `i64` is an error, `<<`'s included.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::ast::DataType;
use crate::bigbits::BigBits;
use crate::error::{Error, Result};

/// What one `TEXT` value charges the memory ledger, in a row or a column.
pub(crate) fn str_bytes(s: &String) -> usize {
    16 + s.capacity()
}

/// What one `HUGEINT` value charges the memory ledger, in a row or a column.
pub(crate) fn big_bytes(b: &BigBits) -> usize {
    24 + b.heap_bytes()
}

/// A runtime value in a row.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Big(BigBits),
}

impl Value {
    /// The SQL type of the value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Integer,
            Value::Float(_) => DataType::Double,
            Value::Str(_) => DataType::Text,
            Value::Big(_) => DataType::HugeInt,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the memory ledger.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => str_bytes(s),
            Value::Big(b) => big_bytes(b),
            _ => 16,
        }
    }

    /// Numeric interpretation as f64 (for float arithmetic and aggregates).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Big(b) => b
                .to_u64()
                .map(|u| u as f64)
                .ok_or_else(|| Error::Type("HUGEINT too large for DOUBLE context".into())),
            other => Err(Error::Type(format!("expected numeric value, got {}", other.data_type()))),
        }
    }

    /// Integer interpretation (floats must be integral).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.2e18 => Ok(*f as i64),
            Value::Big(b) => b
                .to_i64()
                .ok_or_else(|| Error::Type("HUGEINT too large for INTEGER context".into())),
            other => Err(Error::Type(format!("expected INTEGER value, got {}", other.data_type()))),
        }
    }

    /// Truthiness for HAVING and a join's ON: numeric 0 ⇒ false.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Int(i) => Ok(*i != 0),
            Value::Float(f) => Ok(*f != 0.0),
            Value::Big(b) => Ok(!b.is_zero()),
            Value::Str(_) => Err(Error::Type("TEXT value used as boolean".into())),
        }
    }

    fn as_big(&self, width_hint: usize) -> Result<BigBits> {
        match self {
            Value::Big(b) => Ok(b.clone()),
            Value::Int(i) if *i >= 0 => Ok(BigBits::from_u64(*i as u64, width_hint)),
            Value::Int(_) => Err(Error::Type("negative INTEGER in HUGEINT bitwise context".into())),
            other => Err(Error::Type(format!("expected integer type, got {}", other.data_type()))),
        }
    }

    // ---- arithmetic -------------------------------------------------------

    pub fn add(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, |a, b| {
            a.checked_add(b).ok_or_else(|| Error::Eval("integer overflow in +".into()))
        }, |a, b| a + b)
    }

    pub fn sub(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, |a, b| {
            a.checked_sub(b).ok_or_else(|| Error::Eval("integer overflow in -".into()))
        }, |a, b| a - b)
    }

    pub fn mul(&self, rhs: &Value) -> Result<Value> {
        numeric_binop(self, rhs, |a, b| {
            a.checked_mul(b).ok_or_else(|| Error::Eval("integer overflow in *".into()))
        }, |a, b| a * b)
    }

    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| Error::Eval("integer overflow in unary -".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::Type(format!("cannot negate {}", other.data_type()))),
        }
    }

    // ---- bitwise (Table 1 of the paper) -----------------------------------

    pub fn bit_and(&self, rhs: &Value) -> Result<Value> {
        bitwise_binop(self, rhs, |a, b| a & b, |a, b| a.and(b))
    }

    pub fn bit_or(&self, rhs: &Value) -> Result<Value> {
        bitwise_binop(self, rhs, |a, b| a | b, |a, b| a.or(b))
    }

    pub fn bit_xor(&self, rhs: &Value) -> Result<Value> {
        bitwise_binop(self, rhs, |a, b| a ^ b, |a, b| a.xor(b))
    }

    pub fn bit_not(&self) -> Result<Value> {
        match self {
            Value::Int(i) => Ok(Value::Int(!i)),
            Value::Big(b) => Ok(Value::Big(b.not())),
            other => Err(Error::Type(format!("cannot apply ~ to {}", other.data_type()))),
        }
    }

    pub fn shl(&self, rhs: &Value) -> Result<Value> {
        let n = shift_amount(rhs)?;
        match self {
            Value::Int(i) => shl_i64(*i, n).map(Value::Int),
            Value::Big(b) => Ok(Value::Big(b.shl(n))),
            other => Err(Error::Type(format!("cannot shift {}", other.data_type()))),
        }
    }

    pub fn shr(&self, rhs: &Value) -> Result<Value> {
        let n = shift_amount(rhs)?;
        match self {
            Value::Int(i) => Ok(Value::Int(if n >= 64 { 0 } else { ((*i as u64) >> n) as i64 })),
            Value::Big(b) => Ok(Value::Big(b.shr(n))),
            other => Err(Error::Type(format!("cannot shift {}", other.data_type()))),
        }
    }

    // ---- comparison --------------------------------------------------------

    /// SQL comparison; text compares only with text.
    pub fn sql_cmp(&self, rhs: &Value) -> Result<Ordering> {
        match (self, rhs) {
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Str(_), _) | (_, Value::Str(_)) => {
                Err(Error::Type(format!("cannot compare {} with {}", self.data_type(), rhs.data_type())))
            }
            (Value::Big(a), Value::Big(b)) => Ok(a.cmp_value(b)),
            (Value::Big(a), Value::Int(b)) => Ok(cmp_big_int(a, *b)),
            (Value::Int(a), Value::Big(b)) => Ok(cmp_big_int(b, *a).reverse()),
            (Value::Big(a), Value::Float(f)) => Ok(cmp_f64_total(big_to_f64(a), *f)),
            (Value::Float(f), Value::Big(b)) => Ok(cmp_f64_total(*f, big_to_f64(b))),
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (a, b) => Ok(cmp_f64_total(a.as_f64()?, b.as_f64()?)),
        }
    }

    /// Total ordering for ORDER BY and sort-based algorithms: numbers
    /// before text.
    pub fn cmp_total(&self, rhs: &Value) -> Ordering {
        match (self, rhs) {
            (Value::Str(_), Value::Str(_)) => self.sql_cmp(rhs).unwrap_or(Ordering::Equal),
            (Value::Str(_), _) => Ordering::Greater,
            (_, Value::Str(_)) => Ordering::Less,
            _ => self.sql_cmp(rhs).unwrap_or(Ordering::Equal),
        }
    }

    /// Canonical key for GROUP BY and hash joins: numerically equal
    /// values of different representations map to the same key.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 9.2e18 {
                    GroupKey::Int(*f as i64)
                } else {
                    GroupKey::Float(f.to_bits())
                }
            }
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Big(b) => match b.to_i64() {
                Some(i) => GroupKey::Int(i),
                None => GroupKey::Big(b.clone()),
            },
        }
    }
}

/// Hashable canonical form of a [`Value`] used as a grouping/join key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Int(i64),
    Float(u64),
    Str(String),
    Big(BigBits),
}

impl GroupKey {
    pub fn heap_bytes(&self) -> usize {
        match self {
            GroupKey::Str(s) => 24 + s.capacity(),
            GroupKey::Big(b) => 32 + b.heap_bytes(),
            _ => 16,
        }
    }
}

fn cmp_big_int(big: &BigBits, int: i64) -> Ordering {
    if int < 0 {
        return Ordering::Greater; // unsigned big >= 0 > negative int
    }
    match big.to_u64() {
        Some(u) => u.cmp(&(int as u64)),
        None => Ordering::Greater,
    }
}

fn big_to_f64(b: &BigBits) -> f64 {
    match b.to_u64() {
        Some(u) => u as f64,
        None => f64::INFINITY, // beyond exact f64 comparison; ordering only
    }
}

fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// `a << n` on `INTEGER`: an error where the result leaves `i64`, as `+`,
/// `-` and `*` are. Shared by [`Value::shl`] and the batch kernel.
pub(crate) fn shl_i64(a: i64, n: usize) -> Result<i64> {
    i64::try_from((a as i128) << n.min(64)).map_err(|_| Error::Eval("integer overflow in <<".into()))
}

fn shift_amount(v: &Value) -> Result<usize> {
    let n = v.as_i64()?;
    if n < 0 {
        return Err(Error::Eval("negative shift amount".into()));
    }
    Ok(n as usize)
}

fn numeric_binop(
    lhs: &Value,
    rhs: &Value,
    int_op: impl Fn(i64, i64) -> Result<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => int_op(*a, *b).map(Value::Int),
        _ => Ok(Value::Float(float_op(lhs.as_f64()?, rhs.as_f64()?))),
    }
}

fn bitwise_binop(
    lhs: &Value,
    rhs: &Value,
    int_op: impl Fn(i64, i64) -> i64,
    big_op: impl Fn(&BigBits, &BigBits) -> BigBits,
) -> Result<Value> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(int_op(*a, *b))),
        (a @ Value::Big(_), b) | (a, b @ Value::Big(_)) => {
            let wa = if let Value::Big(x) = a { x.width() } else { 64 };
            let wb = if let Value::Big(x) = b { x.width() } else { 64 };
            let w = wa.max(wb);
            Ok(Value::Big(big_op(&a.as_big(w)?, &b.as_big(w)?)))
        }
        (a, b) => Err(Error::Type(format!(
            "bitwise operator requires integer operands, got {} and {}",
            a.data_type(),
            b.data_type()
        ))),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_cmp(other).is_ok_and(|o| o == Ordering::Equal)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.group_key().hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Big(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<BigBits> for Value {
    fn from(v: BigBits) -> Self {
        Value::Big(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)).unwrap(), Value::Float(2.5));
        assert_eq!(Value::Float(1.0).mul(&Value::Float(2.0)).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).neg().is_err());
    }

    #[test]
    fn bitwise_int_semantics_match_table1() {
        // the exact operator set from Table 1 of the paper
        assert_eq!(Value::Int(0b1100).bit_and(&Value::Int(0b1010)).unwrap(), Value::Int(0b1000));
        assert_eq!(Value::Int(0b1100).bit_or(&Value::Int(0b1010)).unwrap(), Value::Int(0b1110));
        assert_eq!(Value::Int(1).bit_not().unwrap(), Value::Int(-2));
        assert_eq!(Value::Int(1).shl(&Value::Int(3)).unwrap(), Value::Int(8));
        assert_eq!(Value::Int(8).shr(&Value::Int(2)).unwrap(), Value::Int(2));
        // the Fig. 2 idiom: (s & ~1) | out
        let s = Value::Int(1);
        let masked = s.bit_and(&Value::Int(1).bit_not().unwrap()).unwrap();
        assert_eq!(masked.bit_or(&Value::Int(0)).unwrap(), Value::Int(0));
    }

    /// `INTEGER << n` is an `INTEGER` or an error, whatever the values: no
    /// row widens into `HUGEINT`. A `HUGEINT` operand shifts past 64 bits.
    #[test]
    fn shl_overflow_is_an_error() {
        let overflow = Err(Error::Eval("integer overflow in <<".into()));
        for (a, n) in [(1, 63), (1, 64), (1, 80), (3, 62), (i64::MIN, 1), (-2, 63), (i64::MAX, 1)] {
            assert_eq!(Value::Int(a).shl(&Value::Int(n)), overflow, "{a} << {n}");
        }
        for (a, n, want) in [(1, 62, 1 << 62), (-1, 63, i64::MIN), (0, 200, 0), (-3, 2, -12)] {
            assert!(matches!(Value::Int(a).shl(&Value::Int(n)), Ok(Value::Int(v)) if v == want));
        }
        let big = Value::Big(BigBits::from_u64(1, 64)).shl(&Value::Int(80)).unwrap();
        assert!(matches!(big, Value::Big(b) if b.bit(80) && b.width() == 144));
    }

    #[test]
    fn big_int_mixed_bitwise() {
        let big = Value::Big(BigBits::ones(0, 100, 100));
        let masked = big.bit_and(&Value::Int(0b101)).unwrap();
        assert_eq!(masked, Value::Int(0b101));
        assert!(Value::Int(-1).bit_and(&big).is_err());
    }

    #[test]
    fn comparisons_across_representations() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(1.0)).unwrap(), Ordering::Equal);
        assert_eq!(
            Value::Big(BigBits::from_u64(5, 100)).sql_cmp(&Value::Int(5)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Big(BigBits::from_u64(5, 100)).sql_cmp(&Value::Int(-1)).unwrap(),
            Ordering::Greater
        );
        assert!(Value::Int(1).sql_cmp(&Value::Str("1".into())).is_err());
    }

    #[test]
    fn group_key_unifies_representations() {
        assert_eq!(Value::Int(5).group_key(), Value::Float(5.0).group_key());
        assert_eq!(Value::Int(5).group_key(), Value::Big(BigBits::from_u64(5, 300)).group_key());
        assert_ne!(Value::Int(5).group_key(), Value::Str("5".into()).group_key());
    }

    #[test]
    fn total_order_sorts_numbers_before_text() {
        let mut vals = [Value::Str("a".into()), Value::Int(2), Value::Float(1.5)];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(vals[0], Value::Float(1.5));
        assert_eq!(vals[1], Value::Int(2));
        assert_eq!(vals[2], Value::Str("a".into()));
    }

    #[test]
    fn display_round_values() {
        assert_eq!(Value::Float(1.0).to_string(), "1.0");
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(Value::Float(h).to_string(), h.to_string());
        assert_eq!(Value::Int(7).to_string(), "7");
    }

    #[test]
    fn as_bool_truthiness() {
        assert!(!Value::Int(0).as_bool().unwrap());
        assert!(Value::Int(3).as_bool().unwrap());
        assert!(Value::Str("x".into()).as_bool().is_err());
    }
}
