//! Runtime values.
//!
//! Squall tuples are heterogeneous rows of [`Value`]s. Strings are stored as
//! reference-counted shared buffers so that the hypercube schemes can
//! replicate a tuple to a whole row/column/slice of machines without copying
//! string payloads (the paper's memory-footprint optimization of §3.3).
//! Dates are stored as days-since-epoch integers but *parsed from text*,
//! because the paper's Figure 5 explicitly measures that parsing a `Date`
//! from its string form costs an order of magnitude more than parsing an
//! integer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Result, SquallError};

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Construct from a year/month/day triple.
    ///
    /// Uses the classic days-from-civil algorithm (Howard Hinnant), valid for
    /// all Gregorian dates.
    fn from_ymd(year: i32, month: u32, day: u32) -> Result<Date> {
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(SquallError::Parse(format!("invalid date {year}-{month}-{day}")));
        }
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64;
        let m = month as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Ok(Date((era as i64 * 146_097 + doe - 719_468) as i32))
    }

    /// Parse `"YYYY-MM-DD"`. Deliberately does real per-character work
    /// (validation, bounds checks) so the Fig. 5 experiment is meaningful.
    pub fn parse(s: &str) -> Result<Date> {
        let bytes = s.as_bytes();
        if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
            return Err(SquallError::Parse(format!("bad date literal: {s:?}")));
        }
        fn digits(b: &[u8], s: &str) -> Result<i64> {
            let mut v: i64 = 0;
            for &c in b {
                if !c.is_ascii_digit() {
                    return Err(SquallError::Parse(format!("bad date literal: {s:?}")));
                }
                v = v * 10 + (c - b'0') as i64;
            }
            Ok(v)
        }
        let year = digits(&bytes[0..4], s)? as i32;
        let month = digits(&bytes[5..7], s)? as u32;
        let day = digits(&bytes[8..10], s)? as u32;
        Date::from_ymd(year, month, day)
    }

    /// Convert back to (year, month, day).
    fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A single runtime value.
///
/// `Float` wraps `f64`; Squall orders floats by `total_cmp` and hashes their
/// bit pattern, which makes `Value` usable as a grouping/join key (NaN is a
/// legal, self-equal key — the pragmatic choice every analytics engine makes).
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Date(Date),
}

impl Value {
    /// Shared string constructor.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => {
                Err(SquallError::TypeMismatch { expected: "Int", found: format!("{other:?}") })
            }
        }
    }

    /// Float accessor; integers widen implicitly (SQL numeric semantics).
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => {
                Err(SquallError::TypeMismatch { expected: "Float", found: format!("{other:?}") })
            }
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => {
                Err(SquallError::TypeMismatch { expected: "Str", found: format!("{other:?}") })
            }
        }
    }

    /// A small discriminant used in hashing so values of different types
    /// never collide structurally.
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

/// 2^63: the least float above every `i64`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// `a` against `b` exactly, as numbers, with `Float`'s `total_cmp` order
/// placing `-0.0` just below `Int(0)` and NaNs beyond both infinities. An
/// `Int` that rounds to `b` as an `f64` is ordered by its exact value.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    match (a as f64).total_cmp(&b) {
        // `b` equals a rounded `i64`: a whole number in [-2^63, 2^63].
        Ordering::Equal if b < TWO_63 => a.cmp(&(b as i64)),
        Ordering::Equal => Ordering::Less,
        unequal => unequal,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                int_float_cmp(*a, *b) == Ordering::Equal
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: within a type, natural order; across numeric types,
    /// numeric order; otherwise order by type tag (Null < numbers < Str <
    /// Date). A total order is required by the BTree indexes used for band
    /// and inequality join conditions (§3.3).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            // Ints and equal-valued floats must hash alike because they
            // compare equal; hash integral floats as ints.
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && (-TWO_63..TWO_63).contains(f) {
                    state.write_u8(1);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(2);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
            Value::Date(d) => {
                state.write_u8(4);
                state.write_u32(d.0 as u32);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

crate::wire_tags! { Value { 0 => Null, 1 => Int(i), 2 => Float(f), 3 => Str(s), 4 => Date(d) } }

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in
            &[(1970, 1, 1), (2000, 2, 29), (1992, 12, 31), (2016, 6, 30), (1900, 3, 1)]
        {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.to_ymd(), (y, m, d));
        }
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().0, 1);
    }

    #[test]
    fn date_parse_and_display() {
        let d = Date::parse("1995-03-17").unwrap();
        assert_eq!(d.to_string(), "1995-03-17");
        assert!(Date::parse("1995/03/17").is_err());
        assert!(Date::parse("1995-3-17").is_err());
        assert!(Date::parse("1995-13-17").is_err());
        assert!(Date::parse("xxxx-03-17").is_err());
    }

    #[test]
    fn date_ordering_matches_calendar() {
        let a = Date::parse("1994-01-01").unwrap();
        let b = Date::parse("1994-01-02").unwrap();
        let c = Date::parse("1995-01-01").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(fx_hash(&Value::Int(3)), fx_hash(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn ints_and_floats_compare_exactly_and_hash_as_they_compare() {
        // Where an `i64` rounds as an `f64`: around ±2^53, at ±2^63 (where
        // `as i64` saturates), at ±0.0 and NaN.
        let p53 = 1i64 << 53;
        let mut vals = vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(f64::NAN)];
        for a in [0, 1, p53 - 1, p53, p53 + 1, p53 + 2, i64::MAX - 1, i64::MAX, i64::MIN] {
            vals.extend([Value::Int(a), Value::Float(a as f64), Value::Int(a.wrapping_neg())]);
            vals.extend([Value::Float(-(a as f64)), Value::Float((a as f64).next_up())]);
        }
        assert_ne!(Value::Int(p53 + 1), Value::Float(p53 as f64));
        assert_ne!(Value::Int(i64::MAX), Value::Float(TWO_63));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-TWO_63));
        assert_ne!(Value::Int(0), Value::Float(-0.0));
        for a in &vals {
            for b in &vals {
                assert_eq!(a == b, a.cmp(b) == Ordering::Equal, "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(fx_hash(a), fx_hash(b), "{a:?} == {b:?} hash apart");
                }
                for c in &vals {
                    if a == b && b == c {
                        assert_eq!(a, c, "{a:?} == {b:?} == {c:?}");
                    }
                    if a < b && b < c {
                        assert!(a < c, "{a:?} < {b:?} < {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_is_self_equal_key() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(fx_hash(&nan), fx_hash(&nan.clone()));
    }

    #[test]
    fn total_order_across_types_is_consistent() {
        let mut vals = [
            Value::str("b"),
            Value::Int(1),
            Value::Null,
            Value::Float(0.5),
            Value::Date(Date(10)),
            Value::str("a"),
        ];
        vals.sort();
        // Null first, then numerics in numeric order, then strings, then dates.
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Float(0.5));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::str("a"));
        assert_eq!(vals[4], Value::str("b"));
        assert_eq!(vals[5], Value::Date(Date(10)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int().unwrap(), 4);
        assert_eq!(Value::Int(4).as_float().unwrap(), 4.0);
        assert_eq!(Value::str("x").as_str().unwrap(), "x");
        assert!(Value::str("x").as_int().is_err());
        assert!(Value::Null.as_float().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn string_clone_is_cheap_shared() {
        let v = Value::str("payload");
        let w = v.clone();
        if let (Value::Str(a), Value::Str(b)) = (&v, &w) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected strings");
        }
    }
}
