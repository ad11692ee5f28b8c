//! Tuples: cheaply clonable rows of values.
//!
//! Hypercube partitioning replicates each input tuple to a whole row, column
//! or slice of machines (§3.1), so a tuple clone must be O(1): `Tuple` wraps
//! an `Arc<[Value]>`.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row of values. Cloning is a reference-count bump.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl FromIterator<Value> for Tuple {
    /// Collect values directly into the shared slice — one allocation,
    /// no intermediate `Vec`.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple { values: iter.into_iter().collect() }
    }
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values: values.into() }
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field accessor; panics on out-of-range (schemas are validated at plan
    /// time, so an out-of-range access is an engine bug, not a user error).
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All fields.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project onto the given column indexes, producing a new tuple (one
    /// allocation: the column list's length is known up front).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        cols.iter().map(|&c| self.values[c].clone()).collect()
    }

    /// Concatenate two tuples (join output construction).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Extract the key formed by the given columns (used by groupings,
    /// indexes and group-by).
    pub fn key(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.values[c].clone()).collect()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl From<&[Value]> for Tuple {
    /// Copy borrowed values into a new tuple (one allocation).
    fn from(values: &[Value]) -> Self {
        Tuple { values: values.into() }
    }
}

/// A tuple is its row of values: `&Tuple` goes wherever a borrowed row
/// `&[Value]` is asked for.
impl std::ops::Deref for Tuple {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

impl AsRef<[Value]> for Tuple {
    #[inline]
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

/// Convenience macro: `tuple![1, 2.5, "x"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "a", 2.5];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.get(1), &Value::str("a"));
        assert_eq!(t.get(2), &Value::Float(2.5));
    }

    #[test]
    fn clone_is_shared() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn project_and_concat() {
        let t = tuple![10, 20, 30];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![30, 10]);
        let c = t.concat(&p);
        assert_eq!(c, tuple![10, 20, 30, 30, 10]);
    }

    #[test]
    fn key_extraction() {
        let t = tuple![1, "k", 3];
        assert_eq!(t.key(&[1]), vec![Value::str("k")]);
        assert_eq!(t.key(&[]), Vec::<Value>::new());
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use crate::hash::fx_hash;
        let a = tuple![1, "x"];
        let b = tuple![1, "x"];
        assert_eq!(a, b);
        assert_eq!(fx_hash(&a), fx_hash(&b));
        assert_ne!(a, tuple![1, "y"]);
    }

    #[test]
    fn display_formats_row() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }
}
