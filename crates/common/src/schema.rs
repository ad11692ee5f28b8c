//! Schemas: named, typed descriptions of tuple layouts.
//!
//! Schemas drive name resolution in the SQL and functional interfaces and
//! record per-attribute *skew hints* — the only statistic the
//! Hybrid-Hypercube needs (§3.4: "a user needs to provide only the relation
//! sizes and whether each join key is skew-free or not").

use std::fmt;

use crate::error::{Result, SquallError};

/// Data types known to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
            DataType::Date => write!(f, "DATE"),
        }
    }
}

crate::wire_tags! { DataType { 0 => Int, 1 => Float, 2 => Str, 3 => Date } }

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    /// `true` when the attribute is known (or assumed) to be free of data
    /// skew — e.g. a primary key (§3.4: "an attribute with the uniqueness
    /// property cannot have skew"). `false` forces random partitioning on
    /// any hypercube dimension built from this attribute.
    pub skew_free: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field { name: name.into(), data_type, skew_free: true }
    }

    /// Mark the attribute as skewed (zipfian keys, dominant hub, ...).
    pub fn skewed(mut self) -> Field {
        self.skew_free = false;
        self
    }
}

crate::wire_struct! { Field { name, data_type, skew_free } }

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

crate::wire_struct! { Schema { fields } }

impl Schema {
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Build a schema of `(name, type)` pairs, all skew-free.
    pub fn of(cols: &[(&str, DataType)]) -> Schema {
        Schema { fields: cols.iter().map(|(n, t)| Field::new(*n, *t)).collect() }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| SquallError::UnknownColumn(name.to_string()))
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Project onto a subset of columns.
    pub fn project(&self, cols: &[usize]) -> Schema {
        Schema { fields: cols.iter().map(|&c| self.fields[c].clone()).collect() }
    }

    /// Concatenate with another schema (join output schema). Column names
    /// are kept as-is; interfaces that need qualification prefix them first.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Prefix every column name with `alias.` (SQL FROM-alias resolution).
    pub fn qualified(&self, alias: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| Field {
                    name: format!("{alias}.{}", f.name),
                    data_type: f.data_type,
                    skew_free: f.skew_free,
                })
                .collect(),
        }
    }

    /// Set the skew hint of a named column.
    pub fn set_skewed(&mut self, name: &str) -> Result<()> {
        let i = self.index_of(name)?;
        self.fields[i].skew_free = false;
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fld.name, fld.data_type)?;
            if !fld.skew_free {
                write!(f, " [skewed]")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rst() -> Schema {
        Schema::of(&[("x", DataType::Int), ("y", DataType::Int), ("name", DataType::Str)])
    }

    #[test]
    fn lookup_by_name() {
        let s = rst();
        assert_eq!(s.index_of("y").unwrap(), 1);
        assert!(matches!(s.index_of("z"), Err(SquallError::UnknownColumn(_))));
    }

    #[test]
    fn project_preserves_fields() {
        let s = rst().project(&[2, 0]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.field(0).name, "name");
        assert_eq!(s.field(1).name, "x");
    }

    #[test]
    fn concat_joins_schemas() {
        let s = rst().concat(&Schema::of(&[("z", DataType::Float)]));
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("z").unwrap(), 3);
    }

    #[test]
    fn qualification() {
        let s = rst().qualified("R");
        assert_eq!(s.field(0).name, "R.x");
        assert!(s.index_of("x").is_err());
    }

    #[test]
    fn skew_hints() {
        let mut s = rst();
        assert!(s.field(1).skew_free);
        s.set_skewed("y").unwrap();
        assert!(!s.field(1).skew_free);
        // Hint survives projection and qualification.
        assert!(!s.project(&[1]).field(0).skew_free);
        assert!(!s.qualified("R").field(1).skew_free);
    }

    #[test]
    fn display_shows_skew() {
        let mut s = rst();
        s.set_skewed("y").unwrap();
        let text = s.to_string();
        assert!(text.contains("y: INT [skewed]"));
    }
}
