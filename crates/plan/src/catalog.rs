//! The catalog: a unified registry of *sources* — materialized tables and
//! timestamped streams — with schemas and (in this in-process engine)
//! their data.
//!
//! Streams differ from tables in exactly one declaration: an **event-time
//! column** (an Int column, non-negative values) that windowed queries
//! measure their windows on and that spouts emit in ascending order.

use std::sync::Arc;

use squall_common::{DataType, FxHashMap, Result, Schema, SquallError, Tuple, Value};
use squall_partition::stats::{collect_table_stats, TableStats};

/// How a registered source behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A materialized relation (full-history semantics).
    Table,
    /// A timestamped stream; `time_col` indexes the declared event-time
    /// column within the source schema.
    Stream { time_col: usize },
}

/// One registered source (table or stream).
#[derive(Debug, Clone)]
pub struct SourceDef {
    pub name: String,
    pub schema: Schema,
    pub data: Arc<Vec<Tuple>>,
    pub kind: SourceKind,
}

impl SourceDef {
    /// The declared event-time column, if this source is a stream.
    pub fn event_time_col(&self) -> Option<usize> {
        match self.kind {
            SourceKind::Table => None,
            SourceKind::Stream { time_col } => Some(time_col),
        }
    }

    fn is_stream(&self) -> bool {
        matches!(self.kind, SourceKind::Stream { .. })
    }
}

/// A set of registered sources the planner resolves names against.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    sources: Vec<SourceDef>,
    /// Sampling-based statistics per source name, populated by
    /// [`Catalog::analyze`] — the cardinality/selectivity inputs of the
    /// join-order DP. Absent entries fall back to uniform assumptions.
    stats: FxHashMap<String, TableStats>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a materialized table. Rejects duplicate source names and
    /// data that does not match the schema arity with a typed error.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Vec<Tuple>,
    ) -> Result<()> {
        let name = name.into();
        self.validate_new(&name, &schema, &data)?;
        self.sources.push(SourceDef {
            name,
            schema,
            data: Arc::new(data),
            kind: SourceKind::Table,
        });
        Ok(())
    }

    /// Register a timestamped stream with a declared event-time column.
    ///
    /// Beyond the [`Catalog::register`] checks, the event-time column must
    /// exist, be declared `Int`, and every tuple must carry a non-negative
    /// Int timestamp there — rejected with a typed error instead of a
    /// panic deep inside a later run.
    pub fn register_stream(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Vec<Tuple>,
        time_col: &str,
    ) -> Result<()> {
        let name = name.into();
        self.validate_new(&name, &schema, &data)?;
        let invalid = |reason: String| SquallError::InvalidSource { source: name.clone(), reason };
        let col = schema
            .index_of(time_col)
            .map_err(|_| invalid(format!("event-time column {time_col} not in schema {schema}")))?;
        if schema.field(col).data_type != DataType::Int {
            return Err(invalid(format!(
                "event-time column {time_col} must be Int, is {}",
                schema.field(col).data_type
            )));
        }
        for t in &data {
            match t.get(col) {
                Value::Int(v) if *v >= 0 => {}
                other => {
                    return Err(invalid(format!(
                        "event-time column {time_col} must hold non-negative Int values, \
                         found {other:?}"
                    )))
                }
            }
        }
        // Stream data is stored in event-time order once, so windowed
        // queries on the declared column need no per-run sort and spouts
        // emit in event-time order for free.
        let mut data = data;
        data.sort_by_key(|t| t.get(col).as_int().expect("validated above"));
        self.sources.push(SourceDef {
            name,
            schema,
            data: Arc::new(data),
            kind: SourceKind::Stream { time_col: col },
        });
        Ok(())
    }

    fn validate_new(&self, name: &str, schema: &Schema, data: &[Tuple]) -> Result<()> {
        if self.sources.iter().any(|s| s.name == name) {
            return Err(SquallError::DuplicateSource(name.to_string()));
        }
        if let Some(t) = data.iter().find(|t| t.arity() != schema.arity()) {
            return Err(SquallError::InvalidSource {
                source: name.to_string(),
                reason: format!(
                    "tuple arity {} does not match schema arity {}",
                    t.arity(),
                    schema.arity()
                ),
            });
        }
        Ok(())
    }

    /// Append rows to a registered source (the catalog half of feeding a
    /// standing view) and return them as stored — the new tail, which for
    /// a stream is the batch in event-time order. Arity is validated like
    /// at registration; for streams, every appended row's event-time must
    /// also be ≥ the current maximum (spouts promise ascending event time,
    /// and appended rows are emitted after everything already stored).
    pub fn append(&mut self, name: &str, mut rows: Vec<Tuple>) -> Result<&[Tuple]> {
        let src = self
            .sources
            .iter_mut()
            .find(|s| s.name == name)
            .ok_or_else(|| SquallError::UnknownRelation(name.to_string()))?;
        let invalid =
            |reason: String| SquallError::InvalidSource { source: name.to_string(), reason };
        if let Some(t) = rows.iter().find(|t| t.arity() != src.schema.arity()) {
            return Err(invalid(format!(
                "appended tuple arity {} does not match schema arity {}",
                t.arity(),
                src.schema.arity()
            )));
        }
        if let SourceKind::Stream { time_col } = src.kind {
            // Storage is kept in event-time order, so the watermark is the
            // last stored row's.
            let floor = src.data.last().map_or(0, |t| t.get(time_col).as_int().unwrap_or(0));
            for t in &rows {
                match t.get(time_col) {
                    Value::Int(v) if *v >= floor => {}
                    Value::Int(v) => {
                        return Err(invalid(format!(
                            "appended event time {v} is behind the stream's watermark {floor}"
                        )))
                    }
                    other => {
                        return Err(invalid(format!(
                            "event-time column must hold non-negative Int values, found {other:?}"
                        )))
                    }
                }
            }
            rows.sort_by_key(|t| t.get(time_col).as_int().expect("validated above"));
        }
        let data = Arc::make_mut(&mut src.data);
        let stored_before = data.len();
        data.extend(rows);
        Ok(&data[stored_before..])
    }

    /// Remove rows from a registered table, one stored occurrence per
    /// given row. Streams are append-only (their event-time contract has
    /// no room for retraction); a row that is not present is a typed
    /// error — retracting what was never stored would silently corrupt
    /// every standing view over the source — and leaves the table as it
    /// was (as a multiset; row order is not part of a table).
    pub fn retract(&mut self, name: &str, rows: &[Tuple]) -> Result<()> {
        let src = self
            .sources
            .iter_mut()
            .find(|s| s.name == name)
            .ok_or_else(|| SquallError::UnknownRelation(name.to_string()))?;
        let invalid =
            |reason: String| SquallError::InvalidSource { source: name.to_string(), reason };
        if src.is_stream() {
            return Err(invalid("streams are append-only; cannot retract".to_string()));
        }
        let data = Arc::make_mut(&mut src.data);
        for (done, row) in rows.iter().enumerate() {
            match data.iter().position(|t| t == row) {
                Some(i) => {
                    data.swap_remove(i);
                }
                None => {
                    put_back(data, &rows[..done]);
                    return Err(invalid(format!("cannot retract row {row}: not in the table")));
                }
            }
        }
        Ok(())
    }

    /// Drop a source; returns whether it existed. Re-registering under the
    /// same name requires deregistering first (duplicates are rejected).
    /// Collected statistics for the source are dropped with it.
    pub fn deregister(&mut self, name: &str) -> bool {
        let before = self.sources.len();
        self.sources.retain(|s| s.name != name);
        self.stats.remove(name);
        self.sources.len() != before
    }

    /// Collect sampling-based statistics for a registered source
    /// (per-column distinct counts and top-key frequencies over at most
    /// `sample_cap` rows, deterministic under `seed`) and store them for
    /// the planner's join-order DP. Returns the collected stats.
    ///
    /// Stats are a snapshot: [`Catalog::append`] / [`Catalog::retract`]
    /// do not refresh them — re-analyze after bulk changes.
    pub fn analyze(&mut self, name: &str, sample_cap: usize, seed: u64) -> Result<&TableStats> {
        let src = self.get(name)?;
        let stats = collect_table_stats(&src.data, src.schema.arity(), sample_cap, seed);
        self.stats.insert(name.to_string(), stats);
        Ok(self.stats.get(name).expect("just inserted"))
    }

    /// Statistics previously collected by [`Catalog::analyze`], if any.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name)
    }

    pub fn get(&self, name: &str) -> Result<&SourceDef> {
        self.sources
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| SquallError::UnknownRelation(name.to_string()))
    }

    pub fn names(&self) -> Vec<&str> {
        self.sources.iter().map(|t| t.name.as_str()).collect()
    }
}

/// Undo a retraction that met an absent row: the rows before it are gone
/// already, and no view will hear of the round — all or nothing. Kept out
/// of line so the scan in [`Catalog::retract`], most of a retraction
/// epoch's cost, compiles as it did without it.
#[cold]
#[inline(never)]
fn put_back(data: &mut Vec<Tuple>, removed: &[Tuple]) {
    data.extend_from_slice(removed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType};

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![1], tuple![2]]).unwrap();
        assert_eq!(c.get("R").unwrap().data.len(), 2);
        assert!(!c.get("R").unwrap().is_stream());
        assert!(c.get("S").is_err());
        assert_eq!(c.names(), vec!["R"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![1]]).unwrap();
        let dup = c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![2]]);
        assert!(matches!(dup, Err(SquallError::DuplicateSource(_))));
        // Streams share the same namespace.
        let dup2 = c.register_stream("R", Schema::of(&[("ts", DataType::Int)]), vec![], "ts");
        assert!(matches!(dup2, Err(SquallError::DuplicateSource(_))));
        // Deregistering frees the name.
        assert!(c.deregister("R"));
        assert!(!c.deregister("R"));
        c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![1], tuple![2]]).unwrap();
        assert_eq!(c.get("R").unwrap().data.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut c = Catalog::new();
        let bad = c.register(
            "R",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![tuple![1, 2], tuple![3]],
        );
        assert!(matches!(bad, Err(SquallError::InvalidSource { .. })));
    }

    #[test]
    fn stream_registration_declares_event_time() {
        let mut c = Catalog::new();
        c.register_stream(
            "clicks",
            Schema::of(&[("ad", DataType::Int), ("ts", DataType::Int)]),
            vec![tuple![1, 10], tuple![2, 11]],
            "ts",
        )
        .unwrap();
        let def = c.get("clicks").unwrap();
        assert!(def.is_stream());
        assert_eq!(def.event_time_col(), Some(1));
    }

    #[test]
    fn append_and_retract_mutate_tables() {
        let mut c = Catalog::new();
        c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![1], tuple![1]]).unwrap();
        c.append("R", vec![tuple![2]]).unwrap();
        assert_eq!(c.get("R").unwrap().data.len(), 3);
        // One occurrence per retracted row, duplicates stay.
        c.retract("R", &[tuple![1]]).unwrap();
        assert_eq!(c.get("R").unwrap().data.len(), 2);
        // Absent rows are a typed error.
        let missing = c.retract("R", &[tuple![99]]);
        assert!(matches!(missing, Err(SquallError::InvalidSource { .. })));
        // Arity still validated on append.
        let bad = c.append("R", vec![tuple![1, 2]]);
        assert!(matches!(bad, Err(SquallError::InvalidSource { .. })));
    }

    #[test]
    fn stream_appends_are_monotonic_and_retract_free() {
        let mut c = Catalog::new();
        let s = Schema::of(&[("ad", DataType::Int), ("ts", DataType::Int)]);
        c.register_stream("clicks", s, vec![tuple![1, 10]], "ts").unwrap();
        c.append("clicks", vec![tuple![2, 12], tuple![3, 11]]).unwrap();
        // Stored sorted by event time.
        let data = &c.get("clicks").unwrap().data;
        assert_eq!(data.as_slice(), &[tuple![1, 10], tuple![3, 11], tuple![2, 12]]);
        // Event time may not regress behind the stored maximum.
        let late = c.append("clicks", vec![tuple![4, 5]]);
        assert!(matches!(late, Err(SquallError::InvalidSource { .. })));
        // Streams are append-only.
        let retract = c.retract("clicks", &[tuple![1, 10]]);
        assert!(matches!(retract, Err(SquallError::InvalidSource { .. })));
    }

    #[test]
    fn stream_event_time_column_validated() {
        let schema = Schema::of(&[("ad", DataType::Int), ("ts", DataType::Int)]);
        let mut c = Catalog::new();
        // Missing column.
        let missing = c.register_stream("s1", schema.clone(), vec![], "when");
        assert!(matches!(missing, Err(SquallError::InvalidSource { .. })));
        // Non-Int declared type.
        let str_schema = Schema::of(&[("ad", DataType::Int), ("ts", DataType::Str)]);
        let non_int = c.register_stream("s2", str_schema, vec![], "ts");
        assert!(matches!(non_int, Err(SquallError::InvalidSource { .. })));
        // Non-Int or negative values.
        let bad_val = c.register_stream("s3", schema.clone(), vec![tuple![1, "late"]], "ts");
        assert!(matches!(bad_val, Err(SquallError::InvalidSource { .. })));
        let negative = c.register_stream("s4", schema, vec![tuple![1, -5]], "ts");
        assert!(matches!(negative, Err(SquallError::InvalidSource { .. })));
    }
}
