//! The catalog: a unified registry of *sources* — materialized tables and
//! timestamped streams — with schemas and (in this in-process engine)
//! their data.
//!
//! Streams differ from tables in exactly one declaration: an **event-time
//! column** (an Int column, non-negative values) that windowed queries
//! measure their windows on and that spouts emit in ascending order.
//!
//! A table is a Z-set — a multiset of rows, order no part of it — and
//! [`Catalog::update`] is its one write: a signed batch, applied whole or
//! not at all, in O(batch). The rows stay a plain `Vec`
//! ([`SourceDef::data`]); beside it a posting index — row hash → stored
//! positions, the [`Postings`] of the join views — that only a retraction
//! reads, so only a retraction writes it: the first posts the whole table,
//! once, O(table); each later one the rows appended since. Registering,
//! querying and appending cost what they did without it, and a stream —
//! append-only, stored in event-time order — never has one.

use std::sync::Arc;

use squall_common::{DataType, FxHashMap, Result, Schema, SquallError, Tuple, Value};
use squall_join::views::{key_hash, Postings};
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
    /// Row hash → positions in `data`, of its first `posted` rows: all of
    /// them after a retraction, which posts what was stored since the last.
    index: Postings,
    posted: usize,
}

impl SourceDef {
    /// The declared event-time column, if this source is a stream.
    pub fn event_time_col(&self) -> Option<usize> {
        match self.kind {
            SourceKind::Table => None,
            SourceKind::Stream { time_col } => Some(time_col),
        }
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
        self.add(name, schema, data, SourceKind::Table);
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
        let col = schema.index_of(time_col).map_err(|_| {
            invalid(&name, format!("event-time column {time_col} not in schema {schema}"))
        })?;
        let declared = schema.field(col).data_type;
        if declared != DataType::Int {
            let reason = format!("event-time column {time_col} must be Int, is {declared}");
            return Err(invalid(&name, reason));
        }
        let data = time_ordered(&name, data, col, 0)?;
        self.add(name, schema, data, SourceKind::Stream { time_col: col });
        Ok(())
    }

    fn add(&mut self, name: String, schema: Schema, data: Vec<Tuple>, kind: SourceKind) {
        let (data, index) = (Arc::new(data), Postings::default());
        self.sources.push(SourceDef { name, schema, data, kind, index, posted: 0 });
    }

    fn validate_new(&self, name: &str, schema: &Schema, data: &[Tuple]) -> Result<()> {
        if self.sources.iter().any(|s| s.name == name) {
            return Err(SquallError::DuplicateSource(name.to_string()));
        }
        check_arity(name, schema, data)
    }

    /// Append rows to a registered source and return them as stored — the
    /// new tail, which for a stream is the batch in event-time order.
    pub fn append(&mut self, name: &str, rows: Vec<Tuple>) -> Result<&[Tuple]> {
        let n = rows.len();
        self.update(name, rows, 1, |_| Ok(()))?;
        let data = &self.get(name)?.data;
        Ok(&data[data.len() - n..])
    }

    /// Remove rows from a registered table, one stored occurrence per
    /// given row.
    pub fn retract(&mut self, name: &str, rows: &[Tuple]) -> Result<()> {
        self.update(name, rows.to_vec(), -1, |_| Ok(()))
    }

    /// The one write to a source (the catalog half of feeding a standing
    /// view): store each of `rows` once more (`sign > 0`) or once less, all
    /// or nothing, in O(batch). The batch is validated first — arity as at
    /// registration; a stream takes only appends, at or past its stored
    /// maximum event time (spouts promise ascending event time, and emit
    /// appended rows after everything stored); a table must hold each
    /// retracted row as often as the batch names it (retracting what was
    /// never stored would silently corrupt every standing view over it) —
    /// then `stage` sees the batch as it will be stored and may still
    /// refuse it. An error from either leaves the source exactly as it was.
    pub fn update<T>(
        &mut self,
        name: &str,
        mut rows: Vec<Tuple>,
        sign: i64,
        stage: impl FnOnce(&[Tuple]) -> Result<T>,
    ) -> Result<T> {
        let src = self
            .sources
            .iter_mut()
            .find(|s| s.name == name)
            .ok_or_else(|| SquallError::UnknownRelation(name.to_string()))?;
        check_arity(name, &src.schema, &rows)?;
        let row_hash = |row: &Tuple| key_hash(row.values().iter());
        if sign > 0 {
            if let SourceKind::Stream { time_col } = src.kind {
                // Stored in event-time order: the watermark is the last row's.
                let floor = src.data.last().map_or(0, |t| t.get(time_col).as_int().unwrap_or(0));
                rows = time_ordered(name, rows, time_col, floor)?;
            }
            let staged = stage(&rows)?;
            Arc::make_mut(&mut src.data).extend(rows);
            return Ok(staged);
        }
        if src.kind != SourceKind::Table {
            return Err(invalid(name, "streams are append-only; cannot retract".to_string()));
        }
        if u32::try_from(src.data.len()).is_err() {
            return Err(invalid(name, "cannot retract from a table of 2^32 rows".to_string()));
        }
        // Every position fits the `u32` the index files it as (checked above).
        let (data, index) = (Arc::make_mut(&mut src.data), &mut src.index);
        for (at, row) in data.iter().enumerate().skip(src.posted) {
            index.insert(row_hash(row), at as u32);
        }
        src.posted = data.len();
        let mut left: FxHashMap<&Tuple, usize> = FxHashMap::default();
        for row in &rows {
            let left =
                left.entry(row).or_insert_with(|| copies(data, index, row_hash(row), row).count());
            *left = left.checked_sub(1).ok_or_else(|| {
                invalid(name, format!("cannot retract row {row}: not in the table (often enough)"))
            })?;
        }
        let staged = stage(&rows)?;
        for row in &rows {
            let hash = row_hash(row);
            #[allow(clippy::expect_used)] // the count above left every row a copy
            let at = copies(data, index, hash, row).next().expect("counted above");
            index.remove(hash, at);
            data.swap_remove(at as usize);
            // The last row now sits where the removed one was.
            if let Some(moved) = data.get(at as usize) {
                index.remove(row_hash(moved), data.len() as u32);
                index.insert(row_hash(moved), at);
            }
        }
        src.posted = data.len();
        Ok(staged)
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
        Ok(self.stats.entry(name.to_string()).insert_entry(stats).into_mut())
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

fn invalid(source: &str, reason: String) -> SquallError {
    SquallError::InvalidSource { source: source.to_string(), reason }
}

fn check_arity(name: &str, schema: &Schema, rows: &[Tuple]) -> Result<()> {
    let arity = schema.arity();
    let Some(t) = rows.iter().find(|t| t.arity() != arity) else { return Ok(()) };
    Err(invalid(name, format!("tuple arity {} does not match schema arity {arity}", t.arity())))
}

/// A stream batch as stored: every event time an Int at or past `floor` (0
/// at registration, the stored maximum after it), in event-time order — so
/// windowed queries need no per-run sort and spouts emit in order for free.
fn time_ordered(name: &str, mut rows: Vec<Tuple>, col: usize, floor: i64) -> Result<Vec<Tuple>> {
    let time = |t: &Tuple| match t.get(col) {
        Value::Int(ts) if *ts >= floor => Some(*ts),
        _ => None,
    };
    if let Some(bad) = rows.iter().find(|t| time(t).is_none()) {
        let reason =
            format!("event time must be an Int at or past {floor}, found {:?}", bad.get(col));
        return Err(invalid(name, reason));
    }
    // Every key is `Some`, so this is the order of the event times.
    rows.sort_by_key(time);
    Ok(rows)
}

/// Positions of the stored copies of `row`: unequal rows may share `hash`,
/// so a posting counts only if the row it names is the one asked for.
fn copies<'a>(
    data: &'a [Tuple],
    index: &'a Postings,
    hash: u64,
    row: &'a Tuple,
) -> impl Iterator<Item = u32> + 'a {
    index.get(hash).iter().copied().filter(move |&at| data[at as usize] == *row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, SplitMix64};

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("R", Schema::of(&[("a", DataType::Int)]), vec![tuple![1], tuple![2]]).unwrap();
        assert_eq!(c.get("R").unwrap().data.len(), 2);
        assert_eq!(c.get("R").unwrap().kind, SourceKind::Table);
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

    /// Prints the seed of a model-check case that panics — in the catalog
    /// or in an assertion — so the case replays with `check_seed(seed)`.
    struct Replay(u64);

    impl Drop for Replay {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("catalog model check failed at seed {}", self.0);
            }
        }
    }

    /// A row of a domain small enough that duplicates, in a batch and
    /// across batches, are the rule: the first column holds the same
    /// number as an `Int` or as a `Float` (equal under `Value::eq`, so they
    /// must hash alike and find each other), the others `Null`s and `Str`s.
    fn random_row(rng: &mut SplitMix64) -> Tuple {
        let n = rng.next_range(0, 2);
        let first = if rng.next_below(2) == 0 { Value::Int(n) } else { Value::Float(n as f64) };
        let second = [Value::Null, Value::Int(0), Value::Float(0.5)][rng.next_below(3)].clone();
        let third = [Value::Null, Value::from("a"), Value::from("b")][rng.next_below(3)].clone();
        Tuple::new(vec![first, second, third])
    }

    /// The implementation this index replaced, as the oracle: find each row
    /// by linear scan; `None` (table untouched) when one is not there.
    fn scan_retract(table: &[Tuple], rows: &[Tuple]) -> Option<Vec<Tuple>> {
        let mut table = table.to_vec();
        for row in rows {
            let at = (0..table.len()).find(|&at| table[at] == *row)?;
            table.swap_remove(at);
        }
        Some(table)
    }

    fn sorted(rows: &[Tuple]) -> Vec<Tuple> {
        let mut rows = rows.to_vec();
        rows.sort();
        rows
    }

    /// One seeded interleaving of appends and retractions on one table,
    /// checked after every step against a plain `Vec` model.
    fn check_seed(seed: u64) {
        let _replay = Replay(seed);
        let mut rng = SplitMix64::new(seed);
        let schema =
            Schema::of(&[("n", DataType::Float), ("x", DataType::Int), ("s", DataType::Str)]);
        let mut model: Vec<Tuple> = (0..rng.next_below(8)).map(|_| random_row(&mut rng)).collect();
        let mut c = Catalog::new();
        c.register("R", schema, model.clone()).unwrap();
        // Every row ever stored: a stale posting could only sit under one
        // of their hashes.
        let mut seen = model.clone();
        let mut retracted = false;
        for step in 0..rng.next_range(4, 40) {
            let what = rng.next_below(8);
            if what < 4 {
                let rows: Vec<Tuple> =
                    (0..rng.next_below(6)).map(|_| random_row(&mut rng)).collect();
                let stored = c.append("R", rows.clone()).unwrap().to_vec();
                assert_eq!(stored, rows, "step {step}: append returns the stored tail");
                seen.extend(rows.iter().cloned());
                model.extend(rows);
            } else {
                // Stored rows (every one of them when `what == 7`: the
                // table empties and is refilled later), sometimes with one
                // row too many somewhere in the batch — absent from the
                // table, or present but not that often.
                let mut rows = model.clone();
                rng.shuffle(&mut rows);
                if what < 7 {
                    rows.truncate(rng.next_below(5));
                }
                if rng.next_below(3) == 0 {
                    let extra = random_row(&mut rng);
                    let asked = rows.iter().filter(|t| **t == extra).count();
                    let have = model.iter().filter(|t| **t == extra).count();
                    let at = rng.next_below(rows.len() + 1);
                    (asked..=have).for_each(|_| rows.insert(at, extra.clone()));
                }
                retracted = true;
                match (c.retract("R", &rows), scan_retract(&model, &rows)) {
                    (Ok(()), Some(after)) => model = after,
                    (Err(SquallError::InvalidSource { .. }), None) => {}
                    (got, want) => panic!("step {step}: retract {rows:?}: {got:?} vs {want:?}"),
                }
            }
            let src = c.get("R").unwrap();
            assert_eq!(sorted(&src.data), sorted(&model), "step {step}: the table as a multiset");
            // Nothing is posted before the first retraction, every row
            // right after one, and what is appended waits for the next.
            match what {
                _ if !retracted => assert_eq!(src.posted, 0, "step {step}"),
                4.. => assert_eq!(src.posted, src.data.len(), "step {step}"),
                _ => assert!(src.posted <= src.data.len(), "step {step}"),
            }
            // Every posting names a live position holding a row of that
            // hash, and every posted row is listed, once.
            let hash_of = |row: &Tuple| key_hash(row.values().iter());
            for hash in seen.iter().map(hash_of) {
                let mut listed = src.index.get(hash).to_vec();
                listed.sort_unstable();
                let live: Vec<u32> = (0..src.posted as u32)
                    .filter(|&at| hash_of(&src.data[at as usize]) == hash)
                    .collect();
                assert_eq!(listed, live, "step {step}: postings under {hash:#x}");
            }
        }
    }

    /// The catalog's table against the linear-scan model, over a fixed
    /// range of seeds — more of them in a release build (CI's model-check
    /// step), where a case costs microseconds.
    #[test]
    fn catalog_table_agrees_with_linear_scan_model() {
        let seeds = if cfg!(debug_assertions) { 300 } else { 20_000 };
        (0..seeds).for_each(check_seed);
    }

    #[test]
    fn catalog_retracting_one_copy_too_many_leaves_the_table_alone() {
        let mut c = Catalog::new();
        let rows = vec![tuple![1, "a"], tuple![2, "b"], tuple![1, "a"], tuple![3.0, Value::Null]];
        c.register("R", Schema::of(&[("a", DataType::Int), ("s", DataType::Str)]), rows.clone())
            .unwrap();
        // The offending third copy comes after two removable ones.
        let thrice = [tuple![1, "a"], tuple![2, "b"], tuple![1, "a"], tuple![1, "a"]];
        assert!(matches!(c.retract("R", &thrice), Err(SquallError::InvalidSource { .. })));
        assert_eq!(sorted(&c.get("R").unwrap().data), sorted(&rows));
        // `Int(3)` finds the stored `Float(3.0)`; the table empties and refills.
        c.retract("R", &[tuple![3, Value::Null], tuple![1.0, "a"], tuple![2, "b"], tuple![1, "a"]])
            .unwrap();
        assert!(c.get("R").unwrap().data.is_empty());
        c.append("R", vec![tuple![1, "a"]]).unwrap();
        c.retract("R", &[tuple![1, "a"]]).unwrap();
        assert!(c.get("R").unwrap().data.is_empty());
    }
}
