//! Columnar batches: typed arrays, validity bitmaps, and [`Chunk`]s.
//!
//! The data plane moves batches of rows between tasks. Storing a batch as
//! `Vec<Tuple>` forces every consumer — filters, join-key hashing, the wire
//! codec — through one `Value` enum dispatch per cell. A [`Chunk`] stores the
//! same rows as *columns*: each column is a typed array ([`I64Array`],
//! [`Utf8Array`], …) holding primitive values contiguously, with an optional
//! [`Bitmap`] marking NULL rows. Hot paths (scalar expressions, the codec)
//! then run tight loops over primitive slices; cold paths use the
//! [`Chunk::rows`] adapter, which rebuilds row [`Tuple`]s on demand.
//!
//! One invariant matters for correctness — **round-trip exactness**:
//! `Chunk::from_tuples(&ts).to_tuples() == ts` with the *same `Value`
//! variants* — an `Int(3)` must never come back as `Float(3.0)` even though
//! the two compare equal. Builders therefore degrade a column to the
//! [`Array::Mixed`] fallback on any variant conflict instead of coercing.

use crate::tuple::Tuple;
use crate::value::{Date, Value};

// ---------------------------------------------------------------------------
// Validity bitmap
// ---------------------------------------------------------------------------

/// A per-row validity bitmap: bit `i` is set iff row `i` holds a real value.
///
/// NULL rows keep a default payload slot in the typed array (0, 0.0, "") and
/// a cleared bit here; readers must consult the bitmap before the payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set.
    fn all_valid(len: usize) -> Bitmap {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Bit `i` (panics if out of range).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw 64-bit words, little-bit-endian within each word (wire layout).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw words and a bit length (wire decoding).
    pub fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        assert_eq!(words.len(), len.div_ceil(64), "bitmap word count mismatch");
        let mut b = Bitmap { words, len };
        b.mask_tail();
        b
    }

    /// Bits `rows`, in that order.
    fn take(&self, rows: &[u32]) -> Bitmap {
        let mut out = Bitmap { words: Vec::with_capacity(rows.len().div_ceil(64)), len: 0 };
        rows.iter().for_each(|&i| out.push(self.get(i as usize)));
        out
    }
}

// ---------------------------------------------------------------------------
// Typed arrays
// ---------------------------------------------------------------------------

/// A column of fixed-width values with an optional validity bitmap
/// (`None` means every row is valid).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveArray<T> {
    values: Vec<T>,
    validity: Option<Bitmap>,
}

/// Column of `Value::Int` payloads.
pub type I64Array = PrimitiveArray<i64>;
/// Column of `Value::Float` payloads (exact bits preserved, NaN included).
pub type F64Array = PrimitiveArray<f64>;
/// Column of `Value::Date` payloads (days since epoch).
pub type DateArray = PrimitiveArray<i32>;

impl<T: Copy + Default> PrimitiveArray<T> {
    /// A column where every row is valid.
    pub fn from_values(values: Vec<T>) -> PrimitiveArray<T> {
        PrimitiveArray { values, validity: None }
    }

    /// A column with an explicit validity bitmap (must match `values` length).
    pub fn with_validity(values: Vec<T>, validity: Option<Bitmap>) -> PrimitiveArray<T> {
        if let Some(v) = &validity {
            assert_eq!(v.len(), values.len(), "validity length mismatch");
        }
        PrimitiveArray { values, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw payload slice (NULL rows hold `T::default()`).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity bitmap, if any row is NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Whether row `i` is valid (non-NULL).
    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Row `i` as `Some(payload)` or `None` for NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if self.is_valid(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Rows `rows`, in that order.
    fn take(&self, rows: &[u32]) -> PrimitiveArray<T> {
        PrimitiveArray {
            values: rows.iter().map(|&i| self.values[i as usize]).collect(),
            validity: self.validity.as_ref().map(|bits| bits.take(rows)),
        }
    }

    fn push(&mut self, v: Option<T>) {
        match v {
            Some(x) => {
                if let Some(bits) = &mut self.validity {
                    bits.push(true);
                }
                self.values.push(x);
            }
            None => {
                let n = self.values.len();
                let bits = self.validity.get_or_insert_with(|| Bitmap::all_valid(n));
                bits.push(false);
                self.values.push(T::default());
            }
        }
    }
}

/// A string column: row `i` is `bytes[offsets[i] .. offsets[i + 1]]`.
///
/// Offsets has `rows + 1` entries with `offsets[0] == 0`; NULL rows occupy a
/// zero-length slice plus a cleared validity bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Utf8Array {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    validity: Option<Bitmap>,
}

impl Utf8Array {
    /// An empty string column.
    pub fn new() -> Utf8Array {
        Utf8Array { offsets: vec![0], bytes: Vec::new(), validity: None }
    }

    /// Rebuild from wire parts. `offsets` must be monotone starting at 0 and
    /// end at `bytes.len()`.
    pub fn from_parts(offsets: Vec<u32>, bytes: Vec<u8>, validity: Option<Bitmap>) -> Utf8Array {
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert_eq!(*offsets.last().unwrap() as usize, bytes.len(), "offsets/bytes mismatch");
        if let Some(v) = &validity {
            assert_eq!(v.len(), offsets.len() - 1, "validity length mismatch");
        }
        Utf8Array { offsets, bytes, validity }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a string (or NULL).
    pub fn push(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                if let Some(bits) = &mut self.validity {
                    bits.push(true);
                }
                self.bytes.extend_from_slice(s.as_bytes());
            }
            None => {
                let n = self.len();
                let bits = self.validity.get_or_insert_with(|| Bitmap::all_valid(n));
                bits.push(false);
            }
        }
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Whether row `i` is valid (non-NULL).
    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Row `i` as `Some(&str)` or `None` for NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        // Bytes were pushed from &str, or validated on decode.
        Some(std::str::from_utf8(&self.bytes[lo..hi]).expect("utf8 column holds valid utf8"))
    }

    /// End offsets (`rows + 1` entries, wire layout).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Concatenated string payload bytes (wire layout).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The validity bitmap, if any row is NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Array: one column of a chunk
// ---------------------------------------------------------------------------

/// One column of a [`Chunk`]: typed when every non-NULL row shares a `Value`
/// variant, degraded otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Array {
    /// All non-NULL rows are `Value::Int`.
    Int(I64Array),
    /// All non-NULL rows are `Value::Float`.
    Float(F64Array),
    /// All non-NULL rows are `Value::Str`.
    Str(Utf8Array),
    /// All non-NULL rows are `Value::Date`.
    Date(DateArray),
    /// Every row is `Value::Null`; the payload is just the row count.
    Null(usize),
    /// Heterogeneous fallback: rows mix `Value` variants (e.g. an `Int`
    /// column that received a `Float`). Stored as plain row values so the
    /// round-trip stays variant-exact.
    Mixed(Vec<Value>),
}

impl Array {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Array::Int(a) => a.len(),
            Array::Float(a) => a.len(),
            Array::Str(a) => a.len(),
            Array::Date(a) => a.len(),
            Array::Null(n) => *n,
            Array::Mixed(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize row `i` as a [`Value`] (allocates for strings).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Array::Int(a) => a.get(i).map_or(Value::Null, Value::Int),
            Array::Float(a) => a.get(i).map_or(Value::Null, Value::Float),
            Array::Str(a) => a.get(i).map_or(Value::Null, |s| Value::Str(s.into())),
            Array::Date(a) => a.get(i).map_or(Value::Null, |d| Value::Date(Date(d))),
            Array::Null(n) => {
                assert!(i < *n, "row {i} out of range {n}");
                Value::Null
            }
            Array::Mixed(v) => v[i].clone(),
        }
    }

    /// The integer column, if this is a typed `Int` array.
    pub fn as_i64(&self) -> Option<&I64Array> {
        match self {
            Array::Int(a) => Some(a),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// Incrementally builds one [`Array`] from row values.
///
/// The builder starts untyped, adopts the variant of the first non-NULL
/// value, and degrades to [`Array::Mixed`] if a conflicting variant arrives —
/// preserving exact variants end to end.
#[derive(Debug, Default)]
pub struct ArrayBuilder {
    kind: BuilderKind,
    /// Rows the column reserves when it adopts its type: as many as the
    /// builder's previous column reached.
    reserve: usize,
}

#[derive(Debug, Default)]
enum BuilderKind {
    /// Only NULLs seen so far (count tracked).
    #[default]
    Untyped,
    Nulls(usize),
    Int(I64Array),
    Float(F64Array),
    Str(Utf8Array),
    Date(DateArray),
    Mixed(Vec<Value>),
}

impl ArrayBuilder {
    /// A fresh, empty builder.
    pub fn new() -> ArrayBuilder {
        ArrayBuilder::default()
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        match &self.kind {
            BuilderKind::Untyped => 0,
            BuilderKind::Nulls(n) => *n,
            BuilderKind::Int(a) => a.len(),
            BuilderKind::Float(a) => a.len(),
            BuilderKind::Str(a) => a.len(),
            BuilderKind::Date(a) => a.len(),
            BuilderKind::Mixed(v) => v.len(),
        }
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn degrade(&mut self, v: &Value) {
        let n = self.len();
        let mut vals = Vec::with_capacity(n + 1);
        let prior = std::mem::take(&mut self.kind);
        let as_array = match prior {
            BuilderKind::Untyped => Array::Null(0),
            BuilderKind::Nulls(k) => Array::Null(k),
            BuilderKind::Int(a) => Array::Int(a),
            BuilderKind::Float(a) => Array::Float(a),
            BuilderKind::Str(a) => Array::Str(a),
            BuilderKind::Date(a) => Array::Date(a),
            BuilderKind::Mixed(v) => Array::Mixed(v),
        };
        for i in 0..n {
            vals.push(as_array.value(i));
        }
        vals.push(v.clone());
        self.kind = BuilderKind::Mixed(vals);
    }

    /// Append one row value.
    pub fn push(&mut self, v: &Value) {
        match (&mut self.kind, v) {
            (BuilderKind::Untyped | BuilderKind::Nulls(_), Value::Null) => {
                let n = self.len();
                self.kind = BuilderKind::Nulls(n + 1);
            }
            (BuilderKind::Untyped | BuilderKind::Nulls(_), _) => {
                let (nulls, n) = (self.len(), self.reserve);
                let mut kind = match v {
                    Value::Int(_) => BuilderKind::Int(I64Array::from_values(Vec::with_capacity(n))),
                    Value::Float(_) => {
                        BuilderKind::Float(F64Array::from_values(Vec::with_capacity(n)))
                    }
                    Value::Str(_) => BuilderKind::Str(Utf8Array::new()),
                    Value::Date(_) => {
                        BuilderKind::Date(DateArray::from_values(Vec::with_capacity(n)))
                    }
                    Value::Null => unreachable!(),
                };
                match &mut kind {
                    BuilderKind::Int(a) => {
                        for _ in 0..nulls {
                            a.push(None);
                        }
                    }
                    BuilderKind::Float(a) => {
                        for _ in 0..nulls {
                            a.push(None);
                        }
                    }
                    BuilderKind::Str(a) => {
                        for _ in 0..nulls {
                            a.push(None);
                        }
                    }
                    BuilderKind::Date(a) => {
                        for _ in 0..nulls {
                            a.push(None);
                        }
                    }
                    _ => {}
                }
                self.kind = kind;
                self.push(v);
            }
            (BuilderKind::Int(a), Value::Int(i)) => a.push(Some(*i)),
            (BuilderKind::Int(a), Value::Null) => a.push(None),
            (BuilderKind::Float(a), Value::Float(f)) => a.push(Some(*f)),
            (BuilderKind::Float(a), Value::Null) => a.push(None),
            (BuilderKind::Str(a), Value::Str(s)) => a.push(Some(s)),
            (BuilderKind::Str(a), Value::Null) => a.push(None),
            (BuilderKind::Date(a), Value::Date(d)) => a.push(Some(d.0)),
            (BuilderKind::Date(a), Value::Null) => a.push(None),
            (BuilderKind::Mixed(vals), _) => vals.push(v.clone()),
            // Variant conflict: keep exactness by degrading to Mixed.
            _ => self.degrade(v),
        }
    }

    /// Finish the column and reset the builder.
    pub fn finish(&mut self) -> Array {
        self.reserve = self.len();
        match std::mem::take(&mut self.kind) {
            BuilderKind::Untyped => Array::Null(0),
            BuilderKind::Nulls(n) => Array::Null(n),
            BuilderKind::Int(a) => Array::Int(a),
            BuilderKind::Float(a) => Array::Float(a),
            BuilderKind::Str(a) => Array::Str(a),
            BuilderKind::Date(a) => Array::Date(a),
            BuilderKind::Mixed(v) => Array::Mixed(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk
// ---------------------------------------------------------------------------

/// A columnar batch: `n_cols` equal-length [`Array`]s plus an explicit row
/// count (needed because zero-column chunks still carry rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    columns: Vec<Array>,
    rows: usize,
}

impl Chunk {
    /// Assemble a chunk from columns; every column must have `rows` rows.
    pub fn new(columns: Vec<Array>, rows: usize) -> Chunk {
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), rows, "column {i} length {} != rows {rows}", c.len());
        }
        Chunk { columns, rows }
    }

    /// A chunk with no rows and no columns.
    pub fn empty() -> Chunk {
        Chunk { columns: Vec::new(), rows: 0 }
    }

    /// Columnarize a slice of row tuples. All tuples must share one arity.
    pub fn from_tuples(tuples: &[Tuple]) -> Chunk {
        let Some(first) = tuples.first() else { return Chunk::empty() };
        let arity = first.arity();
        let mut builders: Vec<ArrayBuilder> = (0..arity).map(|_| ArrayBuilder::new()).collect();
        for t in tuples {
            assert_eq!(t.arity(), arity, "ragged tuple arity in chunk");
            for (b, v) in builders.iter_mut().zip(t.values()) {
                b.push(v);
            }
        }
        Chunk { columns: builders.iter_mut().map(|b| b.finish()).collect(), rows: tuples.len() }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (row arity).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Array {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Array] {
        &self.columns
    }

    /// Materialize row `i` as a [`Tuple`] (the row-view fallback).
    pub fn row(&self, i: usize) -> Tuple {
        assert!(i < self.rows, "row {i} out of range {}", self.rows);
        // Collecting straight into the tuple's shared slice allocates once
        // (the column iterator has a trusted length).
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Row `i`'s values into `buf`, replacing what it held: [`Chunk::row`]
    /// for a caller that only borrows the row.
    pub fn row_into(&self, i: usize, buf: &mut Vec<Value>) {
        assert!(i < self.rows, "row {i} out of range {}", self.rows);
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Rows `rows` (each `< n_rows`, in the order given) as a new chunk,
    /// column by column: typed columns gather their payloads, so no
    /// [`Value`] is built.
    pub fn take(&self, rows: &[u32]) -> Chunk {
        let columns = self.columns.iter().map(|col| match col {
            Array::Int(a) => Array::Int(a.take(rows)),
            Array::Float(a) => Array::Float(a.take(rows)),
            Array::Date(a) => Array::Date(a.take(rows)),
            Array::Str(a) => {
                let validity = a.validity.as_ref().map(|bits| bits.take(rows));
                let mut out = Utf8Array { validity, ..Utf8Array::new() };
                for &i in rows {
                    let (lo, hi) = (a.offsets[i as usize], a.offsets[i as usize + 1]);
                    out.bytes.extend_from_slice(&a.bytes[lo as usize..hi as usize]);
                    out.offsets.push(out.bytes.len() as u32);
                }
                Array::Str(out)
            }
            Array::Null(_) => Array::Null(rows.len()),
            Array::Mixed(v) => Array::Mixed(rows.iter().map(|&i| v[i as usize].clone()).collect()),
        });
        Chunk { columns: columns.collect(), rows: rows.len() }
    }

    /// Iterate rows as freshly materialized [`Tuple`]s. Cold-path adapter:
    /// operators that want columns should read them directly.
    pub fn rows(&self) -> Rows<'_> {
        Rows { chunk: self, next: 0 }
    }

    /// Materialize every row.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.rows().collect()
    }
}

/// Iterator over a [`Chunk`]'s rows as materialized [`Tuple`]s.
#[derive(Debug)]
pub struct Rows<'a> {
    chunk: &'a Chunk,
    next: usize,
}

impl Iterator for Rows<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.next >= self.chunk.rows {
            return None;
        }
        let t = self.chunk.row(self.next);
        self.next += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.chunk.rows - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Rows<'_> {}

// ---------------------------------------------------------------------------
// ChunkBuilder
// ---------------------------------------------------------------------------

/// Accumulates rows into a [`Chunk`] — the per-target scatter buffer of the
/// batched data plane.
///
/// The builder is arity-locked to its first row; callers must check
/// [`ChunkBuilder::accepts`] and flush on a mismatch so ragged streams (e.g.
/// punctuation-adjacent control rows) split into uniform chunks. Splitting at
/// an arbitrary boundary never changes results: routing happens per row
/// before buffering, and consumers only see row multisets. Each chunk's
/// columns are allocated once, at the row count the previous chunk reached.
#[derive(Debug, Default)]
pub struct ChunkBuilder {
    builders: Vec<ArrayBuilder>,
    rows: usize,
    arity: Option<usize>,
}

impl ChunkBuilder {
    /// A fresh, empty builder.
    pub fn new() -> ChunkBuilder {
        ChunkBuilder::default()
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether `row` can be appended without an arity flush.
    pub fn accepts(&self, row: &[Value]) -> bool {
        self.arity.is_none_or(|a| a == row.len())
    }

    /// Append one row (panics on arity mismatch — check [`Self::accepts`]).
    pub fn push(&mut self, row: &[Value]) {
        match self.arity {
            None => {
                self.arity = Some(row.len());
                self.builders.resize_with(row.len(), ArrayBuilder::new);
            }
            Some(a) => assert_eq!(a, row.len(), "ragged arity pushed into ChunkBuilder"),
        }
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v);
        }
        self.rows += 1;
    }

    /// Finish the buffered rows as a [`Chunk`] and reset.
    pub fn finish(&mut self) -> Chunk {
        let rows = self.rows;
        let n = self.arity.unwrap_or(0);
        let columns = self.builders[..n].iter_mut().map(|b| b.finish()).collect();
        self.rows = 0;
        self.arity = None;
        Chunk { columns, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_tuples() -> Vec<Tuple> {
        vec![
            tuple![1i64, "alpha", 1.5f64],
            tuple![2i64, Value::Null, 2.5f64],
            tuple![3i64, "gamma", Value::Null],
        ]
    }

    #[test]
    fn roundtrip_exact_variants() {
        let ts = sample_tuples();
        let c = Chunk::from_tuples(&ts);
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.n_cols(), 3);
        assert_eq!(c.to_tuples(), ts);
    }

    #[test]
    fn mixed_column_preserves_int_vs_float() {
        // Int(3) == Float(3.0) under Value equality; the column must still
        // give back the exact variants.
        let ts = vec![tuple![3i64], tuple![3.0f64]];
        let c = Chunk::from_tuples(&ts);
        assert!(matches!(c.column(0), Array::Mixed(_)));
        let back = c.to_tuples();
        assert!(matches!(back[0].get(0), Value::Int(3)));
        assert!(matches!(back[1].get(0), Value::Float(f) if *f == 3.0));
    }

    #[test]
    fn all_null_column() {
        let ts = vec![tuple![Value::Null], tuple![Value::Null]];
        let c = Chunk::from_tuples(&ts);
        assert!(matches!(c.column(0), Array::Null(2)));
        assert_eq!(c.to_tuples(), ts);
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::from_tuples(&[]);
        assert_eq!(c.n_rows(), 0);
        assert_eq!(c.n_cols(), 0);
        assert!(c.to_tuples().is_empty());
    }

    #[test]
    fn nulls_before_type_adoption() {
        let ts = vec![tuple![Value::Null], tuple![7i64], tuple![Value::Null]];
        let c = Chunk::from_tuples(&ts);
        assert!(matches!(c.column(0), Array::Int(_)));
        assert_eq!(c.to_tuples(), ts);
    }

    #[test]
    fn chunk_builder_flush_and_reuse() {
        let mut b = ChunkBuilder::new();
        b.push(&tuple![1i64, 2i64]);
        b.push(&tuple![3i64, 4i64]);
        assert!(!b.accepts(&tuple![1i64]));
        let c1 = b.finish();
        assert_eq!(c1.n_rows(), 2);
        assert!(b.accepts(&tuple![1i64]));
        b.push(&tuple![9i64]);
        let c2 = b.finish();
        assert_eq!(c2.n_rows(), 1);
        assert_eq!(c2.n_cols(), 1);
    }

    #[test]
    fn take_gathers_rows_of_every_column_kind() {
        let ts = vec![
            tuple![1i64, "alpha", 1.5f64, Date(3), Value::Null, 3i64],
            tuple![2i64, Value::Null, 2.5f64, Value::Null, Value::Null, 3.0f64],
            tuple![Value::Null, "gamma", Value::Null, Date(-1), Value::Null, "m"],
        ];
        let c = Chunk::from_tuples(&ts);
        for rows in [vec![], vec![2], vec![2, 0, 1], vec![1, 1, 2, 0, 2]] {
            let want: Vec<Tuple> = rows.iter().map(|&i| ts[i as usize].clone()).collect();
            let got = c.take(&rows);
            assert_eq!(got.n_rows(), rows.len());
            assert_eq!(got.n_cols(), 6);
            assert_eq!(got.to_tuples(), want, "rows {rows:?}");
        }
    }

    #[test]
    fn zero_arity_rows() {
        let ts = vec![Tuple::new(Vec::<Value>::new()), Tuple::new(Vec::<Value>::new())];
        let c = Chunk::from_tuples(&ts);
        assert_eq!(c.n_rows(), 2);
        assert_eq!(c.n_cols(), 0);
        assert_eq!(c.to_tuples(), ts);
    }
}
