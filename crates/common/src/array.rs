//! Batches and the typed columns of their wire layout.
//!
//! The data plane moves batches of rows between tasks. A [`Chunk`] holds
//! its rows back to back in one `Vec<Value>`, and every operator reads each
//! row in place as a `&[Value]` slice. Columns exist where a columnar
//! layout is read: the wire codec builds one typed array ([`I64Array`],
//! [`Utf8Array`], …, with an optional [`Bitmap`] marking NULL rows) per
//! column of a chunk it ships, and the scan's pushed filter evaluates
//! blocks of such columns.
//!
//! One invariant matters for correctness — **round-trip exactness**:
//! `Chunk::from_tuples(&ts).to_tuples() == ts` with the *same `Value`
//! variants*, through the wire too — an `Int(3)` must never come back as
//! `Float(3.0)` even though the two compare equal. Builders therefore
//! degrade a column to the [`Array::Mixed`] fallback on any variant
//! conflict instead of coercing.

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
// Array: one column of rows
// ---------------------------------------------------------------------------

/// One column of rows: typed when every non-NULL row shares a `Value`
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

/// The most values one [`Chunk`] holds: a sender ships its buffer before a
/// row would take it past this, and a decoder refuses a chunk above it
/// before sizing its row buffer. A zero-width row counts as one value, so
/// a chunk's row count is bounded too.
pub const MAX_CHUNK_CELLS: usize = 1 << 20;

/// A batch of rows of one width, laid back to back: row `i` is
/// `values()[i * width..][..width]`. The row count is kept apart, so a
/// zero-width chunk still counts its rows.
///
/// A chunk is also the scatter buffer of the batched data plane: rows are
/// pushed into it borrowed, a row of another width only once it is empty
/// ([`Chunk::accepts`]), so ragged streams split into uniform chunks.
/// Splitting at any boundary never changes results: routing happens per
/// row before buffering, and consumers only see row multisets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunk {
    rows: usize,
    width: usize,
    vals: Vec<Value>,
}

impl Chunk {
    /// A chunk with no rows and no columns.
    pub fn empty() -> Chunk {
        Chunk::default()
    }

    /// `rows` rows of `width` values each, laid back to back in `vals`.
    pub(crate) fn from_parts(rows: usize, width: usize, vals: Vec<Value>) -> Chunk {
        debug_assert_eq!(vals.len(), rows * width, "{rows} rows of {width} values");
        Chunk { rows, width, vals }
    }

    /// The rows of `tuples`, which must share one arity.
    pub fn from_tuples(tuples: &[Tuple]) -> Chunk {
        let cells = tuples.first().map_or(0, |t| tuples.len() * t.arity());
        let mut chunk = Chunk { vals: Vec::with_capacity(cells), ..Chunk::empty() };
        tuples.iter().for_each(|t| chunk.push(t));
        chunk
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (row width).
    pub fn n_cols(&self) -> usize {
        self.width
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Every row's values, back to back.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} out of range {}", self.rows);
        &self.vals[i * self.width..][..self.width]
    }

    /// Every row, in order, read in place.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Every row as a [`Tuple`] of its own.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Tuple> + '_ {
        self.iter().map(Tuple::from)
    }

    /// Every row as a [`Tuple`] of its own.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.rows().collect()
    }

    /// Rows `rows` (each `< n_rows`, in the order given) as a new chunk.
    pub fn take(&self, rows: &[u32]) -> Chunk {
        let mut vals = Vec::with_capacity(rows.len() * self.width);
        rows.iter().for_each(|&i| vals.extend_from_slice(self.row(i as usize)));
        Chunk { rows: rows.len(), width: self.width, vals }
    }

    /// Whether `row` can be pushed without a flush first: the chunk is
    /// empty, or `row` is as wide as its rows and fits under
    /// [`MAX_CHUNK_CELLS`].
    pub fn accepts(&self, row: &[Value]) -> bool {
        self.is_empty()
            || (row.len() == self.width && (self.rows + 1) * self.width.max(1) <= MAX_CHUNK_CELLS)
    }

    /// Append one row (panics on a width mismatch — check [`Self::accepts`]).
    pub fn push(&mut self, row: &[Value]) {
        if self.is_empty() {
            self.width = row.len();
        }
        assert_eq!(
            row.len(),
            self.width,
            "a {}-wide row pushed into a chunk of {}",
            row.len(),
            self.width
        );
        self.vals.extend_from_slice(row);
        self.rows += 1;
    }

    /// The rows pushed so far as a chunk of their own, leaving this one
    /// empty with room for as many values, so a steady stream allocates
    /// once per batch.
    pub fn finish(&mut self) -> Chunk {
        let room = Vec::with_capacity(self.vals.len());
        let vals = std::mem::replace(&mut self.vals, room);
        Chunk { rows: std::mem::take(&mut self.rows), width: self.width, vals }
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

    /// One column built from `vals`.
    fn column(vals: &[Value]) -> Array {
        let mut b = ArrayBuilder::new();
        vals.iter().for_each(|v| b.push(v));
        b.finish()
    }

    #[test]
    fn mixed_column_preserves_int_vs_float() {
        // Int(3) == Float(3.0) under Value equality; the column must still
        // give back the exact variants.
        let col = column(&[Value::Int(3), Value::Float(3.0)]);
        assert!(matches!(col, Array::Mixed(_)));
        assert!(matches!(col.value(0), Value::Int(3)));
        assert!(matches!(col.value(1), Value::Float(f) if f == 3.0));
    }

    #[test]
    fn all_null_column() {
        assert!(matches!(column(&[Value::Null, Value::Null]), Array::Null(2)));
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
        let vals = [Value::Null, Value::Int(7), Value::Null];
        let col = column(&vals);
        assert!(matches!(col, Array::Int(_)));
        assert_eq!((0..3).map(|i| col.value(i)).collect::<Vec<_>>(), vals);
    }

    #[test]
    fn chunk_buffer_flush_and_reuse() {
        let mut b = Chunk::empty();
        b.push(&tuple![1i64, 2i64]);
        b.push(&tuple![3i64, 4i64]);
        assert!(!b.accepts(&tuple![1i64]));
        let c1 = b.finish();
        assert_eq!((c1.n_rows(), c1.values().len()), (2, 4));
        assert!(b.is_empty() && b.accepts(&tuple![1i64]));
        b.push(&tuple![9i64]);
        let c2 = b.finish();
        assert_eq!((c2.n_rows(), c2.n_cols()), (1, 1));
        assert_eq!(c2.row(0), &[Value::Int(9)]);
        // A row that would take the buffer past the cell cap needs a flush.
        let wide = vec![Value::Int(0); MAX_CHUNK_CELLS / 2];
        b.push(&wide);
        assert!(b.accepts(&wide));
        b.push(&wide);
        assert!(!b.accepts(&wide));
        let mut empty_rows = Chunk::empty();
        (0..MAX_CHUNK_CELLS).for_each(|_| empty_rows.push(&[]));
        assert!(!empty_rows.accepts(&[]));
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
