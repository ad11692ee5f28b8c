//! Hand-rolled wire codec for the TCP transport.
//!
//! The distributed runtime ships [`Tuple`]s between peer processes as
//! **length-prefixed frames**: a little-endian `u32` payload length
//! followed by the payload bytes. The payload encodings here are
//! deliberately boring — fixed-width little-endian integers, `u32`-length
//! strings, one tag byte per enum variant — so that a frame produced by
//! any build of this workspace decodes identically in any other. No
//! registry dependencies, no reflection: the codec is the contract.
//!
//! Everything but the data plane and the checkpoint blobs (laid out by hand
//! with the `put_*` / [`Reader`] primitives) crosses through one trait,
//! [`Wire`]: the primitives, containers, [`Value`], [`Tuple`] and [`Chunk`]
//! implement it here; every other wire type — the plan, the control frames,
//! the metrics, [`SquallError`] — gets its impl from one table beside the
//! type, [`wire_struct!`](crate::wire_struct) or [`wire_tags!`](crate::wire_tags).

use std::io::{Read, Write};
use std::sync::Arc;

use crate::array::{Array, ArrayBuilder, Bitmap, Chunk, PrimitiveArray, MAX_CHUNK_CELLS};
use crate::error::{Result, SquallError};
use crate::tuple::Tuple;
use crate::value::{Date, Value};

/// Upper bound on one frame's payload. A length prefix beyond this is
/// treated as stream corruption and fails fast instead of attempting a
/// multi-gigabyte allocation.
const MAX_FRAME_BYTES: usize = 256 << 20;

// ---------------------------------------------------------------------
// Primitive writers (append to a byte buffer)
// ---------------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

// ---------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------

/// How deep [`Box`]ed values may nest in one payload: far above any
/// expression the planner ships, and within half a default 2 MiB thread
/// stack even in an unoptimized build (≈ 3 KB per level there).
const MAX_NESTING: u32 = 256;

/// A cursor over an encoded payload. Every accessor bounds-checks and
/// returns [`SquallError::Codec`] on a short or malformed buffer, so a
/// corrupted frame surfaces as a typed error instead of a panic.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Boxes being decoded around the cursor (see [`MAX_NESTING`]).
    depth: u32,
}

// `len` reads a length prefix off the wire; it is not a container size.
#[allow(clippy::len_without_is_empty)]
impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, depth: 0 }
    }

    fn need(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(SquallError::Codec(format!(
                "short buffer: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.need(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().expect("8 bytes")))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.need(8)?.try_into().expect("8 bytes")))
    }

    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.need(4)?.try_into().expect("4 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<String> {
        Ok(self.str_ref()?.to_string())
    }

    /// Borrowed string view — validates in place, no allocation (the
    /// per-tuple hot path builds `Arc<str>` straight from this).
    fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        let raw = self.need(n)?;
        std::str::from_utf8(raw).map_err(|_| SquallError::Codec("invalid utf-8 in string".into()))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.need(n)?.to_vec())
    }

    /// Length prefix for a repeated section. Every encoded element costs
    /// at least one byte, so a count beyond the bytes actually remaining
    /// is corruption — rejected *before* any `with_capacity` touches it.
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(SquallError::Codec(format!(
                "implausible element count {n} ({} bytes remain)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole payload was consumed (trailing garbage means
    /// the two sides disagree on the encoding).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(SquallError::Codec(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The wire vocabulary
// ---------------------------------------------------------------------

/// A type with one wire encoding: `put` appends it, `get` reads it back or
/// fails with a typed error. A `usize` crosses as eight bytes; a `Vec` as a
/// `u32` count (checked by [`Reader::len`] before anything is allocated)
/// and its elements; an `Option` as a `0` / `1` byte and the value.
pub trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);

    fn get(r: &mut Reader<'_>) -> Result<Self>;

    /// The whole encoding of `self` as one payload.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.put(&mut buf);
        buf
    }

    /// Decode one payload that must hold exactly one value.
    fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = Reader::new(payload);
        let v = Self::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// A counted run of values — element by element, unless the type lays
    /// out a run more cheaply itself (`u8`: one byte slice).
    fn put_run(items: &[Self], buf: &mut Vec<u8>) {
        put_u32(buf, items.len() as u32);
        for x in items {
            x.put(buf);
        }
    }

    fn get_run(r: &mut Reader<'_>) -> Result<Vec<Self>> {
        let n = r.len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// Types whose encoding is one writer and one reader.
macro_rules! wire_via {
    ($($t:ty: $put:expr, $get:expr;)*) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                $put(buf, self)
            }

            fn get(r: &mut Reader<'_>) -> Result<Self> {
                $get(r)
            }
        }
    )*};
}

wire_via! {
    u32: |b, v: &u32| put_u32(b, *v), Reader::u32;
    u64: |b, v: &u64| put_u64(b, *v), Reader::u64;
    i64: |b, v: &i64| put_i64(b, *v), Reader::i64;
    f64: |b, v: &f64| put_f64(b, *v), Reader::f64;
    bool: |b, v: &bool| put_bool(b, *v), Reader::bool;
    usize: |b, v: &usize| put_u64(b, *v as u64), get_usize;
    String: |b, v: &String| put_str(b, v), Reader::str;
    Arc<str>: |b, v: &Arc<str>| put_str(b, v), |r: &mut Reader<'_>| r.str_ref().map(Arc::from);
    Date: |b, v: &Date| put_i32(b, v.0), |r: &mut Reader<'_>| r.i32().map(Date);
    Tuple: put_tuple, get_tuple;
    Chunk: put_chunk, get_chunk;
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| SquallError::Codec(format!("{v} does not fit a usize")))
}

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u8(buf, *self)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.u8()
    }

    fn put_run(items: &[u8], buf: &mut Vec<u8>) {
        put_bytes(buf, items)
    }

    fn get_run(r: &mut Reader<'_>) -> Result<Vec<u8>> {
        r.bytes()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        T::put_run(self, buf)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        T::get_run(r)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u8(buf, self.is_some() as u8);
        if let Some(v) = self {
            v.put(buf);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            tag => Err(unknown_tag("Option", tag)),
        }
    }
}

/// Every recursive wire type recurses through a `Box`, so this is where
/// nesting is bounded: a payload nesting deeper than 256 boxes is a typed
/// error, not a stack overflow.
impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        T::put(self, buf)
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        if r.depth == MAX_NESTING {
            return Err(SquallError::Codec(format!("values nest deeper than {MAX_NESTING}")));
        }
        r.depth += 1;
        let v = T::get(r);
        r.depth -= 1;
        Ok(Box::new(v?))
    }
}

/// The error for a tag byte no variant of `ty` has.
#[doc(hidden)]
#[cold]
pub fn unknown_tag(ty: &str, tag: u8) -> SquallError {
    SquallError::Codec(format!("unknown {ty} tag {tag}"))
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A struct's wire encoding, written once beside the struct: its fields in
/// the order listed (`field as u32` narrows a `usize` to four bytes,
/// saturating, so an oversized value stays out of range rather than wrap
/// into it). The encoder destructures the struct exhaustively: a field the
/// table does not list fails to compile, unless `skip { field }` names it
/// (it never crosses; decoded as its `Default`). `check f` runs `f(&value)?`
/// on each decoded value.
///
/// ```
/// # use squall_common::codec::Wire;
/// #[derive(Debug, PartialEq)]
/// struct Probe { id: usize, name: String, hint: Option<u64> }
/// squall_common::wire_struct! { Probe { id as u32, name, hint } }
/// let p = Probe { id: 7, name: "x".into(), hint: Some(3) };
/// assert_eq!(p.encode().len(), 4 + (4 + 1) + (1 + 8));
/// assert_eq!(Probe::decode(&p.encode()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($f:ident $(as $n:ident)?),* $(,)? }
     $(skip { $($skip:ident),* $(,)? })? $(check $check:path)?) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let $ty { $($f,)* $($($skip: _,)*)? } = self;
                $($crate::wire_field!(put $f $(as $n)?, buf);)*
            }

            fn get(r: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                let v = $ty {
                    $($f: $crate::wire_field!(get $f $(as $n)?, r),)*
                    $($($skip: Default::default(),)*)?
                };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}

/// An enum's wire encoding, written once beside the enum: each variant ↔
/// its tag byte, then its fields as in [`wire_struct!`](crate::wire_struct)
/// (a tuple variant names its fields for the table). An unknown tag is a
/// [`SquallError::Codec`]; a tag listed twice is an unreachable arm, which
/// the workspace's lints reject. An `else` block adds one raw `match` arm
/// each way — over the value for `put`, over the tag for `get`, with the
/// buffer and the reader named in parentheses — for what the table cannot
/// spell: a variant laying out its own tag, or variants sharing one.
///
/// ```
/// # use squall_common::codec::Wire;
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Circle(u64), Rect { w: u64, h: u64 } }
/// squall_common::wire_tags! { Shape { 0 => Dot, 1 => Circle(r), 7 => Rect { w, h } } }
/// assert_eq!(Shape::Circle(2).encode(), [1, 2, 0, 0, 0, 0, 0, 0, 0]);
/// assert!(matches!(Shape::decode(&[3]), Err(squall_common::SquallError::Codec(_))));
/// ```
#[macro_export]
macro_rules! wire_tags {
    ($ty:ident { $($table:tt)* }) => {
        $crate::wire_tags! { $ty (buf, r) { $($table)* } }
    };
    ($ty:ident ($buf:ident, $r:ident) {
        $($tag:literal => $var:ident
            $(($($t:ident $(as $tn:ident)?),* $(,)?))?
            $({ $($f:ident $(as $fn_:ident)?),* $(,)? })?),* $(,)?
    } $(else { $opat:pat => $oput:expr, $gpat:pat => $oget:expr $(,)? })?) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, $buf: &mut Vec<u8>) {
                match self {
                    $($ty::$var $(($($t),*))? $({ $($f),* })? => {
                        $crate::codec::put_u8($buf, $tag);
                        $($($crate::wire_field!(put $t $(as $tn)?, $buf);)*)?
                        $($($crate::wire_field!(put $f $(as $fn_)?, $buf);)*)?
                    })*
                    $($opat => $oput,)?
                }
            }

            fn get($r: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                Ok(match $r.u8()? {
                    $($tag => $ty::$var
                        $(($($crate::wire_field!(get $t $(as $tn)?, $r)),*))?
                        $({ $($f: $crate::wire_field!(get $f $(as $fn_)?, $r)),* })?,)*
                    $($gpat => $oget,)?
                    tag => return Err($crate::codec::unknown_tag(stringify!($ty), tag)),
                })
            }
        }
    };
}

/// One field of a [`wire_struct!`](crate::wire_struct) /
/// [`wire_tags!`](crate::wire_tags) table.
#[doc(hidden)]
#[macro_export]
macro_rules! wire_field {
    (put $v:ident, $buf:ident) => {
        $crate::codec::Wire::put($v, $buf)
    };
    (put $v:ident as u32, $buf:ident) => {
        $crate::codec::put_u32($buf, u32::try_from(*$v).unwrap_or(u32::MAX))
    };
    (get $v:ident, $r:ident) => {
        $crate::codec::Wire::get($r)?
    };
    (get $v:ident as u32, $r:ident) => {
        $r.u32()? as usize
    };
}

// ---------------------------------------------------------------------
// Value / Tuple
// ---------------------------------------------------------------------

pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    Value::put_run(t.values(), buf)
}

pub fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    Value::get_run(r).map(Tuple::new)
}

// ---------------------------------------------------------------------
// Columnar chunks
// ---------------------------------------------------------------------

// Column type tags (match Value wire tags where they overlap, plus MIXED).
const COL_NULL: u8 = 0;
const COL_INT: u8 = 1;
const COL_FLOAT: u8 = 2;
const COL_STR: u8 = 3;
const COL_DATE: u8 = 4;
const COL_MIXED: u8 = 5;

// Per-column payload encodings.
const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;

/// Minimum rows before dictionary encoding is even considered: tiny chunks
/// never amortize the dictionary header.
const DICT_MIN_ROWS: usize = 64;

/// Encode one [`Chunk`] in columnar wire layout:
///
/// ```text
/// u32 rows · u32 n_cols · column*
/// column := u8 type · u8 encoding · u8 has_validity · u32 blob_len · blob
/// blob   := [validity words] payload
/// ```
///
/// Each column is built from the chunk's rows through an [`ArrayBuilder`].
/// Fixed-width columns ship their payload as one contiguous little-endian
/// slab (no per-value tag bytes — the big win over per-row `put_tuple`);
/// `Int` columns with few distinct values (hot Zipf keys) switch to
/// dictionary encoding (`u32 n_dict · i64 dict[] · u8 code_width · code[]`)
/// when that is strictly smaller; a `Str` column ships `u32 len · bytes ·
/// u32 end-offsets[rows]`. The `blob_len` prefix lets a reader skip or
/// validate each column independently.
pub fn put_chunk(buf: &mut Vec<u8>, chunk: &Chunk) {
    put_u32(buf, chunk.n_rows() as u32);
    put_u32(buf, chunk.n_cols() as u32);
    let mut column = ArrayBuilder::new();
    for c in 0..chunk.n_cols() {
        chunk.values()[c..].iter().step_by(chunk.n_cols()).for_each(|v| column.push(v));
        let col = column.finish();
        let (tag, encoding, validity): (u8, u8, Option<&Bitmap>) = match &col {
            Array::Null(_) => (COL_NULL, ENC_PLAIN, None),
            Array::Int(a) => {
                let enc = if int_dict_wins(a.values()) { ENC_DICT } else { ENC_PLAIN };
                (COL_INT, enc, a.validity())
            }
            Array::Float(a) => (COL_FLOAT, ENC_PLAIN, a.validity()),
            Array::Str(a) => (COL_STR, ENC_PLAIN, a.validity()),
            Array::Date(a) => (COL_DATE, ENC_PLAIN, a.validity()),
            Array::Mixed(_) => (COL_MIXED, ENC_PLAIN, None),
        };
        put_u8(buf, tag);
        put_u8(buf, encoding);
        put_u8(buf, validity.is_some() as u8);
        let len_at = buf.len();
        put_u32(buf, 0); // blob_len, backpatched below
        if let Some(bits) = validity {
            for w in bits.words() {
                put_u64(buf, *w);
            }
        }
        match &col {
            Array::Null(_) => {}
            Array::Int(a) if encoding == ENC_DICT => put_int_dict(buf, a.values()),
            Array::Int(a) => put_values(buf, a, put_i64),
            Array::Float(a) => put_values(buf, a, put_f64),
            Array::Date(a) => put_values(buf, a, put_i32),
            Array::Str(a) => {
                put_bytes(buf, a.bytes());
                // offsets[0] is always 0; ship the rows trailing end-offsets.
                for off in &a.offsets()[1..] {
                    put_u32(buf, *off);
                }
            }
            Array::Mixed(vals) => {
                for v in vals {
                    v.put(buf);
                }
            }
        }
        let blob_len = (buf.len() - len_at - 4) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&blob_len.to_le_bytes());
    }
}

/// A fixed-width column's payload: its values back to back, each as `put`
/// writes it (NULL rows hold the type's default).
fn put_values<T: Copy + Default>(
    buf: &mut Vec<u8>,
    col: &PrimitiveArray<T>,
    put: impl Fn(&mut Vec<u8>, T),
) {
    col.values().iter().for_each(|&v| put(buf, v));
}

/// Whether dictionary encoding shrinks this integer payload. Counts
/// distinct values (bailing out early once a dictionary could no longer
/// win) and compares exact encoded sizes.
fn int_dict_wins(values: &[i64]) -> bool {
    let rows = values.len();
    if rows < DICT_MIN_ROWS {
        return false;
    }
    let max_useful = rows / 2; // beyond this even 4-byte codes lose
    let mut distinct: crate::FxHashSet<i64> = crate::FxHashSet::default();
    for v in values {
        distinct.insert(*v);
        if distinct.len() > max_useful {
            return false;
        }
    }
    let n = distinct.len();
    let width = code_width(n);
    // dict header: u32 count + entries + u8 width; plain: 8 bytes/row.
    4 + n * 8 + 1 + rows * width < rows * 8
}

fn code_width(n_dict: usize) -> usize {
    if n_dict <= u8::MAX as usize + 1 {
        1
    } else if n_dict <= u16::MAX as usize + 1 {
        2
    } else {
        4
    }
}

fn put_int_dict(buf: &mut Vec<u8>, values: &[i64]) {
    let mut dict: Vec<i64> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(values.len());
    let mut index: crate::FxHashMap<i64, u32> = crate::FxHashMap::default();
    for v in values {
        let code = *index.entry(*v).or_insert_with(|| {
            dict.push(*v);
            (dict.len() - 1) as u32
        });
        codes.push(code);
    }
    put_u32(buf, dict.len() as u32);
    for v in &dict {
        put_i64(buf, *v);
    }
    let width = code_width(dict.len());
    put_u8(buf, width as u8);
    match width {
        1 => {
            for c in &codes {
                put_u8(buf, *c as u8);
            }
        }
        2 => {
            for c in &codes {
                buf.extend_from_slice(&(*c as u16).to_le_bytes());
            }
        }
        _ => {
            for c in &codes {
                put_u32(buf, *c);
            }
        }
    }
}

/// Decode one [`Chunk`] written by [`put_chunk`]: each column straight
/// into its stride of the row buffer, each column's declared blob length
/// validated. The buffer is sized only once [`chunk_cells`] has checked
/// that the payload backs it.
pub fn get_chunk(r: &mut Reader<'_>) -> Result<Chunk> {
    let rows = r.u32()? as usize;
    let n_cols = r.len()?; // plausibility-checked: ≥3 bytes per column header
    let mut vals = vec![Value::Null; chunk_cells(r.clone(), rows, n_cols)?];
    for c in 0..n_cols {
        let tag = r.u8()?;
        let encoding = r.u8()?;
        let has_validity = r.bool()?;
        let blob_len = r.u32()? as usize;
        let before = r.remaining();
        let validity = if has_validity { Some(r.need(rows.div_ceil(64) * 8)?) } else { None };
        let cells = vals[c..].iter_mut().step_by(n_cols);
        match (tag, encoding) {
            (COL_NULL, ENC_PLAIN) => {}
            (COL_INT, ENC_PLAIN) => {
                let ints = slab::<8>(r, rows)?.map(|b| Ok(Value::Int(i64::from_le_bytes(b))));
                fill(cells, validity, ints)?
            }
            (COL_INT, ENC_DICT) => {
                let (dict, width) = get_int_dict_header(r)?;
                let codes = r.need(rows * width)?.chunks_exact(width);
                let code =
                    |b: &[u8]| b.iter().rev().fold(0, |code, &byte| code << 8 | byte as usize);
                let ints = codes.map(code).map(|code| match dict.get(code) {
                    Some(&v) => Ok(Value::Int(v)),
                    None => Err(SquallError::Codec(format!("dictionary code {code} out of range"))),
                });
                fill(cells, validity, ints)?
            }
            (COL_FLOAT, ENC_PLAIN) => {
                let floats = slab::<8>(r, rows)?.map(|b| Ok(Value::Float(f64::from_le_bytes(b))));
                fill(cells, validity, floats)?
            }
            (COL_DATE, ENC_PLAIN) => {
                let dates =
                    slab::<4>(r, rows)?.map(|b| Ok(Value::Date(Date(i32::from_le_bytes(b)))));
                fill(cells, validity, dates)?
            }
            (COL_STR, ENC_PLAIN) => {
                let n = r.u32()? as usize;
                let text = std::str::from_utf8(r.need(n)?)
                    .map_err(|_| SquallError::Codec("invalid utf-8 in string column".into()))?;
                let mut start = 0;
                let strs = slab::<4>(r, rows)?.map(|b| {
                    let end = u32::from_le_bytes(b) as usize;
                    let s = text.get(start..end).ok_or_else(|| {
                        SquallError::Codec(format!("column {c} has a bad string offset {end}"))
                    })?;
                    start = end;
                    Ok(Value::Str(s.into()))
                });
                fill(cells, validity, strs)?;
                if start != text.len() {
                    return Err(SquallError::Codec(format!(
                        "column {c} string offsets do not cover payload"
                    )));
                }
            }
            (COL_MIXED, ENC_PLAIN) => fill(cells, validity, (0..rows).map(|_| Value::get(r)))?,
            (t, e) => {
                return Err(SquallError::Codec(format!("unknown column tag {t} / encoding {e}")))
            }
        }
        let consumed = before - r.remaining();
        if consumed != blob_len {
            return Err(SquallError::Codec(format!(
                "column {c} blob declared {blob_len} bytes but decoded {consumed}"
            )));
        }
    }
    Ok(Chunk::from_parts(rows, n_cols, vals))
}

/// The next `rows` values of `N` bytes each.
fn slab<'a, const N: usize>(
    r: &mut Reader<'a>,
    rows: usize,
) -> Result<impl Iterator<Item = [u8; N]> + 'a> {
    let bytes = r.need(rows * N)?;
    Ok(bytes.chunks_exact(N).map(|b| {
        let mut v = [0; N];
        v.copy_from_slice(b);
        v
    }))
}

/// Write one decoded value per row into the cell of each valid row, up to
/// the first error. Bit `i` of the validity words (little-endian) is bit
/// `i % 8` of byte `i / 8`.
fn fill<'v>(
    cells: impl Iterator<Item = &'v mut Value>,
    validity: Option<&[u8]>,
    vals: impl Iterator<Item = Result<Value>>,
) -> Result<()> {
    for (i, (cell, v)) in cells.zip(vals).enumerate() {
        let v = v?;
        if validity.is_none_or(|bits| bits[i / 8] >> (i % 8) & 1 == 1) {
            *cell = v;
        }
    }
    Ok(())
}

/// The values a chunk of `rows` rows and the `n_cols` columns ahead of `r`
/// holds — once its payload is seen to back them: each column's blob lies
/// within the payload, every column but an all-NULL one spends at least a
/// byte per row, and the chunk stays within [`MAX_CHUNK_CELLS`], a
/// zero-width row counting as one value.
fn chunk_cells(mut r: Reader<'_>, rows: usize, n_cols: usize) -> Result<usize> {
    for c in 0..n_cols {
        let tag = r.u8()?;
        r.need(2)?; // encoding and validity flag
        let blob_len = r.u32()? as usize;
        if blob_len > r.remaining() {
            return Err(SquallError::Codec(format!(
                "column {c} blob length {blob_len} exceeds {} remaining",
                r.remaining()
            )));
        }
        if tag != COL_NULL && rows > blob_len {
            return Err(SquallError::Codec(format!(
                "implausible column row count {rows} ({blob_len} bytes in column {c})"
            )));
        }
        r.need(blob_len)?;
    }
    match rows.checked_mul(n_cols.max(1)).filter(|&cells| cells <= MAX_CHUNK_CELLS) {
        Some(_) => Ok(rows * n_cols),
        None => Err(SquallError::Codec(format!(
            "a chunk of {rows} rows × {n_cols} columns exceeds {MAX_CHUNK_CELLS} values"
        ))),
    }
}

/// A dictionary column's dictionary and code width.
fn get_int_dict_header(r: &mut Reader<'_>) -> Result<(Vec<i64>, usize)> {
    let n_dict = r.len()?;
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        dict.push(r.i64()?);
    }
    let width = r.u8()? as usize;
    if !matches!(width, 1 | 2 | 4) {
        return Err(SquallError::Codec(format!("bad dictionary code width {width}")));
    }
    Ok((dict, width))
}

// ---------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(SquallError::Codec(format!("frame of {} bytes exceeds cap", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Marker text produced by [`read_frame`] when a socket read timeout
/// (`SO_RCVTIMEO`) fires — the heartbeat watchdog's silence signal.
pub const READ_TIMED_OUT: &str = "frame read timed out (peer silent)";

/// Read one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the stream); a mid-frame EOF is an error. A
/// socket read timeout surfaces as `Io(READ_TIMED_OUT)` so a heartbeat
/// watchdog can tell silence apart from a closed stream.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(SquallError::Codec("EOF inside frame length prefix".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(SquallError::Io(READ_TIMED_OUT.into()))
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(SquallError::Codec(format!("frame length {len} exceeds cap")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| SquallError::Codec(format!("EOF inside frame payload: {e}")))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn value_roundtrip_covers_every_variant() {
        let values = vec![
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::NAN),
            Value::str("hello wire"),
            Value::str(""),
            Value::Date(Date::parse("1996-07-28").unwrap()),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.put(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let got = Value::get(&mut r).unwrap();
            // NaN compares equal under Value's total order semantics.
            assert_eq!(&got, v, "{v:?}");
        }
        r.finish().unwrap();
    }

    #[test]
    fn tuples_roundtrip() {
        let ts = vec![tuple![1, "a", 2.5], tuple![], tuple![Value::Null, 7]];
        let mut buf = Vec::new();
        for t in &ts {
            put_tuple(&mut buf, t);
        }
        let mut r = Reader::new(&buf);
        for t in &ts {
            assert_eq!(&get_tuple(&mut r).unwrap(), t);
        }
        r.finish().unwrap();
    }

    #[test]
    fn chunk_roundtrip_all_column_kinds() {
        let ts = vec![
            tuple![1, "alpha", 2.5, Value::Null, Value::Date(Date::parse("2001-09-09").unwrap())],
            tuple![2, Value::Null, f64::NAN, Value::Null, Value::Null],
            tuple![Value::Null, "", 0.0, Value::Null, Value::Date(Date(0))],
        ];
        let chunk = Chunk::from_tuples(&ts);
        let mut buf = Vec::new();
        put_chunk(&mut buf, &chunk);
        let mut r = Reader::new(&buf);
        let back = get_chunk(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.to_tuples(), ts);
    }

    #[test]
    fn chunk_roundtrip_mixed_and_empty() {
        // Mixed column (Int/Float conflict) and a zero-row chunk.
        let ts = vec![tuple![3, "x"], tuple![3.0, "y"]];
        let chunk = Chunk::from_tuples(&ts);
        let mut buf = Vec::new();
        put_chunk(&mut buf, &chunk);
        let back = get_chunk(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.to_tuples(), ts);

        let mut buf = Vec::new();
        put_chunk(&mut buf, &Chunk::empty());
        let mut r = Reader::new(&buf);
        assert_eq!(get_chunk(&mut r).unwrap(), Chunk::empty());
        r.finish().unwrap();
    }

    #[test]
    fn chunk_dictionary_encoding_kicks_in_and_roundtrips() {
        // 256 rows over 4 distinct keys: dictionary must win and shrink the
        // payload well below 8 bytes/row.
        let ts: Vec<Tuple> = (0..256).map(|i| tuple![(i % 4) as i64]).collect();
        let chunk = Chunk::from_tuples(&ts);
        let mut buf = Vec::new();
        put_chunk(&mut buf, &chunk);
        assert!(
            buf.len() < 256 * 8 / 2,
            "dictionary encoding should compress hot keys, got {} bytes",
            buf.len()
        );
        let back = get_chunk(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back.to_tuples(), ts);
    }

    #[test]
    fn chunk_smaller_than_row_encoding_for_int_tuples() {
        let ts: Vec<Tuple> = (0..512).map(|i| tuple![i as i64, (i * 7) as i64]).collect();
        let chunk = Chunk::from_tuples(&ts);
        let mut columnar = Vec::new();
        put_chunk(&mut columnar, &chunk);
        let mut rowwise = Vec::new();
        for t in &ts {
            put_tuple(&mut rowwise, t);
        }
        assert!(
            columnar.len() < rowwise.len(),
            "columnar {} bytes should beat row-wise {} bytes",
            columnar.len(),
            rowwise.len()
        );
    }

    #[test]
    fn chunk_corrupt_blob_length_rejected() {
        let ts = vec![tuple![1, 2], tuple![3, 4]];
        let mut buf = Vec::new();
        put_chunk(&mut buf, &Chunk::from_tuples(&ts));
        // Flip the first column's blob_len (offset: rows u32 + cols u32 +
        // tag/enc/validity bytes = 11).
        buf[11] ^= 0x04;
        assert!(matches!(get_chunk(&mut Reader::new(&buf)), Err(SquallError::Codec(_))));
    }

    #[test]
    fn forged_row_counts_are_refused_before_the_rows_are_sized() {
        let header = |buf: &mut Vec<u8>, tag: u8, blob_len: usize| {
            buf.extend_from_slice(&[tag, ENC_PLAIN, 0]);
            put_u32(buf, blob_len as u32);
        };
        // `rows` rows of one plain Int column holding `ints` values, beside
        // `nulls` all-NULL columns.
        let forged = |rows: u32, ints: usize, nulls: usize| {
            let mut buf = Vec::new();
            put_u32(&mut buf, rows);
            put_u32(&mut buf, 1 + nulls as u32);
            header(&mut buf, COL_INT, ints * 8);
            (0..ints as i64).for_each(|v| put_i64(&mut buf, v));
            (0..nulls).for_each(|_| header(&mut buf, COL_NULL, 0));
            buf
        };
        let refused = |buf: &[u8], why: &str| match get_chunk(&mut Reader::new(buf)) {
            Err(SquallError::Codec(m)) => assert!(m.contains(why), "{m}"),
            other => panic!("{other:?}"),
        };
        // No byte backs an all-NULL column's rows, nor a zero-width chunk's:
        // the cell cap bounds them.
        for cols in [0, 1] {
            let mut null_rows = Vec::new();
            put_u32(&mut null_rows, u32::MAX);
            put_u32(&mut null_rows, cols);
            (0..cols).for_each(|_| header(&mut null_rows, COL_NULL, 0));
            refused(&null_rows, "exceeds");
        }
        // One payload column backs 256 rows, but not 256 × 4 097 values.
        refused(&forged(256, 256, 4_096), "exceeds");
        // A payload column spends a byte per row at least.
        refused(&forged(4_096, 256, 3), "implausible");
        let chunk = get_chunk(&mut Reader::new(&forged(256, 256, 3))).unwrap();
        assert_eq!((chunk.n_rows(), chunk.n_cols()), (256, 4));
        assert_eq!(chunk.row(7), [Value::Int(7), Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn error_roundtrip_preserves_memory_overflow_exactly() {
        let tagged = [
            SquallError::MemoryOverflow { machine: 3, stored: 1001, budget: 1000 },
            SquallError::Runtime("task panicked".into()),
            SquallError::InvalidPlan("p".into()),
            SquallError::Parse("q".into()),
            SquallError::UnknownColumn("c".into()),
            SquallError::UnknownRelation("r".into()),
            SquallError::InvalidPartitioning("h".into()),
            SquallError::Io("i".into()),
            SquallError::Codec("k".into()),
            SquallError::WorkerLost { addr: "w:1".into(), last_epoch: 4 },
        ];
        for e in tagged {
            assert_eq!(SquallError::decode(&e.encode()).unwrap(), e);
        }
        // A variant without a tag of its own arrives as its display text.
        let e = SquallError::ViewInUse { view: "v".into() };
        assert_eq!(SquallError::decode(&e.encode()).unwrap(), SquallError::Runtime(e.to_string()));
        assert!(matches!(SquallError::decode(&[11]), Err(SquallError::Codec(_))));
    }

    /// A recursive wire type, nested through `Box` as the plan's
    /// expressions are.
    #[derive(Debug, PartialEq)]
    enum Nest {
        Leaf(u64),
        Wrap(Box<Nest>),
    }
    crate::wire_tags! { Nest { 0 => Leaf(v), 1 => Wrap(inner) } }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let nested = |depth: usize| {
            let mut bytes = vec![1u8; depth];
            bytes.push(0);
            bytes.extend_from_slice(&5u64.to_le_bytes());
            bytes
        };
        let mut at_cap = Nest::Leaf(5);
        for _ in 0..MAX_NESTING {
            at_cap = Nest::Wrap(Box::new(at_cap));
        }
        assert_eq!(Nest::decode(&nested(MAX_NESTING as usize)).unwrap(), at_cap);
        let past = Nest::decode(&nested(MAX_NESTING as usize + 1)).unwrap_err();
        assert!(matches!(&past, SquallError::Codec(m) if m.contains("nest deeper")), "{past}");
    }

    #[test]
    fn options_and_counts_reject_what_no_encoder_writes() {
        assert_eq!(Option::<u64>::decode(&Some(9u64).encode()).unwrap(), Some(9));
        assert!(matches!(Option::<u64>::decode(&[2]), Err(SquallError::Codec(_))));
        // A count beyond the remaining bytes fails before any allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(Vec::<u64>::decode(&buf), Err(SquallError::Codec(_))));
        // Byte runs are one length-prefixed slice, as `put_bytes` lays them.
        assert_eq!(vec![1u8, 2, 3].encode(), [3, 0, 0, 0, 1, 2, 3]);
        assert_eq!(Vec::<u8>::decode(&[2, 0, 0, 0, 7, 8]).unwrap(), vec![7, 8]);
    }

    #[test]
    fn frame_io_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2); // cut inside the payload
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(read_frame(&mut cursor), Err(SquallError::Codec(_))));
        // Corrupt length prefix beyond the cap.
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(b"xx");
        assert!(matches!(read_frame(&mut std::io::Cursor::new(wire)), Err(SquallError::Codec(_))));
    }

    #[test]
    fn corrupt_element_count_rejected_before_allocation() {
        // A 12-byte payload claiming 268M values: every element costs at
        // least one byte, so the count must fail immediately (no
        // multi-gigabyte Vec::with_capacity).
        let mut buf = Vec::new();
        put_u32(&mut buf, 268_435_455);
        buf.extend_from_slice(&[0u8; 8]);
        let mut r = Reader::new(&buf);
        assert!(matches!(get_tuple(&mut r), Err(SquallError::Codec(_))));
    }

    #[test]
    fn short_buffer_is_typed_error() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 5);
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.u64(), Err(SquallError::Codec(_))));
    }
}
