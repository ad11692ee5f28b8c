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
//! Layering: this module knows [`Value`], [`Tuple`] and [`SquallError`]
//! (the common types every message is made of). The runtime's transport
//! layer composes these primitives into its own frame vocabulary
//! (`Deliver` / `Abort` / …).

use std::io::{Read, Write};
use std::sync::Arc;

use crate::array::{Array, Bitmap, Chunk, PrimitiveArray, Utf8Array};
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

pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

// ---------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------

/// A cursor over an encoded payload. Every accessor bounds-checks and
/// returns [`SquallError::Codec`] on a short or malformed buffer, so a
/// corrupted frame surfaces as a typed error instead of a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

// `len` reads a length prefix off the wire; it is not a container size.
#[allow(clippy::len_without_is_empty)]
impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
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
// Value / Tuple
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_DATE: u8 = 4;

pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, VAL_NULL),
        Value::Int(i) => {
            put_u8(buf, VAL_INT);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            put_u8(buf, VAL_FLOAT);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            put_u8(buf, VAL_STR);
            put_str(buf, s);
        }
        Value::Date(d) => {
            put_u8(buf, VAL_DATE);
            put_i32(buf, d.0);
        }
    }
}

pub fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        VAL_NULL => Value::Null,
        VAL_INT => Value::Int(r.i64()?),
        VAL_FLOAT => Value::Float(r.f64()?),
        VAL_STR => Value::Str(Arc::from(r.str_ref()?)),
        VAL_DATE => Value::Date(Date(r.i32()?)),
        tag => return Err(SquallError::Codec(format!("unknown value tag {tag}"))),
    })
}

pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.values() {
        put_value(buf, v);
    }
}

pub fn get_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    let n = r.len()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(r)?);
    }
    Ok(Tuple::new(values))
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
/// Fixed-width columns ship their payload as one contiguous little-endian
/// slab (no per-value tag bytes — the big win over per-row `put_tuple`); `Int`
/// columns with few distinct values (hot Zipf keys) switch to dictionary
/// encoding (`u32 n_dict · i64 dict[] · u8 code_width · code[]`) when that
/// is strictly smaller. The `blob_len` prefix lets a reader skip or
/// validate each column independently.
pub fn put_chunk(buf: &mut Vec<u8>, chunk: &Chunk) {
    put_u32(buf, chunk.n_rows() as u32);
    put_u32(buf, chunk.n_cols() as u32);
    for col in chunk.columns() {
        let (tag, encoding, validity) = match col {
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
        match col {
            Array::Null(_) => {}
            Array::Int(a) if encoding == ENC_DICT => put_int_dict(buf, a.values()),
            Array::Int(a) => {
                for v in a.values() {
                    put_i64(buf, *v);
                }
            }
            Array::Float(a) => {
                for v in a.values() {
                    put_f64(buf, *v);
                }
            }
            Array::Date(a) => {
                for v in a.values() {
                    put_i32(buf, *v);
                }
            }
            Array::Str(a) => {
                put_bytes(buf, a.bytes());
                // offsets[0] is always 0; ship the rows trailing end-offsets.
                for off in &a.offsets()[1..] {
                    put_u32(buf, *off);
                }
            }
            Array::Mixed(vals) => {
                for v in vals {
                    put_value(buf, v);
                }
            }
        }
        let blob_len = (buf.len() - len_at - 4) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&blob_len.to_le_bytes());
    }
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

/// Decode one [`Chunk`] written by [`put_chunk`], validating each column's
/// declared blob length.
pub fn get_chunk(r: &mut Reader<'_>) -> Result<Chunk> {
    let rows = r.u32()? as usize;
    let n_cols = r.len()?; // plausibility-checked: ≥3 bytes per column header
    let mut columns = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let tag = r.u8()?;
        let encoding = r.u8()?;
        let has_validity = r.bool()?;
        let blob_len = r.u32()? as usize;
        if blob_len > r.remaining() {
            return Err(SquallError::Codec(format!(
                "column {c} blob length {blob_len} exceeds {} remaining",
                r.remaining()
            )));
        }
        let before = r.remaining();
        let validity = if has_validity {
            let n_words = rows.div_ceil(64);
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.u64()?);
            }
            Some(Bitmap::from_words(words, rows))
        } else {
            None
        };
        let col = match (tag, encoding) {
            (COL_NULL, ENC_PLAIN) => Array::Null(rows),
            (COL_INT, ENC_PLAIN) => {
                Array::Int(PrimitiveArray::with_validity(get_i64_slab(r, rows)?, validity))
            }
            (COL_INT, ENC_DICT) => {
                Array::Int(PrimitiveArray::with_validity(get_int_dict(r, rows)?, validity))
            }
            (COL_FLOAT, ENC_PLAIN) => {
                let mut vals = Vec::with_capacity(plausible(r, rows, 8)?);
                for _ in 0..rows {
                    vals.push(r.f64()?);
                }
                Array::Float(PrimitiveArray::with_validity(vals, validity))
            }
            (COL_DATE, ENC_PLAIN) => {
                let mut vals = Vec::with_capacity(plausible(r, rows, 4)?);
                for _ in 0..rows {
                    vals.push(r.i32()?);
                }
                Array::Date(PrimitiveArray::with_validity(vals, validity))
            }
            (COL_STR, ENC_PLAIN) => {
                let bytes = r.bytes()?;
                let mut offsets = Vec::with_capacity(plausible(r, rows, 4)? + 1);
                offsets.push(0u32);
                for _ in 0..rows {
                    let off = r.u32()?;
                    if (off as usize) > bytes.len() || off < *offsets.last().unwrap() {
                        return Err(SquallError::Codec(format!(
                            "column {c} has non-monotone string offset {off}"
                        )));
                    }
                    offsets.push(off);
                }
                if *offsets.last().unwrap() as usize != bytes.len() {
                    return Err(SquallError::Codec(format!(
                        "column {c} string offsets do not cover payload"
                    )));
                }
                std::str::from_utf8(&bytes)
                    .map_err(|_| SquallError::Codec("invalid utf-8 in string column".into()))?;
                Array::Str(Utf8Array::from_parts(offsets, bytes, validity))
            }
            (COL_MIXED, ENC_PLAIN) => {
                let mut vals = Vec::with_capacity(plausible(r, rows, 1)?);
                for _ in 0..rows {
                    vals.push(get_value(r)?);
                }
                Array::Mixed(vals)
            }
            (t, e) => {
                return Err(SquallError::Codec(format!("unknown column tag {t} / encoding {e}")))
            }
        };
        let consumed = before - r.remaining();
        if consumed != blob_len {
            return Err(SquallError::Codec(format!(
                "column {c} blob declared {blob_len} bytes but decoded {consumed}"
            )));
        }
        columns.push(col);
    }
    Ok(Chunk::new(columns, rows))
}

/// Reject a row count whose minimum encoding exceeds the remaining bytes
/// *before* any allocation sized from it.
fn plausible(r: &Reader<'_>, rows: usize, min_bytes: usize) -> Result<usize> {
    if rows.saturating_mul(min_bytes) > r.remaining() {
        return Err(SquallError::Codec(format!(
            "implausible column row count {rows} ({} bytes remain)",
            r.remaining()
        )));
    }
    Ok(rows)
}

fn get_i64_slab(r: &mut Reader<'_>, rows: usize) -> Result<Vec<i64>> {
    let mut vals = Vec::with_capacity(plausible(r, rows, 8)?);
    for _ in 0..rows {
        vals.push(r.i64()?);
    }
    Ok(vals)
}

fn get_int_dict(r: &mut Reader<'_>, rows: usize) -> Result<Vec<i64>> {
    let n_dict = r.len()?;
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        dict.push(r.i64()?);
    }
    let width = r.u8()? as usize;
    if !matches!(width, 1 | 2 | 4) {
        return Err(SquallError::Codec(format!("bad dictionary code width {width}")));
    }
    let mut vals = Vec::with_capacity(plausible(r, rows, width)?);
    for _ in 0..rows {
        let code = match width {
            1 => r.u8()? as usize,
            2 => u16::from_le_bytes(r.need(2)?.try_into().expect("2 bytes")) as usize,
            _ => r.u32()? as usize,
        };
        let v = dict.get(code).ok_or_else(|| {
            SquallError::Codec(format!("dictionary code {code} out of range {n_dict}"))
        })?;
        vals.push(*v);
    }
    Ok(vals)
}

// ---------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------

// Variants that must survive a process boundary exactly (the run-abort
// protocol forwards the failing peer's error to the coordinator, and
// `MemoryOverflow` semantics are part of the paper's methodology). Less
// structured variants round-trip as their display text.
const ERR_MEMORY_OVERFLOW: u8 = 0;
const ERR_RUNTIME: u8 = 1;
const ERR_INVALID_PLAN: u8 = 2;
const ERR_PARSE: u8 = 3;
const ERR_UNKNOWN_COLUMN: u8 = 4;
const ERR_UNKNOWN_RELATION: u8 = 5;
const ERR_INVALID_PARTITIONING: u8 = 6;
const ERR_IO: u8 = 7;
const ERR_CODEC: u8 = 8;
const ERR_OTHER: u8 = 9;
const ERR_WORKER_LOST: u8 = 10;

pub fn put_error(buf: &mut Vec<u8>, e: &SquallError) {
    match e {
        SquallError::MemoryOverflow { machine, stored, budget } => {
            put_u8(buf, ERR_MEMORY_OVERFLOW);
            put_u64(buf, *machine as u64);
            put_u64(buf, *stored as u64);
            put_u64(buf, *budget as u64);
        }
        SquallError::Runtime(m) => {
            put_u8(buf, ERR_RUNTIME);
            put_str(buf, m);
        }
        SquallError::InvalidPlan(m) => {
            put_u8(buf, ERR_INVALID_PLAN);
            put_str(buf, m);
        }
        SquallError::Parse(m) => {
            put_u8(buf, ERR_PARSE);
            put_str(buf, m);
        }
        SquallError::UnknownColumn(m) => {
            put_u8(buf, ERR_UNKNOWN_COLUMN);
            put_str(buf, m);
        }
        SquallError::UnknownRelation(m) => {
            put_u8(buf, ERR_UNKNOWN_RELATION);
            put_str(buf, m);
        }
        SquallError::InvalidPartitioning(m) => {
            put_u8(buf, ERR_INVALID_PARTITIONING);
            put_str(buf, m);
        }
        SquallError::Io(m) => {
            put_u8(buf, ERR_IO);
            put_str(buf, m);
        }
        SquallError::Codec(m) => {
            put_u8(buf, ERR_CODEC);
            put_str(buf, m);
        }
        SquallError::WorkerLost { addr, last_epoch } => {
            put_u8(buf, ERR_WORKER_LOST);
            put_str(buf, addr);
            put_u64(buf, *last_epoch);
        }
        other => {
            put_u8(buf, ERR_OTHER);
            put_str(buf, &other.to_string());
        }
    }
}

pub fn get_error(r: &mut Reader<'_>) -> Result<SquallError> {
    Ok(match r.u8()? {
        ERR_MEMORY_OVERFLOW => SquallError::MemoryOverflow {
            machine: r.u64()? as usize,
            stored: r.u64()? as usize,
            budget: r.u64()? as usize,
        },
        ERR_RUNTIME => SquallError::Runtime(r.str()?),
        ERR_INVALID_PLAN => SquallError::InvalidPlan(r.str()?),
        ERR_PARSE => SquallError::Parse(r.str()?),
        ERR_UNKNOWN_COLUMN => SquallError::UnknownColumn(r.str()?),
        ERR_UNKNOWN_RELATION => SquallError::UnknownRelation(r.str()?),
        ERR_INVALID_PARTITIONING => SquallError::InvalidPartitioning(r.str()?),
        ERR_IO => SquallError::Io(r.str()?),
        ERR_CODEC => SquallError::Codec(r.str()?),
        ERR_OTHER => SquallError::Runtime(r.str()?),
        ERR_WORKER_LOST => SquallError::WorkerLost { addr: r.str()?, last_epoch: r.u64()? },
        tag => return Err(SquallError::Codec(format!("unknown error tag {tag}"))),
    })
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
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let got = get_value(&mut r).unwrap();
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
    fn error_roundtrip_preserves_memory_overflow_exactly() {
        let e = SquallError::MemoryOverflow { machine: 3, stored: 1001, budget: 1000 };
        let mut buf = Vec::new();
        put_error(&mut buf, &e);
        let mut r = Reader::new(&buf);
        assert_eq!(get_error(&mut r).unwrap(), e);

        let e2 = SquallError::Runtime("task panicked".into());
        let mut buf = Vec::new();
        put_error(&mut buf, &e2);
        assert_eq!(get_error(&mut Reader::new(&buf)).unwrap(), e2);
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
