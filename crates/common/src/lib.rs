//! # squall-common
//!
//! Foundation types shared by every Squall crate: [`Value`], [`Tuple`],
//! [`Schema`], fast hashing, deterministic random number generation and the
//! zipfian sampler used throughout the paper's skewed workloads, plus the
//! common error type.
//!
//! Tuples are replicated to many machines by the hypercube partitioning
//! schemes, so [`Tuple`] is a cheaply clonable reference-counted slice of
//! values, and strings are stored as shared buffers (the paper's Trove-style
//! "primitive collections" optimization, §3.3). Batches move between tasks as
//! [`Chunk`]s, rows laid back to back and read in place; their columns
//! (typed arrays + validity bitmaps, see [`mod@array`]) exist only on the wire.

pub mod array;
pub mod codec;
pub mod error;
pub mod hash;
pub mod rng;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod zipf;

pub use array::{Array, ArrayBuilder, Bitmap, Chunk, MAX_CHUNK_CELLS};
pub use error::{Result, SquallError};
pub use hash::{FxHashMap, FxHashSet};
pub use rng::SplitMix64;
pub use schema::{DataType, Field, Schema};
pub use tuple::Tuple;
pub use value::{Date, Value};
pub use zipf::Zipf;
