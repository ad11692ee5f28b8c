//! The error type shared by all Squall crates.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, SquallError>;

/// Errors produced anywhere in Squall.
///
/// The engine is mostly infallible once a plan has been validated; most of
/// these variants surface during plan construction, SQL parsing, or when a
/// resource limit (the per-machine memory budget of §7.3) is exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SquallError {
    /// A schema lookup failed (unknown column or relation name).
    UnknownColumn(String),
    /// An unknown relation was referenced.
    UnknownRelation(String),
    /// A value had the wrong type for the requested operation.
    TypeMismatch { expected: &'static str, found: String },
    /// A source (table or stream) with this name is already registered.
    DuplicateSource(String),
    /// A source registration was rejected (schema/data mismatch, bad
    /// event-time column, ...).
    InvalidSource { source: String, reason: String },
    /// SQL text could not be parsed.
    Parse(String),
    /// A logical or physical plan was malformed.
    InvalidPlan(String),
    /// A partitioning scheme could not be constructed (e.g. zero machines).
    InvalidPartitioning(String),
    /// A per-machine memory budget was exceeded (the paper's Hash-Hypercube
    /// "Memory Overflow" on the 80G TPCH9-Partial configuration, Fig. 7).
    MemoryOverflow { machine: usize, stored: usize, budget: usize },
    /// The runtime failed (channel disconnect, worker panic, ...).
    Runtime(String),
    /// An I/O error (cluster sockets).
    Io(String),
    /// A wire frame could not be encoded or decoded (TCP transport).
    Codec(String),
    /// A catalog source cannot be dropped while a live streaming run still
    /// reads it.
    SourceInUse { source: String },
    /// A materialized view cannot be dropped while a subscriber still
    /// reads its change stream.
    ViewInUse { view: String },
    /// A cluster peer died mid-run (socket closed or heartbeat silence).
    /// Carries the dead peer's address and the last epoch it was seen
    /// alive at — the input the checkpoint/recovery subsystem plans
    /// re-admission from.
    WorkerLost { addr: String, last_epoch: u64 },
    /// A join condition references a column that output-scheme pruning
    /// removed from a relation's join input — caught at plan validation,
    /// naming the offending column, instead of surfacing as a downstream
    /// hash mismatch. Checked on every plan execution and re-checked after
    /// any join-order rewrite.
    PrunedColumnReference { relation: String, column: String },
}

impl fmt::Display for SquallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SquallError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            SquallError::UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            SquallError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            SquallError::DuplicateSource(s) => {
                write!(f, "source {s} is already registered (deregister it first to replace)")
            }
            SquallError::InvalidSource { source, reason } => {
                write!(f, "invalid source {source}: {reason}")
            }
            SquallError::Parse(m) => write!(f, "SQL parse error: {m}"),
            SquallError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            SquallError::InvalidPartitioning(m) => write!(f, "invalid partitioning: {m}"),
            SquallError::MemoryOverflow { machine, stored, budget } => write!(
                f,
                "memory overflow on machine {machine}: {stored} tuples stored, budget {budget}"
            ),
            SquallError::Runtime(m) => write!(f, "runtime error: {m}"),
            SquallError::Io(m) => write!(f, "I/O error: {m}"),
            SquallError::Codec(m) => write!(f, "wire codec error: {m}"),
            SquallError::SourceInUse { source } => write!(
                f,
                "source {source} is read by a live streaming run (finish or drop it first)"
            ),
            SquallError::ViewInUse { view } => {
                write!(f, "view {view} has live change-stream subscribers (drop them first)")
            }
            SquallError::WorkerLost { addr, last_epoch } => {
                write!(f, "worker {addr} lost (last seen alive at epoch {last_epoch})")
            }
            SquallError::PrunedColumnReference { relation, column } => write!(
                f,
                "plan error: join condition references column {column}, which was pruned \
                 from {relation}'s output scheme"
            ),
        }
    }
}

impl std::error::Error for SquallError {}

impl From<std::io::Error> for SquallError {
    fn from(e: std::io::Error) -> Self {
        SquallError::Io(e.to_string())
    }
}

// The variants that must survive a process boundary exactly (the run-abort
// protocol forwards the failing peer's error to the coordinator, and
// `MemoryOverflow` semantics are part of the paper's methodology). The rest
// cross as their display text and arrive as `Runtime`.
crate::wire_tags! { SquallError (buf, r) {
    0 => MemoryOverflow { machine, stored, budget },
    1 => Runtime(m),
    2 => InvalidPlan(m),
    3 => Parse(m),
    4 => UnknownColumn(m),
    5 => UnknownRelation(m),
    6 => InvalidPartitioning(m),
    7 => Io(m),
    8 => Codec(m),
    10 => WorkerLost { addr, last_epoch },
} else {
    other => {
        crate::codec::put_u8(buf, 9);
        crate::codec::put_str(buf, &other.to_string())
    },
    9 => SquallError::Runtime(r.str()?),
}}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = SquallError::MemoryOverflow { machine: 3, stored: 10, budget: 5 };
        let s = e.to_string();
        assert!(s.contains("machine 3"));
        assert!(s.contains("budget 5"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SquallError = io.into();
        assert!(matches!(e, SquallError::Io(_)));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SquallError::UnknownColumn("a".into()), SquallError::UnknownColumn("a".into()));
        assert_ne!(
            SquallError::UnknownColumn("a".into()),
            SquallError::UnknownRelation("a".into())
        );
    }
}
