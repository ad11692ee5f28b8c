//! The one message exchanged between tasks: what a bolt's inbox queues,
//! what [`crate::Transport::send`] takes, and — behind a target task id, as
//! [`crate::Frame::Deliver`] — what crosses the wire (its byte layout lives
//! beside the frame's, in [`crate::transport`]). A batch for several tasks
//! of one remote peer crosses as one [`crate::Frame::Fanout`] instead, which
//! the receiving peer splits back into one `Batch` per task.

use squall_common::Chunk;

/// Identifier of a topology node (spout or bolt). Tasks of a node are
/// addressed as `(NodeId, task_index)`.
pub type NodeId = usize;

/// A task-to-task message.
///
/// The data plane is *batched*: senders route rows one by one into
/// per-target scatter buffers, each a [`Chunk`] the rows are pushed into
/// back to back (see [`crate::topology::OutputCollector`]), and ship one
/// `Batch` per `batch_size` rows (or whatever is buffered when the stream
/// punctuates, or before a chunk would pass
/// [`MAX_CHUNK_CELLS`](squall_common::MAX_CHUNK_CELLS)). Columns exist
/// only on the wire: the codec lays a crossing chunk out column by column
/// and decodes it back into rows. The targets a remote peer hosts
/// two or more of share one buffer that holds each row once and ships as a
/// fan-out frame; the peer splits it back into these per-target batches.
/// Batching amortizes the per-message queue and scheduling costs without
/// introducing micro-batch *barriers* — a batch is flushed the moment it
/// fills, so pipelining is preserved (§8.1's argument against synchronized
/// micro-batching still holds). Because routing happens per row *before*
/// buffering, chunk boundaries never affect partitioning, loads, or results.
#[derive(Debug, Clone)]
pub enum Message {
    /// A run of data rows, laid back to back, tagged with the node that
    /// emitted them (bolts with several upstream streams — e.g. joiners —
    /// dispatch on the origin, exactly like Storm bolts dispatch on the
    /// source component id). All rows of a batch share one origin (and one
    /// arity) and arrive in the sender's emission order.
    Batch {
        /// The node that emitted the rows.
        origin: NodeId,
        /// The rows.
        chunk: Chunk,
    },
    /// End-of-stream punctuation from one upstream *task*. A task finishes
    /// once it has received one `Eos` per upstream task. `Eos` follows all
    /// of that sender's data (scatter buffers are flushed first).
    Eos,
    /// Event-time progress punctuation from one upstream task: the sender
    /// promises that every data tuple it emits *after* this message
    /// carries event time ≥ `ts`. Watermarks are broadcast to every
    /// downstream task (groupings do not apply — progress is global) and
    /// are ordered after the sender's earlier data (scatter buffers are
    /// flushed first, exactly like `Eos`). Windowed aggregation closes
    /// windows on the minimum watermark across its upstream tasks; a task
    /// that finishes emits a final `ts = u64::MAX` watermark so completed
    /// inputs never hold the minimum down.
    Watermark {
        /// The node that emitted the watermark.
        origin: NodeId,
        /// The emitting task's index *within* `origin` (watermark minima
        /// are tracked per upstream task, not per node).
        from_task: usize,
        /// The event-time frontier being promised.
        ts: u64,
    },
    /// A checkpoint barrier (Chandy-Lamport style alignment marker). The
    /// coordinator injects one per source after the epoch-`epoch`
    /// watermark; barriers are broadcast downstream exactly like
    /// watermarks (flushed after the sender's earlier data, one per
    /// upstream task). A task *aligns* once it has received one barrier
    /// for `epoch` from every upstream task; at that instant every delta
    /// of an epoch ≤ `epoch` has arrived, so the aligned task snapshots its
    /// state and forwards the barrier. Alignment holds no upstream back: one
    /// whose barrier came early may already have delivered later epochs'
    /// data, which a snapshot must leave out. Because every channel is FIFO
    /// and each task applies input single-threadedly, alignment needs no
    /// channel capture and never stalls the pipeline.
    Barrier {
        /// The checkpoint epoch this barrier seals.
        epoch: u64,
    },
}
