//! The pluggable transport layer: how a task's messages reach another
//! task, in this process or in another one.
//!
//! The executor emits through the [`Transport`] trait and never knows
//! where a target task lives. Two backends implement it:
//!
//! * [`LocalTransport`] — every task is in this process; `send` is an
//!   inbox push plus a scheduler wakeup (exactly the pre-transport
//!   behaviour, and the default for [`crate::Topology::launch`]);
//! * [`TcpTransport`] — tasks are partitioned across peer processes by a
//!   [`Placement`]; a local target is an inbox push, a remote target's
//!   message is wrapped as [`Frame::Deliver`] and pushed onto that peer's
//!   bounded **egress queue** — the same `GateQueue` a local inbox is —
//!   from which a send pump thread writes length-prefixed [`Frame`]s onto
//!   that peer's link, one TCP socket carrying both directions. A recv
//!   pump per link unwraps each arriving `Deliver` and hands its message
//!   to the local backend.
//!
//! A row the hypercube replicates to several tasks of one remote peer
//! crosses that link once: where a peer hosts two or more targets of an
//! edge, the sender's [`crate::OutputCollector`] buffers each routed row
//! once for that peer, with a mask of its tasks (decided at wiring time —
//! in-process runs have no such buffer), and pushes a [`Frame::Fanout`]
//! straight onto the egress queue. The recv pump splits it into one
//! [`Message::Batch`] per task, so inboxes and bolts never see it.
//!
//! The send pump waits on wakeups, not timers: it flushes the moment its
//! queue runs dry and blocks until a push.
//!
//! Backpressure composes across the wire: a task that overfills an egress
//! queue parks exactly like one that overfills a local inbox (it is the
//! same queue); the send pump blocks on the socket when the peer falls
//! behind; the peer's recv pump stops reading while the destination inbox
//! is over capacity. The topology is a DAG, so each wait chain points
//! strictly downstream and terminates at a sink — no distributed cycle
//! can form.
//!
//! There is one task-to-task message, [`Message`], and one frame that
//! carries it to one task (a fan-out frame carries only batches), so
//! termination and progress punctuation travel the same path as data: a
//! sender's `Eos`, `Watermark` and `Barrier` are delivered per (sender task
//! → target task) edge, ordered after that sender's earlier data, fan-out
//! frames included, so a bolt's end-of-stream count, a windowed
//! aggregate's window-closing decisions and barrier alignment are identical
//! to a single-process run. A raised abort (e.g.
//! [`SquallError::MemoryOverflow`]) is broadcast as an `Abort` frame by
//! every send pump, so remote spouts stop and every slice drains exactly
//! like the local abort path.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squall_common::codec::{self, Reader, Wire};
use squall_common::{Chunk, Result, SquallError, Tuple, Value};

use crate::executor::{GateQueue, Inbox, Sched, Shared, TaskId};
use crate::message::{Message, NodeId};
use crate::metrics::MetricsSnapshot;

// ---------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------

/// Point-to-point delivery of [`Message`]s to (possibly remote) tasks.
///
/// `send` never blocks — the capacity bound is enforced cooperatively:
/// after a send the emitter checks [`Transport::congested`] and, if the
/// path is over capacity, registers itself via
/// [`Transport::register_waiter`] and parks until the path drains.
/// Punctuation ([`Message::Eos`]) intentionally ignores the bound so
/// termination always makes progress.
pub trait Transport: Send + Sync {
    /// Deliver a message to task `to`.
    fn send(&self, to: TaskId, msg: Message);

    /// Is the path to `to` over its soft capacity (the sender should
    /// yield)?
    fn congested(&self, to: TaskId) -> bool;

    /// Register `sender` to be woken when the path to `to` drains, *if*
    /// it is still congested (double-checked under the path's lock).
    /// Returns whether it registered.
    fn register_waiter(&self, to: TaskId, sender: TaskId) -> bool;
}

// ---------------------------------------------------------------------
// Local backend
// ---------------------------------------------------------------------

/// In-process delivery: one bounded inbox per local bolt task.
pub struct LocalTransport {
    /// Dense over task ids; `None` for spout tasks (no inputs) and, under
    /// a cluster placement, for tasks hosted elsewhere.
    inboxes: Vec<Option<Arc<Inbox>>>,
    sched: Arc<Sched>,
}

impl LocalTransport {
    pub(crate) fn new(inboxes: Vec<Option<Arc<Inbox>>>, sched: Arc<Sched>) -> LocalTransport {
        LocalTransport { inboxes, sched }
    }

    /// Does task `to` have an inbox in this process?
    fn hosts(&self, to: TaskId) -> bool {
        self.inboxes.get(to).is_some_and(|i| i.is_some())
    }

    fn inbox(&self, to: TaskId) -> &Arc<Inbox> {
        self.inboxes[to].as_ref().expect("message to a task without an inbox")
    }
}

impl Transport for LocalTransport {
    fn send(&self, to: TaskId, msg: Message) {
        let depth = self.inbox(to).push(msg);
        self.sched.record_depth(depth);
        self.sched.notify(to);
    }

    fn congested(&self, to: TaskId) -> bool {
        self.inbox(to).over_capacity()
    }

    fn register_waiter(&self, to: TaskId, sender: TaskId) -> bool {
        self.inbox(to).register_waiter(sender)
    }
}

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

/// Assignment of the topology's dense task ids to cluster peers. Peer 0
/// is always the coordinator (the process driving the query).
#[derive(Debug, Clone)]
pub struct Placement {
    pub n_peers: usize,
    /// Dense task id → peer index.
    pub peer_of_task: Vec<usize>,
}

/// Compute the canonical task → peer assignment, identically on every
/// peer (it is a pure function of the topology shape and the peer
/// count):
///
/// * spout tasks are pinned to the coordinator — the catalog data lives
///   in the driving process, and shipping tuples (not relations) over
///   the wire is exactly the paper's source → join network step;
/// * each bolt node's task range is split into contiguous, near-equal
///   ranges, one per peer, in peer order (`task * n_peers / parallelism`).
pub fn plan_placement(parallelism: &[usize], is_spout: &[bool], n_peers: usize) -> Placement {
    assert!(n_peers > 0);
    let mut peer_of_task = Vec::with_capacity(parallelism.iter().sum());
    for (node, &p) in parallelism.iter().enumerate() {
        for task in 0..p {
            if is_spout[node] || n_peers == 1 {
                peer_of_task.push(0);
            } else {
                peer_of_task.push(task * n_peers / p);
            }
        }
    }
    Placement { n_peers, peer_of_task }
}

/// Human-readable placement table for `explain` output.
pub fn describe_placement(
    names: &[String],
    parallelism: &[usize],
    is_spout: &[bool],
    peer_labels: &[String],
) -> String {
    let placement = plan_placement(parallelism, is_spout, peer_labels.len());
    let mut s = String::new();
    let mut first_task = 0usize;
    for (node, &p) in parallelism.iter().enumerate() {
        let mut ranges: Vec<String> = Vec::new();
        let mut start = 0usize;
        while start < p {
            let peer = placement.peer_of_task[first_task + start];
            let mut end = start;
            while end + 1 < p && placement.peer_of_task[first_task + end + 1] == peer {
                end += 1;
            }
            let span =
                if start == end { format!("task {start}") } else { format!("tasks {start}-{end}") };
            ranges.push(format!("{span} @{}", peer_labels[peer]));
            start = end + 1;
        }
        s.push_str(&format!("  {}: {}\n", names[node], ranges.join(", ")));
        first_task += p;
    }
    s
}

// ---------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------

/// One operator checkpoint blob as delivered to the coordinator's
/// collector channel: `(role, task, epoch, payload)` — the fields of
/// [`Frame::SnapshotBlob`].
pub type SnapshotBlobMsg = (u8, usize, u64, Vec<u8>);

/// Everything that travels between peers. The `Job` payload is opaque at
/// this layer — the driver crate owns the plan encoding; the runtime owns
/// the data plane.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Link handshake, always from a worker: its first frame on a link it
    /// dialed to a worker above it (the lower index dials), naming itself,
    /// or its answer to the coordinator's job (ready to run).
    Hello { peer: usize },
    /// Coordinator → worker: the serialized query plan slice.
    Job { payload: Vec<u8> },
    /// One task-to-task [`Message`] for task `to_task` — the whole data
    /// plane: a routed batch (shipped in the columnar chunk layout, one
    /// length-prefixed column blob per field — see [`codec::put_chunk`]),
    /// or one upstream task's `Eos` / `Watermark` / `Barrier` punctuation.
    /// A link is FIFO, so punctuation stays ordered after its sender's
    /// earlier data and end-of-stream counts, window closing and barrier
    /// alignment across the wire are identical to a single-process run.
    Deliver { to_task: TaskId, msg: Message },
    /// One sender task's rows for a run of target tasks that one peer
    /// hosts: each row once, with the mask of the run's tasks it goes to.
    /// The receiving recv pump splits it into one [`Message::Batch`] per
    /// task, so a row the hypercube replicates to several tasks of one peer
    /// crosses the wire once.
    Fanout(FanoutBatch),
    /// Liveness beacon: the sender is alive and its bolts have aligned on
    /// checkpoint epochs up to `epoch`. Sent on otherwise-idle links when
    /// the failure detector is armed; receiving one refreshes the link's
    /// read deadline and records the peer's checkpoint progress.
    Heartbeat { epoch: u64 },
    /// An aligned task's serialized operator state for checkpoint `epoch`,
    /// shipped to the coordinator's checkpoint store. `role` distinguishes
    /// the operator kind (0 = join bolt, 1 = view sink); `task` is the
    /// task index *within* that role's node.
    SnapshotBlob { role: u8, task: usize, epoch: u64, payload: Vec<u8> },
    /// A sink emission forwarded to the coordinator.
    SinkRow { node: NodeId, tuple: Tuple },
    /// A peer raised the run-abort flag; the error is the cause.
    Abort { error: SquallError },
    /// Worker → coordinator: final per-task metrics and first error.
    Done { metrics: MetricsSnapshot, error: Option<SquallError> },
    /// Clean end of the sender's half of a shared link: it sends nothing
    /// more, and its peer's recv pump stops (distinguishes an orderly
    /// close from a crashed peer).
    Goodbye,
}

// Every control frame's tag, once. A data frame is a `Message`'s: its kind's
// tag, then the target task (see `Message::put`).
squall_common::wire_tags! { Frame (buf, r) {
    0 => Hello { peer as u32 },
    1 => Job { payload },
    4 => SinkRow { node as u32, tuple },
    5 => Abort { error },
    6 => Done { metrics, error },
    7 => Goodbye,
    10 => Heartbeat { epoch },
    11 => SnapshotBlob { role, task as u32, epoch, payload },
    13 => Fanout(batch),
} else {
    Frame::Deliver { to_task, msg } => msg.put(*to_task, buf),
    tag @ (MSG_BATCH | MSG_EOS | MSG_WATERMARK | MSG_BARRIER) => {
        Frame::Deliver { to_task: r.u32()? as TaskId, msg: Message::get(tag, r)? }
    },
}}

// The data plane's tags.
const MSG_BATCH: u8 = 2;
const MSG_EOS: u8 = 3;
const MSG_WATERMARK: u8 = 8;
const MSG_BARRIER: u8 = 9;

/// The one place a [`Message`] meets the wire: its tag, the target task,
/// then the kind's own fields — laid out by hand, the data plane's bytes.
impl Message {
    fn put(&self, to_task: TaskId, buf: &mut Vec<u8>) {
        let mut head = |tag: u8| {
            codec::put_u8(buf, tag);
            codec::put_u32(buf, to_task as u32);
        };
        match self {
            Message::Batch { origin, chunk } => {
                head(MSG_BATCH);
                codec::put_u32(buf, *origin as u32);
                codec::put_chunk(buf, chunk);
            }
            Message::Eos => head(MSG_EOS),
            Message::Watermark { origin, from_task, ts } => {
                head(MSG_WATERMARK);
                codec::put_u32(buf, *origin as u32);
                codec::put_u32(buf, *from_task as u32);
                codec::put_u64(buf, *ts);
            }
            Message::Barrier { epoch } => {
                head(MSG_BARRIER);
                codec::put_u64(buf, *epoch);
            }
        }
    }

    /// Decode the fields of the message kind behind `tag`.
    fn get(tag: u8, r: &mut Reader<'_>) -> Result<Message> {
        Ok(match tag {
            MSG_BATCH => Message::Batch { origin: r.u32()? as NodeId, chunk: codec::get_chunk(r)? },
            MSG_EOS => Message::Eos,
            MSG_WATERMARK => Message::Watermark {
                origin: r.u32()? as NodeId,
                from_task: r.u32()? as usize,
                ts: r.u64()?,
            },
            MSG_BARRIER => Message::Barrier { epoch: r.u64()? },
            tag => return Err(codec::unknown_tag("Message", tag)),
        })
    }
}

/// The payload of [`Frame::Fanout`]: rows for tasks
/// `first_task..first_task + targets`, all emitted by `origin`, and per row
/// `targets.div_ceil(8)` mask bytes whose bit `j` (byte `j / 8`, bit
/// `j % 8`) sends the row to task `first_task + j`.
#[derive(Debug, Clone)]
pub struct FanoutBatch {
    pub first_task: TaskId,
    pub targets: usize,
    pub origin: NodeId,
    pub chunk: Chunk,
    pub mask: Vec<u8>,
}

squall_common::wire_struct! {
    FanoutBatch { first_task as u32, targets as u32, origin as u32, chunk, mask }
    check FanoutBatch::checked
}

impl FanoutBatch {
    fn width(&self) -> usize {
        self.targets.div_ceil(8)
    }

    /// A mask of exactly one row of `width` bytes per chunk row, with no
    /// bit at or past `targets`: what a sender writes. Anything else is a
    /// typed error here, not an out-of-range index in the recv pump.
    fn checked(&self) -> Result<()> {
        let (width, rows) = (self.width(), self.chunk.n_rows());
        // The bits of a row's last byte that no target owns.
        let past = u8::MAX.checked_shl((self.targets + 8 - width * 8) as u32).unwrap_or(0);
        let fits = width > 0
            && rows.checked_mul(width) == Some(self.mask.len())
            && self.mask.chunks_exact(width).all(|row| row[width - 1] & past == 0);
        match fits {
            true => Ok(()),
            false => Err(SquallError::Codec(format!(
                "fan-out mask of {} bytes does not fit {rows} rows to {} tasks",
                self.mask.len(),
                self.targets
            ))),
        }
    }

    /// Split into one [`Message::Batch`] per task that takes rows, handed to
    /// `deliver` in task order; each keeps the rows' order. `rows` is
    /// scratch: one row list per target.
    fn split(self, rows: &mut Vec<Vec<u32>>, mut deliver: impl FnMut(TaskId, Message)) {
        rows.resize_with(rows.len().max(self.targets), Vec::new);
        let rows = &mut rows[..self.targets];
        rows.iter_mut().for_each(Vec::clear);
        for (r, bytes) in self.mask.chunks_exact(self.width()).enumerate() {
            for (byte, &bits) in bytes.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    rows[byte * 8 + bits.trailing_zeros() as usize].push(r as u32);
                    bits &= bits - 1;
                }
            }
        }
        for (j, taken) in rows.iter().enumerate().filter(|(_, taken)| !taken.is_empty()) {
            let chunk = self.chunk.take(taken);
            deliver(self.first_task + j, Message::Batch { origin: self.origin, chunk });
        }
    }
}

/// The sending side of [`Frame::Fanout`]: one sender task's scatter buffer
/// for the target tasks `first_task..first_task + targets` of an edge, all
/// on one remote peer. Each row routed to any of them is buffered once, with
/// its mask bytes, and the buffer ships as one frame straight onto the
/// peer's egress queue. It flushes at `batch_size` copies per target of the
/// run, so each task's share still averages `batch_size` rows.
pub(crate) struct PeerFanout {
    origin: NodeId,
    first_task: TaskId,
    targets: usize,
    link: Arc<Egress>,
    buffer: Chunk,
    mask: Vec<u8>,
    /// Copies buffered: the set bits of `mask`.
    copies: usize,
    /// The edge's `seq` of the last row buffered, so a row several targets
    /// of the run take is buffered once.
    row: u64,
}

impl PeerFanout {
    /// The target tasks this buffer ships for.
    pub(crate) fn tasks(&self) -> std::ops::Range<TaskId> {
        self.first_task..self.first_task + self.targets
    }

    /// Buffer the edge's row `seq` for `task`, one of [`PeerFanout::tasks`].
    pub(crate) fn push(&mut self, seq: u64, task: TaskId, row: &[Value], gated: &mut bool) {
        let width = self.targets.div_ceil(8);
        if self.row != seq {
            if !self.buffer.accepts(row) {
                self.flush(gated);
            }
            self.row = seq;
            self.buffer.push(row);
            self.mask.resize(self.mask.len() + width, 0);
        }
        let j = task - self.first_task;
        let at = self.mask.len() - width + j / 8;
        self.mask[at] |= 1 << (j % 8);
        self.copies += 1;
    }

    /// Ship the buffer once it holds `batch_size` copies per target.
    pub(crate) fn flush_full(&mut self, batch_size: usize, gated: &mut bool) {
        if self.copies >= batch_size * self.targets {
            self.flush(gated);
        }
    }

    /// Ship whatever is buffered; set `gated` if that overfills the link.
    pub(crate) fn flush(&mut self, gated: &mut bool) {
        if self.buffer.is_empty() {
            return;
        }
        let next = Vec::with_capacity(self.mask.len());
        let mask = std::mem::replace(&mut self.mask, next);
        self.copies = 0;
        let (origin, first_task, targets) = (self.origin, self.first_task, self.targets);
        let chunk = self.buffer.finish();
        self.link.push(Frame::Fanout(FanoutBatch { first_task, targets, origin, chunk, mask }));
        if self.link.over_capacity() {
            *gated = true;
        }
    }
}

impl Frame {
    /// Rows a data frame carries (`None` for any other frame): one per row
    /// of a fan-out batch, however many tasks it goes to.
    fn data_rows(&self) -> Option<usize> {
        match self {
            Frame::Deliver { msg: Message::Batch { chunk, .. }, .. } => Some(chunk.n_rows()),
            Frame::Fanout(batch) => Some(batch.chunk.n_rows()),
            _ => None,
        }
    }

    /// Write this frame, length-prefixed. Returns the bytes written.
    pub fn write_to(&self, w: &mut impl Write) -> Result<usize> {
        let payload = self.encode();
        codec::write_frame(w, &payload)?;
        Ok(4 + payload.len())
    }

    /// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
    fn read_from(r: &mut impl std::io::Read) -> Result<Option<(Frame, usize)>> {
        match codec::read_frame(r)? {
            None => Ok(None),
            Some(payload) => {
                let n = 4 + payload.len();
                Ok(Some((Frame::decode(&payload)?, n)))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Egress queues
// ---------------------------------------------------------------------

/// The bounded per-peer outbound queue: the same [`GateQueue`] as a local
/// inbox. Producer tasks push without blocking (parking cooperatively
/// when over capacity); the single consumer is the peer's send pump
/// thread, which *does* block ([`GateQueue::pop_wait`]) — it has nothing
/// else to do.
type Egress = GateQueue<Frame>;

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

/// Established, handshaken sockets for one run: `links[p]` is the one
/// socket shared with peer `p`, carrying frames both ways. The lower peer
/// index dialed it: the coordinator (peer 0) dialed every worker and sent
/// the job on it; worker `i` dialed every worker above it and named itself
/// with [`Frame::Hello`]. Built by the driver's cluster handshake
/// ([`ClusterLinks::coordinator`] / [`ClusterLinks::worker`]), consumed by
/// [`crate::Topology::launch_cluster`].
pub struct ClusterLinks {
    pub me: usize,
    pub peer_labels: Vec<String>,
    /// Where arriving [`Frame::SnapshotBlob`]s are delivered as
    /// `(role, task, epoch, payload)` — set by the checkpointing
    /// coordinator before launch; `None` discards them.
    pub blob_tx: Option<Sender<SnapshotBlobMsg>>,
    /// Failure-detector patience: when set, the pumps exchange
    /// [`Frame::Heartbeat`]s on idle links (at a quarter of this period)
    /// and arm a read deadline — a peer silent for this long is declared
    /// [`SquallError::WorkerLost`]. `None` (the default) keeps the
    /// pre-checkpointing behaviour: only a closed socket fails the run.
    pub heartbeat: Option<Duration>,
    pub(crate) links: Vec<Option<TcpStream>>,
}

/// Handshake patience: how long the cluster handshake waits for an
/// expected peer connection (or its first frame) before failing the run.
/// A peer that dies mid-handshake must surface a typed error, not hang
/// the coordinator; dial retries use the same budget.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Accept one connection, giving up at `deadline` (the listener polls in
/// non-blocking mode and is restored to blocking either way).
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> Result<TcpStream> {
    listener.set_nonblocking(true).map_err(SquallError::from)?;
    // Poll fast at first (a peer dialing right now lands within
    // microseconds), backing off to 5 ms for one that is still starting.
    let mut nap = Duration::from_micros(50);
    let outcome = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break Err(SquallError::Io(
                        "timed out waiting for a cluster peer to connect".into(),
                    ));
                }
                std::thread::sleep(nap);
                nap = (nap * 2).min(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e.into()),
        }
    };
    listener.set_nonblocking(false).ok();
    let stream = outcome?;
    stream.set_nonblocking(false).map_err(SquallError::from)?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// Read one frame with a temporary read timeout (cleared afterwards, so
/// the stream can go on to serve the run's data plane). Exact reads off
/// the raw stream — a frame racing in behind this one stays queued.
pub fn read_frame_deadline(
    stream: &TcpStream,
    deadline: Instant,
) -> Result<Option<(Frame, usize)>> {
    let budget = deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(10));
    stream.set_read_timeout(Some(budget)).map_err(SquallError::from)?;
    let out = Frame::read_from(&mut (&*stream));
    stream.set_read_timeout(None).ok();
    out
}

/// Dial `addr`, retrying while the listener comes up (worker processes
/// race the coordinator at startup).
fn connect_with_retry(addr: &str, timeout: Duration) -> Result<TcpStream> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => {
                if start.elapsed() > timeout {
                    return Err(SquallError::Io(format!("connect {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

impl ClusterLinks {
    /// Coordinator-side handshake: dial every worker and send its `Job` frame
    /// on the stream that then carries the data plane both ways. The
    /// coordinator listens for nothing.
    ///
    /// `peer_labels[0]` labels the coordinator; the rest are the workers'
    /// addresses, dialed in peer order with `jobs[peer - 1]`.
    pub fn coordinator(peer_labels: Vec<String>, jobs: Vec<Vec<u8>>) -> Result<ClusterLinks> {
        let n_peers = peer_labels.len();
        assert_eq!(n_peers, jobs.len() + 1);
        let mut links = vec![None];
        for (peer, job) in (1..n_peers).zip(jobs) {
            let mut stream = connect_with_retry(&peer_labels[peer], HANDSHAKE_TIMEOUT)?;
            Frame::Job { payload: job }.write_to(&mut stream)?;
            links.push(Some(stream));
        }
        // Launch only once every worker has answered its job with `Hello`
        // (sent once it has rebuilt its slice and dialed the workers above
        // it): the link's heartbeat clock starts at launch, and a
        // re-admitted worker may still be tearing down its last job.
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        for (peer, stream) in links.iter().enumerate().skip(1) {
            match read_frame_deadline(stream.as_ref().expect("dialed above"), deadline)? {
                Some((Frame::Hello { peer: p }, _)) if p == peer => {}
                other => {
                    let addr = &peer_labels[peer];
                    return Err(SquallError::Io(format!(
                        "worker {addr} answered its job: {other:?}"
                    )));
                }
            }
        }
        Ok(ClusterLinks { me: 0, peer_labels, blob_tx: None, heartbeat: None, links })
    }

    /// Worker-side handshake, one accept loop on `listener`: the
    /// coordinator's job connection and the links the workers below this
    /// one dialed, each named by its `Hello`, in whichever order they land.
    /// When the `Job` lands, `on_job` gets its payload and returns this
    /// worker's index, the peer labels and what it built from the job. This worker then dials every
    /// worker above it, naming itself with `Hello` on each, and answers the
    /// job with `Hello` while the lower workers' links may still be on their
    /// way. The job may take forever to come; after it, the lower workers
    /// have the handshake budget. A `Hello` from the coordinator's index,
    /// from this worker or one above it, or from a peer seen twice is a
    /// typed error.
    pub fn worker<T>(
        listener: &TcpListener,
        mut on_job: impl FnMut(&[u8]) -> Result<(usize, Vec<String>, T)>,
    ) -> Result<(ClusterLinks, T)> {
        let mut lower: Vec<(usize, TcpStream)> = Vec::new();
        let mut started: Option<(ClusterLinks, T, Instant)> = None;
        let (mut links, built) = loop {
            let stream = match started.take() {
                Some((links, built, _)) if lower.len() + 1 >= links.me => break (links, built),
                Some(job @ (.., deadline)) => {
                    started = Some(job);
                    accept_with_deadline(listener, deadline)?
                }
                None => listener.accept()?.0,
            };
            stream.set_nodelay(true).ok();
            // First frame with a deadline (a connection that sends nothing
            // must not wedge the worker), exact reads straight off the
            // stream: a frame racing in behind the handshake must stay in
            // the socket for the recv pump.
            let deadline =
                started.as_ref().map_or_else(|| Instant::now() + HANDSHAKE_TIMEOUT, |job| job.2);
            match read_frame_deadline(&stream, deadline)? {
                Some((Frame::Job { payload }, _)) if started.is_none() => {
                    let (me, peer_labels, built) = on_job(&payload)?;
                    let n_peers = peer_labels.len();
                    assert!(me >= 1 && me < n_peers);
                    let mut links: Vec<Option<TcpStream>> = (0..n_peers).map(|_| None).collect();
                    for peer in me + 1..n_peers {
                        let mut link = connect_with_retry(&peer_labels[peer], HANDSHAKE_TIMEOUT)?;
                        Frame::Hello { peer: me }.write_to(&mut link)?;
                        links[peer] = Some(link);
                    }
                    Frame::Hello { peer: me }.write_to(&mut &stream)?;
                    links[0] = Some(stream);
                    let links =
                        ClusterLinks { me, peer_labels, blob_tx: None, heartbeat: None, links };
                    started = Some((links, built, Instant::now() + HANDSHAKE_TIMEOUT));
                }
                Some((Frame::Hello { peer }, _)) => lower.push((peer, stream)),
                other => {
                    return Err(SquallError::Runtime(format!(
                        "expected Job or Hello from a cluster peer, got {other:?}"
                    )))
                }
            }
        };
        for (peer, stream) in lower {
            if peer == 0 || peer >= links.me || links.links[peer].replace(stream).is_some() {
                return Err(SquallError::Runtime(format!("bad or duplicate hello from {peer}")));
            }
        }
        Ok((links, built))
    }
}

/// Per-peer wire counters, updated by the pumps.
#[derive(Debug, Default)]
pub(crate) struct PeerWire {
    pub(crate) batches_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) batches_received: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) rows_sent: AtomicU64,
    pub(crate) rows_received: AtomicU64,
    pub(crate) fanouts_sent: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) recv_congested_ns: AtomicU64,
    /// Highest checkpoint epoch this peer has advertised (via heartbeats)
    /// — the "last seen alive at" epoch reported when the peer is lost.
    pub(crate) last_epoch: AtomicU64,
}

/// Frozen per-peer wire traffic for one run (the distributed analog of
/// the paper's network-factor monitoring): batches are data frames — a
/// `Deliver` carrying a `Batch`, or a `Fanout` (`fanouts_sent` of them) —
/// and rows the rows they carry, a fan-out row once however many tasks it
/// goes to; bytes count every frame on the link, punctuation included.
/// `flushes` counts explicit flushes of a non-empty send buffer,
/// `recv_congested_ns` the time the recv pump held a batch for a full inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerWireStats {
    pub peer: usize,
    pub label: String,
    pub batches_sent: u64,
    pub bytes_sent: u64,
    pub batches_received: u64,
    pub bytes_received: u64,
    pub rows_sent: u64,
    pub rows_received: u64,
    pub fanouts_sent: u64,
    pub flushes: u64,
    pub recv_congested_ns: u64,
}

/// All peers' wire traffic as observed by this process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportStats {
    pub peers: Vec<PeerWireStats>,
}

impl TransportStats {
    pub fn total_bytes_sent(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes_sent).sum()
    }

    pub fn total_bytes_received(&self) -> u64 {
        self.peers.iter().map(|p| p.bytes_received).sum()
    }

    pub fn total_batches_sent(&self) -> u64 {
        self.peers.iter().map(|p| p.batches_sent).sum()
    }
}

impl std::fmt::Display for TransportStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.peers {
            let PeerWireStats { peer, label, batches_sent, bytes_sent, rows_sent, .. } = p;
            let PeerWireStats { batches_received, bytes_received, rows_received, .. } = p;
            let PeerWireStats { fanouts_sent, flushes, recv_congested_ns, .. } = p;
            writeln!(
                f,
                "  peer {peer} ({label}): sent {rows_sent} rows in {batches_sent} batches \
                 ({fanouts_sent} fan-out) / {bytes_sent} B in {flushes} flushes, received \
                 {rows_received} rows in {batches_received} batches / {bytes_received} B \
                 ({recv_congested_ns} ns congested)"
            )?;
        }
        Ok(())
    }
}

/// The TCP backend: local targets hit their inbox, remote targets are
/// framed into the owning peer's egress queue.
pub struct TcpTransport {
    local: LocalTransport,
    me: usize,
    peer_of_task: Vec<usize>,
    egress: Vec<Option<Arc<Egress>>>,
}

impl Transport for TcpTransport {
    fn send(&self, to: TaskId, msg: Message) {
        let peer = self.peer_of_task[to];
        if peer == self.me {
            return self.local.send(to, msg);
        }
        let q = self.egress[peer].as_ref().expect("no link to peer");
        q.push(Frame::Deliver { to_task: to, msg });
    }

    fn congested(&self, to: TaskId) -> bool {
        let peer = self.peer_of_task[to];
        if peer == self.me {
            self.local.congested(to)
        } else {
            self.egress[peer].as_ref().expect("no link to peer").over_capacity()
        }
    }

    fn register_waiter(&self, to: TaskId, sender: TaskId) -> bool {
        let peer = self.peer_of_task[to];
        if peer == self.me {
            self.local.register_waiter(to, sender)
        } else {
            self.egress[peer].as_ref().expect("no link to peer").register_waiter(sender)
        }
    }
}

impl TcpTransport {
    /// The fan-out buffers of an edge from `origin` into tasks
    /// `first..first + n`: one per run of two or more of them on one remote
    /// peer (there is no link to this one). `plan_placement` keeps a node's
    /// tasks on a peer contiguous, so that is one per peer hosting two or
    /// more.
    pub(crate) fn fanouts(&self, origin: NodeId, first: TaskId, n: usize) -> Vec<PeerFanout> {
        let mut fanouts = Vec::new();
        let mut first_task = first;
        for run in self.peer_of_task[first..first + n].chunk_by(|a, b| a == b) {
            if let (true, Some(link)) = (run.len() > 1, &self.egress[run[0]]) {
                let (link, targets, copies, row) = (Arc::clone(link), run.len(), 0, u64::MAX);
                let (buffer, mask) = (Chunk::empty(), Vec::new());
                let fanout =
                    PeerFanout { origin, first_task, targets, link, buffer, mask, copies, row };
                fanouts.push(fanout);
            }
            first_task += run.len();
        }
        fanouts
    }
}

// ---------------------------------------------------------------------
// The per-run cluster data plane (pumps + remote state)
// ---------------------------------------------------------------------

#[derive(Default)]
struct RemoteState {
    metrics: Vec<MetricsSnapshot>,
    error: Option<SquallError>,
}

/// Everything a run finished with, cluster-wise.
#[derive(Debug)]
pub struct ClusterSummary {
    /// Metric snapshots reported by remote peers (coordinator only; each
    /// covers the full topology with non-local counters at zero — merge
    /// them with [`MetricsSnapshot::merge`]).
    pub remote_metrics: Vec<MetricsSnapshot>,
    /// First error reported by a remote peer, if any.
    pub remote_error: Option<SquallError>,
    /// Wire traffic per peer as seen from this process.
    pub transport: TransportStats,
}

/// The live cluster side of a launched run: per-peer egress queues and
/// pump threads. Finish it *after* joining the local worker pool (all
/// local punctuation is then queued) — [`ClusterRun::finish`] drains the
/// queues, closes the links and collects remote reports.
pub struct ClusterRun {
    me: usize,
    peer_labels: Vec<String>,
    egress: Vec<Option<Arc<Egress>>>,
    send_pumps: Vec<JoinHandle<()>>,
    recv_pumps: Vec<JoinHandle<()>>,
    remote: Arc<Mutex<RemoteState>>,
    wire: Arc<Vec<PeerWire>>,
    shared: Arc<Shared>,
}

/// A cheap, clonable handle pushing control-plane frames (snapshot blobs)
/// onto one peer link from *outside* the worker pool — how a worker's
/// checkpoint forwarder ships aligned state to the coordinator. Frames are
/// ordered after everything already queued on the link.
#[derive(Clone)]
pub struct FrameSender {
    q: Arc<Egress>,
}

impl FrameSender {
    /// Queue `frame` for the link's send pump.
    pub fn send(&self, frame: Frame) {
        self.q.push(frame);
    }
}

impl ClusterRun {
    /// A [`FrameSender`] onto the coordinator link (`None` on the
    /// coordinator itself, which has no link to peer 0).
    pub fn frame_sender(&self) -> Option<FrameSender> {
        self.egress[0].as_ref().map(|q| FrameSender { q: Arc::clone(q) })
    }

    /// Forward a local sink emission to the coordinator (worker side).
    pub fn forward_sink(&self, node: NodeId, tuple: Tuple) {
        debug_assert_ne!(self.me, 0, "the coordinator collects sinks directly");
        if let Some(q) = self.egress[0].as_ref() {
            q.push(Frame::SinkRow { node, tuple });
        }
    }

    /// Raise the run-abort flag; the send pumps broadcast it to peers.
    pub fn abort(&self) {
        self.shared.raise(SquallError::Runtime("run cancelled".into()));
    }

    /// Drain and close every link and collect the remote reports. Workers
    /// pass their final `(metrics, error)` to ship a `Done` frame to the
    /// coordinator first.
    pub fn finish(
        mut self,
        done: Option<(MetricsSnapshot, Option<SquallError>)>,
    ) -> ClusterSummary {
        if let Some((metrics, error)) = done {
            if let Some(q) = self.egress[0].as_ref() {
                q.push(Frame::Done { metrics, error });
            }
        }
        self.shutdown();
        let mut remote = self.remote.lock().expect("remote state poisoned");
        ClusterSummary {
            remote_metrics: std::mem::take(&mut remote.metrics),
            remote_error: remote.error.take(),
            transport: TransportStats {
                peers: self
                    .wire
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != self.me)
                    .map(|(p, w)| PeerWireStats {
                        peer: p,
                        label: self.peer_labels[p].clone(),
                        batches_sent: w.batches_sent.load(Ordering::Relaxed),
                        bytes_sent: w.bytes_sent.load(Ordering::Relaxed),
                        batches_received: w.batches_received.load(Ordering::Relaxed),
                        bytes_received: w.bytes_received.load(Ordering::Relaxed),
                        rows_sent: w.rows_sent.load(Ordering::Relaxed),
                        rows_received: w.rows_received.load(Ordering::Relaxed),
                        fanouts_sent: w.fanouts_sent.load(Ordering::Relaxed),
                        flushes: w.flushes.load(Ordering::Relaxed),
                        recv_congested_ns: w.recv_congested_ns.load(Ordering::Relaxed),
                    })
                    .collect(),
            },
        }
    }

    fn shutdown(&mut self) {
        for q in self.egress.iter().flatten() {
            q.push(Frame::Goodbye);
        }
        for h in self.send_pumps.drain(..) {
            let _ = h.join();
        }
        for h in self.recv_pumps.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ClusterRun {
    fn drop(&mut self) {
        if self.send_pumps.is_empty() && self.recv_pumps.is_empty() {
            return; // finished
        }
        // Abandoned mid-run (e.g. a dropped streaming ResultSet): abort so
        // peers drain, then close out. The local pool was already joined —
        // RunHandle precedes ClusterRun in every owner, so its Drop ran
        // first and all local punctuation is queued.
        self.shared.raise(SquallError::Runtime("run cancelled".into()));
        self.shutdown();
    }
}

/// Wiring shared by the pump spawner: built by `launch_cluster`.
pub(crate) struct ClusterWiring {
    pub(crate) inboxes: Vec<Option<Arc<Inbox>>>,
    pub(crate) sched: Arc<Sched>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) sink_tx: Sender<(NodeId, Tuple)>,
    pub(crate) channel_capacity: usize,
    /// Per peer: how many `Eos` each *local* task is owed by that peer's
    /// tasks — used to synthesize punctuation if a peer crashes, so the
    /// run fails with an error instead of hanging.
    pub(crate) eos_owed: Vec<Vec<(TaskId, usize)>>,
}

pub(crate) fn spawn_cluster(
    links: ClusterLinks,
    placement: &Placement,
    wiring: ClusterWiring,
) -> (Arc<TcpTransport>, ClusterRun) {
    let ClusterLinks { me, peer_labels, blob_tx, heartbeat, links } = links;
    let n_peers = placement.n_peers;
    let wire: Arc<Vec<PeerWire>> = Arc::new((0..n_peers).map(|_| PeerWire::default()).collect());
    let remote: Arc<Mutex<RemoteState>> = Arc::new(Mutex::new(RemoteState::default()));

    // Each link is one socket, shared by its send pump and its recv pump.
    let mut egress: Vec<Option<Arc<Egress>>> = (0..n_peers).map(|_| None).collect();
    let mut send_pumps = Vec::new();
    let mut recv_pumps = Vec::new();
    for (peer, stream) in links.into_iter().enumerate() {
        let Some(stream) = stream.map(Arc::new) else { continue };
        let pump = RecvPump {
            stream: Arc::clone(&stream),
            peer,
            peer_label: peer_labels[peer].clone(),
            local: LocalTransport::new(wiring.inboxes.clone(), Arc::clone(&wiring.sched)),
            // Only the coordinator collects remote sink rows into the run's
            // output channel; worker-held clones would keep it open forever.
            sink_tx: (me == 0).then(|| wiring.sink_tx.clone()),
            blob_tx: blob_tx.clone(),
            heartbeat,
            eos_owed: wiring.eos_owed[peer].clone(),
        };
        let q = Arc::new(Egress::new(wiring.channel_capacity));
        egress[peer] = Some(Arc::clone(&q));
        let (sched, shared) = (Arc::clone(&wiring.sched), Arc::clone(&wiring.shared));
        let w = Arc::clone(&wire);
        send_pumps.push(
            std::thread::Builder::new()
                .name(format!("squall-send-{me}-{peer}"))
                .spawn(move || send_pump(stream, peer, &q, &sched, &shared, &w, heartbeat))
                .expect("spawn send pump"),
        );
        let (shared, remote, w) =
            (Arc::clone(&wiring.shared), Arc::clone(&remote), Arc::clone(&wire));
        recv_pumps.push(
            std::thread::Builder::new()
                .name(format!("squall-recv-{me}-{peer}"))
                .spawn(move || pump.run(&shared, &remote, &w))
                .expect("spawn recv pump"),
        );
    }
    drop(wiring.sink_tx);

    let transport = Arc::new(TcpTransport {
        local: LocalTransport::new(wiring.inboxes, Arc::clone(&wiring.sched)),
        me,
        peer_of_task: placement.peer_of_task.clone(),
        egress: egress.clone(),
    });
    let run = ClusterRun {
        me,
        peer_labels,
        egress,
        send_pumps,
        recv_pumps,
        remote,
        wire,
        shared: wiring.shared,
    };
    (transport, run)
}

fn send_pump(
    stream: Arc<TcpStream>,
    peer: usize,
    q: &Egress,
    sched: &Sched,
    shared: &Shared,
    wire: &[PeerWire],
    heartbeat: Option<Duration>,
) {
    // Beat at a quarter of the detector's patience so a healthy link is
    // never declared dead merely for being idle.
    let beat_every = heartbeat.map(|t| (t / 4).max(Duration::from_millis(5)));
    let mut last_beat = Instant::now();
    let mut w = BufWriter::new(&*stream);
    let counters = &wire[peer];
    // Every frame written and every write-out of buffered ones is counted.
    let write = |frame: &Frame, w: &mut BufWriter<&TcpStream>| -> Result<()> {
        let n = frame.write_to(w)?;
        counters.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    };
    let flush = |w: &mut BufWriter<&TcpStream>| -> bool {
        counters.flushes.fetch_add(u64::from(!w.buffer().is_empty()), Ordering::Relaxed);
        w.flush().is_ok()
    };
    let mut abort_sent = false;
    let mut broken = false;
    let mut wake = Vec::new();
    loop {
        if !abort_sent && !broken && shared.is_aborted() {
            let error =
                shared.error_clone().unwrap_or_else(|| SquallError::Runtime("aborted".into()));
            abort_sent = true;
            broken = write(&Frame::Abort { error }, &mut w).is_err() || !flush(&mut w);
        }
        // Under load frames coalesce in the buffer; the pop that finds the
        // queue dry pushes them onto the wire before the pump blocks, so the
        // last frame of a burst never waits. The blocking wait's timeout
        // only polls the abort flag and the heartbeat: a push wakes it.
        let mut frame = q.pop(&mut wake);
        if frame.is_none() {
            broken = broken || !flush(&mut w);
            frame = q.pop_wait(Duration::from_millis(20), &mut wake);
        }
        for t in wake.drain(..) {
            sched.notify(t);
        }
        match frame {
            Some(frame) => {
                // `Goodbye` is queued by `ClusterRun::shutdown` once all
                // local producers are done: it ends the stream, and failing
                // to write it to a peer that is gone fails nothing.
                let last = matches!(frame, Frame::Goodbye);
                // A broken link keeps draining so producers never park
                // forever.
                if !broken {
                    match write(&frame, &mut w) {
                        Ok(()) => {
                            if let Some(rows) = frame.data_rows() {
                                counters.batches_sent.fetch_add(1, Ordering::Relaxed);
                                counters.rows_sent.fetch_add(rows as u64, Ordering::Relaxed);
                            }
                            if matches!(frame, Frame::Fanout(_)) {
                                counters.fanouts_sent.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) if last => {}
                        Err(e) => {
                            broken = true;
                            shared.raise(SquallError::Io(format!("send to peer {peer}: {e}")));
                        }
                    }
                }
                if last {
                    break;
                }
            }
            None => {
                // Idle for a whole poll: beat if the failure detector is
                // armed (data flowing counts as liveness by itself, so busy
                // links skip the beacon). The next pass flushes it.
                if let Some(every) = beat_every {
                    if !broken && last_beat.elapsed() >= every {
                        last_beat = Instant::now();
                        let epoch = shared.epoch.load(Ordering::Relaxed);
                        broken = write(&Frame::Heartbeat { epoch }, &mut w).is_err();
                    }
                }
            }
        }
    }
    flush(&mut w);
}

/// Everything one inbound-link pump owns (bundled so the spawn site stays
/// under the argument-count lint and the failure path has the peer's
/// label at hand).
struct RecvPump {
    stream: Arc<TcpStream>,
    peer: usize,
    peer_label: String,
    /// Delivery to this process's inboxes: an arriving message takes the
    /// same push-and-wake path as one sent by a local task.
    local: LocalTransport,
    sink_tx: Option<Sender<(NodeId, Tuple)>>,
    blob_tx: Option<Sender<SnapshotBlobMsg>>,
    heartbeat: Option<Duration>,
    eos_owed: Vec<(TaskId, usize)>,
}

impl RecvPump {
    fn run(self, shared: &Shared, remote: &Mutex<RemoteState>, wire: &[PeerWire]) {
        let RecvPump { stream, peer, peer_label, local, sink_tx, blob_tx, heartbeat, eos_owed } =
            self;
        // Arm the failure detector: a link silent for the heartbeat
        // timeout fails the read (peers beat at a quarter of it, so only
        // a dead or wedged peer trips this).
        if let Some(timeout) = heartbeat {
            stream.set_read_timeout(Some(timeout)).ok();
        }
        let mut r = BufReader::new(&*stream);
        let counters = &wire[peer];
        // Stop reading while the destination is over capacity: TCP flow
        // control then pushes back on the sending peer. Abort lifts the
        // gate so drain-to-terminate always progresses, and punctuation
        // never waits (the pump reads sequentially, so it still lands after
        // the sender's earlier data).
        let deliver = |to_task: TaskId, msg: Message| {
            if matches!(msg, Message::Batch { .. }) && local.congested(to_task) {
                let start = Instant::now();
                while local.congested(to_task) && !shared.is_aborted() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let waited = start.elapsed().as_nanos() as u64;
                counters.recv_congested_ns.fetch_add(waited, Ordering::Relaxed);
            }
            local.send(to_task, msg);
        };
        // Data or punctuation, a message this peer has no task for would
        // otherwise be waited on forever: fail the run.
        let misaddressed = |to_task: TaskId| {
            shared.raise(SquallError::Runtime(format!(
                "peer {peer} addressed non-local task {to_task}"
            )));
        };
        let mut split_rows = Vec::new();
        let mut clean = false;
        loop {
            match Frame::read_from(&mut r) {
                Ok(Some((frame, n))) => {
                    counters.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
                    if let Some(rows) = frame.data_rows() {
                        counters.batches_received.fetch_add(1, Ordering::Relaxed);
                        counters.rows_received.fetch_add(rows as u64, Ordering::Relaxed);
                    }
                    match frame {
                        Frame::Deliver { to_task, msg } if local.hosts(to_task) => {
                            deliver(to_task, msg)
                        }
                        Frame::Deliver { to_task, .. } => misaddressed(to_task),
                        Frame::Fanout(batch) => {
                            let run = batch.first_task..batch.first_task + batch.targets;
                            match run.into_iter().find(|&t| !local.hosts(t)) {
                                Some(to_task) => misaddressed(to_task),
                                None => batch.split(&mut split_rows, deliver),
                            }
                        }
                        Frame::Heartbeat { epoch } => {
                            counters.last_epoch.fetch_max(epoch, Ordering::Relaxed);
                        }
                        Frame::SnapshotBlob { role, task, epoch, payload } => {
                            counters.last_epoch.fetch_max(epoch, Ordering::Relaxed);
                            if let Some(tx) = &blob_tx {
                                let _ = tx.send((role, task, epoch, payload));
                            }
                        }
                        Frame::SinkRow { node, tuple } => {
                            if let Some(tx) = &sink_tx {
                                let _ = tx.send((node, tuple));
                            }
                        }
                        Frame::Abort { error } => shared.raise(error),
                        Frame::Done { metrics, error } => {
                            let mut state = remote.lock().expect("remote state poisoned");
                            state.metrics.push(metrics);
                            if state.error.is_none() {
                                state.error = error;
                            }
                            clean = true;
                            break;
                        }
                        Frame::Goodbye => {
                            clean = true;
                            break;
                        }
                        Frame::Hello { .. } | Frame::Job { .. } => {
                            shared.raise(SquallError::Runtime(format!(
                                "unexpected handshake frame from peer {peer} mid-run"
                            )));
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Heartbeat silence is the failure detector firing,
                    // not a codec problem: skip the raise and let the
                    // unclean path below report the typed loss.
                    let silent = matches!(&e, SquallError::Io(m) if m == codec::READ_TIMED_OUT);
                    if !silent {
                        shared.raise(e);
                    }
                    break;
                }
            }
        }
        if !clean {
            // The peer vanished mid-run: fail the run with the typed loss
            // (recovery plans re-admission from it) and synthesize the
            // punctuation its tasks owed us, so every local task
            // terminates instead of waiting forever.
            let last_epoch = counters.last_epoch.load(Ordering::Relaxed);
            shared.raise(SquallError::WorkerLost { addr: peer_label, last_epoch });
            for (task, count) in eos_owed {
                for _ in 0..count {
                    local.send(task, Message::Eos);
                }
            }
        }
        drop(sink_tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{NodeMetrics, SchedulerStats};
    use squall_common::{tuple, Chunk};

    /// A connected loopback link: `(dialing end, accepted end)`.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        (dialer, accept_with_deadline(&listener, deadline).unwrap())
    }

    /// One message of every kind.
    fn every_kind() -> [Message; 4] {
        [
            Message::Batch {
                origin: 2,
                chunk: Chunk::from_tuples(&[tuple![1, "x"], tuple![2, "y"]]),
            },
            Message::Eos,
            Message::Watermark { origin: 2, from_task: 3, ts: 12345 },
            Message::Barrier { epoch: 9 },
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let mut frames = vec![
            Frame::Hello { peer: 3 },
            Frame::Job { payload: vec![1, 2, 3] },
            Frame::Heartbeat { epoch: 17 },
            Frame::SnapshotBlob { role: 1, task: 3, epoch: 9, payload: vec![9, 8, 7] },
            Frame::SinkRow { node: 4, tuple: tuple![42] },
            Frame::Abort {
                error: SquallError::MemoryOverflow { machine: 1, stored: 10, budget: 5 },
            },
            Frame::Goodbye,
        ];
        frames.extend(every_kind().map(|msg| Frame::Deliver { to_task: 7, msg }));
        for f in frames {
            let encoded = f.encode();
            let decoded = Frame::decode(&encoded).unwrap();
            assert_eq!(format!("{f:?}"), format!("{decoded:?}"));
            // A frame cut short anywhere is a typed error, never a panic.
            for cut in 0..encoded.len() {
                match Frame::decode(&encoded[..cut]) {
                    Err(SquallError::Codec(_)) => {}
                    other => panic!("{f:?} cut at {cut}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn retired_readmit_tag_is_unknown() {
        // Tag 12 was a recovery preface that repeated the job's own fields.
        match Frame::decode(&[12, 2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]) {
            Err(SquallError::Codec(m)) => assert_eq!(m, "unknown Frame tag 12"),
            other => panic!("expected an unknown-tag error, got {other:?}"),
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn deliver_frames_match_golden_bytes() {
        // The data plane's bytes are a contract between builds: a batch with
        // a dictionary-coded Int column beside a Null one, a batch of plain
        // Int / Str (with a validity bitmap) / Float / Date columns, and
        // each punctuation kind, all to task 7.
        use squall_common::{Date, Value};
        let dict: Vec<Tuple> = (0..64i64).map(|i| tuple![i % 3, Value::Null]).collect();
        let plain = [tuple![7, "ab", 0.5, Date(3)], tuple![-1, Value::Null, 2.0, Date(-4)]];
        let golden = [
            (
                Message::Batch { origin: 2, chunk: Chunk::from_tuples(&dict) },
                concat!(
                    "02070000000200000040000000020000000101005d000000030000000000000000000000",
                    "010000000000000002000000000000000100010200010200010200010200010200010200",
                    "010200010200010200010200010200010200010200010200010200010200010200010200",
                    "01020001020001020000000000000000",
                ),
            ),
            (
                Message::Batch { origin: 1, chunk: Chunk::from_tuples(&plain) },
                concat!(
                    "0207000000010000000200000004000000010000100000000700000000000000ffffffff",
                    "ffffffff0300011600000001000000000000000200000061620200000002000000020000",
                    "10000000000000000000e03f00000000000000400400000800000003000000fcffffff",
                ),
            ),
            (Message::Eos, "0307000000"),
            (
                Message::Watermark { origin: 2, from_task: 3, ts: 12345 },
                "080700000002000000030000003930000000000000",
            ),
            (Message::Barrier { epoch: 9 }, "09070000000900000000000000"),
        ];
        for (msg, want) in golden {
            let got = hex(&Frame::Deliver { to_task: 7, msg: msg.clone() }.encode());
            assert_eq!(got, want, "{msg:?}");
        }
    }

    /// Rows `[1, "x"]` and `[2, NULL]` for tasks 4..14 (two mask bytes per
    /// row): the first to tasks 4, 6 and 13, the second to 11 and 12.
    fn fanout_batch() -> FanoutBatch {
        use squall_common::Value;
        FanoutBatch {
            first_task: 4,
            targets: 10,
            origin: 2,
            chunk: Chunk::from_tuples(&[tuple![1, "x"], tuple![2, Value::Null]]),
            mask: vec![0b101, 0b10, 0b1000_0000, 0b1],
        }
    }

    #[test]
    fn fanout_frames_match_golden_bytes() {
        // Tag 13, first task, target count, origin, the columnar chunk, then
        // the mask as a counted byte run.
        let want = concat!(
            "0d040000000a000000020000000200000002000000010000100000000100000000000000",
            "020000000000000003000115000000010000000000000001000000780100000001000000",
            "0400000005028001",
        );
        let frame = Frame::Fanout(fanout_batch());
        let bytes = frame.encode();
        assert_eq!(hex(&bytes), want);
        assert_eq!(format!("{:?}", Frame::decode(&bytes).unwrap()), format!("{frame:?}"));
        for cut in 0..bytes.len() {
            assert!(matches!(Frame::decode(&bytes[..cut]), Err(SquallError::Codec(_))), "{cut}");
        }
    }

    #[test]
    fn hostile_fanout_masks_are_codec_errors() {
        let short = FanoutBatch { mask: vec![0b101, 0b10, 0b1000_0000], ..fanout_batch() };
        let long = FanoutBatch { mask: vec![0; 6], ..fanout_batch() };
        let past_count =
            FanoutBatch { mask: vec![0b101, 0b110, 0b1000_0000, 0b1], ..fanout_batch() };
        let no_targets = FanoutBatch { targets: 0, mask: Vec::new(), ..fanout_batch() };
        let whole_byte = FanoutBatch { targets: 8, mask: vec![0b1000_0001, 0b1], ..fanout_batch() };
        for bad in [short, long, past_count, no_targets] {
            match Frame::decode(&Frame::Fanout(bad.clone()).encode()) {
                Err(SquallError::Codec(_)) => {}
                other => panic!("{bad:?} decoded as {other:?}"),
            }
        }
        assert!(Frame::decode(&Frame::Fanout(whole_byte).encode()).is_ok());
    }

    #[test]
    fn recv_pump_splits_a_fanout_into_a_batch_per_task() {
        let (mut dialer, stream) = loopback();
        Frame::Fanout(fanout_batch()).write_to(&mut dialer).unwrap();
        Frame::Goodbye.write_to(&mut dialer).unwrap();
        let inboxes: Vec<Option<Arc<Inbox>>> =
            (0..14).map(|t| (t >= 4).then(|| Arc::new(Inbox::new(4)))).collect();
        let wire = [PeerWire::default(), PeerWire::default()];
        let shared = Shared::new();
        RecvPump {
            stream: Arc::new(stream),
            peer: 1,
            peer_label: "worker".into(),
            local: LocalTransport::new(inboxes.clone(), idle_sched(14)),
            sink_tx: None,
            blob_tx: None,
            heartbeat: None,
            eos_owed: Vec::new(),
        }
        .run(&shared, &Mutex::new(RemoteState::default()), &wire);
        assert!(shared.error_clone().is_none());
        let got: Vec<(usize, Vec<Tuple>)> = (4..14)
            .filter_map(|t| match inboxes[t].as_ref().unwrap().pop(&mut Vec::new()) {
                Some(Message::Batch { origin: 2, chunk }) => Some((t, chunk.to_tuples())),
                Some(other) => panic!("task {t} got {other:?}"),
                None => None,
            })
            .collect();
        let (x, null) = (vec![tuple![1, "x"]], vec![tuple![2, squall_common::Value::Null]]);
        let want = vec![(4, x.clone()), (6, x.clone()), (11, null.clone()), (12, null), (13, x)];
        assert_eq!(got, want);
        assert_eq!(wire[1].batches_received.load(Ordering::Relaxed), 1);
        assert_eq!(wire[1].rows_received.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn control_frames_match_golden_bytes() {
        let metrics = MetricsSnapshot {
            nodes: vec![NodeMetrics {
                node: 1,
                name: "j".into(),
                received: vec![5],
                sent: vec![],
                emitted: vec![6, 7],
            }],
            scheduler: SchedulerStats {
                workers: 2,
                steals: 3,
                yields: 4,
                blocked: 5,
                max_queue_depth: 6,
            },
        };
        let golden = [
            (Frame::Hello { peer: 3 }, "0003000000"),
            (Frame::Job { payload: vec![1, 2, 3] }, "0103000000010203"),
            (Frame::Heartbeat { epoch: 17 }, "0a1100000000000000"),
            (
                Frame::SnapshotBlob { role: 1, task: 3, epoch: 9, payload: vec![9, 8, 7] },
                "0b0103000000090000000000000003000000090807",
            ),
            (
                Frame::SinkRow { node: 4, tuple: tuple![42, "x"] },
                "040400000002000000012a00000000000000030100000078",
            ),
            (
                Frame::Abort {
                    error: SquallError::MemoryOverflow { machine: 1, stored: 10, budget: 5 },
                },
                "050001000000000000000a000000000000000500000000000000",
            ),
            (
                Frame::Abort { error: SquallError::WorkerLost { addr: "w".into(), last_epoch: 8 } },
                "050a01000000770800000000000000",
            ),
            // A variant without a tag of its own crosses as its display text.
            (
                Frame::Abort { error: SquallError::DuplicateSource("R".into()) },
                concat!(
                    "05093f000000736f75726365205220697320616c72656164792072656769737465726564",
                    "20286465726567697374657220697420666972737420746f207265706c61636529",
                ),
            ),
            (
                Frame::Done { metrics: metrics.clone(), error: Some(SquallError::Io("x".into())) },
                concat!(
                    "06010000000100000000000000010000006a010000000500000000000000000000000200",
                    "000006000000000000000700000000000000020000000000000003000000000000000400",
                    "0000000000000500000000000000060000000000000001070100000078",
                ),
            ),
            (
                Frame::Done { metrics, error: None },
                concat!(
                    "06010000000100000000000000010000006a010000000500000000000000000000000200",
                    "000006000000000000000700000000000000020000000000000003000000000000000400",
                    "0000000000000500000000000000060000000000000000",
                ),
            ),
            (Frame::Goodbye, "07"),
        ];
        for (frame, want) in golden {
            assert_eq!(hex(&frame.encode()), want, "{frame:?}");
        }
    }

    #[test]
    fn misaddressed_messages_fail_the_run() {
        // Data or punctuation for a task this peer does not host is lost
        // input somebody downstream would wait on: every kind must raise.
        for msg in every_kind() {
            let (mut dialer, stream) = loopback();
            Frame::Deliver { to_task: 1, msg: msg.clone() }.write_to(&mut dialer).unwrap();
            Frame::Goodbye.write_to(&mut dialer).unwrap();
            let counters = crate::metrics::MetricsRegistry::new(vec!["n".into()], &[2]).sched();
            let shared = Shared::new();
            RecvPump {
                stream: Arc::new(stream),
                peer: 1,
                peer_label: "worker".into(),
                local: LocalTransport::new(
                    vec![None, None],
                    Arc::new(Sched::new(2, 1, counters, &[])),
                ),
                sink_tx: None,
                blob_tx: None,
                heartbeat: None,
                eos_owed: Vec::new(),
            }
            .run(
                &shared,
                &Mutex::new(RemoteState::default()),
                &[PeerWire::default(), PeerWire::default()],
            );
            match shared.error_clone() {
                Some(SquallError::Runtime(m)) if m.contains("non-local task 1") => {}
                other => panic!("{msg:?} to a non-local task raised {other:?}"),
            }
        }
    }

    #[test]
    fn a_fanout_to_a_non_local_task_fails_the_run() {
        // Tasks 4..14 with task 9 hosted elsewhere: nothing is delivered.
        let (mut dialer, stream) = loopback();
        Frame::Fanout(fanout_batch()).write_to(&mut dialer).unwrap();
        Frame::Goodbye.write_to(&mut dialer).unwrap();
        let inboxes: Vec<Option<Arc<Inbox>>> =
            (0..14).map(|t| (t >= 4 && t != 9).then(|| Arc::new(Inbox::new(4)))).collect();
        let shared = Shared::new();
        RecvPump {
            stream: Arc::new(stream),
            peer: 1,
            peer_label: "worker".into(),
            local: LocalTransport::new(inboxes.clone(), idle_sched(14)),
            sink_tx: None,
            blob_tx: None,
            heartbeat: None,
            eos_owed: Vec::new(),
        }
        .run(
            &shared,
            &Mutex::new(RemoteState::default()),
            &[PeerWire::default(), PeerWire::default()],
        );
        match shared.error_clone() {
            Some(SquallError::Runtime(m)) if m.contains("non-local task 9") => {}
            other => panic!("a fan-out over a non-local task raised {other:?}"),
        }
        assert!(inboxes.iter().flatten().all(|inbox| inbox.pop(&mut Vec::new()).is_none()));
    }

    #[test]
    fn done_frame_roundtrips_metrics() {
        let metrics = MetricsSnapshot {
            nodes: vec![NodeMetrics {
                node: 0,
                name: "join".into(),
                received: vec![1, 2, 3],
                sent: vec![4, 5, 6],
                emitted: vec![7, 8, 9],
            }],
            scheduler: SchedulerStats {
                workers: 2,
                steals: 3,
                yields: 4,
                blocked: 5,
                max_queue_depth: 6,
            },
        };
        let f =
            Frame::Done { metrics: metrics.clone(), error: Some(SquallError::Runtime("x".into())) };
        match Frame::decode(&f.encode()).unwrap() {
            Frame::Done { metrics: m, error } => {
                assert_eq!(m, metrics);
                assert_eq!(error, Some(SquallError::Runtime("x".into())));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn placement_pins_spouts_and_splits_bolts() {
        // 2 spout nodes (1 task each), a join of 8, an agg of 3; 3 peers.
        let p = plan_placement(&[1, 1, 8, 3], &[true, true, false, false], 3);
        assert_eq!(&p.peer_of_task[..2], &[0, 0], "spouts on the coordinator");
        // Join tasks 0..8 → contiguous near-even ranges.
        assert_eq!(&p.peer_of_task[2..10], &[0, 0, 0, 1, 1, 1, 2, 2]);
        // Agg tasks 0..3 → one per peer.
        assert_eq!(&p.peer_of_task[10..], &[0, 1, 2]);
        assert_eq!(p.peer_of_task.len(), 13);
        // Single peer degenerates to everything-local.
        let solo = plan_placement(&[1, 8], &[true, false], 1);
        assert!(solo.peer_of_task.iter().all(|&p| p == 0));
    }

    #[test]
    fn describe_placement_is_readable() {
        let names = vec!["src-R".to_string(), "join".to_string()];
        let text = describe_placement(
            &names,
            &[1, 4],
            &[true, false],
            &["coordinator".to_string(), "127.0.0.1:9001".to_string()],
        );
        assert!(text.contains("src-R: task 0 @coordinator"), "{text}");
        assert!(text.contains("join: tasks 0-1 @coordinator, tasks 2-3 @127.0.0.1:9001"), "{text}");
    }

    #[test]
    fn handshake_helpers_time_out_instead_of_hanging() {
        // No peer ever connects: accept gives up at the deadline.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(matches!(accept_with_deadline(&listener, deadline), Err(SquallError::Io(_))));
        // A peer connects but never sends its first frame: the read
        // gives up too (and the error is typed, not a hang).
        let addr = listener.local_addr().unwrap();
        let _silent = TcpStream::connect(addr).unwrap();
        let stream = accept_with_deadline(&listener, Instant::now() + Duration::from_secs(1))
            .expect("connection pending");
        let deadline = Instant::now() + Duration::from_millis(50);
        assert!(read_frame_deadline(&stream, deadline).is_err());
        // And the timeout is cleared afterwards: a frame sent now reads
        // fine on the same stream.
        let mut dialer = TcpStream::connect(addr).unwrap();
        let accepted =
            accept_with_deadline(&listener, Instant::now() + Duration::from_secs(1)).unwrap();
        Frame::Hello { peer: 3 }.write_to(&mut dialer).unwrap();
        match read_frame_deadline(&accepted, Instant::now() + Duration::from_secs(1)) {
            Ok(Some((Frame::Hello { peer: 3 }, _))) => {}
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    /// A scheduler of `n_tasks` with none hosted here: wakeups are no-ops.
    fn idle_sched(n_tasks: usize) -> Arc<Sched> {
        let counters = crate::metrics::MetricsRegistry::new(vec!["n".into()], &[n_tasks]).sched();
        Arc::new(Sched::new(n_tasks, 1, counters, &[]))
    }

    /// Poll `cond` until it holds, failing after a 10 s backstop.
    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn send_pump_flushes_before_it_blocks() {
        // One frame, then a dry queue: the pump puts the frame on the wire
        // before it blocks, not when its wait times out.
        let (dialer, accepted) = loopback();
        let q = Arc::new(Egress::new(4));
        q.push(Frame::Deliver { to_task: 1, msg: every_kind()[0].clone() });
        let wire = Arc::new(vec![PeerWire::default(), PeerWire::default()]);
        let pump = {
            let (q, wire) = (Arc::clone(&q), Arc::clone(&wire));
            std::thread::spawn(move || {
                send_pump(Arc::new(dialer), 1, &q, &idle_sched(2), &Shared::new(), &wire, None)
            })
        };
        wait_until("the pump to block on its dry queue", || q.consumer_waiting());
        accepted.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        match Frame::read_from(&mut &accepted) {
            Ok(Some((Frame::Deliver { to_task: 1, msg: Message::Batch { .. } }, _))) => {}
            other => panic!("the frame was still buffered: {other:?}"),
        }
        q.push(Frame::Goodbye);
        pump.join().unwrap();
        assert!(wire[1].flushes.load(Ordering::Relaxed) >= 1);
        assert_eq!(wire[1].batches_sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recv_pump_holds_a_batch_for_a_full_inbox_until_a_pop() {
        // Three batches for a capacity-1 inbox: the third finds it over
        // capacity, and the pump holds it (its congested time counted)
        // until a consumer's pop drains the inbox. All three land, in order.
        let (mut dialer, stream) = loopback();
        for origin in 0..3 {
            let chunk = Chunk::from_tuples(&[tuple![origin as i64]]);
            let msg = Message::Batch { origin, chunk };
            Frame::Deliver { to_task: 0, msg }.write_to(&mut dialer).unwrap();
        }
        Frame::Goodbye.write_to(&mut dialer).unwrap();
        let start = Instant::now();
        let inbox = Arc::new(Inbox::new(1));
        let wire = Arc::new(vec![PeerWire::default(), PeerWire::default()]);
        let consumer = {
            let (inbox, wire) = (Arc::clone(&inbox), Arc::clone(&wire));
            std::thread::spawn(move || {
                wait_until("the pump to read the third batch", || {
                    wire[1].batches_received.load(Ordering::Relaxed) == 3
                });
                // The pump checks the inbox right after counting the batch;
                // pop only once it is surely holding it.
                std::thread::sleep(Duration::from_millis(50));
                let mut origins = Vec::new();
                wait_until("three batches", || {
                    while let Some(Message::Batch { origin, .. }) = inbox.pop(&mut Vec::new()) {
                        origins.push(origin);
                    }
                    origins.len() == 3
                });
                origins
            })
        };
        RecvPump {
            stream: Arc::new(stream),
            peer: 1,
            peer_label: "worker".into(),
            local: LocalTransport::new(vec![Some(Arc::clone(&inbox))], idle_sched(1)),
            sink_tx: None,
            blob_tx: None,
            heartbeat: None,
            eos_owed: Vec::new(),
        }
        .run(&Shared::new(), &Mutex::new(RemoteState::default()), &wire);
        assert_eq!(consumer.join().unwrap(), vec![0, 1, 2]);
        assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        let congested = Duration::from_nanos(wire[1].recv_congested_ns.load(Ordering::Relaxed));
        assert!(congested >= Duration::from_micros(200), "congested for {congested:?}");
    }

    #[test]
    fn coordinator_link_is_the_job_connection_both_ways() {
        // The coordinator dials a stand-in worker and ships its job; the
        // worker answers on that same connection, which is the
        // coordinator's inbound link from peer 1.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        let worker = std::thread::spawn(move || {
            let worker = accept_with_deadline(&listener, deadline).unwrap();
            match read_frame_deadline(&worker, deadline) {
                Ok(Some((Frame::Job { payload }, _))) => assert_eq!(payload, [7, 8]),
                other => panic!("expected Job, got {other:?}"),
            }
            Frame::Hello { peer: 1 }.write_to(&mut &worker).unwrap();
            Frame::Heartbeat { epoch: 5 }.write_to(&mut &worker).unwrap();
            worker
        });
        let labels = vec!["coordinator".to_string(), addr];
        let links = ClusterLinks::coordinator(labels, vec![vec![7, 8]]).unwrap();
        let link = links.links[1].as_ref().expect("link to peer 1");
        match read_frame_deadline(link, deadline) {
            Ok(Some((Frame::Heartbeat { epoch: 5 }, _))) => {}
            other => panic!("expected the worker's Heartbeat, got {other:?}"),
        }
        assert!(links.links[0].is_none());
        drop(worker.join().unwrap());
    }

    /// Peer labels for a coordinator and `n` workers, each worker's listener
    /// bound.
    fn cluster_of(n: usize) -> (Vec<String>, Vec<TcpListener>) {
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let mut labels = vec!["coordinator".to_string()];
        labels.extend(listeners.iter().map(|l| l.local_addr().unwrap().to_string()));
        (labels, listeners)
    }

    /// The worker handshake with a job payload of one byte: the worker's
    /// index.
    fn worker_links(listener: &TcpListener, labels: &[String]) -> Result<ClusterLinks> {
        let on_job = |payload: &[u8]| Ok((payload[0] as usize, labels.to_vec(), ()));
        ClusterLinks::worker(listener, on_job).map(|(links, ())| links)
    }

    #[test]
    fn every_peer_pair_shares_one_socket_dialed_by_the_lower_index() {
        // A coordinator and three workers over loopback: the coordinator
        // dials every worker, worker i dials the workers above it.
        let (labels, listeners) = cluster_of(3);
        let workers: Vec<_> = listeners
            .into_iter()
            .map(|listener| {
                let labels = labels.clone();
                std::thread::spawn(move || (worker_links(&listener, &labels).unwrap(), listener))
            })
            .collect();
        let jobs = (1..4).map(|me| vec![me as u8]).collect();
        let coordinator = ClusterLinks::coordinator(labels.clone(), jobs).unwrap();
        let mut peers = vec![coordinator];
        for worker in workers {
            // Every worker has answered its job and linked its lower
            // workers: worker k took exactly k - 1 worker connections.
            let (links, listener) = worker.join().unwrap();
            let after = Instant::now() + Duration::from_millis(50);
            assert!(
                accept_with_deadline(&listener, after).is_err(),
                "peer {} was dialed",
                links.me
            );
            peers.push(links);
        }
        let link = |a: usize, b: usize| peers[a].links[b].as_ref().expect("link");
        for (a, peer) in peers.iter().enumerate() {
            assert!(peer.links[a].is_none());
            for b in a + 1..peers.len() {
                // The two ends are one socket, and it carries both ways.
                assert_eq!(link(a, b).local_addr().unwrap(), link(b, a).peer_addr().unwrap());
                assert_eq!(link(a, b).peer_addr().unwrap(), link(b, a).local_addr().unwrap());
                for (from, to) in [(a, b), (b, a)] {
                    Frame::Heartbeat { epoch: from as u64 }.write_to(&mut link(from, to)).unwrap();
                    match read_frame_deadline(
                        link(to, from),
                        Instant::now() + Duration::from_secs(5),
                    ) {
                        Ok(Some((Frame::Heartbeat { epoch }, _))) => assert_eq!(epoch, from as u64),
                        other => panic!("expected Heartbeat from {from}, got {other:?}"),
                    }
                }
            }
        }

        // A hello from the coordinator's index, from the worker itself, from
        // a worker above it, or a second one from a worker below it is a
        // typed error, not a link.
        for (me, hellos) in [(2, vec![0]), (2, vec![2]), (2, vec![3]), (3, vec![1, 1])] {
            let (labels, mut listeners) = cluster_of(3);
            let listener = listeners.remove(me - 1);
            let addr = labels[me].clone();
            let worker = std::thread::spawn(move || worker_links(&listener, &labels).err());
            let mut coordinator = TcpStream::connect(&addr).unwrap();
            Frame::Job { payload: vec![me as u8] }.write_to(&mut coordinator).unwrap();
            let _dialers: Vec<TcpStream> = hellos
                .iter()
                .map(|&peer| {
                    let mut dialer = TcpStream::connect(&addr).unwrap();
                    Frame::Hello { peer }.write_to(&mut dialer).unwrap();
                    dialer
                })
                .collect();
            match worker.join().unwrap() {
                Some(SquallError::Runtime(m)) => {
                    assert!(m.contains("bad or duplicate hello"), "{m}")
                }
                other => panic!("hellos {hellos:?} to worker {me}: {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_frames_preserve_link_order() {
        // Barriers and blobs ride the same FIFO stream as data, so
        // alignment across the wire sees them strictly after the sender's
        // earlier frames — exactly the Eos/Watermark ordering contract.
        let (mut dialer, accepted) = loopback();
        let deliver = |msg| Frame::Deliver { to_task: 1, msg };
        let sent = vec![
            deliver(Message::Batch { origin: 0, chunk: Chunk::from_tuples(&[tuple![1]]) }),
            deliver(Message::Watermark { origin: 0, from_task: 0, ts: 4 }),
            deliver(Message::Barrier { epoch: 4 }),
            Frame::Heartbeat { epoch: 4 },
            Frame::SnapshotBlob { role: 0, task: 1, epoch: 4, payload: vec![1, 2] },
            Frame::Goodbye,
        ];
        for f in &sent {
            f.write_to(&mut dialer).unwrap();
        }
        let mut r = BufReader::new(accepted);
        for f in &sent {
            let (got, _) = Frame::read_from(&mut r).unwrap().expect("frame");
            assert_eq!(format!("{got:?}"), format!("{f:?}"));
        }
    }
}
