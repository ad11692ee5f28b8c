//! # squall-runtime
//!
//! A from-scratch replacement for the distribution platform Squall runs on
//! (Twitter Storm, §2 "Distribution platform"). The paper's contributions
//! are explicitly "orthogonal to the underlying system (Storm)"; what the
//! engine needs from the substrate is:
//!
//! * **topologies** — DAGs of *spouts* (data sources) and *bolts*
//!   (computation), each with a requested parallelism;
//! * **stream groupings** — per-edge routing of tuples from the tasks of an
//!   upstream node to the tasks of a downstream node (shuffle / fields /
//!   all / global / custom). Squall's partitioning schemes are implemented
//!   as [`CustomGrouping`]s;
//! * **pipelined execution** with no micro-batch synchronization barriers
//!   (§8.1 explains why barrier micro-batching raises latency). The data
//!   plane here is *transport-batched* — tuples ship in
//!   [`message::Message::Batch`]es that flush the moment they fill — which
//!   amortizes per-message costs without ever stalling the pipeline on a
//!   batch boundary;
//! * **per-task load accounting** — the number of input tuples each task
//!   (the paper's "machine": a core with an exclusive slice of memory)
//!   receives, which is the quantity behind Table 1, Table 2 and the skew
//!   degree / replication factor metrics of §6.
//!
//! A "machine" in the paper maps to a *task* here: a cooperatively
//! scheduled state machine with exclusive operator state, executed by a
//! **fixed pool of worker threads** (work-stealing deques + shared
//! injector), so task counts far beyond the core count cost queue entries
//! rather than OS threads. Tasks communicate through bounded inboxes; a
//! sender that overfills one *yields* to the scheduler instead of blocking
//! its thread (backpressure replaces Storm's flow control). Message
//! delivery is exactly-once and in order per sender-receiver pair, which
//! matches the guarantees Squall relies on from Storm.
//!
//! [`Topology::run`] collects everything a finished run produced;
//! [`Topology::launch`] instead returns a [`RunHandle`] whose sink output
//! can be consumed while the topology is still running — the streaming
//! face used by `ResultSet` at the session layer. Scheduling behaviour
//! (worker count, steals, yields, queue depth) is reported in
//! [`MetricsSnapshot::scheduler`].

pub mod executor;
pub mod grouping;
pub mod live;
pub mod message;
pub mod metrics;
pub mod topology;
pub mod transport;

pub use executor::{RunHandle, RunOutcome, TaskId, TaskWaker};
pub use grouping::{CustomGrouping, Grouping};
pub use live::{LiveItem, LiveQueue, LiveSpout};
pub use message::NodeId;
pub use metrics::{MetricsSnapshot, NodeMetrics, SchedulerStats};
pub use topology::{
    sort_by_event_time, Bolt, FnBolt, IterSpoutVec, OutputCollector, Source, Spout, SpoutPoll,
    Topology, TopologyBuilder, DEFAULT_BATCH_SIZE,
};
pub use transport::{
    describe_placement, plan_placement, read_frame_deadline, ClusterLinks, ClusterRun,
    ClusterSummary, Frame, FrameSender, LocalTransport, PeerWireStats, Placement, TcpTransport,
    Transport, TransportStats, HANDSHAKE_TIMEOUT,
};
