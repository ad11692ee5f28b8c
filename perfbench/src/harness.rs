//! What every workload shares: arguments, the result record, and the timing
//! loops (one warm-up plus at least five timed repetitions; medians, never
//! best-of).

use std::time::Instant;

use crate::stats;
use crate::workloads::Sizes;

pub struct Args {
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    pub sizes: &'static Sizes,
    /// Test hook: perturb every reference answer, so each check must fail.
    pub corrupt_reference: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One workload run: how many answers were checked, how many were wrong or
/// errored, and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Executor threads of every end-to-end run: the reference host has two
/// cores.
pub const WORKER_THREADS: usize = 2;
/// Set-ups timed before the measured section, and during it.
const SETUPS_BEFORE: usize = 3;
pub const SETUPS_DURING: usize = 6;
const MIN_TIMED_REPS: usize = 5;

/// Times every set-up of one run; `setup_s` is the median. Three set-ups
/// come first (the last one's context is the one measured on), six more are
/// spread over the measured section as interludes. The host's speed on
/// set-up-like code (allocation, hashing a small sample) shifts by ~20 % for
/// seconds at a time, so nine set-ups in the first second of a process would
/// all see one such period and the metric would jump between runs.
pub struct SetupTimer<F> {
    setup: F,
    secs: Vec<f64>,
}

impl<C, F: FnMut() -> C> SetupTimer<F> {
    pub fn new(setup: F) -> SetupTimer<F> {
        SetupTimer { setup, secs: Vec::new() }
    }

    /// One timed set-up.
    pub fn build(&mut self) -> C {
        let t0 = Instant::now();
        let ctx = (self.setup)();
        self.secs.push(t0.elapsed().as_secs_f64());
        ctx
    }

    /// The set-ups before the measured section — each dropped before the
    /// next is built, so every one starts from the same allocator state —
    /// and the last one's context.
    pub fn first_builds(&mut self) -> C {
        for _ in 1..SETUPS_BEFORE {
            drop(self.build());
        }
        self.build()
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.secs)
    }
}

/// One timed query: wall seconds from query start to the complete result,
/// and whether the result matched its reference.
pub struct Rep {
    pub secs: f64,
    pub ok: bool,
}

pub struct Reps {
    pub secs: Vec<f64>,
    pub failed: u64,
}

/// One warm-up repetition (checked, not timed into the metrics), then timed
/// repetitions until `seconds` have passed and at least [`MIN_TIMED_REPS`]
/// are in. Between repetitions, [`SETUPS_DURING`] times at even intervals, a
/// throw-away set-up is timed.
pub fn timed_reps<C, F: FnMut() -> C>(
    seconds: f64,
    setups: &mut SetupTimer<F>,
    mut rep: impl FnMut() -> Rep,
) -> Reps {
    let mut failed = u64::from(!rep().ok);
    let mut secs = Vec::new();
    let mut interludes = 0;
    let start = Instant::now();
    while secs.len() < MIN_TIMED_REPS || start.elapsed().as_secs_f64() < seconds {
        let r = rep();
        failed += u64::from(!r.ok);
        secs.push(r.secs);
        let due = seconds * (interludes + 1) as f64 / (SETUPS_DURING + 1) as f64;
        if interludes < SETUPS_DURING && start.elapsed().as_secs_f64() >= due {
            drop(setups.build());
            interludes += 1;
        }
    }
    Reps { secs, failed }
}

/// The end-to-end metrics of a query-at-a-time workload.
pub fn batch_outcome(input_tuples: u64, reps: &Reps, setup_s: f64) -> Outcome {
    let med = stats::median(&reps.secs);
    eprintln!(
        "{} timed reps, median {:.1} ms (quartiles {:.1} / {:.1})",
        reps.secs.len(),
        med * 1e3,
        stats::quantile(&stats::sorted(&reps.secs), 0.25) * 1e3,
        stats::quantile(&stats::sorted(&reps.secs), 0.75) * 1e3,
    );
    Outcome {
        attempted: reps.secs.len() as u64 + 1,
        failed: reps.failed,
        metrics: vec![
            metric("throughput_tps", input_tuples as f64 / med, "tuples/s"),
            metric("result_ms_p50", med * 1e3, "ms"),
            metric("setup_s", setup_s, "s"),
        ],
    }
}

/// `VmHWM` of this process in MiB: in-thread workers included.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
