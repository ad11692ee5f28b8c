//! The traced pass (`--trace 1`): the per-layer numbers.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions — nothing inside Squall is instrumented. For
//! each workload the pass runs the query on one executor thread per process
//! (the single-threaded baseline, span `e2e.1thread`), then replays every
//! layer in isolation on the same generated inputs (`replay.<layer>.<op>`).
//! A layer's share is its replay time over the baseline's thread-seconds;
//! `runtime.glue_frac` is what no replay explains, so a row sums to the
//! baseline by construction. Spans stay in memory and are written once, to
//! `<target dir>/squall-bench/trace.jsonl`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use squall::common::codec::{self, Reader};
use squall::common::{tuple, Chunk, DataType, Schema, SplitMix64, Tuple, Value};
use squall::engine::driver::run_multiway;
use squall::engine::{WindowMergeBolt, WindowedAggBolt};
use squall::expr::{BinOp, JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall::join::dbtoaster::AggregatedDBToaster;
use squall::join::{
    AggSpec, DBToasterJoin, GroupByAggregator, LocalJoin, TraditionalJoin, WindowJoin, WindowSpec,
};
use squall::partition::optimizer::{build_scheme, SchemeKind};
use squall::partition::{HypercubeScheme, SkewEstimate};
use squall::plan::{optimize, Catalog, PhysicalQuery};
use squall::runtime::{
    CustomGrouping, FnBolt, Grouping, IterSpoutVec, TopologyBuilder, DEFAULT_BATCH_SIZE,
};

use crate::e2e::{
    closed_loop, h3_config, h3_tcp_run, open_loop, EpochTiming, H3Ctx, RunStats, ViewRun, WinCtx,
    Z4Ctx, VIEW_MACHINES, WINDOW_MACHINES,
};
use crate::harness::{metric, peak_rss_mib, Args, Metric, Outcome, WORKER_THREADS};
use crate::stats;
use crate::workloads as wl;

/// Every per-layer metric, in output order, with its unit. A workload that
/// does not exercise a metric reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("plan.optimize_us", "us"),
    ("plan.analyze_ms", "ms"),
    ("plan.order_cost_ratio", "ratio"),
    ("plan.catalog_tps", "tuples/s"),
    ("partition.route_tps", "tuples/s"),
    ("partition.replication_factor", "ratio"),
    ("partition.skew_degree", "ratio"),
    ("partition.max_load", "count"),
    ("expr.eval_tps", "tuples/s"),
    ("common.chunk_build_tps", "tuples/s"),
    ("common.codec_tps", "tuples/s"),
    ("common.wire_bytes_per_tuple", "B/tuple"),
    ("runtime.yields", "count"),
    ("runtime.blocked", "count"),
    ("runtime.steals", "count"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.wire_bytes", "B"),
    ("runtime.wire_batches", "count"),
    ("runtime.passthrough_tps", "tuples/s"),
    ("runtime.glue_frac", "fraction"),
    ("join.insert_tps", "tuples/s"),
    ("join.delta_tps", "tuples/s"),
    ("join.agg_update_tps", "tuples/s"),
    ("join.stored", "count"),
    ("join.results", "count"),
    ("core.launch_fixed_ms", "ms"),
    ("core.window_insert_tps", "tuples/s"),
    ("core.merge_tps", "tuples/s"),
    ("core.append_ms_p50", "ms"),
    ("core.snapshot_wait_ms_p50", "ms"),
    ("core.plain_epoch_ms_p50", "ms"),
    ("core.ckpt_epoch_ms_p50", "ms"),
    ("core.epoch_ms_tail", "ms"),
    ("core.epoch_tail_pct", "%"),
    ("core.checkpoint_overhead_frac", "fraction"),
    ("core.deltas_in", "count"),
    ("core.rows_changed", "count"),
    ("core.checkpoints", "count"),
    ("session.materialize_ms", "ms"),
    ("bench.peak_rss_mb", "MiB"),
    ("bench.gen_lag_ms_max", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.wall_1thread_ms", "ms"),
    ("sql.share", "fraction"),
    ("plan.share", "fraction"),
    ("partition.share", "fraction"),
    ("expr.share", "fraction"),
    ("common.share", "fraction"),
    ("join.share", "fraction"),
    ("core.share", "fraction"),
    ("session.share", "fraction"),
];

/// The layers an attribution row is split into, after the crates, each with
/// its share metric.
const LAYERS: [(&str, &str); 8] = [
    ("sql", "sql.share"),
    ("plan", "plan.share"),
    ("partition", "partition.share"),
    ("expr", "expr.share"),
    ("common", "common.share"),
    ("join", "join.share"),
    ("core", "core.share"),
    ("session", "session.share"),
];

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    count: u64,
}

/// In-memory span log plus the metric values of one traced pass.
struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Off for the baseline reps that measure the cost of recording itself.
    recording: bool,
    values: BTreeMap<&'static str, f64>,
    /// Seconds of isolated replay attributed to each layer.
    replay_s: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Tracer {
    fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            recording: true,
            values: BTreeMap::new(),
            replay_s: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Run `f` under a span covering `count` units of work; returns its
    /// result and its wall seconds.
    fn span<R>(&mut self, name: &str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        if self.recording {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: start.as_nanos(),
                end_ns: end.as_nanos(),
                count,
            });
        }
        (out, (end - start).as_secs_f64())
    }

    /// A replay of `layer`'s `op` over `count` tuples: its seconds go into
    /// the layer's share, and `count / seconds` is returned.
    fn replay<R>(
        &mut self,
        layer: &'static str,
        op: &str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let (out, secs) = self.span(&format!("replay.{layer}.{op}"), count, f);
        *self.replay_s.entry(layer).or_default() += secs;
        (out, count as f64 / secs.max(1e-12))
    }

    /// Median microseconds of one call of `f`, from `iters` calls under one
    /// span, all attributed to `layer`.
    fn replay_us(
        &mut self,
        layer: &'static str,
        op: &str,
        iters: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let mut each = Vec::with_capacity(iters);
        let (_, secs) = self.span(&format!("replay.{layer}.{op}"), iters as u64, || {
            for _ in 0..iters {
                let t0 = Instant::now();
                f();
                each.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        });
        // The workload pays for one call, not `iters`.
        *self.replay_s.entry(layer).or_default() += secs / iters as f64;
        stats::median(&each)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced pass: {what} does not match its reference");
        }
    }

    /// Record one run's §6 counts and scheduler observations.
    fn set_run_stats(&mut self, s: &RunStats, input_tuples: u64) {
        self.set("partition.replication_factor", s.replication_factor);
        self.set("partition.skew_degree", s.skew_degree);
        self.set("partition.max_load", s.loads.iter().copied().max().unwrap_or(0) as f64);
        self.set("runtime.yields", s.scheduler.yields as f64);
        self.set("runtime.blocked", s.scheduler.blocked as f64);
        self.set("runtime.steals", s.scheduler.steals as f64);
        self.set("runtime.max_queue_depth", s.scheduler.max_queue_depth as f64);
        self.set("runtime.wire_bytes", s.wire_bytes as f64);
        self.set("runtime.wire_batches", s.wire_batches as f64);
        self.set("common.wire_bytes_per_tuple", s.wire_bytes as f64 / input_tuples as f64);
    }

    /// The single-threaded baseline: runs with span recording on alternating
    /// with runs with it off, at least three of each, for `seconds`. Sets
    /// the wall clock and the recording overhead; returns the median wall
    /// seconds.
    fn baseline(&mut self, seconds: f64, count: u64, mut run: impl FnMut() -> bool) -> f64 {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let mut all_ok = true;
        let start = Instant::now();
        for i in 0.. {
            if i >= 6 && i % 2 == 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            self.recording = i % 2 == 0;
            let (ok, secs) = self.span("e2e.1thread", count, &mut run);
            all_ok &= ok;
            if self.recording { &mut on } else { &mut off }.push(secs);
        }
        self.recording = true;
        self.check(all_ok, "the single-threaded baseline");
        let (on, off) = (stats::median(&on), stats::median(&off));
        self.set("bench.trace_overhead_frac", (on - off) / off);
        let wall = stats::median(&[on, off]);
        self.set("bench.wall_1thread_ms", wall * 1e3);
        self.set("bench.peak_rss_mb", peak_rss_mib());
        wall
    }

    /// Close the pass: shares and glue from `thread_seconds` of baseline,
    /// the attribution row on standard error, the span file, the outcome.
    fn finish(mut self, thread_seconds: f64) -> Outcome {
        let mut explained = 0.0;
        let mut row = format!("attribution {}:", self.workload);
        for (layer, share_metric) in LAYERS {
            let share = self.replay_s.get(layer).copied().unwrap_or(0.0) / thread_seconds;
            explained += share;
            row.push_str(&format!(" {layer} {:.1}%", share * 100.0));
            self.set(share_metric, share);
        }
        self.set("runtime.glue_frac", 1.0 - explained);
        row.push_str(&format!(
            " runtime.glue {:.1}% of {:.1} ms",
            (1.0 - explained) * 100.0,
            thread_seconds * 1e3
        ));
        eprintln!("{row}");
        if let Err(e) = self.write_spans() {
            eprintln!("could not write the span file: {e}");
        }
        let metrics: Vec<Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| metric(name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        Outcome { attempted: self.attempted.max(1), failed: self.failed, metrics }
    }

    fn write_spans(&self) -> std::io::Result<()> {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string()),
        )
        .join("squall-bench");
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.jsonl"))?);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        writeln!(
            f,
            "{{\"workload\": \"{w}\", \"id\": 0, \"parent\": null, \"name\": \"trace:{w}\", \
             \"start_ns\": 0, \"end_ns\": {end}, \"count\": {}}}",
            self.spans.len(),
            w = self.workload
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"workload\": \"{}\", \"id\": {}, \"parent\": 0, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                self.workload,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.count
            )?;
        }
        f.flush()
    }
}

pub fn run(name: &str, args: &Args) -> Outcome {
    match name {
        "hypercube3.uniform" => hypercube3(args, false),
        "hypercube3.tcp" => hypercube3(args, true),
        "hypercube4.zipf" => hypercube4_zipf(args),
        "window64.tumbling" => window64_tumbling(args),
        "view3.append" => view3_append(args),
        _ => unreachable!("every workload in the matrix has a traced pass"),
    }
}

// ------------------------------------------------------------ shared replays

/// `Chunk::from_tuples` over every relation in data-plane batches.
fn replay_chunk_build(tr: &mut Tracer, rels: &[&[Tuple]]) -> Vec<Vec<Chunk>> {
    let n: usize = rels.iter().map(|r| r.len()).sum();
    let (chunks, tps) = tr.replay("common", "chunk_build", n as u64, || {
        rels.iter()
            .map(|r| r.chunks(DEFAULT_BATCH_SIZE).map(Chunk::from_tuples).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    });
    tr.set("common.chunk_build_tps", tps);
    chunks
}

/// Route every tuple exactly as the spout→join edge does (one spout task
/// per relation, tuples numbered in stream order) and return each machine's
/// arrivals. Relations are interleaved batch by batch, as concurrent spouts
/// deliver them.
fn replay_route(
    tr: &mut Tracer,
    scheme: &Arc<HypercubeScheme>,
    rels: &[&[Tuple]],
    machines: usize,
) -> Vec<Vec<(usize, Tuple)>> {
    let n: usize = rels.iter().map(|r| r.len()).sum();
    // Per relation: every tuple's targets back to back, and where each
    // tuple's targets end.
    let (targets, tps) = tr.replay("partition", "route", n as u64, || {
        rels.iter()
            .enumerate()
            .map(|(rel, rows)| {
                let grouping = scheme.grouping_for(rel);
                let (mut flat, mut ends, mut out) = (Vec::new(), Vec::new(), Vec::new());
                for (seq, t) in rows.iter().enumerate() {
                    grouping.route(0, seq as u64, t, machines, &mut out);
                    flat.extend_from_slice(&out);
                    ends.push(flat.len());
                }
                (flat, ends)
            })
            .collect::<Vec<(Vec<usize>, Vec<usize>)>>()
    });
    tr.set("partition.route_tps", tps);
    let mut cells: Vec<Vec<(usize, Tuple)>> = vec![Vec::new(); machines];
    let longest = rels.iter().map(|r| r.len()).max().unwrap_or(0);
    for start in (0..longest).step_by(DEFAULT_BATCH_SIZE) {
        for (rel, rows) in rels.iter().enumerate() {
            let (flat, ends) = &targets[rel];
            for i in start..(start + DEFAULT_BATCH_SIZE).min(rows.len()) {
                let from = if i == 0 { 0 } else { ends[i - 1] };
                for &m in &flat[from..ends[i]] {
                    cells[m].push((rel, rows[i].clone()));
                }
            }
        }
    }
    cells
}

fn cell_loads(cells: &[Vec<(usize, Tuple)>]) -> Vec<u64> {
    cells.iter().map(|c| c.len() as u64).collect()
}

/// Feed every machine's arrivals to a fresh local join; returns
/// `(results, stored)` summed over the machines.
fn replay_local_joins(
    tr: &mut Tracer,
    cells: &[Vec<(usize, Tuple)>],
    mut make: impl FnMut() -> Box<dyn LocalJoin>,
) -> (u64, u64) {
    let n: usize = cells.iter().map(Vec::len).sum();
    let ((results, stored), tps) = tr.replay("join", "insert", n as u64, || {
        let (mut results, mut stored) = (0u64, 0u64);
        let mut out = Vec::new();
        for cell in cells {
            let mut join = make();
            for (rel, t) in cell {
                out.clear();
                join.insert_weighted(*rel, t, &mut out);
                results += out.iter().map(|(_, m)| (*m).max(0) as u64).sum::<u64>();
            }
            stored += join.stored() as u64;
        }
        (results, stored)
    });
    tr.set("join.insert_tps", tps);
    tr.set("join.stored", stored as f64);
    tr.set("join.results", results as f64);
    (results, stored)
}

/// The same tuples through spout → do-nothing bolt, with the workload's
/// grouping, batch size and task counts, on one executor thread: what the
/// executor costs when the operators cost nothing.
fn replay_passthrough(
    tr: &mut Tracer,
    scheme: &Arc<HypercubeScheme>,
    rels: &[&[Tuple]],
    machines: usize,
) {
    let n: usize = rels.iter().map(|r| r.len()).sum();
    let mut b = TopologyBuilder::new().worker_threads(1);
    let bolt = b.add_bolt("identity", machines, |_| Box::new(FnBolt(|_, _, _: &mut _| Ok(()))));
    for (rel, rows) in rels.iter().enumerate() {
        let rows = Arc::new(rows.to_vec());
        let src = b.add_spout(format!("src-{rel}"), 1, move |_| {
            Box::new(IterSpoutVec::strided(Arc::clone(&rows), 0, 1))
        });
        b.connect(src, bolt, Grouping::Custom(Arc::new(scheme.grouping_for(rel))));
    }
    let topology = b.build().expect("pass-through topology");
    let (outcome, secs) = tr.span("replay.runtime.passthrough", n as u64, || topology.run());
    tr.check(outcome.error.is_none(), "the pass-through run");
    tr.set("runtime.passthrough_tps", n as f64 / secs);
}

/// The fixed cost of launching the query: the same plan over one-row inputs.
fn launch_fixed_ms(tr: &mut Tracer, mut run: impl FnMut()) {
    let ms = tr.replay_us("core", "launch_fixed", 5, &mut run) / 1e3;
    tr.set("core.launch_fixed_ms", ms);
}

// ---------------------------------------------------------------- hypercube3

fn hypercube3(args: &Args, tcp: bool) -> Outcome {
    let mut tr = Tracer::new(if tcp { "hypercube3.tcp" } else { "hypercube3.uniform" });
    let ctx = H3Ctx::setup(args);
    let n = ctx.input_tuples();
    let expected = ctx.expected_count(args);
    let cfg1 = h3_config(1);
    let mut last: Option<RunStats> = None;
    let wall = tr.baseline(args.seconds * 0.4, n, || {
        let (_, s) = if tcp { h3_tcp_run(&ctx, 1) } else { ctx.run(&cfg1) };
        let ok = s.ok && s.results == expected;
        last = Some(s);
        ok
    });
    // Scheduler counts come from the configuration the end-to-end run uses.
    let run_stats =
        if tcp { last.expect("baseline ran") } else { ctx.run(&h3_config(WORKER_THREADS)).1 };
    tr.set_run_stats(&run_stats, n);

    let rels: Vec<&[Tuple]> = ctx.data.iter().map(Vec::as_slice).collect();
    let machines = wl::HYPERCUBE_MACHINES;
    let scheme =
        Arc::new(build_scheme(cfg1.scheme, &ctx.spec, machines, cfg1.seed).expect("hybrid scheme"));
    replay_chunk_build(&mut tr, &rels);
    let cells = replay_route(&mut tr, &scheme, &rels, machines);
    tr.check(cell_loads(&cells) == run_stats.loads, "the replayed routing");
    if tcp {
        // Machines on the far side of the socket: the second half of the
        // contiguous task range. Their arrivals cross as encoded chunks.
        let remote: Vec<Chunk> = cells[machines / 2..]
            .iter()
            .flat_map(|cell| {
                let rows: Vec<Tuple> = cell.iter().map(|(_, t)| t.clone()).collect();
                rows.chunks(DEFAULT_BATCH_SIZE).map(Chunk::from_tuples).collect::<Vec<_>>()
            })
            .collect();
        let shipped: usize = remote.iter().map(Chunk::n_rows).sum();
        let (_, tps) = tr.replay("common", "codec", shipped as u64, || {
            let mut buf = Vec::new();
            for c in &remote {
                buf.clear();
                codec::put_chunk(&mut buf, c);
                std::hint::black_box(codec::get_chunk(&mut Reader::new(&buf)).expect("decode"));
            }
        });
        tr.set("common.codec_tps", tps);
    }
    let (results, _) =
        replay_local_joins(&mut tr, &cells, || Box::new(AggregatedDBToaster::minimal(&ctx.spec)));
    tr.check(results == expected, "the replayed join count");
    replay_passthrough(&mut tr, &scheme, &rels, machines);
    let one_row: Vec<Vec<Tuple>> = (0..3).map(|_| vec![tuple![1, 1]]).collect();
    launch_fixed_ms(&mut tr, || {
        run_multiway(&ctx.spec, one_row.clone(), &cfg1).expect("one-row run");
    });
    // The split run has one executor thread on each side of the socket.
    tr.finish(wall * if tcp { 2.0 } else { 1.0 })
}

// ------------------------------------------------------------ hypercube4.zipf

/// Parse, plan and optimize replays shared by the two SQL workloads;
/// returns the optimized plan.
fn replay_front_end(
    tr: &mut Tracer,
    sql: &str,
    catalog: &Catalog,
    cfg: &squall::ExecConfig,
) -> PhysicalQuery {
    let us = tr.replay_us("sql", "parse", 200, || {
        std::hint::black_box(squall::sql::parse_statement(sql).expect("parse"));
    });
    tr.set("sql.parse_us", us);
    let query = squall::sql::parse(sql).expect("parse");
    let us = tr.replay_us("plan", "plan", 100, || {
        std::hint::black_box(PhysicalQuery::plan(&query, catalog).expect("plan"));
    });
    tr.set("plan.plan_us", us);
    // `optimize` works on a fresh plan each time, so this replay times plan +
    // optimize; the optimizer's own part is the difference.
    let us = tr.replay_us("plan", "optimize", 50, || {
        let mut plan = PhysicalQuery::plan(&query, catalog).expect("plan");
        optimize(&mut plan, catalog, cfg).expect("optimize");
        std::hint::black_box(plan);
    });
    tr.set("plan.optimize_us", (us - tr.values["plan.plan_us"]).max(0.0));
    let mut plan = PhysicalQuery::plan(&query, catalog).expect("plan");
    optimize(&mut plan, catalog, cfg).expect("optimize");
    plan
}

fn hypercube4_zipf(args: &Args) -> Outcome {
    let mut tr = Tracer::new("hypercube4.zipf");
    let ctx = Z4Ctx::setup(args, 1);
    let n = ctx.input_tuples();
    let expected = ctx.expected_count(args);
    tr.set("plan.analyze_ms", ctx.analyze_s * 1e3);
    let wall = tr.baseline(args.seconds * 0.4, n, || {
        let (_, count, s) = ctx.run();
        s.ok && count == Some(expected)
    });
    let run_stats = Z4Ctx::setup(args, WORKER_THREADS).run().2;
    tr.set_run_stats(&run_stats, n);

    let plan = replay_front_end(&mut tr, wl::Z4_SQL, ctx.session.catalog(), ctx.session.config());
    let decision = plan.decision().expect("the optimizer is on").clone();
    tr.set("plan.order_cost_ratio", decision.est_cost / decision.written_cost.max(1e-12));
    eprintln!(
        "chosen order {:?}, scheme {:?}",
        decision.steps.iter().map(|s| s.relation.as_str()).collect::<Vec<_>>(),
        decision.scheme_kind()
    );

    // The pushed-down predicates, evaluated row by row as the planner does.
    let below =
        ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(3), ScalarExpr::lit(wl::Z4_FILTER_BELOW));
    let bigs = [&ctx.data.big1, &ctx.data.big2];
    let scanned = (bigs[0].len() + bigs[1].len()) as u64;
    let (kept, tps) = tr.replay("expr", "eval", scanned, || {
        bigs.map(|rows| {
            rows.iter()
                .filter(|t| below.eval_bool(t).expect("Int comparison"))
                .map(|t| t.project(&[0, 1, 2]))
                .collect::<Vec<Tuple>>()
        })
    });
    tr.set("expr.eval_tps", tps);

    // The join the plan runs: relations in the chosen order, the filter
    // column pruned, join keys marked skewed as the planner's sampler does.
    let written: [(&str, Vec<&str>, &[Tuple]); 4] = [
        ("big1", vec!["j", "s", "u"], &kept[0]),
        ("big2", vec!["j", "t", "w"], &kept[1]),
        ("guard1", vec!["a", "b"], &ctx.data.guard1),
        ("guard2", vec!["a", "b"], &ctx.data.guard2),
    ];
    let machines = wl::HYPERCUBE_MACHINES;
    let cfg = ctx.session.config();
    let pos = |written_idx: usize| {
        decision.order.iter().position(|&o| o == written_idx).expect("a permutation")
    };
    let atoms: Vec<JoinAtom> =
        wl::Z4_ATOMS.iter().map(|&(a, ca, b, cb)| JoinAtom::eq(pos(a), ca, pos(b), cb)).collect();
    let mut rels: Vec<RelationDef> = decision
        .order
        .iter()
        .map(|&w| {
            let (name, cols, rows) = &written[w];
            let fields: Vec<(&str, DataType)> = cols.iter().map(|c| (*c, DataType::Int)).collect();
            RelationDef::new(*name, Schema::of(&fields), rows.len() as u64)
        })
        .collect();
    let data: Vec<&[Tuple]> = decision.order.iter().map(|&w| written[w].2).collect();
    for a in &atoms {
        for (rel, col) in [(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
            let sample = data[rel].iter().take(20_000).map(|t| t.get(col));
            if SkewEstimate::from_sample(sample).is_skewed(machines, cfg.skew_slack) {
                let name = rels[rel].schema.field(col).name.clone();
                rels[rel].schema.set_skewed(&name).expect("own column");
            }
        }
    }
    let spec = MultiJoinSpec::new(rels, atoms).expect("reordered spec");
    let kind = cfg.scheme.or(decision.scheme_kind()).unwrap_or(SchemeKind::Hybrid);
    let scheme = Arc::new(build_scheme(kind, &spec, machines, cfg.seed).expect("scheme"));
    replay_chunk_build(&mut tr, &data);
    let cells = replay_route(&mut tr, &scheme, &data, machines);
    tr.check(cell_loads(&cells) == run_stats.loads, "the replayed routing");
    let (results, _) =
        replay_local_joins(&mut tr, &cells, || Box::new(TraditionalJoin::new(&spec)));
    tr.check(results == expected, "the replayed join count");
    replay_passthrough(&mut tr, &scheme, &data, machines);

    let mut tiny =
        squall::Session::builder().machines(machines).local(cfg.local).worker_threads(1).build();
    for (name, schema) in wl::zipf4_schemas() {
        let row = Tuple::new(vec![Value::Int(1); schema.arity()]);
        tiny.register(name, schema, vec![row]).expect("register");
    }
    launch_fixed_ms(&mut tr, || {
        tiny.sql(wl::Z4_SQL).expect("one-row query");
    });
    tr.finish(wall)
}

// ---------------------------------------------------------- window64.tumbling

fn window64_tumbling(args: &Args) -> Outcome {
    let mut tr = Tracer::new("window64.tumbling");
    let ctx = WinCtx::setup(args, 1, 2);
    let n = ctx.input_tuples();
    let expected = ctx.expected_rows(args);
    let wall = tr.baseline(args.seconds * 0.4, n, || {
        let (_, rows, s) = ctx.run();
        s.ok && rows == expected
    });
    let run_stats = WinCtx::setup(args, WORKER_THREADS, 2).run().2;
    tr.set_run_stats(&run_stats, n);
    replay_front_end(&mut tr, wl::WINDOW_SQL, ctx.session.catalog(), ctx.session.config());

    let (sa, sb) = wl::window_schemas();
    let spec = MultiJoinSpec::new(
        vec![
            RelationDef::new("A", sa, ctx.a.len() as u64),
            RelationDef::new("B", sb, ctx.b.len() as u64),
        ],
        vec![JoinAtom::eq(0, 0, 1, 0)],
    )
    .expect("window spec");
    let cfg = ctx.session.config();
    let scheme = Arc::new(
        build_scheme(SchemeKind::Hybrid, &spec, WINDOW_MACHINES, cfg.seed).expect("scheme"),
    );
    let rels: [&[Tuple]; 2] = [&ctx.a, &ctx.b];
    replay_chunk_build(&mut tr, &rels);
    let cells = replay_route(&mut tr, &scheme, &rels, WINDOW_MACHINES);
    tr.check(cell_loads(&cells) == run_stats.loads, "the replayed routing");

    // The event-time window join of every machine, its two inputs merged in
    // timestamp order — the arrival order two perfectly aligned sources
    // would give. What unaligned sources cost on top of that is not
    // explained by any layer and lands in `runtime.glue_frac`.
    let window = WindowSpec::Tumbling { width: wl::WINDOW_WIDTH as u64 };
    let (arities, ts_cols) = ([4usize, 2], [3usize, 1]);
    let arrivals: usize = cells.iter().map(Vec::len).sum();
    let ((joined, stored), tps) = tr.replay("join", "insert", arrivals as u64, || {
        let mut joined: Vec<Tuple> = Vec::new();
        let mut stored = 0u64;
        for cell in &cells {
            let mut by_ts: Vec<&(usize, Tuple)> = cell.iter().collect();
            by_ts.sort_by_key(|(rel, t)| t.get(ts_cols[*rel]).as_int().expect("Int ts"));
            let local: Box<dyn LocalJoin> = Box::new(DBToasterJoin::new(&spec));
            let mut join = WindowJoin::event_time(local, window, &arities, &ts_cols);
            for (rel, t) in by_ts {
                let ts = t.get(ts_cols[*rel]).as_int().expect("Int ts") as u64;
                join.insert(*rel, ts, t, &mut joined);
            }
            stored += join.inner().stored() as u64;
        }
        (joined, stored)
    });
    tr.set("join.insert_tps", tps);
    tr.set("join.stored", stored as f64);
    tr.set("join.results", joined.len() as f64);

    // The per-window aggregation of the join output: two shards by group
    // hash, then the ordered merge.
    let out_ts = squall::join::output_ts_cols(&arities, &ts_cols);
    let aggs = vec![AggSpec::count(), AggSpec::sum_col(2)];
    let shards = 2usize;
    let by_group = Grouping::Fields(vec![1]);
    let mut shard_rows: Vec<Vec<Tuple>> = vec![Vec::new(); shards];
    let mut target = Vec::new();
    for t in &joined {
        by_group.route(0, 0, t, shards, &mut target);
        shard_rows[target[0]].push(t.clone());
    }
    let shard_chunks: Vec<Vec<Chunk>> = shard_rows
        .iter()
        .map(|rows| rows.chunks(DEFAULT_BATCH_SIZE).map(Chunk::from_tuples).collect())
        .collect();
    let (closed, tps) = tr.replay("core", "window_insert", joined.len() as u64, || {
        shard_chunks
            .iter()
            .map(|chunks| {
                let mut bolt = WindowedAggBolt::new(
                    window,
                    out_ts.clone(),
                    vec![1],
                    aggs.clone(),
                    WINDOW_MACHINES,
                );
                for c in chunks {
                    bolt.insert_chunk(c).expect("windowed insert");
                }
                let mut rows = Vec::new();
                bolt.close_into(u64::MAX, &mut rows);
                rows
            })
            .collect::<Vec<Vec<Tuple>>>()
    });
    tr.set("core.window_insert_tps", tps);
    let n_closed: usize = closed.iter().map(Vec::len).sum();
    let (merged, tps) = tr.replay("core", "merge", n_closed as u64, || {
        let mut merge = WindowMergeBolt::new(shards);
        for rows in closed {
            for row in rows {
                merge.push(row).expect("merge push");
            }
        }
        let mut rows = Vec::new();
        merge.release_below(u64::MAX, &mut rows);
        rows
    });
    tr.set("core.merge_tps", tps);
    tr.check(merged == expected, "the replayed window rows");

    // The full-history aggregation kernel over the same join output, for
    // comparison with the windowed one (this workload does not run it, so
    // it is a span but in no layer's share).
    let chunks: Vec<Chunk> = joined.chunks(DEFAULT_BATCH_SIZE).map(Chunk::from_tuples).collect();
    let (_, secs) = tr.span("replay.join.agg_update", joined.len() as u64, || {
        let mut agg = GroupByAggregator::new(vec![1], aggs.clone());
        for c in &chunks {
            agg.update_chunk(c, None).expect("aggregate");
        }
        std::hint::black_box(agg.n_groups());
    });
    tr.set("join.agg_update_tps", joined.len() as f64 / secs);

    // Materialization: the result rows put in the SELECT's order.
    let mut shuffled = merged;
    SplitMix64::new(args.seed).shuffle(&mut shuffled);
    let (_, tps) = tr.replay("session", "materialize", shuffled.len() as u64, || shuffled.sort());
    tr.set("session.materialize_ms", shuffled.len() as f64 / tps * 1e3);
    replay_passthrough(&mut tr, &scheme, &rels, WINDOW_MACHINES);

    let mut tiny = squall::Session::builder()
        .machines(WINDOW_MACHINES)
        .agg_parallelism(2)
        .worker_threads(1)
        .build();
    let (sa, sb) = wl::window_schemas();
    tiny.register_stream("A", sa, vec![tuple![1, 1, 1, 1]], "ts").expect("register A");
    tiny.register_stream("B", sb, vec![tuple![1, 1]], "ts").expect("register B");
    launch_fixed_ms(&mut tr, || {
        tiny.sql(wl::WINDOW_SQL).expect("one-row query").rows();
    });
    tr.finish(wall)
}

// --------------------------------------------------------------- view3.append

fn p50_ms(timings: &[&EpochTiming], f: impl Fn(&EpochTiming) -> f64) -> f64 {
    if timings.is_empty() {
        return 0.0;
    }
    stats::median(&timings.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>())
}

fn view3_append(args: &Args) -> Outcome {
    let mut tr = Tracer::new("view3.append");
    let budget = args.seconds;

    // Baseline: closed-loop epochs on one executor thread, every signed
    // batch recorded for the replays.
    let mut run = ViewRun::setup(args, 1, 16);
    for _ in 0..16 {
        run.step();
    }
    let initial: Vec<Vec<Tuple>> = run.base_relations();
    run.record = Some(Vec::new());
    // A fixed number of epochs, so that every count of this pass repeats
    // exactly with the seed.
    const BASELINE_EPOCHS: usize = 256;
    let (timings, wall) = tr.span("e2e.1thread", BASELINE_EPOCHS as u64, || {
        (0..BASELINE_EPOCHS).map(|_| run.step()).collect::<Vec<EpochTiming>>()
    });
    let epoch_errors = timings.iter().filter(|t| !t.ok).count();
    tr.check(epoch_errors == 0, "every baseline epoch");
    run.check(args);
    tr.check(run.check_failures == 0, "the baseline view");
    let recorded = run.record.take().expect("recording was on");
    let (run_stats, maintenance) = run.finish();
    tr.set_run_stats(&run_stats, timings.iter().map(|t| t.tuples).sum());
    tr.set("bench.wall_1thread_ms", wall * 1e3);
    tr.set("bench.peak_rss_mb", peak_rss_mib());
    tr.set("core.deltas_in", maintenance.deltas_in as f64);
    tr.set("core.rows_changed", maintenance.rows_changed as f64);
    tr.set("core.checkpoints", maintenance.checkpoints as f64);
    let n_delta: usize = recorded.iter().map(|(_, rows, _)| rows.len()).sum();

    // plan: the catalog's own bookkeeping of every append and retraction.
    let mut catalog = Catalog::new();
    for ((name, cols), rows) in wl::VIEW_TABLES.iter().zip(&initial) {
        let schema = Schema::of(&[(cols[0], DataType::Int), (cols[1], DataType::Int)]);
        catalog.register(*name, schema, rows.clone()).expect("register");
    }
    let (_, tps) = tr.replay("plan", "catalog", n_delta as u64, || {
        for (rel, rows, sign) in &recorded {
            let name = wl::VIEW_TABLES[*rel].0;
            if *sign > 0 {
                catalog.append(name, rows.clone()).expect("catalog append");
            } else {
                catalog.retract(name, rows).expect("catalog retract");
            }
        }
    });
    tr.set("plan.catalog_tps", tps);

    // common, partition: the signed rows as chunks, and routed.
    let spec = wl::rst_spec(args.sizes.view_init as u64);
    let scheme =
        Arc::new(build_scheme(SchemeKind::Hybrid, &spec, VIEW_MACHINES, 42).expect("view scheme"));
    let batches: Vec<&[Tuple]> = recorded.iter().map(|(_, rows, _)| rows.as_slice()).collect();
    replay_chunk_build(&mut tr, &batches);
    let groupings: Vec<_> = (0..3).map(|rel| scheme.grouping_for(rel)).collect();
    let route = |rel: usize, seq: u64, t: &Tuple, out: &mut Vec<usize>| {
        groupings[rel].route(0, seq, t, VIEW_MACHINES, out)
    };
    let mut seq = [0u64; 3];
    let mut out = Vec::new();
    let mut cells: Vec<DBToasterJoin> =
        (0..VIEW_MACHINES).map(|_| DBToasterJoin::new(&spec)).collect();
    let mut scratch = Vec::new();
    for (rel, rows) in initial.iter().enumerate() {
        for t in rows {
            route(rel, seq[rel], t, &mut out);
            seq[rel] += 1;
            for &m in &out {
                scratch.clear();
                cells[m].delta(rel, t, 1, &mut scratch);
            }
        }
    }
    let (routed, tps) = tr.replay("partition", "route", n_delta as u64, || {
        let mut routed: Vec<(usize, usize, &Tuple, i64)> = Vec::new();
        for (rel, rows, sign) in &recorded {
            for t in rows {
                route(*rel, seq[*rel], t, &mut out);
                seq[*rel] += 1;
                routed.extend(out.iter().map(|&m| (m, *rel, t, *sign)));
            }
        }
        routed
    });
    tr.set("partition.route_tps", tps);

    // join: the signed delta path of every machine, then the group counts
    // the view keeps of the delta results.
    let (deltas, tps) = tr.replay("join", "delta", routed.len() as u64, || {
        let mut deltas: Vec<(Tuple, i64)> = Vec::new();
        for &(m, rel, t, sign) in &routed {
            cells[m].delta(rel, t, sign, &mut deltas);
        }
        deltas
    });
    tr.set("join.delta_tps", tps);
    tr.set("join.stored", cells.iter().map(|c| c.stored() as f64).sum());
    tr.set("join.results", deltas.len() as f64);
    let positive: Vec<Tuple> = deltas.into_iter().filter(|(_, m)| *m > 0).map(|(t, _)| t).collect();
    let chunks: Vec<Chunk> = positive.chunks(DEFAULT_BATCH_SIZE).map(Chunk::from_tuples).collect();
    let (_, tps) = tr.replay("join", "agg_update", positive.len() as u64, || {
        let mut agg = GroupByAggregator::new(vec![0], vec![AggSpec::count()]);
        for c in &chunks {
            agg.update_chunk(c, None).expect("aggregate");
        }
        std::hint::black_box(agg.n_groups());
    });
    tr.set("join.agg_update_tps", tps);

    // Epoch anatomy at the end-to-end configuration: open loop for the
    // latency tail and the generator's lateness, closed loop for the split
    // of an epoch into its append calls and its snapshot wait.
    let mut run = ViewRun::setup(args, WORKER_THREADS, 16);
    for _ in 0..16 {
        run.step();
    }
    let period = Duration::from_micros(args.sizes.view_period_us);
    let epochs = (budget * 0.3 / period.as_secs_f64()).ceil() as usize;
    let (open, worst_lag) = open_loop(&mut run, epochs.max(20), period);
    tr.set("bench.gen_lag_ms_max", worst_lag * 1e3);
    let latencies = stats::sorted(&open.iter().map(|(l, _)| *l * 1e3).collect::<Vec<_>>());
    if let Some(p) = stats::tail_percentile(latencies.len()) {
        tr.set("core.epoch_ms_tail", stats::quantile(&latencies, p));
        tr.set("core.epoch_tail_pct", p * 100.0);
    }
    let closed = closed_loop(&mut run, budget * 0.15);
    run.check(args);
    tr.check(run.check_failures == 0, "the two-thread view");
    run.finish();
    let appends: Vec<&EpochTiming> = closed.iter().filter(|t| !t.retract).collect();
    let plain: Vec<&EpochTiming> = appends.iter().copied().filter(|t| !t.checkpoint).collect();
    let ckpt: Vec<&EpochTiming> = appends.iter().copied().filter(|t| t.checkpoint).collect();
    tr.set("core.append_ms_p50", p50_ms(&appends, |t| t.append_s));
    tr.set("core.snapshot_wait_ms_p50", p50_ms(&appends, |t| t.snapshot_s));
    tr.set("core.plain_epoch_ms_p50", p50_ms(&plain, EpochTiming::total_s));
    tr.set("core.ckpt_epoch_ms_p50", p50_ms(&ckpt, EpochTiming::total_s));

    // Checkpoint overhead: the same closed loop at interval 16 and with
    // checkpoints off, in alternating segments of whole cycles; the median
    // of the per-pair time ratios.
    let mut on = ViewRun::setup(args, WORKER_THREADS, 16);
    let mut off = ViewRun::setup(args, WORKER_THREADS, 0);
    let segment = |run: &mut ViewRun| -> f64 {
        // 16 cycles of 4 epochs: at least 192 Squall epochs, 12 checkpoints.
        (0..64).map(|_| run.step().total_s()).sum()
    };
    segment(&mut on);
    segment(&mut off);
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < 5 || start.elapsed().as_secs_f64() < budget * 0.25 {
        let (a, b) = if ratios.len() % 2 == 0 {
            let a = segment(&mut on);
            (a, segment(&mut off))
        } else {
            let b = segment(&mut off);
            (segment(&mut on), b)
        };
        ratios.push(a / b - 1.0);
    }
    tr.set("core.checkpoint_overhead_frac", stats::median(&ratios));
    eprintln!("checkpoint overhead over {} alternating pairs: {:?}", ratios.len(), ratios);
    on.finish();
    off.finish();
    tr.finish(wall)
}
