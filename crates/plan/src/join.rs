//! The join node: the hypercube multiway join (§3) — its atoms and window,
//! over each scan's original ⊕ derived columns (pruned ones only through
//! [`Scan::local`]), the spec it launches with and the `join` component.

use squall_common::{DataType, Result, SquallError};
use squall_core::driver::{JoinReport, WindowPlan};
use squall_expr::join_cond::CmpOp;
use squall_expr::{JoinAtom, MultiJoinSpec, RelationDef, ScalarExpr};
use squall_join::WindowSpec;
use squall_partition::SkewEstimate;
use squall_runtime::Source;

use crate::catalog::Catalog;
use crate::logical::{Query, Window, WindowKind};
use crate::optimizer::OptimizerDecision;
use crate::physical::{ExecConfig, Node, Scope};
use crate::scan::Scan;

/// Resolved window semantics: the shape and each relation's event-time
/// column.
#[derive(Debug, Clone)]
pub(crate) struct PhysWindow {
    pub(crate) spec: WindowSpec,
    pub(crate) ts_cols: Vec<usize>,
    /// Relations whose window column is the stream's declared event-time
    /// column: their data is already validated and event-time-ordered at
    /// registration, so a run skips the per-run sort.
    pub(crate) presorted: Vec<bool>,
}

#[derive(Debug, Clone)]
pub(crate) struct Join {
    /// The join predicates, over relation indices in plan order.
    pub(crate) atoms: Vec<JoinAtom>,
    pub(crate) window: Option<PhysWindow>,
}

/// One list of expressions per relation.
type PerRelation = Vec<Vec<ScalarExpr>>;

impl Join {
    /// Lower WHERE and the window. A conjunct over one relation is pushed
    /// into its scan; a comparison of two becomes an atom, an expression
    /// side a derived column. Returns the join plus each scan's pushed
    /// conjuncts and derived columns (table-local original coordinates).
    pub(crate) fn lower(
        q: &Query,
        scope: &Scope,
        catalog: &Catalog,
    ) -> Result<(Join, PerRelation, PerRelation)> {
        let n = q.tables.len();
        let (mut pushed, mut derived) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let local = |t: usize, e: &ScalarExpr| e.remap_columns(&|g| g - scope.starts[t]);
        let mut atoms = Vec::new();
        for f in &q.filters {
            let g = scope.scalar(f)?;
            match scope.tables_of(&g)[..] {
                [] => {
                    return Err(SquallError::InvalidPlan(format!(
                        "constant predicate not supported: {f:?}"
                    )))
                }
                [t] => pushed[t].push(local(t, &g)),
                [_, _] => {
                    // Must be `sideA op sideB`, each side over one relation.
                    let shape = || {
                        SquallError::InvalidPlan(format!("unsupported join predicate shape: {f:?}"))
                    };
                    let ScalarExpr::Bin { op: bin, lhs, rhs } = &g else { return Err(shape()) };
                    let op = CmpOp::from_binop(*bin).ok_or_else(shape)?;
                    let (lt, rt) = match (&scope.tables_of(lhs)[..], &scope.tables_of(rhs)[..]) {
                        (&[lt], &[rt]) if lt != rt => (lt, rt),
                        _ => {
                            return Err(SquallError::InvalidPlan(format!(
                                "join predicate must compare two tables: {f:?}"
                            )))
                        }
                    };
                    let mut side = |t: usize, e: &ScalarExpr| match e {
                        ScalarExpr::Column(g) => g - scope.starts[t],
                        other => {
                            derived[t].push(local(t, other));
                            scope.schemas[t].arity() + derived[t].len() - 1
                        }
                    };
                    let (left_col, right_col) = (side(lt, lhs), side(rt, rhs));
                    atoms.push(JoinAtom { left_rel: lt, left_col, op, right_rel: rt, right_col });
                }
                _ => {
                    return Err(SquallError::InvalidPlan(format!(
                        "predicates over 3+ tables are not supported: {f:?}"
                    )))
                }
            }
        }
        let window = q.window.as_ref().map(|w| lower_window(w, q, scope, catalog)).transpose()?;
        Ok((Join { atoms, window }, pushed, derived))
    }

    /// The original columns the join reads, per relation.
    pub(crate) fn needed(&self, scope: &Scope) -> Vec<Vec<usize>> {
        let mut needed = vec![Vec::new(); scope.schemas.len()];
        let sides =
            self.atoms.iter().flat_map(|a| [(a.left_rel, a.left_col), (a.right_rel, a.right_col)]);
        let ts = self.window.iter().flat_map(|w| w.ts_cols.iter().copied().enumerate());
        for (t, c) in sides.chain(ts).filter(|&(t, c)| c < scope.schemas[t].arity()) {
            needed[t].push(c);
        }
        needed
    }

    /// The atoms over the scans' pruned (join-input) columns.
    pub(crate) fn local_atoms(&self, scans: &[Scan]) -> Result<Vec<JoinAtom>> {
        self.atoms
            .iter()
            .map(|a| {
                Ok(JoinAtom {
                    left_col: scans[a.left_rel].local(a.left_col)?,
                    right_col: scans[a.right_rel].local(a.right_col)?,
                    ..*a
                })
            })
            .collect()
    }

    /// The window over the scans' pruned columns, as the topology runs it.
    pub(crate) fn window_plan(&self, scans: &[Scan]) -> Result<Option<WindowPlan>> {
        let Some(w) = &self.window else { return Ok(None) };
        let ts_cols =
            w.ts_cols.iter().zip(scans).map(|(&c, s)| s.local(c)).collect::<Result<_>>()?;
        Ok(Some(WindowPlan { spec: w.spec, ts_cols }))
    }

    /// The join spec: relation `t` sized `rows(t)`, a join-key column `c`
    /// flagged skewed if `skewed(t, c)` — measured at launch, estimated by
    /// the optimizer.
    pub(crate) fn spec(
        &self,
        scans: &[Scan],
        rows: &dyn Fn(usize) -> u64,
        skewed: &dyn Fn(usize, usize) -> bool,
    ) -> Result<MultiJoinSpec> {
        let atoms = self.local_atoms(scans)?;
        let mut rels: Vec<RelationDef> = scans
            .iter()
            .enumerate()
            .map(|(t, s)| RelationDef::new(s.alias.clone(), s.schema.clone(), rows(t)))
            .collect();
        for a in &atoms {
            for (t, c) in [(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
                if skewed(t, c) {
                    let name = rels[t].schema.field(c).name.clone();
                    rels[t].schema.set_skewed(&name)?;
                }
            }
        }
        MultiJoinSpec::new(rels, atoms)
    }

    /// The spec a run launches with over its sources, put in event-time
    /// order first when windowed (the watermark-eviction contract; streams
    /// windowed on their declared column were sorted at registration).
    /// `skew` = `(machines, slack)` adds the sample-based skew detection per
    /// join-key occurrence (§3.4) that the Hybrid scheme acts on.
    pub(crate) fn launch_spec(
        &self,
        scans: &[Scan],
        data: &mut [Source],
        skew: Option<(usize, f64)>,
    ) -> Result<MultiJoinSpec> {
        if let (Some(w), Some(plan)) = (&self.window, self.window_plan(scans)?) {
            for (t, d) in data.iter_mut().enumerate().filter(|(t, _)| !w.presorted[*t]) {
                d.sort_by_event_time(plan.ts_cols[t])?;
            }
        }
        let data: &[Source] = data;
        let skewed = |t: usize, c: usize| {
            skew.is_some_and(|(machines, slack)| {
                let sample = (0..data[t].len().min(20_000)).map(|k| data[t].value(k, c));
                SkewEstimate::from_sample(sample).is_skewed(machines, slack)
            })
        };
        let spec = self.spec(scans, &|t| data[t].len() as u64, &skewed)?;
        if !spec.is_connected() {
            return Err(SquallError::InvalidPlan(
                "join graph is disconnected (Cartesian products unsupported)".into(),
            ));
        }
        Ok(spec)
    }

    /// Follow the scans into `order`: `inv[old]` is a relation's new index.
    pub(crate) fn apply_order(&mut self, order: &[usize], inv: &[usize]) {
        for a in &mut self.atoms {
            a.left_rel = inv[a.left_rel];
            a.right_rel = inv[a.right_rel];
        }
        if let Some(w) = &mut self.window {
            w.ts_cols = order.iter().map(|&t| w.ts_cols[t]).collect();
            w.presorted = order.iter().map(|&t| w.presorted[t]).collect();
        }
    }

    /// The join component (one identity task for a single relation) and its
    /// explain line, the optimizer's decision beneath it.
    pub(crate) fn node(
        &self,
        scans: &[Scan],
        cfg: &ExecConfig,
        decision: Option<&OptimizerDecision>,
        report: Option<&JoinReport>,
    ) -> Node {
        let tasks = if scans.len() == 1 { 1 } else { cfg.machines.max(1) };
        let name = |t: usize, c: usize| scans[t].column_name(c);
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                let (l, r) = (name(a.left_rel, a.left_col), name(a.right_rel, a.right_col));
                format!("{l} {:?} {r}", a.op)
            })
            .collect();
        let mut line = format!("join ×{tasks}: join atoms [{}]", atoms.join(", "));
        if let Some(w) = &self.window {
            let ts: Vec<String> = w.ts_cols.iter().enumerate().map(|(t, &c)| name(t, c)).collect();
            line.push_str(&format!(", window {:?} on [{}]", w.spec, ts.join(", ")));
        }
        let mut lines = vec![line];
        if let Some(d) = decision {
            lines.extend(decision_lines(d, report));
        }
        Node { entries: vec![("join".into(), tasks, false)], lines }
    }
}

/// The optimizer's decision: the chosen order as an estimated-vs-actual
/// table (actuals from a finished run's per-relation counters, dashed
/// without one) and the scheme candidates.
fn decision_lines(d: &OptimizerDecision, report: Option<&JoinReport>) -> Vec<String> {
    let mut lines = vec![
        format!(
            "optimizer: mode={}, orders considered={}, est cost {:.0} (written order {:.0})",
            d.mode, d.orders_considered, d.est_cost, d.written_cost
        ),
        format!(
            "join order: {}",
            d.steps.iter().map(|st| st.relation.as_str()).collect::<Vec<_>>().join(" ⋈ ")
        ),
        "  step  relation      est rows  est cumulative  actual rows".to_string(),
    ];
    let counts = report.map(|r| r.input_counts.as_slice()).unwrap_or(&[]);
    for (k, st) in d.steps.iter().enumerate() {
        let act = counts.get(k).map(|&c| c.to_string()).unwrap_or_else(|| "—".into());
        lines.push(format!(
            "  {:<5} {:<12} {:>9.0} {:>15.0}  {:>10}",
            k + 1,
            st.relation,
            st.est_rows,
            st.est_cumulative,
            act
        ));
    }
    if let Some(r) = report {
        lines.push(format!(
            "  actual: {} result rows, replication {:.2}, skew degree {:.2}",
            r.result_count, r.replication_factor, r.skew_degree
        ));
    }
    lines.push(match &d.scheme {
        Some(sc) => {
            let costs: Vec<String> = sc
                .candidates
                .iter()
                .map(|c| format!("{:?} {:.3}", c.kind, c.cost(&sc.calibration)))
                .collect();
            format!("scheme: {:?} chosen by cost [{}]", sc.kind, costs.join(", "))
        }
        None => "scheme: forced by config".to_string(),
    });
    lines
}

/// Each relation's event-time column: `ON col`, else the stream's declared
/// one.
fn lower_window(w: &Window, q: &Query, scope: &Scope, catalog: &Catalog) -> Result<PhysWindow> {
    if q.tables.len() < 2 {
        return Err(SquallError::InvalidPlan(
            "window semantics apply to stream joins; a single-relation \
             windowed query has no join state to expire"
                .into(),
        ));
    }
    let spec = match w.kind {
        WindowKind::Tumbling { width: 0 } => {
            return Err(SquallError::InvalidPlan("tumbling width must be > 0".into()))
        }
        WindowKind::Sliding { size: 0 } => {
            return Err(SquallError::InvalidPlan("sliding size must be > 0".into()))
        }
        WindowKind::Tumbling { width } => WindowSpec::Tumbling { width },
        WindowKind::Sliding { size } => WindowSpec::Sliding { size },
    };
    let (mut ts_cols, mut presorted) = (Vec::new(), Vec::new());
    for ((tname, alias), schema) in q.tables.iter().zip(&scope.schemas) {
        let declared = catalog.get(tname)?.event_time_col();
        let c = match &w.time_col {
            Some(name) if name.contains('.') => {
                return Err(SquallError::InvalidPlan(format!(
                    "WINDOW ... ON takes an unqualified column name \
                     present in every relation, got {name}"
                )))
            }
            Some(name) => schema.index_of(&format!("{alias}.{name}")).map_err(|_| {
                SquallError::UnknownColumn(format!("{alias}.{name} (window event-time column)"))
            })?,
            None => declared.ok_or_else(|| {
                SquallError::InvalidPlan(format!(
                    "{tname} is not a stream: register it with register_stream \
                     or name the event-time column with WINDOW ... ON <col>"
                ))
            })?,
        };
        let field = schema.field(c);
        if field.data_type != DataType::Int {
            return Err(SquallError::InvalidPlan(format!(
                "window event-time column {} must be Int, is {}",
                field.name, field.data_type
            )));
        }
        ts_cols.push(c);
        presorted.push(declared == Some(c));
    }
    Ok(PhysWindow { spec, ts_cols, presorted })
}

#[cfg(test)]
mod tests {
    use squall_common::{tuple, DataType, Schema, SplitMix64, SquallError, Tuple};
    use squall_core::driver::{run_multiway, LocalJoinKind};
    use squall_expr::AggFunc;
    use squall_partition::optimizer::SchemeKind;
    use squall_runtime::Source;

    use crate::catalog::Catalog;
    use crate::logical::{agg, col, lit};
    use crate::physical::{execute_query, ExecConfig, PhysicalQuery};
    use crate::tests::{catalog, stream_catalog};
    use crate::Query;

    #[test]
    fn three_way_chain_with_count() {
        // SELECT T.d, COUNT(*) FROM R,S,T WHERE R.a=S.a AND S.c=T.c
        // GROUP BY T.d.
        let q = Query::from_tables([("R", "R"), ("S", "S"), ("T", "T")])
            .filter(col("R.a").eq(col("S.a")))
            .filter(col("S.c").eq(col("T.c")))
            .group_by([col("T.d")])
            .select([col("T.d"), agg(AggFunc::Count, None)]);
        let mut res = execute_query(&q, &catalog(), &ExecConfig::default()).unwrap();
        // Joins: R.a=2 (2 rows) × S(2,100),(2,150) ; R.a=3 × S(3,200).
        // T: c=100→d7, c=200→d8. Count d=7: R{2,2}×S(2,100) = 2; d=8:
        // R{3}×S(3,200) = 1.
        assert_eq!(res.rows(), vec![tuple![7, 2], tuple![8, 1]]);
    }

    #[test]
    fn disconnected_join_rejected() {
        let q = Query::from_tables([("R", "R"), ("T", "T")]).select([col("R.a")]);
        let p = PhysicalQuery::plan(&q, &catalog()).unwrap();
        assert!(p.execute(&catalog(), &ExecConfig::default()).is_err());
    }

    #[test]
    fn windowed_join_matches_timestamp_oracle() {
        use crate::logical::Window;
        // SELECT A.k, A.ts, B.ts FROM A, B WHERE A.k = B.k WINDOW SLIDING 10.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(10))
            .select([col("A.k"), col("A.ts"), col("B.ts")]);
        let mut res = execute_query(&q, &stream_catalog(), &ExecConfig::default()).unwrap();
        // Key + |Δts| ≤ 10 pairs: (1@0,1@8), (1@50,1@49); (2@20,2@25).
        assert_eq!(res.rows(), vec![tuple![1, 0, 8], tuple![1, 50, 49], tuple![2, 20, 25]]);
    }

    #[test]
    fn windowed_plan_keeps_event_time_columns() {
        use crate::logical::Window;
        // Neither ts column is selected or joined on — the window alone
        // must keep them alive through output-scheme pruning.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(10))
            .select([agg(AggFunc::Count, None)]);
        let p = PhysicalQuery::plan(&q, &stream_catalog()).unwrap();
        assert_eq!(p.scans[0].kept, vec![0, 1]);
        assert_eq!(p.scans[1].kept, vec![0, 1]);
        assert!(p.explain(&ExecConfig::default(), None).contains("window"));
        // Tumbling width 10: (1@0,1@8) share bucket 0; (2@20,2@25) share
        // bucket 2; (1@50,1@49) split across buckets 5 and 4. With an
        // aggregate under a window the count is *per window*, with the
        // window bounds prepended to the output row.
        let mut res = p.execute(&stream_catalog(), &ExecConfig::default()).unwrap();
        assert_eq!(res.rows(), vec![tuple![0, 9, 1], tuple![20, 29, 1]]);
        assert_eq!(res.schema().field(0).name, "window_start");
        assert_eq!(res.schema().field(1).name, "window_end");
    }

    #[test]
    fn window_plan_errors() {
        use crate::logical::Window;
        let c = stream_catalog();
        // Single-relation windowed query.
        let q = Query::from_tables([("A", "A")]).window(Window::sliding(5)).select([col("A.k")]);
        assert!(PhysicalQuery::plan(&q, &c).is_err());
        // Zero-width windows.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::tumbling(0))
            .select([col("A.k")]);
        assert!(PhysicalQuery::plan(&q, &c).is_err());
        // ON column missing from a relation.
        let q = Query::from_tables([("A", "A"), ("B", "B")])
            .filter(col("A.k").eq(col("B.k")))
            .window(Window::sliding(5).on("nope"))
            .select([col("A.k")]);
        assert!(matches!(PhysicalQuery::plan(&q, &c), Err(SquallError::UnknownColumn(_))));
        // Plain tables without ON: no declared event time.
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .window(Window::sliding(5))
            .select([col("R.b")]);
        assert!(matches!(PhysicalQuery::plan(&q, &catalog()), Err(SquallError::InvalidPlan(_))));
    }

    #[test]
    fn single_table_query_runs_as_a_one_relation_topology() {
        let q = Query::from_tables([("R", "R")])
            .filter(col("R.b").gt(lit(15)))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)]);
        for local in [LocalJoinKind::DBToaster, LocalJoinKind::Traditional] {
            let cfg = ExecConfig { local, ..ExecConfig::default() };
            let mut res = execute_query(&q, &catalog(), &cfg).unwrap();
            assert_eq!(res.rows(), vec![tuple![2, 2], tuple![3, 1]], "{local}");
            let report = res.report().expect("a single table runs as a topology too");
            assert_eq!(report.input_count, 3, "{local}: R's rows after b > 15");
            assert_eq!(report.loads, vec![3], "{local}: one identity join task");
        }
    }

    #[test]
    fn explain_fills_the_estimate_table_from_a_report() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")))
            .select([col("R.b"), col("S.c")]);
        let cat = catalog();
        let cfg = ExecConfig::default();
        let mut p = PhysicalQuery::plan(&q, &cat).unwrap();
        crate::optimizer::optimize(&mut p, &cat, &cfg).unwrap();
        let d = p.decision().expect("optimizer ran");
        assert_eq!(d.steps.len(), 2);
        let dry = p.explain(&cfg, None);
        assert!(dry.contains("est rows"), "{dry}");
        assert!(dry.contains('—'), "actuals dashed before the run: {dry}");
        let mut res = p.execute(&cat, &cfg).unwrap();
        res.rows();
        let report = res.report().expect("distributed run has a report");
        let counts = report.input_counts.clone();
        let wet = p.explain(&cfg, Some(report));
        assert!(wet.contains("actual rows"), "{wet}");
        assert!(!counts.is_empty(), "the run counts per-relation input");
        for c in &counts {
            assert!(wet.contains(&c.to_string()), "actual {c} rendered: {wet}");
        }
    }

    /// A Hash launch skips the skew probe and reads its sources in place;
    /// the run must be the one owned, probed inputs gave: the same result
    /// rows, per-machine loads, input counts and scheme.
    #[test]
    fn hash_launch_runs_as_owned_probed_inputs_did() {
        let mut rng = SplitMix64::new(3);
        let int = |a: &'static str, b: &'static str| {
            Schema::of(&[(a, DataType::Int), (b, DataType::Int)])
        };
        // Half of R's keys are 0: the probe flags R.k skewed.
        let r: Vec<Tuple> = (0..3_000)
            .map(|i| tuple![(i % 2) * rng.next_range(0, 200), rng.next_range(0, 999)])
            .collect();
        let s: Vec<Tuple> =
            (0..3_000).map(|_| tuple![rng.next_range(0, 200), rng.next_range(0, 999)]).collect();
        let mut cat = Catalog::new();
        cat.register("R", int("k", "f"), r).unwrap();
        cat.register("S", int("k", "g"), s).unwrap();
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.k").eq(col("S.k")))
            .filter(col("R.f").lt(lit(900)))
            .filter(col("S.g").lt(lit(500)))
            .select([col("R.k"), col("S.k")]);
        let cfg =
            ExecConfig { scheme: Some(SchemeKind::Hash), machines: 6, ..ExecConfig::default() };
        let plan = PhysicalQuery::plan(&q, &cat).unwrap();
        let mut rs = plan.execute(&cat, &cfg).unwrap();
        let rows = rs.rows().to_vec();
        let report = rs.report().expect("a finished run");

        let scans = &plan.scans;
        let loaded = scans.iter().map(|s| s.source(&cat.get(&s.name).unwrap().data).unwrap());
        let mut owned: Vec<Source> = loaded.map(|s| Source::from(s.to_tuples())).collect();
        let probe = Some((cfg.machines, cfg.skew_slack));
        let spec = plan.join.launch_spec(scans, &mut owned, probe).unwrap();
        assert!(!spec.is_skew_free(0, 0), "the probe flags R.k");
        let data = owned.iter().map(Source::to_tuples).collect();
        let mcfg = plan.multiway_config(SchemeKind::Hash, &cfg).unwrap();
        let mut before = run_multiway(&spec, data, &mcfg).unwrap();
        before.results.sort();
        assert!(rows.len() > 1_000, "{} rows", rows.len());
        assert_eq!(rows, before.results);
        assert_eq!(report.loads, before.loads);
        assert_eq!(report.input_counts, before.input_counts);
        assert_eq!(report.scheme_description, before.scheme_description);
    }
}
