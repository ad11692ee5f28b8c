//! Name-based logical expressions and the query block — the functional
//! interface (§2: "a modern Scala collections API" analog in Rust).
//!
//! ```
//! use squall_plan::{col, lit, Query, agg};
//! use squall_expr::{AggFunc, BinOp};
//!
//! // SELECT W1.FromUrl, COUNT(*) FROM WebGraph W1, WebGraph W2
//! // WHERE W1.ToUrl = W2.FromUrl GROUP BY W1.FromUrl
//! let q = Query::from_tables([("WebGraph", "W1"), ("WebGraph", "W2")])
//!     .filter(col("W1.ToUrl").eq(col("W2.FromUrl")))
//!     .group_by([col("W1.FromUrl")])
//!     .select([col("W1.FromUrl"), agg(AggFunc::Count, None)]);
//! assert_eq!(q.tables.len(), 2);
//! ```

use squall_common::{Result, Value};
use squall_expr::{AggFunc, BinOp, ScalarExpr};

/// An unresolved (name-based) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference: `"alias.column"` or a bare, unambiguous
    /// `"column"`.
    Col(String),
    Lit(Value),
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Not(Box<Expr>),
    /// Aggregate call — legal only in the SELECT list.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin { op, lhs: Box::new(self), rhs: Box::new(rhs) }
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }

    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// Column names referenced (aggregate args included).
    pub fn columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Bin { lhs, rhs, .. } => {
                lhs.columns(out);
                rhs.columns(out);
            }
            Expr::Not(e) => e.columns(out),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.columns(out);
                }
            }
        }
    }

    /// Does the expression contain an aggregate call?
    pub fn has_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Bin { lhs, rhs, .. } => lhs.has_agg() || rhs.has_agg(),
            Expr::Not(e) => e.has_agg(),
            _ => false,
        }
    }

    /// Lower to a positional expression: literals, operators and negation
    /// map one to one; `col` lowers each column reference and `agg` each
    /// aggregate call.
    pub(crate) fn lower(
        &self,
        col: &mut dyn FnMut(&str) -> Result<ScalarExpr>,
        agg: &mut dyn FnMut(AggFunc, Option<&Expr>) -> Result<ScalarExpr>,
    ) -> Result<ScalarExpr> {
        Ok(match self {
            Expr::Col(n) => col(n)?,
            Expr::Agg { func, arg } => agg(*func, arg.as_deref())?,
            Expr::Lit(v) => ScalarExpr::Literal(v.clone()),
            Expr::Bin { op, lhs, rhs } => {
                ScalarExpr::bin(*op, lhs.lower(col, agg)?, rhs.lower(col, agg)?)
            }
            Expr::Not(x) => ScalarExpr::Not(Box::new(x.lower(col, agg)?)),
        })
    }
}

/// `col("W1.FromUrl")`.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// `lit(3)`, `lit("blogspot.com")`.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

/// `agg(AggFunc::Count, None)`, `agg(AggFunc::Sum, Some(col("T.E")))`.
pub fn agg(func: AggFunc, arg: Option<Expr>) -> Expr {
    Expr::Agg { func, arg: arg.map(Box::new) }
}

/// Window shape at the logical level (§2: tumbling and sliding windows on
/// top of the full-history engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Non-overlapping buckets of `width` time units: tuples join only
    /// within the same bucket `⌊ts/width⌋`.
    Tumbling { width: u64 },
    /// Tuples join while their timestamps are within `size` of each other.
    Sliding { size: u64 },
}

/// Window semantics for a query block: a shape plus (optionally) the
/// event-time column it is measured on.
///
/// With an explicit `.on("ts")` every relation in the query must expose a
/// column of that (unqualified) name. Without it, every relation must be a
/// registered *stream* with a declared event-time column
/// (`Session::register_stream` / `Catalog::register_stream`).
///
/// ```
/// use squall_plan::{col, Query, Window};
/// let q = Query::from_tables([("impressions", "I"), ("clicks", "C")])
///     .filter(col("I.ad_id").eq(col("C.ad_id")))
///     .window(Window::sliding(30).on("ts"))
///     .select([col("I.ad_id")]);
/// assert!(q.window.is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    pub kind: WindowKind,
    /// Unqualified event-time column name; `None` defers to each source's
    /// declared event-time column.
    pub time_col: Option<String>,
}

impl Window {
    /// A sliding window: tuples within `size` time units join.
    pub fn sliding(size: u64) -> Window {
        Window { kind: WindowKind::Sliding { size }, time_col: None }
    }

    /// A tumbling window of `width` time units.
    pub fn tumbling(width: u64) -> Window {
        Window { kind: WindowKind::Tumbling { width }, time_col: None }
    }

    /// Measure the window on this (unqualified) column of every relation.
    pub fn on(mut self, time_col: impl Into<String>) -> Window {
        self.time_col = Some(time_col.into());
        self
    }
}

/// One ORDER BY key: an output column (SELECT alias or display name) and
/// its direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    pub column: String,
    pub desc: bool,
}

/// One select-project-join-aggregate block.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// `(table name, alias)` in FROM order.
    pub tables: Vec<(String, String)>,
    /// WHERE conjuncts.
    pub filters: Vec<Expr>,
    /// SELECT items with optional output names.
    pub select: Vec<(Expr, Option<String>)>,
    /// GROUP BY column references.
    pub group_by: Vec<Expr>,
    /// HAVING conjuncts over the aggregate output (may reference GROUP BY
    /// columns and aggregate calls, including aggregates not in SELECT).
    pub having: Vec<Expr>,
    /// Window semantics; `None` = full history.
    pub window: Option<Window>,
    /// ORDER BY keys over the *output* columns, applied in sequence (ties
    /// beyond the keys break on the full row, so results stay
    /// deterministic). Empty = the engine's default whole-row order.
    pub order_by: Vec<OrderKey>,
    /// LIMIT: keep only the first `n` rows of the (ordered) result.
    pub limit: Option<u64>,
}

impl Query {
    /// `FROM t1 a1, t2 a2, …`; pass the table name twice to use it as its
    /// own alias.
    pub fn from_tables<'a>(tables: impl IntoIterator<Item = (&'a str, &'a str)>) -> Query {
        Query {
            tables: tables.into_iter().map(|(t, a)| (t.to_string(), a.to_string())).collect(),
            ..Query::default()
        }
    }

    /// Add a WHERE conjunct (ANDs decompose into several `filter` calls or
    /// one `and` expression — both classify identically).
    pub fn filter(mut self, e: Expr) -> Query {
        // Flatten top-level ANDs so pushdown sees the conjuncts.
        fn flatten(e: Expr, out: &mut Vec<Expr>) {
            match e {
                Expr::Bin { op: BinOp::And, lhs, rhs } => {
                    flatten(*lhs, out);
                    flatten(*rhs, out);
                }
                other => out.push(other),
            }
        }
        flatten(e, &mut self.filters);
        self
    }

    pub fn select(mut self, items: impl IntoIterator<Item = Expr>) -> Query {
        self.select = items.into_iter().map(|e| (e, None)).collect();
        self
    }

    pub fn select_as<'a>(mut self, items: impl IntoIterator<Item = (Expr, &'a str)>) -> Query {
        self.select = items.into_iter().map(|(e, n)| (e, Some(n.to_string()))).collect();
        self
    }

    pub fn group_by(mut self, cols: impl IntoIterator<Item = Expr>) -> Query {
        self.group_by = cols.into_iter().collect();
        self
    }

    /// Add a HAVING conjunct over the aggregate output (top-level ANDs
    /// flatten, exactly like [`Query::filter`]).
    pub fn having(mut self, e: Expr) -> Query {
        fn flatten(e: Expr, out: &mut Vec<Expr>) {
            match e {
                Expr::Bin { op: BinOp::And, lhs, rhs } => {
                    flatten(*lhs, out);
                    flatten(*rhs, out);
                }
                other => out.push(other),
            }
        }
        flatten(e, &mut self.having);
        self
    }

    /// Apply window semantics (tumbling or sliding) to the block.
    pub fn window(mut self, w: Window) -> Query {
        self.window = Some(w);
        self
    }

    /// Append an ORDER BY key (`desc = true` for descending). `column`
    /// names an output column: a SELECT alias or the item's display name.
    pub fn order_by(mut self, column: impl Into<String>, desc: bool) -> Query {
        self.order_by.push(OrderKey { column: column.into(), desc });
        self
    }

    /// Keep only the first `n` rows of the (ordered) result.
    pub fn limit(mut self, n: u64) -> Query {
        self.limit = Some(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let q = Query::from_tables([("R", "R"), ("S", "S")])
            .filter(col("R.a").eq(col("S.a")).and(col("R.b").gt(lit(3))))
            .group_by([col("R.a")])
            .select([col("R.a"), agg(AggFunc::Count, None)]);
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.filters.len(), 2, "AND flattens into conjuncts");
        assert_eq!(q.select.len(), 2);
        assert!(q.select[1].0.has_agg());
    }

    #[test]
    fn expr_columns_dedup() {
        let e = col("R.a").eq(col("S.a")).and(col("R.a").gt(lit(1)));
        let mut cols = vec![];
        e.columns(&mut cols);
        assert_eq!(cols, vec!["R.a".to_string(), "S.a".to_string()]);
    }

    #[test]
    fn agg_detection() {
        assert!(agg(AggFunc::Sum, Some(col("x"))).has_agg());
        assert!(!col("x").has_agg());
    }
}
