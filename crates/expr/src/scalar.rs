//! Scalar expressions over tuples and columnar chunks.

use std::fmt;

use squall_common::array::{Array, ArrayBuilder, I64Array, Utf8Array};
use squall_common::{Chunk, DataType, Date, Result, SquallError, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

squall_common::wire_tags! { BinOp {
    0 => Add, 1 => Sub, 2 => Mul, 3 => Div, 4 => Mod,
    5 => Eq, 6 => Ne, 7 => Lt, 8 => Le, 9 => Gt, 10 => Ge,
    11 => And, 12 => Or,
} }

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions supported by Squall ("we currently support sum, count
/// and average aggregates", §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
}

squall_common::wire_tags! { AggFunc { 0 => Count, 1 => Sum, 2 => Avg } }

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::Count => write!(f, "COUNT"),
            AggFunc::Sum => write!(f, "SUM"),
            AggFunc::Avg => write!(f, "AVG"),
        }
    }
}

/// A scalar expression evaluated against one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference by position (name resolution happens at plan time).
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Bin { op: BinOp, lhs: Box<ScalarExpr>, rhs: Box<ScalarExpr> },
    /// Boolean negation.
    Not(Box<ScalarExpr>),
    /// Type cast. `Cast(e, Date)` performs real text parsing when the input
    /// is a string — the per-tuple cost that dominates the `sel(date)` bar
    /// of Figure 5.
    Cast { expr: Box<ScalarExpr>, to: DataType },
}

// Nesting crosses through `Box`, whose decoder bounds it.
squall_common::wire_tags! { ScalarExpr {
    0 => Column(i),
    1 => Literal(v),
    2 => Bin { op, lhs, rhs },
    3 => Not(x),
    4 => Cast { expr, to },
} }

impl ScalarExpr {
    pub fn col(idx: usize) -> ScalarExpr {
        ScalarExpr::Column(idx)
    }

    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    pub fn bin(op: BinOp, lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn eq(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::bin(BinOp::Eq, lhs, rhs)
    }

    pub fn and(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::bin(BinOp::And, lhs, rhs)
    }

    pub fn cast(expr: ScalarExpr, to: DataType) -> ScalarExpr {
        ScalarExpr::Cast { expr: Box::new(expr), to }
    }

    /// Evaluate against one row (a `&Tuple` passes as its slice).
    pub fn eval(&self, tuple: &[Value]) -> Result<Value> {
        match self {
            ScalarExpr::Column(i) => tuple.get(*i).cloned().ok_or_else(|| {
                SquallError::InvalidPlan(format!(
                    "column {i} out of range for arity {}",
                    tuple.len()
                ))
            }),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Bin { op, lhs, rhs } => {
                let l = lhs.eval(tuple)?;
                // Short-circuit booleans.
                match op {
                    BinOp::And => {
                        return if !truthy(&l)? {
                            Ok(Value::Int(0))
                        } else {
                            Ok(Value::Int(truthy(&rhs.eval(tuple)?)? as i64))
                        };
                    }
                    BinOp::Or => {
                        return if truthy(&l)? {
                            Ok(Value::Int(1))
                        } else {
                            Ok(Value::Int(truthy(&rhs.eval(tuple)?)? as i64))
                        };
                    }
                    _ => {}
                }
                let r = rhs.eval(tuple)?;
                eval_bin(*op, &l, &r)
            }
            ScalarExpr::Not(e) => Ok(Value::Int(!truthy(&e.eval(tuple)?)? as i64)),
            ScalarExpr::Cast { expr, to } => cast_value(expr.eval(tuple)?, *to),
        }
    }

    /// Evaluate as a predicate.
    pub fn eval_bool(&self, tuple: &[Value]) -> Result<bool> {
        truthy(&self.eval(tuple)?)
    }

    /// Evaluate against every row of a chunk, column-at-a-time.
    ///
    /// Column references clone the input column, comparisons and integer
    /// arithmetic over fully-valid `Int` columns run as tight loops over
    /// primitive slices, and everything else falls back to per-row
    /// evaluation over materialized cell values — never whole row tuples.
    /// On a successful run the result is row-for-row identical to
    /// [`ScalarExpr::eval`]; when some row errors, the chunk evaluation
    /// surfaces the same error but may do so before earlier rows' results
    /// are consumed (the run aborts either way). `AND`/`OR` keep their
    /// short-circuit contract: the right side is not evaluated at all
    /// unless some row needs it, and if its vectorized evaluation fails,
    /// evaluation degrades to exact per-row semantics.
    pub fn eval_chunk(&self, chunk: &Chunk) -> Result<Array> {
        match self {
            ScalarExpr::Column(i) => {
                if *i >= chunk.n_cols() {
                    return Err(SquallError::InvalidPlan(format!(
                        "column {i} out of range for arity {}",
                        chunk.n_cols()
                    )));
                }
                Ok(chunk.column(*i).clone())
            }
            ScalarExpr::Literal(v) => Ok(broadcast(v, chunk.n_rows())),
            ScalarExpr::Bin { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    eval_logical_chunk(*op == BinOp::And, self, lhs, rhs, chunk)
                }
                _ => {
                    let l = lhs.eval_chunk(chunk)?;
                    let r = rhs.eval_chunk(chunk)?;
                    eval_bin_arrays(*op, &l, &r)
                }
            },
            ScalarExpr::Not(e) => {
                let a = e.eval_chunk(chunk)?;
                let mut out = Vec::with_capacity(a.len());
                for i in 0..a.len() {
                    out.push(!truthy(&a.value(i))? as i64);
                }
                Ok(Array::Int(I64Array::from_values(out)))
            }
            ScalarExpr::Cast { expr, to } => {
                let a = expr.eval_chunk(chunk)?;
                let mut b = ArrayBuilder::new();
                for i in 0..a.len() {
                    b.push(&cast_value(a.value(i), *to)?);
                }
                Ok(b.finish())
            }
        }
    }

    /// The set of column indexes this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Bin { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            ScalarExpr::Not(e) | ScalarExpr::Cast { expr: e, .. } => e.referenced_columns(out),
        }
    }

    /// Rewrite column indexes through a mapping (old index → new index).
    /// Used by projection pushdown when a component narrows its output
    /// scheme (§2, "each component decides on its output scheme based on the
    /// fields/expressions that are needed downstream").
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Column(i) => ScalarExpr::Column(map(*i)),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Bin { op, lhs, rhs } => ScalarExpr::Bin {
                op: *op,
                lhs: Box::new(lhs.remap_columns(map)),
                rhs: Box::new(rhs.remap_columns(map)),
            },
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.remap_columns(map))),
            ScalarExpr::Cast { expr, to } => {
                ScalarExpr::Cast { expr: Box::new(expr.remap_columns(map)), to: *to }
            }
        }
    }
}

/// Boolean interpretation: non-zero numerics are true.
fn truthy(v: &Value) -> Result<bool> {
    match v {
        Value::Int(i) => Ok(*i != 0),
        Value::Float(f) => Ok(*f != 0.0),
        Value::Null => Ok(false),
        other => {
            Err(SquallError::TypeMismatch { expected: "boolean-like", found: format!("{other:?}") })
        }
    }
}

/// A column holding `rows` copies of one literal.
fn broadcast(v: &Value, rows: usize) -> Array {
    match v {
        Value::Null => Array::Null(rows),
        Value::Int(i) => Array::Int(I64Array::from_values(vec![*i; rows])),
        Value::Float(f) => {
            Array::Float(squall_common::array::F64Array::from_values(vec![*f; rows]))
        }
        Value::Str(s) => {
            let mut a = Utf8Array::new();
            for _ in 0..rows {
                a.push(Some(s));
            }
            Array::Str(a)
        }
        Value::Date(d) => {
            Array::Date(squall_common::array::DateArray::from_values(vec![d.0; rows]))
        }
    }
}

/// Chunked `AND`/`OR` preserving the short-circuit contract: the right side
/// is only evaluated if some row's left side leaves the outcome open, and a
/// failing vectorized right side degrades to exact per-row evaluation of
/// the whole expression (so errors surface for precisely the rows that
/// would reach them row-at-a-time).
fn eval_logical_chunk(
    and: bool,
    whole: &ScalarExpr,
    lhs: &ScalarExpr,
    rhs: &ScalarExpr,
    chunk: &Chunk,
) -> Result<Array> {
    let l = lhs.eval_chunk(chunk)?;
    let rows = l.len();
    let mut lmask = Vec::with_capacity(rows);
    for i in 0..rows {
        lmask.push(truthy(&l.value(i))?);
    }
    // A row's left side decides it unless it is true under AND, false
    // under OR.
    if !lmask.contains(&and) {
        let decided = i64::from(!and);
        return Ok(Array::Int(I64Array::from_values(vec![decided; rows])));
    }
    match rhs.eval_chunk(chunk) {
        Ok(r) => {
            let mut out = Vec::with_capacity(rows);
            for (i, &lv) in lmask.iter().enumerate() {
                let v = if lv == and { truthy(&r.value(i))? } else { lv };
                out.push(i64::from(v));
            }
            Ok(Array::Int(I64Array::from_values(out)))
        }
        Err(_) => {
            // Exact row semantics: rows whose left side decides never touch
            // the failing right side.
            let mut b = ArrayBuilder::new();
            for i in 0..rows {
                b.push(&whole.eval(&chunk.row(i))?);
            }
            Ok(b.finish())
        }
    }
}

/// Element-wise binary evaluation over two columns. Fully-valid `Int`
/// columns take vectorized loops; everything else falls back to per-cell
/// [`eval_bin`].
fn eval_bin_arrays(op: BinOp, l: &Array, r: &Array) -> Result<Array> {
    debug_assert_eq!(l.len(), r.len(), "operand column lengths differ");
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        if a.validity().is_none() && b.validity().is_none() {
            if let Some(out) = eval_bin_i64(op, a.values(), b.values()) {
                return Ok(out);
            }
        }
    }
    let mut bld = ArrayBuilder::new();
    for i in 0..l.len() {
        bld.push(&eval_bin(op, &l.value(i), &r.value(i))?);
    }
    Ok(bld.finish())
}

/// Vectorized `Int × Int` kernels. Returns `None` when the operation can
/// produce NULL (division by a zero divisor) — the caller then takes the
/// exact per-cell path.
fn eval_bin_i64(op: BinOp, a: &[i64], b: &[i64]) -> Option<Array> {
    use BinOp::*;
    let zip = a.iter().zip(b.iter());
    let out: Vec<i64> = match op {
        Eq => zip.map(|(x, y)| (x == y) as i64).collect(),
        Ne => zip.map(|(x, y)| (x != y) as i64).collect(),
        Lt => zip.map(|(x, y)| (x < y) as i64).collect(),
        Le => zip.map(|(x, y)| (x <= y) as i64).collect(),
        Gt => zip.map(|(x, y)| (x > y) as i64).collect(),
        Ge => zip.map(|(x, y)| (x >= y) as i64).collect(),
        Add => zip.map(|(x, y)| x.wrapping_add(*y)).collect(),
        Sub => zip.map(|(x, y)| x.wrapping_sub(*y)).collect(),
        Mul => zip.map(|(x, y)| x.wrapping_mul(*y)).collect(),
        Div | Mod => {
            if b.contains(&0) {
                return None; // NULL rows: take the per-cell path
            }
            match op {
                Div => zip.map(|(x, y)| x.wrapping_div(*y)).collect(),
                _ => zip.map(|(x, y)| x.wrapping_rem(*y)).collect(),
            }
        }
        And | Or => return None, // handled by eval_logical_chunk
    };
    Some(Array::Int(I64Array::from_values(out)))
}

fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if op.is_comparison() {
        let ord = l.cmp(r);
        let b = match op {
            Eq => ord == std::cmp::Ordering::Equal,
            Ne => ord != std::cmp::Ordering::Equal,
            Lt => ord == std::cmp::Ordering::Less,
            Le => ord != std::cmp::Ordering::Greater,
            Gt => ord == std::cmp::Ordering::Greater,
            Ge => ord != std::cmp::Ordering::Less,
            _ => return Err(not_arithmetic(op)),
        };
        return Ok(Value::Int(b as i64));
    }
    // Arithmetic: stay integral when both sides are ints (except Div by 0).
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                Add => a.wrapping_add(*b),
                Sub => a.wrapping_sub(*b),
                Mul => a.wrapping_mul(*b),
                Div => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.wrapping_div(*b)
                }
                Mod => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.wrapping_rem(*b)
                }
                _ => return Err(not_arithmetic(op)),
            };
            Ok(Value::Int(v))
        }
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                _ => return Err(not_arithmetic(op)),
            };
            Ok(Value::Float(v))
        }
    }
}

/// What [`eval_bin`] answers for AND and OR, which its callers evaluate
/// themselves (they short-circuit): a typed error, not a value.
fn not_arithmetic(op: BinOp) -> SquallError {
    SquallError::InvalidPlan(format!("{op} is neither a comparison nor arithmetic"))
}

fn cast_value(v: Value, to: DataType) -> Result<Value> {
    match (v, to) {
        (Value::Int(i), DataType::Int) => Ok(Value::Int(i)),
        (Value::Float(f), DataType::Int) => Ok(Value::Int(f as i64)),
        (Value::Str(s), DataType::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| SquallError::Parse(format!("cannot cast {s:?} to INT"))),
        (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
        (Value::Float(f), DataType::Float) => Ok(Value::Float(f)),
        (Value::Str(s), DataType::Float) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| SquallError::Parse(format!("cannot cast {s:?} to FLOAT"))),
        (Value::Str(s), DataType::Date) => Date::parse(&s).map(Value::Date),
        (Value::Date(d), DataType::Date) => Ok(Value::Date(d)),
        (v, DataType::Str) => Ok(Value::str(v.to_string())),
        (Value::Null, _) => Ok(Value::Null),
        (v, t) => Err(SquallError::TypeMismatch {
            expected: "castable value",
            found: format!("{v:?} -> {t}"),
        }),
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(i) => write!(f, "${i}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Bin { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            ScalarExpr::Not(e) => write!(f, "NOT ({e})"),
            ScalarExpr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::tuple;

    #[test]
    fn column_and_literal() {
        let t = tuple![5, "x"];
        assert_eq!(ScalarExpr::col(0).eval(&t).unwrap(), Value::Int(5));
        assert_eq!(ScalarExpr::lit(9).eval(&t).unwrap(), Value::Int(9));
        assert!(ScalarExpr::col(7).eval(&t).is_err());
    }

    #[test]
    fn integer_arithmetic() {
        let t = tuple![10, 3];
        let e = ScalarExpr::bin(BinOp::Mod, ScalarExpr::col(0), ScalarExpr::col(1));
        assert_eq!(e.eval(&t).unwrap(), Value::Int(1));
        let d = ScalarExpr::bin(BinOp::Div, ScalarExpr::col(0), ScalarExpr::lit(0));
        assert_eq!(d.eval(&t).unwrap(), Value::Null, "div by zero is NULL");
    }

    #[test]
    fn mixed_arithmetic_widens() {
        let t = tuple![10, 2.5];
        let e = ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(0), ScalarExpr::col(1));
        assert_eq!(e.eval(&t).unwrap(), Value::Float(25.0));
    }

    #[test]
    fn comparisons() {
        let t = tuple![2, 3];
        let lt = ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(0), ScalarExpr::col(1));
        assert!(lt.eval_bool(&t).unwrap());
        let ge = ScalarExpr::bin(BinOp::Ge, ScalarExpr::col(0), ScalarExpr::col(1));
        assert!(!ge.eval_bool(&t).unwrap());
    }

    #[test]
    fn paper_join_predicate_shape() {
        // 2 * R.B < S.C   (§3.3 example) over concatenated tuple [B, C].
        let t = tuple![4, 9];
        let e = ScalarExpr::bin(
            BinOp::Lt,
            ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(0)),
            ScalarExpr::col(1),
        );
        assert!(e.eval_bool(&t).unwrap()); // 8 < 9
        let t2 = tuple![5, 9];
        assert!(!e.eval_bool(&t2).unwrap()); // 10 < 9 is false
    }

    #[test]
    fn boolean_short_circuit() {
        // AND short-circuits: rhs would error (bad column) but is not reached.
        let t = tuple![0];
        let e = ScalarExpr::and(ScalarExpr::col(0), ScalarExpr::col(99));
        assert!(!e.eval_bool(&t).unwrap());
        let o = ScalarExpr::bin(BinOp::Or, ScalarExpr::lit(1), ScalarExpr::col(99));
        assert!(o.eval_bool(&t).unwrap());
    }

    #[test]
    fn not() {
        let t = tuple![1];
        assert!(!ScalarExpr::Not(Box::new(ScalarExpr::col(0))).eval_bool(&t).unwrap());
    }

    #[test]
    fn cast_str_to_date_parses() {
        let t = tuple!["1994-07-01"];
        let e = ScalarExpr::cast(ScalarExpr::col(0), DataType::Date);
        let v = e.eval(&t).unwrap();
        assert_eq!(v, Value::Date(Date::parse("1994-07-01").unwrap()));
        let bad = tuple!["not-a-date"];
        assert!(e.eval(&bad).is_err());
    }

    #[test]
    fn cast_str_to_int() {
        let t = tuple![" 42 "];
        let e = ScalarExpr::cast(ScalarExpr::col(0), DataType::Int);
        assert_eq!(e.eval(&t).unwrap(), Value::Int(42));
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = ScalarExpr::and(
            ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::col(0)),
            ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(2), ScalarExpr::lit(5)),
        );
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);
    }

    #[test]
    fn remap_columns() {
        let e = ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::col(5));
        let r = e.remap_columns(&|i| i - 3);
        let t = tuple![7, 0, 7];
        assert!(r.eval_bool(&t).unwrap());
    }

    #[test]
    fn eval_chunk_matches_row_eval() {
        let ts = vec![
            tuple![10, 3, 2.5, "7", Value::Null],
            tuple![0, 0, 4.0, " 42 ", 8],
            tuple![-5, 9, 1.0, "0", Value::Null],
        ];
        let chunk = Chunk::from_tuples(&ts);
        let exprs = vec![
            ScalarExpr::col(0),
            ScalarExpr::lit(9),
            ScalarExpr::bin(BinOp::Add, ScalarExpr::col(0), ScalarExpr::col(1)),
            ScalarExpr::bin(BinOp::Mod, ScalarExpr::col(0), ScalarExpr::col(1)),
            ScalarExpr::bin(BinOp::Lt, ScalarExpr::col(0), ScalarExpr::col(1)),
            ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(0), ScalarExpr::col(2)),
            ScalarExpr::and(
                ScalarExpr::bin(BinOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(0)),
                ScalarExpr::bin(BinOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(1)),
            ),
            ScalarExpr::bin(
                BinOp::Or,
                ScalarExpr::col(0),
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(0)),
            ),
            ScalarExpr::Not(Box::new(ScalarExpr::col(0))),
            ScalarExpr::cast(ScalarExpr::col(3), DataType::Int),
            // NULL-bearing column: comparisons use Value's total order.
            ScalarExpr::bin(BinOp::Le, ScalarExpr::col(4), ScalarExpr::col(0)),
        ];
        for e in &exprs {
            let col = e.eval_chunk(&chunk).unwrap();
            for (i, t) in ts.iter().enumerate() {
                assert_eq!(col.value(i), e.eval(t).unwrap(), "expr {e} row {i}");
            }
        }
    }

    #[test]
    fn eval_chunk_short_circuit_skips_bad_rhs() {
        // Every row's lhs is false, so the erroring rhs must never run —
        // same contract as the row path.
        let ts = vec![tuple![0], tuple![0]];
        let chunk = Chunk::from_tuples(&ts);
        let e = ScalarExpr::and(ScalarExpr::col(0), ScalarExpr::col(99));
        let col = e.eval_chunk(&chunk).unwrap();
        assert_eq!(col.value(0), Value::Int(0));
        assert_eq!(col.value(1), Value::Int(0));
        // Mixed: one row needs the rhs → the error must surface, exactly as
        // the row path would at that row.
        let ts = vec![tuple![0], tuple![1]];
        let chunk = Chunk::from_tuples(&ts);
        assert!(e.eval_chunk(&chunk).is_err());
    }

    #[test]
    fn deeply_nested_payload_is_a_typed_error_not_a_stack_overflow() {
        use squall_common::codec::Wire;
        // A million `Not` tags around one column: one recursion per tag
        // would overflow any thread's stack before a plan check could run.
        let mut bytes = vec![3u8; 1_000_000];
        bytes.push(0);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let decoded = std::thread::spawn(move || ScalarExpr::decode(&bytes)).join().unwrap();
        assert!(matches!(decoded, Err(SquallError::Codec(_))), "{decoded:?}");
        // Every expression the planner builds round-trips.
        let e = ScalarExpr::and(
            ScalarExpr::Not(Box::new(ScalarExpr::cast(ScalarExpr::col(2), DataType::Date))),
            ScalarExpr::bin(BinOp::Mod, ScalarExpr::lit("x"), ScalarExpr::lit(2.5)),
        );
        assert_eq!(ScalarExpr::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = ScalarExpr::bin(
            BinOp::Lt,
            ScalarExpr::bin(BinOp::Mul, ScalarExpr::lit(2), ScalarExpr::col(0)),
            ScalarExpr::col(1),
        );
        assert_eq!(e.to_string(), "((2 * $0) < $1)");
    }
}
