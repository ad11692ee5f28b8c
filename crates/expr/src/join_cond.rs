//! The comparison operator of a join atom.
//!
//! The operator decides what an atom admits operationally: `=` admits hash
//! partitioning and hash indexes, the inequalities need random
//! partitioning and BTree indexes (§3.1, §3.3).

use squall_common::Value;

use crate::scalar::BinOp;

/// Comparison operators allowed in join atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

squall_common::wire_tags! { CmpOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge } }

impl CmpOp {
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        let ord = l.cmp(r);
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }

    /// Mirror the operator (swap sides): `a < b` ⇔ `b > a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    pub fn from_binop(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_flip_table() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Ne.flip(), CmpOp::Ne);
    }
}
