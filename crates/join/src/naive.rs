//! Reference nested-loop multi-way join — the correctness oracle for every
//! other join in the workspace (tests, property tests, integration tests).

use squall_common::Tuple;
use squall_expr::MultiJoinSpec;

/// Join fully materialized relations by brute force. Output tuples are the
/// concatenation of one tuple per relation (relation order), exactly like
/// the online operators produce.
pub fn naive_join(spec: &MultiJoinSpec, relations: &[Vec<Tuple>]) -> Vec<Tuple> {
    assert_eq!(relations.len(), spec.n_relations());
    let mut out = Vec::new();
    let mut current: Vec<&Tuple> = Vec::with_capacity(relations.len());
    fn recurse<'a>(
        spec: &MultiJoinSpec,
        relations: &'a [Vec<Tuple>],
        current: &mut Vec<&'a Tuple>,
        out: &mut Vec<Tuple>,
    ) {
        let depth = current.len();
        if depth == relations.len() {
            if spec.matches(current) {
                let mut values = Vec::new();
                for t in current.iter() {
                    values.extend_from_slice(t.values());
                }
                out.push(Tuple::new(values));
            }
            return;
        }
        for t in &relations[depth] {
            // Prune early: check atoms fully bound by the prefix.
            let ok = spec.atoms.iter().all(|a| {
                let (hi, lo) = (a.left_rel.max(a.right_rel), a.left_rel.min(a.right_rel));
                if hi != depth || lo > depth {
                    return true;
                }
                let l = if a.left_rel == depth { t } else { current[a.left_rel] }.get(a.left_col);
                let r =
                    if a.right_rel == depth { t } else { current[a.right_rel] }.get(a.right_col);
                a.op.eval(l, r)
            });
            if !ok {
                continue;
            }
            current.push(t);
            recurse(spec, relations, current, out);
            current.pop();
        }
    }
    recurse(spec, relations, &mut current, &mut out);
    out
}

/// Compare two result multisets irrespective of order.
pub fn same_multiset(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a: Vec<&Tuple> = a.iter().collect();
    let mut b: Vec<&Tuple> = b.iter().collect();
    a.sort();
    b.sort();
    a == b
}

/// `R(k) ⋈ S(k)` over keys of every kind, with the results the online
/// joins must produce: their indexes compare keys as [`Value`] does. `NULL`
/// meets `NULL`, an `Int` meets the `Float` of equal value (they compare
/// and hash alike), strings meet by content whatever `Arc` holds them, and
/// nothing else crosses types.
#[cfg(test)]
pub(crate) fn mixed_key_join() -> (MultiJoinSpec, [Vec<Tuple>; 2], Vec<Tuple>) {
    use squall_common::{DataType, Schema, Value};
    use squall_expr::{JoinAtom, RelationDef};
    let rel = |n: &str| RelationDef::new(n, Schema::of(&[("k", DataType::Int)]), 0);
    let spec =
        MultiJoinSpec::new(vec![rel("R"), rel("S")], vec![JoinAtom::eq(0, 0, 1, 0)]).unwrap();
    let row = |v: Value| Tuple::new(vec![v]);
    let r = vec![
        row(Value::Null),
        row(Value::Int(1)),
        row(Value::str("k")),
        row(Value::Float(2.5)),
        row(Value::Int(7)),
    ];
    let s = vec![
        row(Value::Null),
        row(Value::Float(1.0)),
        row(Value::Str(String::from("k").into())),
        row(Value::Float(2.5)),
        row(Value::Int(2)),
        row(Value::str("7")),
    ];
    let expected = vec![
        Tuple::new(vec![Value::Null, Value::Null]),
        Tuple::new(vec![Value::Int(1), Value::Float(1.0)]),
        Tuple::new(vec![Value::str("k"), Value::str("k")]),
        Tuple::new(vec![Value::Float(2.5), Value::Float(2.5)]),
    ];
    (spec, [r, s], expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType, Schema};
    use squall_expr::{JoinAtom, RelationDef};

    #[test]
    fn two_way_equi() {
        let spec = MultiJoinSpec::new(
            vec![
                RelationDef::new("R", Schema::of(&[("a", DataType::Int)]), 0),
                RelationDef::new("S", Schema::of(&[("a", DataType::Int)]), 0),
            ],
            vec![JoinAtom::eq(0, 0, 1, 0)],
        )
        .unwrap();
        let r = vec![tuple![1], tuple![2], tuple![2]];
        let s = vec![tuple![2], tuple![3]];
        let out = naive_join(&spec, &[r, s]);
        assert!(same_multiset(&out, &[tuple![2, 2], tuple![2, 2]]));
    }

    #[test]
    fn three_way_chain() {
        let mk = |n: &str| {
            RelationDef::new(n, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]), 0)
        };
        let spec = MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)],
        )
        .unwrap();
        let r = vec![tuple![0, 1]];
        let s = vec![tuple![1, 2], tuple![1, 3]];
        let t = vec![tuple![2, 9], tuple![3, 9], tuple![4, 9]];
        let out = naive_join(&spec, &[r, s, t]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn same_multiset_detects_differences() {
        assert!(same_multiset(&[tuple![1], tuple![2]], &[tuple![2], tuple![1]]));
        assert!(!same_multiset(&[tuple![1]], &[tuple![1], tuple![1]]));
        assert!(!same_multiset(&[tuple![1], tuple![1]], &[tuple![1], tuple![2]]));
    }
}
