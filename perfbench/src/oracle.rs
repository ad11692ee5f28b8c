//! Reference evaluators the runner checks Squall's answers against. They
//! share no code with the engine: plain hash indexes and backtracking.

use std::collections::{BTreeMap, HashMap};

use squall::common::{tuple, Tuple, Value};

/// Equi-join atom `rel_a.col_a = rel_b.col_b`.
pub type Atom = (usize, usize, usize, usize);

/// Call `visit` once per result of the equi-join, with one row per relation
/// (indexed like `rels`). Relations are bound smallest-first along the join
/// graph and each later one is probed through a hash index on all the
/// columns that tie it to the relations already bound.
pub fn for_each_result(rels: &[&[Tuple]], atoms: &[Atom], visit: &mut dyn FnMut(&[&Tuple])) {
    let n = rels.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n)
            .filter(|r| !order.contains(r))
            .filter(|&r| {
                order.is_empty()
                    || atoms.iter().any(|&(a, _, b, _)| {
                        (a == r && order.contains(&b)) || (b == r && order.contains(&a))
                    })
            })
            .min_by_key(|&r| rels[r].len())
            .expect("join graph is connected");
        order.push(next);
    }
    // Per step: (own columns, (bound relation, its column)) pairs and the index.
    struct Step {
        rel: usize,
        probe: Vec<(usize, usize)>,
        index: HashMap<Vec<Value>, Vec<usize>>,
    }
    let steps: Vec<Step> = order
        .iter()
        .enumerate()
        .map(|(i, &rel)| {
            let bound = &order[..i];
            let mut own = Vec::new();
            let mut probe = Vec::new();
            for &(a, ca, b, cb) in atoms {
                if a == rel && bound.contains(&b) {
                    own.push(ca);
                    probe.push((b, cb));
                } else if b == rel && bound.contains(&a) {
                    own.push(cb);
                    probe.push((a, ca));
                }
            }
            let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            if i > 0 {
                for (row, t) in rels[rel].iter().enumerate() {
                    index.entry(t.key(&own)).or_default().push(row);
                }
            }
            Step { rel, probe, index }
        })
        .collect();

    fn descend<'a>(
        steps: &[Step],
        depth: usize,
        rels: &[&'a [Tuple]],
        bound: &mut Vec<Option<&'a Tuple>>,
        visit: &mut dyn FnMut(&[&Tuple]),
    ) {
        let Some(step) = steps.get(depth) else {
            let rows: Vec<&Tuple> =
                bound.iter().map(|t| t.expect("every relation bound")).collect();
            visit(&rows);
            return;
        };
        let key: Vec<Value> = step
            .probe
            .iter()
            .map(|&(r, c)| bound[r].expect("probe side bound").get(c).clone())
            .collect();
        let Some(matches) = step.index.get(&key) else { return };
        for &row in matches {
            bound[step.rel] = Some(&rels[step.rel][row]);
            descend(steps, depth + 1, rels, bound, visit);
        }
        bound[step.rel] = None;
    }

    let mut bound: Vec<Option<&Tuple>> = vec![None; n];
    for first in rels[steps[0].rel] {
        bound[steps[0].rel] = Some(first);
        descend(&steps, 1, rels, &mut bound, visit);
    }
}

/// `SELECT COUNT(*)` of the equi-join.
pub fn join_count(rels: &[&[Tuple]], atoms: &[Atom]) -> u64 {
    let mut n = 0u64;
    for_each_result(rels, atoms, &mut |_| n += 1);
    n
}

/// `SELECT rel.col, COUNT(*) … GROUP BY rel.col`, rows sorted by group.
pub fn join_group_count(rels: &[&[Tuple]], atoms: &[Atom], group: (usize, usize)) -> Vec<Tuple> {
    let mut groups: BTreeMap<Value, i64> = BTreeMap::new();
    for_each_result(rels, atoms, &mut |rows| {
        *groups.entry(rows[group.0].get(group.1).clone()).or_default() += 1;
    });
    groups.into_iter().map(|(g, c)| Tuple::new(vec![g, Value::Int(c)])).collect()
}

/// The windowed workload's answer: `a(k, g, v, ts) ⋈ b(k, ts)` on `k` within
/// one tumbling window of `width`, `COUNT(*)` and `SUM(v)` per
/// `(window, g)`; rows `(window_start, window_end, g, count, sum)` with
/// inclusive bounds, sorted.
pub fn tumbling_group_rows(a: &[Tuple], b: &[Tuple], width: i64) -> Vec<Tuple> {
    let int = |t: &Tuple, c: usize| t.get(c).as_int().expect("workload columns are Int");
    let mut b_count: HashMap<(i64, i64), i64> = HashMap::new();
    for t in b {
        *b_count.entry((int(t, 1) / width, int(t, 0))).or_default() += 1;
    }
    let mut groups: BTreeMap<(i64, i64), (i64, i64)> = BTreeMap::new();
    for t in a {
        let w = int(t, 3) / width;
        if let Some(&m) = b_count.get(&(w, int(t, 0))) {
            let e = groups.entry((w, int(t, 1))).or_default();
            e.0 += m;
            e.1 += m * int(t, 2);
        }
    }
    groups
        .into_iter()
        .map(|((w, g), (count, sum))| tuple![w * width, w * width + width - 1, g, count, sum])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_join_counts_and_groups() {
        let r = [tuple![1, 10], tuple![2, 10], tuple![3, 11]];
        let s = [tuple![10, 5], tuple![10, 6], tuple![12, 5]];
        let t = [tuple![5, 0], tuple![5, 1], tuple![6, 0]];
        let atoms = [(0, 1, 1, 0), (1, 1, 2, 0)];
        let rels = [&r[..], &s[..], &t[..]];
        // R rows 1 and 2 each meet S(10,5)→2 T rows and S(10,6)→1 T row.
        assert_eq!(join_count(&rels, &atoms), 6);
        assert_eq!(join_group_count(&rels, &atoms, (0, 0)), vec![tuple![1, 3], tuple![2, 3]]);
    }

    #[test]
    fn two_atoms_between_the_same_pair_both_apply() {
        let a = vec![tuple![1, 2], tuple![1, 3]];
        let b = vec![tuple![1, 2], tuple![1, 9]];
        assert_eq!(join_count(&[&a, &b], &[(0, 0, 1, 0), (0, 1, 1, 1)]), 1);
    }

    #[test]
    fn tumbling_rows_bucket_by_window() {
        let a = vec![tuple![7, 1, 100, 3], tuple![7, 1, 50, 12], tuple![8, 2, 1, 4]];
        let b = vec![tuple![7, 0], tuple![7, 9], tuple![7, 10], tuple![9, 4]];
        assert_eq!(
            tumbling_group_rows(&a, &b, 10),
            vec![tuple![0, 9, 1, 2, 200], tuple![10, 19, 1, 1, 50]]
        );
    }
}
