//! Multi-way join specifications.
//!
//! A [`MultiJoinSpec`] is the join graph the §4 optimization algorithms
//! consume: the relations (with estimated sizes and per-attribute skew
//! hints) and the conjunction of join atoms between pairs of relations.
//!
//! Equality atoms induce *join-key equivalence classes* (attributes
//! transitively equated, e.g. `L.Partkey = PS.Partkey AND PS.Partkey =
//! P.Partkey` is one class over three relations). The paper's observation in
//! §4 — "using join keys is sufficient" — means these classes are exactly
//! the candidate hypercube dimensions.

use squall_common::{Result, Schema, SquallError, Tuple};

use crate::join_cond::CmpOp;

/// One relation participating in a multi-way join.
#[derive(Debug, Clone)]
pub struct RelationDef {
    pub name: String,
    pub schema: Schema,
    /// Estimated cardinality (relative sizes drive dimension sizing, §4).
    pub est_size: u64,
}

squall_common::wire_struct! { RelationDef { name, schema, est_size } }

impl RelationDef {
    pub fn new(name: impl Into<String>, schema: Schema, est_size: u64) -> RelationDef {
        RelationDef { name: name.into(), schema, est_size }
    }
}

/// One join conjunct `Rel[l].col(lc) op Rel[r].col(rc)` between two distinct
/// relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinAtom {
    pub left_rel: usize,
    pub left_col: usize,
    pub op: CmpOp,
    pub right_rel: usize,
    pub right_col: usize,
}

squall_common::wire_struct! {
    JoinAtom { left_rel as u32, left_col as u32, op, right_rel as u32, right_col as u32 }
}

impl JoinAtom {
    pub fn eq(left_rel: usize, left_col: usize, right_rel: usize, right_col: usize) -> JoinAtom {
        JoinAtom { left_rel, left_col, op: CmpOp::Eq, right_rel, right_col }
    }
}

/// A join-key equivalence class: the set of `(relation, column)` attribute
/// occurrences transitively connected by equality atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyClass {
    /// Attribute occurrences, sorted by `(relation, column)`.
    pub members: Vec<(usize, usize)>,
}

impl KeyClass {
    /// Relations participating in the class.
    pub fn relations(&self) -> Vec<usize> {
        let mut rels: Vec<usize> = self.members.iter().map(|&(r, _)| r).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// A class is a *join key* when it spans at least two relations.
    pub fn is_join_key(&self) -> bool {
        self.relations().len() >= 2
    }
}

/// An n-way join specification.
#[derive(Debug, Clone)]
pub struct MultiJoinSpec {
    pub relations: Vec<RelationDef>,
    pub atoms: Vec<JoinAtom>,
}

// A decoded spec is wire input: it passes the checks `new` makes.
squall_common::wire_struct! { MultiJoinSpec { relations, atoms } check MultiJoinSpec::validate }

impl MultiJoinSpec {
    pub fn new(relations: Vec<RelationDef>, atoms: Vec<JoinAtom>) -> Result<MultiJoinSpec> {
        let spec = MultiJoinSpec { relations, atoms };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<()> {
        if self.relations.is_empty() {
            return Err(SquallError::InvalidPlan("multi-way join with no relations".into()));
        }
        for a in &self.atoms {
            for &(rel, col) in &[(a.left_rel, a.left_col), (a.right_rel, a.right_col)] {
                let r = self.relations.get(rel).ok_or_else(|| {
                    SquallError::InvalidPlan(format!("atom references relation {rel}"))
                })?;
                if col >= r.schema.arity() {
                    return Err(SquallError::InvalidPlan(format!(
                        "atom references column {col} of {} (arity {})",
                        r.name,
                        r.schema.arity()
                    )));
                }
            }
            if a.left_rel == a.right_rel {
                return Err(SquallError::InvalidPlan(
                    "self-comparisons belong in a selection, not a join atom".into(),
                ));
            }
        }
        Ok(())
    }

    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// Equality atoms only.
    fn equi_atoms(&self) -> impl Iterator<Item = &JoinAtom> {
        self.atoms.iter().filter(|a| a.op == CmpOp::Eq)
    }

    /// Non-equality atoms only.
    pub fn theta_atoms(&self) -> impl Iterator<Item = &JoinAtom> {
        self.atoms.iter().filter(|a| a.op != CmpOp::Eq)
    }

    /// Compute the join-key equivalence classes via union-find over
    /// attribute occurrences connected by equality atoms. Classes are
    /// returned in a deterministic order (by smallest member).
    pub fn key_classes(&self) -> Vec<KeyClass> {
        // Flatten (rel, col) occurrences that appear in equality atoms.
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let index_of = |nodes: &mut Vec<(usize, usize)>, key: (usize, usize)| -> usize {
            match nodes.iter().position(|&n| n == key) {
                Some(i) => i,
                None => {
                    nodes.push(key);
                    nodes.len() - 1
                }
            }
        };
        let mut edges = Vec::new();
        for a in self.equi_atoms() {
            let l = index_of(&mut nodes, (a.left_rel, a.left_col));
            let r = index_of(&mut nodes, (a.right_rel, a.right_col));
            edges.push((l, r));
        }
        // Union-find.
        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (l, r) in edges {
            let (rl, rr) = (find(&mut parent, l), find(&mut parent, r));
            if rl != rr {
                parent[rl] = rr;
            }
        }
        // Group members by root.
        let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let root = find(&mut parent, i);
            match groups.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(node),
                None => groups.push((root, vec![node])),
            }
        }
        let mut classes: Vec<KeyClass> = groups
            .into_iter()
            .map(|(_, mut members)| {
                members.sort_unstable();
                KeyClass { members }
            })
            .collect();
        classes.sort_by_key(|c| c.members[0]);
        classes
    }

    /// Whether an attribute occurrence is skew-free according to its
    /// schema hint.
    pub fn is_skew_free(&self, rel: usize, col: usize) -> bool {
        self.relations[rel].schema.field(col).skew_free
    }

    /// The output schema: concatenation of all relation schemas, columns
    /// qualified by relation name.
    pub fn output_schema(&self) -> Schema {
        let mut out = Schema::default();
        for r in &self.relations {
            out = out.concat(&r.schema.qualified(&r.name));
        }
        out
    }

    /// Reference oracle: do the given tuples (one per relation, in relation
    /// order) jointly satisfy every atom? Used by tests and the naive
    /// executor.
    pub fn matches(&self, tuples: &[&Tuple]) -> bool {
        debug_assert_eq!(tuples.len(), self.relations.len());
        self.atoms.iter().all(|a| {
            let l = tuples[a.left_rel].get(a.left_col);
            let r = tuples[a.right_rel].get(a.right_col);
            a.op.eval(l, r)
        })
    }

    /// The spec cut to what a consumer of result multiplicities reads
    /// (§3.3's aggregated views): each relation keeps its atom columns plus
    /// `extra[rel]`, sorted (its first column when that leaves none), and
    /// the atoms are relabelled onto them. Returns the cut spec and each
    /// relation's kept columns. The join result's multiset cardinality per
    /// kept-column combination is unchanged.
    pub fn project(&self, extra: &[Vec<usize>]) -> (MultiJoinSpec, Vec<Vec<usize>>) {
        assert_eq!(extra.len(), self.n_relations());
        let mut kept = extra.to_vec();
        for a in &self.atoms {
            kept[a.left_rel].push(a.left_col);
            kept[a.right_rel].push(a.right_col);
        }
        for (cols, def) in kept.iter_mut().zip(&self.relations) {
            cols.sort_unstable();
            cols.dedup();
            if cols.is_empty() && def.schema.arity() > 0 {
                cols.push(0);
            }
        }
        let relations = std::iter::zip(&self.relations, &kept)
            .map(|(def, cols)| RelationDef::new(&def.name, def.schema.project(cols), def.est_size))
            .collect();
        let at = |rel: usize, col: usize| kept[rel].binary_search(&col).expect("an atom column");
        let relabel = |a: &JoinAtom| JoinAtom {
            left_col: at(a.left_rel, a.left_col),
            right_col: at(a.right_rel, a.right_col),
            ..*a
        };
        let atoms = self.atoms.iter().map(relabel).collect();
        (MultiJoinSpec { relations, atoms }, kept)
    }

    /// Is the *relation graph* (relations as nodes, an edge per atom pair)
    /// connected? Disconnected join graphs imply Cartesian products, which
    /// Squall rejects in multi-way operators.
    pub fn is_connected(&self) -> bool {
        let n = self.relations.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for a in &self.atoms {
                let next = if a.left_rel == r {
                    a.right_rel
                } else if a.right_rel == r {
                    a.left_rel
                } else {
                    continue;
                };
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squall_common::{tuple, DataType};

    /// The paper's running example: R(x,y) ⋈ S(y,z) ⋈ T(z,t)  (§3.1).
    pub fn rst(h: u64) -> MultiJoinSpec {
        let r = RelationDef::new("R", Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]), h);
        let s = RelationDef::new("S", Schema::of(&[("y", DataType::Int), ("z", DataType::Int)]), h);
        let t = RelationDef::new("T", Schema::of(&[("z", DataType::Int), ("t", DataType::Int)]), h);
        MultiJoinSpec::new(vec![r, s, t], vec![JoinAtom::eq(0, 1, 1, 0), JoinAtom::eq(1, 1, 2, 0)])
            .unwrap()
    }

    #[test]
    fn key_classes_of_rst() {
        let spec = rst(100);
        let classes = spec.key_classes();
        assert_eq!(classes.len(), 2);
        // y-class: R.y (0,1) and S.y (1,0).
        assert_eq!(classes[0].members, vec![(0, 1), (1, 0)]);
        // z-class: S.z (1,1) and T.z (2,0).
        assert_eq!(classes[1].members, vec![(1, 1), (2, 0)]);
        assert!(classes.iter().all(|c| c.is_join_key()));
    }

    #[test]
    fn transitive_class_merges() {
        // L.pk = PS.pk AND PS.pk = P.pk → a single 3-relation class
        // (the TPCH9-Partial shape, §3.2 "join among multiple relations on
        // the same key").
        let mk = |n: &str| RelationDef::new(n, Schema::of(&[("pk", DataType::Int)]), 10);
        let spec = MultiJoinSpec::new(
            vec![mk("L"), mk("PS"), mk("P")],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(1, 0, 2, 0)],
        )
        .unwrap();
        let classes = spec.key_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members, vec![(0, 0), (1, 0), (2, 0)]);
        assert_eq!(classes[0].relations(), vec![0, 1, 2]);
    }

    #[test]
    fn validation_rejects_bad_atoms() {
        let r = RelationDef::new("R", Schema::of(&[("x", DataType::Int)]), 1);
        let s = RelationDef::new("S", Schema::of(&[("x", DataType::Int)]), 1);
        // Column out of range.
        assert!(
            MultiJoinSpec::new(vec![r.clone(), s.clone()], vec![JoinAtom::eq(0, 5, 1, 0)]).is_err()
        );
        // Self-comparison.
        assert!(
            MultiJoinSpec::new(vec![r.clone(), s.clone()], vec![JoinAtom::eq(0, 0, 0, 0)]).is_err()
        );
        // Dangling relation.
        assert!(MultiJoinSpec::new(vec![r, s], vec![JoinAtom::eq(0, 0, 7, 0)]).is_err());
    }

    #[test]
    fn matches_oracle() {
        let spec = rst(1);
        let r = tuple![100, 7];
        let s = tuple![7, 9];
        let t = tuple![9, 200];
        assert!(spec.matches(&[&r, &s, &t]));
        let t_bad = tuple![8, 200];
        assert!(!spec.matches(&[&r, &s, &t_bad]));
    }

    #[test]
    fn theta_atoms_detected() {
        let r = RelationDef::new("R", Schema::of(&[("x", DataType::Int)]), 1);
        let s = RelationDef::new("S", Schema::of(&[("y", DataType::Int)]), 1);
        let spec = MultiJoinSpec::new(
            vec![r, s],
            vec![JoinAtom { left_rel: 0, left_col: 0, op: CmpOp::Lt, right_rel: 1, right_col: 0 }],
        )
        .unwrap();
        assert_eq!(spec.theta_atoms().count(), 1);
        assert_eq!(spec.key_classes().len(), 0);
    }

    #[test]
    fn connectivity() {
        let spec = rst(1);
        assert!(spec.is_connected());

        // Triangle R-S, S-T, R-T.
        let mk = |n: &str| RelationDef::new(n, Schema::of(&[("a", DataType::Int)]), 1);
        let tri = MultiJoinSpec::new(
            vec![mk("R"), mk("S"), mk("T")],
            vec![JoinAtom::eq(0, 0, 1, 0), JoinAtom::eq(1, 0, 2, 0), JoinAtom::eq(0, 0, 2, 0)],
        )
        .unwrap();
        assert!(tri.is_connected());

        // Disconnected pair.
        let disc = MultiJoinSpec::new(vec![mk("R"), mk("S")], vec![]).unwrap();
        assert!(!disc.is_connected());
    }

    #[test]
    fn output_schema_concatenates_qualified_relations() {
        let spec = rst(1);
        let out = spec.output_schema();
        assert_eq!(out.arity(), 6);
        assert_eq!(out.index_of("R.x").unwrap(), 0);
        assert_eq!(out.index_of("S.z").unwrap(), 3);
        assert_eq!(out.index_of("T.t").unwrap(), 5);
    }
}
