//! The materialized cube result type.

use std::collections::HashMap;

use spcube_agg::{AggOutput, AggSpec, AggState};
use spcube_common::{Group, Mask};

/// A fully materialized data cube: every c-group of every cuboid mapped to
/// its finalized aggregate value.
///
/// By the definition in Section 2.1, each subset of tuples agreeing on the
/// group-by attributes contributes exactly one tuple (group) per cuboid, so
/// the map's keys are unique by construction; [`Cube::insert_state`] guards
/// against double emission, which is how the integration tests catch
/// duplicate computation of shared ancestors.
#[derive(Debug, Clone, Default)]
pub struct Cube {
    groups: HashMap<Group, AggOutput>,
}

impl Cube {
    /// An empty cube.
    pub fn new() -> Cube {
        Cube::default()
    }

    /// An empty cube with room for `groups` c-groups.
    pub fn with_capacity(groups: usize) -> Cube {
        Cube {
            groups: HashMap::with_capacity(groups),
        }
    }

    /// Number of c-groups across all cuboids.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the cube has no groups (only true for an empty relation).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Look up a group's aggregate.
    pub fn get(&self, g: &Group) -> Option<&AggOutput> {
        self.groups.get(g)
    }

    /// Iterate over all `(group, output)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&Group, &AggOutput)> {
        self.groups.iter()
    }

    /// Insert a finalized output. Panics if the group was already present —
    /// each c-group must be computed exactly once.
    pub fn insert(&mut self, g: Group, out: AggOutput) {
        let prev = self.groups.insert(g, out);
        assert!(prev.is_none(), "c-group emitted twice");
    }

    /// Insert by finalizing a state.
    pub fn insert_state(&mut self, g: Group, state: &AggState) {
        self.insert(g, state.finalize());
    }

    /// Number of groups in one cuboid.
    pub fn cuboid_len(&self, mask: Mask) -> usize {
        self.groups.keys().filter(|g| g.mask == mask).count()
    }

    /// Build from an iterator of pairs (panics on duplicates), presized
    /// to the iterator's lower size bound.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Group, AggOutput)>) -> Cube {
        let pairs = pairs.into_iter();
        let mut c = Cube::with_capacity(pairs.size_hint().0);
        for (g, o) in pairs {
            c.insert(g, o);
        }
        c
    }

    /// Exhaustive comparison against another cube with a relative epsilon on
    /// scalar outputs. Returns a human-readable list of discrepancies
    /// (missing, extra, differing), capped at `max_diffs`.
    pub fn diff(&self, other: &Cube, rel_eps: f64, max_diffs: usize) -> Vec<String> {
        let mut diffs = Vec::new();
        for (g, v) in &self.groups {
            match other.groups.get(g) {
                None => diffs.push(format!("missing in other: {g} = {v}")),
                Some(w) if !v.approx_eq(w, rel_eps) => {
                    diffs.push(format!("differs: {g}: {v} vs {w}"))
                }
                _ => {}
            }
            if diffs.len() >= max_diffs {
                return diffs;
            }
        }
        for g in other.groups.keys() {
            if !self.groups.contains_key(g) {
                diffs.push(format!("extra in other: {g}"));
                if diffs.len() >= max_diffs {
                    break;
                }
            }
        }
        diffs
    }

    /// Whether two cubes agree up to `rel_eps` on every group.
    pub fn approx_eq(&self, other: &Cube, rel_eps: f64) -> bool {
        self.len() == other.len() && self.diff(other, rel_eps, 1).is_empty()
    }
}

/// Accumulating cube builder keyed by group, for hash-based algorithms:
/// folds measures / merges partial states, finalizing at the end.
#[derive(Debug, Default)]
pub struct CubeBuilder {
    states: HashMap<Group, AggState>,
}

impl CubeBuilder {
    /// Empty builder.
    pub fn new() -> CubeBuilder {
        CubeBuilder::default()
    }

    /// Fold one measure into a group's state.
    pub fn update(&mut self, spec: AggSpec, g: Group, measure: f64) {
        self.states
            .entry(g)
            .or_insert_with(|| spec.init())
            .update(measure);
    }

    /// Merge a partial state into a group's state.
    pub fn merge(&mut self, spec: AggSpec, g: Group, partial: &AggState) {
        self.states
            .entry(g)
            .or_insert_with(|| spec.init())
            .merge(partial);
    }

    /// Number of groups currently held.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no group has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Finalize into a [`Cube`].
    pub fn finish(self) -> Cube {
        Cube::from_pairs(self.states.into_iter().map(|(g, s)| (g, s.finalize())))
    }

    /// Drain the raw states (used by combiners that ship states onward).
    pub fn into_states(self) -> impl Iterator<Item = (Group, AggState)> {
        self.states.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcube_common::Value;

    fn g(mask: u32, vals: &[i64]) -> Group {
        Group::new(Mask(mask), vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_insert_panics() {
        let mut c = Cube::new();
        c.insert(g(0b1, &[1]), AggOutput::Number(1.0));
        c.insert(g(0b1, &[1]), AggOutput::Number(2.0));
    }

    #[test]
    fn diff_reports_missing_extra_differs() {
        let mut a = Cube::new();
        a.insert(g(0b1, &[1]), AggOutput::Number(1.0));
        a.insert(g(0b1, &[2]), AggOutput::Number(5.0));
        let mut b = Cube::new();
        b.insert(g(0b1, &[2]), AggOutput::Number(6.0));
        b.insert(g(0b1, &[3]), AggOutput::Number(1.0));
        let d = a.diff(&b, 1e-9, 10);
        assert_eq!(d.len(), 3);
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn approx_eq_accepts_float_noise() {
        let mut a = Cube::new();
        a.insert(g(0b1, &[1]), AggOutput::Number(3.0));
        let mut b = Cube::new();
        b.insert(g(0b1, &[1]), AggOutput::Number(3.0 + 1e-12));
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn builder_folds_and_finalizes() {
        let mut b = CubeBuilder::new();
        b.update(AggSpec::Sum, g(0b1, &[1]), 2.0);
        b.update(AggSpec::Sum, g(0b1, &[1]), 3.0);
        b.update(AggSpec::Sum, g(0b1, &[2]), 1.0);
        assert_eq!(b.len(), 2);
        let c = b.finish();
        assert_eq!(c.get(&g(0b1, &[1])), Some(&AggOutput::Number(5.0)));
    }

    #[test]
    fn builder_merges_partials() {
        let mut b = CubeBuilder::new();
        b.merge(AggSpec::Count, g(0, &[]), &AggState::Count(4));
        b.merge(AggSpec::Count, g(0, &[]), &AggState::Count(6));
        let c = b.finish();
        assert_eq!(c.get(&g(0, &[])), Some(&AggOutput::Number(10.0)));
    }

    #[test]
    fn cuboid_len_counts_by_mask() {
        let mut c = Cube::new();
        c.insert(g(0b1, &[1]), AggOutput::Number(1.0));
        c.insert(g(0b1, &[2]), AggOutput::Number(1.0));
        c.insert(g(0b0, &[]), AggOutput::Number(2.0));
        assert_eq!(c.cuboid_len(Mask(0b1)), 2);
        assert_eq!(c.cuboid_len(Mask(0b0)), 1);
        assert_eq!(c.cuboid_len(Mask(0b10)), 0);
    }
}
