//! Random label graphs and justice sets shared by the crate's property
//! tests. Atoms are the first two propositions and the first action of
//! any vocabulary (ids are assigned in insertion order), so the inputs
//! line up with each test module's own formula generator.

use crate::{Justice, Ltl};
use autokit::{ActSet, LabelGraph, ProductState, PropSet, Vocab};
use proptest::prelude::*;

fn atoms() -> (Ltl, Ltl, Ltl) {
    let mut v = Vocab::new();
    let a = v.add_prop("a").unwrap();
    let b = v.add_prop("b").unwrap();
    let s = v.add_act("s").unwrap();
    (Ltl::prop(a), Ltl::prop(b), Ltl::act(s))
}

/// Largest generated graph.
const MAX_NODES: usize = 9;

/// Graphs of 1–9 nodes with random labels over the three atoms, 0–3
/// successors per node (dead ends included) and 1–2 initial nodes.
pub(crate) fn arb_label_graph() -> impl Strategy<Value = LabelGraph> {
    (
        1..=MAX_NODES,
        proptest::collection::vec(0u32..8, MAX_NODES),
        proptest::collection::vec(proptest::collection::vec(0..MAX_NODES, 0..4), MAX_NODES),
        proptest::collection::vec(0..MAX_NODES, 1..3),
    )
        .prop_map(|(n, labels, succs, initial)| LabelGraph {
            labels: labels[..n]
                .iter()
                .map(|&bits| (PropSet::from_bits(bits & 3), ActSet::from_bits(bits >> 2)))
                .collect(),
            origin: (0..n)
                .map(|model| ProductState { model, ctrl: 0 })
                .collect(),
            succs: succs[..n]
                .iter()
                .map(|row| row.iter().map(|&t| t % n).collect())
                .collect(),
            initial: initial.iter().map(|&g| g % n).collect(),
        })
}

/// 0–2 justice conditions, each a small propositional formula over the
/// three atoms.
pub(crate) fn arb_justice() -> impl Strategy<Value = Vec<Justice>> {
    let (a, b, s) = atoms();
    let leaf = prop_oneof![Just(Ltl::True), Just(a), Just(b), Just(s)];
    let cond = leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Ltl::not),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
            (inner.clone(), inner).prop_map(|(l, r)| Ltl::or(l, r)),
        ]
    });
    proptest::collection::vec(cond, 0..3).prop_map(|conds| {
        conds
            .into_iter()
            .enumerate()
            .map(|(i, c)| Justice::new(format!("j{i}"), c).unwrap())
            .collect()
    })
}
