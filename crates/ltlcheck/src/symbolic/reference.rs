//! The fresh-manager symbolic checker, kept as a test oracle for the
//! compiled one in the parent module: a new `BddManager` per call and
//! the component with more states nearest the root. Both must decide
//! every query the same way.

use crate::{Buchi, Justice, Ltl};
use autokit::LabelGraph;
use bdd::{BddManager, Ref};
use std::collections::HashMap;

/// Bit positions of one product component within the state word.
/// Current/next copies of global state bit `k` are variables `2k` and
/// `2k+1`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    state_bits: u32,
    gbits: u32,
    bbits: u32,
    /// Graph bits occupy the low (root-near) positions when the graph
    /// component is the larger one.
    graph_first: bool,
}

impl Layout {
    fn new(ng: usize, nb: usize) -> Self {
        let gbits = bits_for(ng);
        let bbits = bits_for(nb);
        Layout {
            state_bits: gbits + bbits,
            gbits,
            bbits,
            graph_first: ng >= nb,
        }
    }

    /// Global state-bit position of graph bit `i`.
    fn graph_bit(&self, i: u32) -> u32 {
        if self.graph_first {
            i
        } else {
            self.bbits + i
        }
    }

    /// Global state-bit position of Büchi bit `i`.
    fn buchi_bit(&self, i: u32) -> u32 {
        if self.graph_first {
            self.gbits + i
        } else {
            i
        }
    }

    /// Literals (sorted by variable) encoding `value` over the graph
    /// bits of the chosen block.
    fn graph_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        self.lits(value, self.gbits, next, |s, i| s.graph_bit(i))
    }

    /// Literals (sorted by variable) encoding `value` over the Büchi
    /// bits of the chosen block.
    fn buchi_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        self.lits(value, self.bbits, next, |s, i| s.buchi_bit(i))
    }

    fn lits(
        &self,
        value: u32,
        bits: u32,
        next: bool,
        pos: impl Fn(&Self, u32) -> u32,
    ) -> Vec<(u32, bool)> {
        let mut lits: Vec<(u32, bool)> = (0..bits)
            .map(|i| {
                let k = pos(self, i);
                (2 * k + u32::from(next), value & (1 << i) != 0)
            })
            .collect();
        lits.sort_unstable_by_key(|&(v, _)| v);
        lits
    }

    /// The chosen block's variables for the graph bits.
    fn graph_vars(&self, next: bool) -> Vec<u32> {
        (0..self.gbits)
            .map(|i| 2 * self.graph_bit(i) + u32::from(next))
            .collect()
    }

    /// The chosen block's variables for the Büchi bits.
    fn buchi_vars(&self, next: bool) -> Vec<u32> {
        (0..self.bbits)
            .map(|i| 2 * self.buchi_bit(i) + u32::from(next))
            .collect()
    }
}

/// The partitioned transition structure.
struct Relation {
    t_graph: Ref,
    t_buchi: Ref,
    valid: Ref,
    g_cur: Vec<u32>,
    g_next: Vec<u32>,
    b_cur: Vec<u32>,
    b_next: Vec<u32>,
}

impl Relation {
    /// Successors of `s` (image), for `s ⊆ valid`.
    fn image(&self, m: &mut BddManager, s: Ref) -> Ref {
        let a = m.and_exists(s, self.t_graph, &self.g_cur);
        let b = m.and_exists(a, self.t_buchi, &self.b_cur);
        let img = m.rename_shift(b, -1);
        m.and(img, self.valid)
    }

    /// Predecessors of `s` (pre-image / EX), for `s ⊆ valid`.
    fn pre(&self, m: &mut BddManager, s: Ref) -> Ref {
        let s_next = m.rename_shift(s, 1);
        let a = m.and_exists(s_next, self.t_graph, &self.g_next);
        let b = m.and_exists(a, self.t_buchi, &self.b_next);
        m.and(b, self.valid)
    }

    /// `E[Z U T]` as a frontier-based backward least fixpoint: each
    /// round only the newest ring is fed to the pre-image (pre
    /// distributes over union, so expanding rings is equivalent to
    /// expanding the whole set).
    fn eu(&self, m: &mut BddManager, z: Ref, t: Ref) -> Ref {
        let mut y = t;
        let mut frontier = t;
        let fals = m.constant(false);
        while frontier != fals {
            let pre = self.pre(m, frontier);
            let step = m.and(pre, z);
            let ny = m.not(y);
            frontier = m.and(step, ny);
            y = m.or(y, frontier);
        }
        y
    }
}

/// Returns `true` iff every justice-fair infinite path of `graph`
/// satisfies `phi`, deciding it in a fresh manager.
pub(super) fn check(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    let neg = Ltl::not(phi.clone());
    let buchi = Buchi::from_ltl(&neg);
    let ng = graph.num_nodes();
    let nb = buchi.num_states();
    if ng == 0 || nb == 0 || graph.initial.is_empty() {
        return true;
    }

    let layout = Layout::new(ng, nb);
    let mut m = BddManager::new(2 * layout.state_bits);

    // ---- Valid state space -------------------------------------------
    // A product state (g, b) is valid iff b's literal constraints match
    // g's label. Graph nodes are grouped by label so each distinct
    // label's matching-Büchi disjunction is built once; groups use
    // first-seen order so the construction is deterministic.
    let mut label_order: Vec<(autokit::PropSet, autokit::ActSet)> = Vec::new();
    let mut label_groups: HashMap<(autokit::PropSet, autokit::ActSet), Vec<u32>> = HashMap::new();
    for (g, &label) in graph.labels.iter().enumerate() {
        label_groups
            .entry(label)
            .or_insert_with(|| {
                label_order.push(label);
                Vec::new()
            })
            .push(g as u32);
    }
    let mut valid_parts = Vec::with_capacity(label_order.len());
    for label in &label_order {
        let members = &label_groups[label];
        let matching: Vec<Ref> = buchi
            .states()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.matches(label.0, label.1))
            .map(|(b, _)| {
                let lits = layout.buchi_lits(b as u32, false);
                m.cube(&lits)
            })
            .collect();
        let bs = m.or_all(matching);
        let gs: Vec<Ref> = members
            .iter()
            .map(|&g| {
                let lits = layout.graph_lits(g, false);
                m.cube(&lits)
            })
            .collect();
        let gs = m.or_all(gs);
        valid_parts.push(m.and(gs, bs));
    }
    let valid = m.or_all(valid_parts);

    // ---- Component transition relations ------------------------------
    // Built per successor set, not per edge: sources sharing a successor
    // set contribute one (⋁ sources) ∧ (⋁ targets') conjunct.
    let t_graph = {
        let groups = group_by_succs(ng, |g| graph.succs[g].iter().map(|&s| s as u32));
        build_component(
            &mut m,
            &groups,
            |layout, v, next| layout.graph_lits(v, next),
            &layout,
        )
    };
    let t_buchi = {
        let groups = group_by_succs(nb, |b| buchi.states()[b].succs.iter().map(|&s| s as u32));
        build_component(
            &mut m,
            &groups,
            |layout, v, next| layout.buchi_lits(v, next),
            &layout,
        )
    };

    let relation = Relation {
        t_graph,
        t_buchi,
        valid,
        g_cur: layout.graph_vars(false),
        g_next: layout.graph_vars(true),
        b_cur: layout.buchi_vars(false),
        b_next: layout.buchi_vars(true),
    };

    // ---- Initial states ----------------------------------------------
    let init_parts: Vec<Ref> = graph
        .initial
        .iter()
        .flat_map(|&g| buchi.initial().iter().map(move |&b| (g, b)))
        .filter(|&(g, b)| {
            let (props, acts) = graph.labels[g];
            buchi.states()[b].matches(props, acts)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(g, b)| {
            let mut lits = layout.graph_lits(g as u32, false);
            lits.extend(layout.buchi_lits(b as u32, false));
            lits.sort_unstable_by_key(|&(v, _)| v);
            m.cube(&lits)
        })
        .collect();
    let init = m.or_all(init_parts);

    // ---- Forward reachability (onion rings) --------------------------
    let fals = m.constant(false);
    let mut reach = init;
    let mut frontier = init;
    while frontier != fals {
        let img = relation.image(&mut m, frontier);
        let nr = m.not(reach);
        frontier = m.and(img, nr);
        reach = m.or(reach, frontier);
    }

    // ---- Acceptance families -----------------------------------------
    // Büchi acceptance plus one family per justice condition, all over
    // the current block.
    let mut families: Vec<Ref> = Vec::new();
    {
        let acc: Vec<Ref> = buchi
            .states()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.accepting)
            .map(|(b, _)| {
                let lits = layout.buchi_lits(b as u32, false);
                m.cube(&lits)
            })
            .collect();
        let acc = m.or_all(acc);
        families.push(acc);
    }
    for j in justice {
        let sat: Vec<Ref> = label_order
            .iter()
            .filter(|&&(props, acts)| j.holds(props, acts))
            .flat_map(|label| label_groups[label].iter().copied())
            .collect::<Vec<u32>>()
            .into_iter()
            .map(|g| {
                let lits = layout.graph_lits(g, false);
                m.cube(&lits)
            })
            .collect();
        let sat = m.or_all(sat);
        families.push(sat);
    }

    // ---- Emerson–Lei fair-cycle fixpoint -----------------------------
    //   Z = ⋀_i EX E[Z U (Z ∧ F_i)]
    // seeded with the reachable set instead of all valid states: reach
    // is forward-closed, so every fair cycle reachable from an initial
    // state lies entirely within it — the gfp restricted to reach finds
    // exactly the reachable fair-cycle states.
    let mut z = reach;
    loop {
        let mut znew = z;
        for &f in &families {
            let zf = m.and(znew, f);
            let reach_f = relation.eu(&mut m, znew, zf);
            let pre = relation.pre(&mut m, reach_f);
            znew = m.and(znew, pre);
        }
        if znew == z {
            break;
        }
        z = znew;
    }

    // A fair cycle is reachable iff Z (⊆ reach) is non-empty.
    !m.satisfiable(z)
}

/// Groups states `0..n` by successor set (sorted, deduplicated), in
/// deterministic first-seen order. Returns `(targets, sources)` pairs.
fn group_by_succs<I: Iterator<Item = u32>>(
    n: usize,
    succs_of: impl Fn(usize) -> I,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut groups: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    for s in 0..n {
        let mut targets: Vec<u32> = succs_of(s).collect();
        targets.sort_unstable();
        targets.dedup();
        if let Some(&i) = index.get(&targets) {
            groups[i].1.push(s as u32);
        } else {
            index.insert(targets.clone(), groups.len());
            groups.push((targets, vec![s as u32]));
        }
    }
    groups
}

/// Builds one component's transition relation from its successor-set
/// groups: `⋁_groups (⋁ sources) ∧ (⋁ targets')`, combined balanced.
fn build_component(
    m: &mut BddManager,
    groups: &[(Vec<u32>, Vec<u32>)],
    lits: impl Fn(&Layout, u32, bool) -> Vec<(u32, bool)>,
    layout: &Layout,
) -> Ref {
    let parts: Vec<Ref> = groups
        .iter()
        .map(|(targets, sources)| {
            let tgt: Vec<Ref> = targets
                .iter()
                .map(|&t| {
                    let l = lits(layout, t, true);
                    m.cube(&l)
                })
                .collect();
            let tgt = m.or_all(tgt);
            let src: Vec<Ref> = sources
                .iter()
                .map(|&s| {
                    let l = lits(layout, s, false);
                    m.cube(&l)
                })
                .collect();
            let src = m.or_all(src);
            m.and(src, tgt)
        })
        .collect();
    m.or_all(parts)
}

fn bits_for(n: usize) -> u32 {
    let mut bits = 1;
    while (1usize << bits) < n {
        bits += 1;
    }
    bits
}
