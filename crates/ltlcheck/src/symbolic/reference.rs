//! The fresh-manager symbolic checker, kept as a test oracle for the
//! compiled one in the parent module: a new `BddManager` per call, the
//! component with more states nearest the root, and `VarOrder::Blocked`
//! meaning one `[cur | next]` block pair over the whole state word. Both
//! must decide every query the same way.

use super::{SymbolicConfig, SymbolicStats, VarOrder};
use crate::{Buchi, Justice, Ltl};
use autokit::LabelGraph;
use bdd::{BddManager, Ref};
use std::collections::HashMap;

/// Bit positions of one product component within the state word.
#[derive(Debug, Clone, Copy)]
struct Layout {
    order: VarOrder,
    state_bits: u32,
    gbits: u32,
    bbits: u32,
    /// Graph bits occupy the low (root-near) positions when the graph
    /// component is the larger one.
    graph_first: bool,
}

impl Layout {
    fn new(order: VarOrder, ng: usize, nb: usize) -> Self {
        let gbits = bits_for(ng);
        let bbits = bits_for(nb);
        Layout {
            order,
            state_bits: gbits + bbits,
            gbits,
            bbits,
            graph_first: ng >= nb,
        }
    }

    /// Current-block variable of global state bit `k`.
    fn cur_var(&self, k: u32) -> u32 {
        match self.order {
            VarOrder::Interleaved => 2 * k,
            VarOrder::Blocked => k,
        }
    }

    /// Next-block variable of global state bit `k`.
    fn next_var(&self, k: u32) -> u32 {
        match self.order {
            VarOrder::Interleaved => 2 * k + 1,
            VarOrder::Blocked => k + self.state_bits,
        }
    }

    /// `rename_shift` offset taking a current-block function to the next
    /// block.
    fn shift(&self) -> i64 {
        match self.order {
            VarOrder::Interleaved => 1,
            VarOrder::Blocked => i64::from(self.state_bits),
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
                let v = if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                };
                (v, value & (1 << i) != 0)
            })
            .collect();
        lits.sort_unstable_by_key(|&(v, _)| v);
        lits
    }

    /// The chosen block's variables for the graph bits.
    fn graph_vars(&self, next: bool) -> Vec<u32> {
        (0..self.gbits)
            .map(|i| {
                let k = self.graph_bit(i);
                if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                }
            })
            .collect()
    }

    /// The chosen block's variables for the Büchi bits.
    fn buchi_vars(&self, next: bool) -> Vec<u32> {
        (0..self.bbits)
            .map(|i| {
                let k = self.buchi_bit(i);
                if next {
                    self.next_var(k)
                } else {
                    self.cur_var(k)
                }
            })
            .collect()
    }
}

/// The transition structure, either partitioned or monolithic.
struct Relation {
    /// Monolithic `T_G ∧ T_B ∧ valid ∧ valid'` when configured;
    /// otherwise the partition below is used directly.
    mono: Option<Ref>,
    t_graph: Ref,
    t_buchi: Ref,
    valid: Ref,
    g_cur: Vec<u32>,
    g_next: Vec<u32>,
    b_cur: Vec<u32>,
    b_next: Vec<u32>,
    all_cur: Vec<u32>,
    all_next: Vec<u32>,
    shift: i64,
}

impl Relation {
    /// Successors of `s` (image), for `s ⊆ valid`. With the partition,
    /// graph bits are quantified out at `T_G` and Büchi bits at `T_B` —
    /// the early-quantification schedule; the conjunction
    /// `s ∧ T_G ∧ T_B` is never built.
    fn image(&self, m: &mut BddManager, s: Ref) -> Ref {
        if let Some(trans) = self.mono {
            let step = m.and_exists(s, trans, &self.all_cur);
            m.rename_shift(step, -self.shift)
        } else {
            let a = m.and_exists(s, self.t_graph, &self.g_cur);
            let b = m.and_exists(a, self.t_buchi, &self.b_cur);
            let img = m.rename_shift(b, -self.shift);
            m.and(img, self.valid)
        }
    }

    /// Predecessors of `s` (pre-image / EX), for `s ⊆ valid`.
    fn pre(&self, m: &mut BddManager, s: Ref) -> Ref {
        let s_next = m.rename_shift(s, self.shift);
        if let Some(trans) = self.mono {
            m.and_exists(trans, s_next, &self.all_next)
        } else {
            let a = m.and_exists(s_next, self.t_graph, &self.g_next);
            let b = m.and_exists(a, self.t_buchi, &self.b_next);
            m.and(b, self.valid)
        }
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

/// [`check_graph_fair_symbolic`] with statistics, under an explicit
/// [`SymbolicConfig`]. Every configuration decides the same property;
/// the proptests below pin the equivalences.
pub(super) fn check_with_config(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
    config: SymbolicConfig,
) -> (bool, SymbolicStats) {
    let neg = Ltl::not(phi.clone());
    let buchi = Buchi::from_ltl(&neg);
    let ng = graph.num_nodes();
    let nb = buchi.num_states();
    if ng == 0 || nb == 0 || graph.initial.is_empty() {
        return (true, SymbolicStats::default());
    }

    let layout = Layout::new(config.order, ng, nb);
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

    let relation = {
        let g_cur = layout.graph_vars(false);
        let g_next = layout.graph_vars(true);
        let b_cur = layout.buchi_vars(false);
        let b_next = layout.buchi_vars(true);
        let all_cur: Vec<u32> = g_cur.iter().chain(&b_cur).copied().collect();
        let all_next: Vec<u32> = g_next.iter().chain(&b_next).copied().collect();
        let mono = if config.partitioned {
            None
        } else {
            let valid_next = m.rename_shift(valid, layout.shift());
            let gb = m.and(t_graph, t_buchi);
            let gbv = m.and(gb, valid_next);
            Some(m.and(gbv, valid))
        };
        Relation {
            mono,
            t_graph,
            t_buchi,
            valid,
            g_cur,
            g_next,
            b_cur,
            b_next,
            all_cur,
            all_next,
            shift: layout.shift(),
        }
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
    let mut reach_rings = 0;
    while frontier != fals {
        reach_rings += 1;
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
    let mut el_iterations = 0;
    loop {
        el_iterations += 1;
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
    let holds = !m.satisfiable(z);
    let stats = SymbolicStats {
        state_bits: layout.state_bits,
        bdd_nodes: m.num_nodes(),
        peak_nodes: m.peak_nodes(),
        el_iterations,
        reach_rings,
        cache_lookups: m.cache_lookups(),
        cache_hits: m.cache_hits(),
    };
    (holds, stats)
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
