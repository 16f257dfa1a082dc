//! A symbolic (BDD-based) verification backend — the NuSMV-style
//! counterpart to the explicit-state checker in [`crate::check_graph_fair`].
//!
//! The product of the label graph with the Büchi automaton of the negated
//! specification is encoded over binary state variables; reachability and
//! the Emerson–Lei fair-cycle computation are symbolic fixpoints over
//! BDDs instead of explicit graph searches.
//!
//! The encoding follows the techniques that made symbolic model checking
//! scale (see DESIGN.md §14):
//!
//! * **Partitioned transition relation.** The graph-component relation
//!   `T_G(g, g')` and the Büchi-component relation `T_B(b, b')` are kept
//!   as separate conjuncts and never conjoined into one monolithic BDD.
//!   Each is built *per successor set* — sources sharing a successor set
//!   are grouped and encoded as `(⋁ sources) ∧ (⋁ targets')` with
//!   balanced [`bdd::BddManager::or_all`] combining — instead of
//!   per-edge.
//! * **Interleaved variable order.** Current/next bits of the same state
//!   bit are adjacent (`cur = 2k`, `next = 2k+1`), the known-good order
//!   for transition relations. Graph bits always come first, nearest the
//!   root, so nothing built over them depends on the Büchi automaton.
//! * **Early quantification.** Image and pre-image are computed with the
//!   fused [`bdd::BddManager::and_exists`] relational product, one
//!   partition conjunct at a time: each variable is quantified out at the
//!   first conjunct after which no remaining conjunct mentions it (graph
//!   bits after `T_G`, Büchi bits after `T_B`), so the full
//!   `S ∧ T_G ∧ T_B` conjunction is never materialized.
//! * **Frontier ("onion ring") fixpoints.** Forward reachability and the
//!   inner `E[Z U T]` least fixpoints only expand the newly discovered
//!   ring each iteration, sound because image/pre-image distribute over
//!   union.
//! * **Compiled graph side.** The graph bits, `T_G` and one set of graph
//!   states per distinct label depend only on the label graph. They are
//!   built once and kept below a [`bdd::BddManager::mark`]; each check
//!   adds its Büchi side above the mark and releases it when done. The
//!   last compiled graph is memoized per thread, so checking a rule book
//!   against one graph encodes the graph once, not once per rule.
//!
//! Both backends decide the same question and the test suite cross-checks
//! them (see `certkit` for the differential harness). The symbolic
//! backend returns a yes/no verdict; for counterexample lassos use the
//! explicit checker.

use crate::{Buchi, Justice, Ltl};
use autokit::{ActSet, LabelGraph, PropSet};
use bdd::{BddManager, Ref};
use std::cell::RefCell;
use std::collections::HashMap;

#[cfg(test)]
mod reference;

/// Statistics from a symbolic check, for benchmarking and diagnostics.
/// Node counts include the compiled graph side, which the check shares
/// with every other check against the same graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SymbolicStats {
    /// Binary state variables per block (current/next).
    pub state_bits: u32,
    /// Live BDD nodes when the check finished.
    pub bdd_nodes: usize,
    /// High-water mark of the BDD node store during the check. Nodes are
    /// only released once the verdict is known, so this equals
    /// `bdd_nodes`.
    pub peak_nodes: usize,
    /// Outer Emerson–Lei iterations until fixpoint.
    pub el_iterations: usize,
    /// Frontier expansions ("onion rings") of forward reachability —
    /// equals the eccentricity of the initial states within the
    /// reachable product.
    pub reach_rings: usize,
    /// Probes of the BDD manager's hot operation caches made by this
    /// call (compiling the graph side included, when the call did).
    pub cache_lookups: u64,
    /// Probes of this call that found their result memoized.
    pub cache_hits: u64,
}

/// Symbolic analogue of [`crate::check_graph_fair`]: returns `true` iff
/// every justice-fair infinite path of `graph` satisfies `phi`.
pub fn check_graph_fair_symbolic(graph: &LabelGraph, phi: &Ltl, justice: &[Justice]) -> bool {
    check_with_stats(graph, phi, justice).0
}

/// Variable positions of the graph and Büchi bits, current/next pairs
/// adjacent: bit `k` of a component occupies variables `2k` (current)
/// and `2k+1` (next), graph bits first. A relation relating `x` to `x'`
/// stays linear in the number of bits under this order instead of
/// exponential. Graph positions do not depend on `bbits`, which is what
/// lets the graph side be compiled before any Büchi automaton is known.
#[derive(Debug, Clone, Copy)]
struct Layout {
    gbits: u32,
    bbits: u32,
}

impl Layout {
    /// Variables used: a current and a next copy of every bit.
    fn num_vars(&self) -> u32 {
        2 * (self.gbits + self.bbits)
    }

    /// Variable of graph bit `i` in the current or next block.
    fn graph_var(&self, i: u32, next: bool) -> u32 {
        2 * i + u32::from(next)
    }

    /// Variable of Büchi bit `i` in the current or next block.
    fn buchi_var(&self, i: u32, next: bool) -> u32 {
        2 * (self.gbits + i) + u32::from(next)
    }

    /// Literals encoding graph state `value` (sorted by variable: bit
    /// positions increase with the bit index).
    fn graph_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        (0..self.gbits)
            .map(|i| (self.graph_var(i, next), value & (1 << i) != 0))
            .collect()
    }

    /// Literals encoding Büchi state `value`, sorted by variable.
    fn buchi_lits(&self, value: u32, next: bool) -> Vec<(u32, bool)> {
        (0..self.bbits)
            .map(|i| (self.buchi_var(i, next), value & (1 << i) != 0))
            .collect()
    }

    fn graph_vars(&self, next: bool) -> Vec<u32> {
        (0..self.gbits).map(|i| self.graph_var(i, next)).collect()
    }

    fn buchi_vars(&self, next: bool) -> Vec<u32> {
        (0..self.bbits).map(|i| self.buchi_var(i, next)).collect()
    }

    /// The renaming map taking the `from` block to the other one: every
    /// bit's `from`-block variable maps to its counterpart, every other
    /// variable to itself.
    fn block_map(&self, from_next: bool) -> Vec<u32> {
        let mut map: Vec<u32> = (0..self.num_vars()).collect();
        let pairs = (0..self.gbits)
            .map(|i| (self.graph_var(i, from_next), self.graph_var(i, !from_next)))
            .chain(
                (0..self.bbits)
                    .map(|i| (self.buchi_var(i, from_next), self.buchi_var(i, !from_next))),
            );
        for (from, to) in pairs {
            map[from as usize] = to;
        }
        map
    }
}

/// The graph side of the encoding, built once per label graph and kept
/// below `mark` in its own manager.
struct CompiledGraph {
    /// The graph this was compiled from — the memo key, compared in full.
    graph: LabelGraph,
    m: BddManager,
    gbits: u32,
    t_graph: Ref,
    /// Each distinct label (first-seen order) with the disjunction of
    /// the cubes of the graph states carrying it.
    labels: Vec<((PropSet, ActSet), Ref)>,
    /// Watermark above the graph side: each check releases back to it.
    mark: bdd::Mark,
}

thread_local! {
    /// The last graph compiled on this thread.
    static COMPILED: RefCell<Option<CompiledGraph>> = const { RefCell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Graph-side compilations on this thread, so tests can tell a memo
    /// hit from a recompile.
    static COMPILES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl CompiledGraph {
    fn new(graph: &LabelGraph) -> Self {
        #[cfg(test)]
        COMPILES.with(|c| c.set(c.get() + 1));
        let layout = Layout {
            gbits: bits_for(graph.num_nodes()),
            bbits: 0,
        };
        let mut m = BddManager::new(layout.num_vars());

        let mut labels: Vec<((PropSet, ActSet), Vec<Ref>)> = Vec::new();
        let mut label_index: HashMap<(PropSet, ActSet), usize> = HashMap::new();
        for (g, &label) in graph.labels.iter().enumerate() {
            let cube = m.cube(&layout.graph_lits(g as u32, false));
            let i = *label_index.entry(label).or_insert_with(|| {
                labels.push((label, Vec::new()));
                labels.len() - 1
            });
            labels[i].1.push(cube);
        }
        let labels = labels
            .into_iter()
            .map(|(label, cubes)| (label, m.or_all(cubes)))
            .collect();

        let groups = group_by_succs(graph.num_nodes(), |g| {
            graph.succs[g].iter().map(|&s| s as u32)
        });
        let t_graph = build_component(&mut m, &groups, |m, g, next| {
            m.cube(&layout.graph_lits(g, next))
        });
        let mark = m.mark();
        CompiledGraph {
            graph: graph.clone(),
            m,
            gbits: layout.gbits,
            t_graph,
            labels,
            mark,
        }
    }

    /// Decides `buchi`'s emptiness against the compiled graph under
    /// `justice`, then releases everything the check built. The cache
    /// statistics are left for the caller, which knows where the call
    /// started.
    fn check(&mut self, buchi: &Buchi, justice: &[Justice]) -> (bool, SymbolicStats) {
        let layout = Layout {
            gbits: self.gbits,
            bbits: bits_for(buchi.num_states()),
        };
        let m = &mut self.m;
        m.raise_num_vars(layout.num_vars());
        let buchi_cube = |m: &mut BddManager, b: usize| m.cube(&layout.buchi_lits(b as u32, false));

        // ---- Valid state space -------------------------------------------
        // A product state (g, b) is valid iff b's literal constraints match
        // g's label: per distinct label, its graph states ∧ the Büchi
        // states matching it.
        let mut valid_parts = Vec::with_capacity(self.labels.len());
        for &((props, acts), gs) in &self.labels {
            let matching: Vec<Ref> = buchi
                .states()
                .iter()
                .enumerate()
                .filter(|(_, st)| st.matches(props, acts))
                .map(|(b, _)| buchi_cube(m, b))
                .collect();
            let bs = m.or_all(matching);
            valid_parts.push(m.and(gs, bs));
        }
        let valid = m.or_all(valid_parts);

        let t_buchi = {
            let groups = group_by_succs(buchi.num_states(), |b| {
                buchi.states()[b].succs.iter().map(|&s| s as u32)
            });
            build_component(m, &groups, |m, b, next| m.cube(&layout.buchi_lits(b, next)))
        };

        let relation = Relation {
            t_graph: self.t_graph,
            t_buchi,
            valid,
            g_cur: layout.graph_vars(false),
            g_next: layout.graph_vars(true),
            b_cur: layout.buchi_vars(false),
            b_next: layout.buchi_vars(true),
            to_next: layout.block_map(false),
            to_cur: layout.block_map(true),
        };

        // ---- Initial states ----------------------------------------------
        // Graph bits precede Büchi bits, so the concatenated literals are
        // sorted.
        let graph = &self.graph;
        let init_parts: Vec<Ref> = graph
            .initial
            .iter()
            .flat_map(|&g| buchi.initial().iter().map(move |&b| (g, b)))
            .filter(|&(g, b)| {
                let (props, acts) = graph.labels[g];
                buchi.states()[b].matches(props, acts)
            })
            .map(|(g, b)| {
                let mut lits = layout.graph_lits(g as u32, false);
                lits.extend(layout.buchi_lits(b as u32, false));
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
            let img = relation.image(m, frontier);
            let nr = m.not(reach);
            frontier = m.and(img, nr);
            reach = m.or(reach, frontier);
        }

        // ---- Acceptance families -----------------------------------------
        // Büchi acceptance plus one family per justice condition (the
        // union of the label sets it holds on), all over the current block.
        let mut families: Vec<Ref> = Vec::with_capacity(1 + justice.len());
        let acc: Vec<Ref> = buchi
            .states()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.accepting)
            .map(|(b, _)| buchi_cube(m, b))
            .collect();
        families.push(m.or_all(acc));
        for j in justice {
            let sat: Vec<Ref> = self
                .labels
                .iter()
                .filter(|&&((props, acts), _)| j.holds(props, acts))
                .map(|&(_, gs)| gs)
                .collect();
            families.push(m.or_all(sat));
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
                let reach_f = relation.eu(m, znew, zf);
                let pre = relation.pre(m, reach_f);
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
            state_bits: layout.gbits + layout.bbits,
            bdd_nodes: m.num_nodes(),
            peak_nodes: m.num_nodes(),
            el_iterations,
            reach_rings,
            ..SymbolicStats::default()
        };
        m.release(self.mark);
        (holds, stats)
    }
}

/// The partitioned transition structure: `T_G` and `T_B` are never
/// conjoined.
struct Relation {
    t_graph: Ref,
    t_buchi: Ref,
    valid: Ref,
    g_cur: Vec<u32>,
    g_next: Vec<u32>,
    b_cur: Vec<u32>,
    b_next: Vec<u32>,
    /// Renaming maps current block → next block and back.
    to_next: Vec<u32>,
    to_cur: Vec<u32>,
}

impl Relation {
    /// Successors of `s` (image), for `s ⊆ valid`. Graph bits are
    /// quantified out at `T_G` and Büchi bits at `T_B` — the
    /// early-quantification schedule; the conjunction `s ∧ T_G ∧ T_B` is
    /// never built.
    fn image(&self, m: &mut BddManager, s: Ref) -> Ref {
        let a = m.and_exists(s, self.t_graph, &self.g_cur);
        let b = m.and_exists(a, self.t_buchi, &self.b_cur);
        let img = m.rename(b, &self.to_cur);
        m.and(img, self.valid)
    }

    /// Predecessors of `s` (pre-image / EX), for `s ⊆ valid`.
    fn pre(&self, m: &mut BddManager, s: Ref) -> Ref {
        let s_next = m.rename(s, &self.to_next);
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

/// [`check_graph_fair_symbolic`] with statistics.
///
/// The graph side of the encoding is memoized per thread: a call whose
/// graph equals the previous call's (full [`LabelGraph`] equality)
/// reuses it, so only the Büchi side is built. Otherwise the old
/// compiled graph is dropped before the new one is built, so at most one
/// is alive per thread.
pub fn check_with_stats(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
) -> (bool, SymbolicStats) {
    let neg = Ltl::not(phi.clone());
    let buchi = Buchi::from_ltl(&neg);
    if graph.num_nodes() == 0 || buchi.num_states() == 0 || graph.initial.is_empty() {
        return (true, SymbolicStats::default());
    }

    // Taken out of the slot for the duration of the check, so a panic
    // mid-check drops the half-used manager instead of leaving it behind.
    let cached = COMPILED
        .with(|slot| slot.borrow_mut().take())
        .filter(|c| c.graph == *graph);
    let (lookups, hits) = cached
        .as_ref()
        .map_or((0, 0), |c| (c.m.cache_lookups(), c.m.cache_hits()));
    let mut compiled = cached.unwrap_or_else(|| CompiledGraph::new(graph));
    let (holds, mut stats) = compiled.check(&buchi, justice);
    stats.cache_lookups = compiled.m.cache_lookups() - lookups;
    stats.cache_hits = compiled.m.cache_hits() - hits;
    COMPILED.with(|slot| *slot.borrow_mut() = Some(compiled));
    count_symbolic_check(&stats);
    (holds, stats)
}

/// Per-check observability counters (no-ops unless `obskit` is enabled).
fn count_symbolic_check(stats: &SymbolicStats) {
    if !obskit::enabled() {
        return;
    }
    obskit::counter_add("symbolic.checks", 1);
    obskit::counter_add("symbolic.cache_lookups", stats.cache_lookups);
    obskit::counter_add("symbolic.cache_hits", stats.cache_hits);
    obskit::counter_add("symbolic.el_iterations", stats.el_iterations as u64);
    obskit::observe("symbolic.peak_nodes", stats.peak_nodes as u64);
    obskit::observe("symbolic.reach_rings", stats.reach_rings as u64);
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
/// `cube(m, state, next)` encodes one state in the current or next block.
fn build_component(
    m: &mut BddManager,
    groups: &[(Vec<u32>, Vec<u32>)],
    cube: impl Fn(&mut BddManager, u32, bool) -> Ref,
) -> Ref {
    let parts: Vec<Ref> = groups
        .iter()
        .map(|(targets, sources)| {
            let tgt: Vec<Ref> = targets.iter().map(|&t| cube(m, t, true)).collect();
            let tgt = m.or_all(tgt);
            let src: Vec<Ref> = sources.iter().map(|&s| cube(m, s, false)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{arb_justice, arb_label_graph};
    use crate::{check_graph_fair, parse, Verdict};
    use autokit::{ActSet, ProductState, PropSet, Vocab};
    use proptest::prelude::*;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    fn lasso_graph(prefix: &[(PropSet, ActSet)], cycle: &[(PropSet, ActSet)]) -> LabelGraph {
        let n = prefix.len() + cycle.len();
        let mut labels = Vec::new();
        let mut succs = vec![Vec::new(); n];
        for (i, &l) in prefix.iter().chain(cycle.iter()).enumerate() {
            labels.push(l);
            if i + 1 < n {
                succs[i].push(i + 1);
            } else {
                succs[i].push(prefix.len());
            }
        }
        LabelGraph {
            labels,
            origin: vec![ProductState { model: 0, ctrl: 0 }; n],
            succs,
            initial: vec![0],
        }
    }

    fn decode(word: &[u8], v: &Vocab) -> Vec<(PropSet, ActSet)> {
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        word.iter()
            .map(|&bits| {
                let mut props = PropSet::empty();
                if bits & 1 != 0 {
                    props.insert(a);
                }
                if bits & 2 != 0 {
                    props.insert(b);
                }
                let mut acts = ActSet::empty();
                if bits & 4 != 0 {
                    acts.insert(s);
                }
                (props, acts)
            })
            .collect()
    }

    #[test]
    fn agrees_on_simple_cases() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let word = vec![(PropSet::singleton(a), ActSet::empty())];
        let graph = lasso_graph(&[], &word);
        for spec in ["G a", "F !a", "a U b", "X a"] {
            let phi = parse(spec, &v).unwrap();
            let explicit = check_graph_fair(&graph, &phi, &[]).holds();
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &[]);
            assert_eq!(explicit, symbolic, "{spec}");
        }
    }

    #[test]
    fn agrees_under_justice() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        // Two-state graph: {a} ↔ {} with self-loops; an unfair path may
        // stay in {} forever.
        let la = (PropSet::singleton(a), ActSet::empty());
        let l0 = (PropSet::empty(), ActSet::empty());
        let graph = LabelGraph {
            labels: vec![la, l0],
            origin: vec![ProductState { model: 0, ctrl: 0 }; 2],
            succs: vec![vec![0, 1], vec![0, 1]],
            initial: vec![1],
        };
        let phi = parse("G F a", &v).unwrap();
        let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
        // Without justice the spec fails (stay in {} forever)...
        assert!(!check_graph_fair(&graph, &phi, &[]).holds());
        assert!(!check_graph_fair_symbolic(&graph, &phi, &[]));
        // ...and with justice it holds, in both backends.
        assert!(check_graph_fair(&graph, &phi, &justice).holds());
        assert!(check_graph_fair_symbolic(&graph, &phi, &justice));
    }

    #[test]
    fn stats_are_populated() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let graph = lasso_graph(&[], &[(PropSet::singleton(a), ActSet::empty())]);
        let phi = parse("G a", &v).unwrap();
        let (holds, stats) = check_with_stats(&graph, &phi, &[]);
        assert!(holds);
        assert!(stats.state_bits >= 2);
        assert!(stats.bdd_nodes > 2);
        assert!(stats.peak_nodes >= stats.bdd_nodes);
        assert!(stats.el_iterations >= 1);
        assert!(stats.reach_rings >= 1);
        assert!(stats.cache_lookups > 0);
        assert!(stats.cache_hits <= stats.cache_lookups);
    }

    #[test]
    fn configs_agree_on_simple_cases() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let word = vec![(PropSet::singleton(a), ActSet::empty())];
        let graph = lasso_graph(&[], &word);
        for spec in ["G a", "F !a", "a U b", "X a", "G F a"] {
            let phi = parse(spec, &v).unwrap();
            let expected = check_graph_fair(&graph, &phi, &[]).holds();
            let (got, _) = check_with_stats(&graph, &phi, &[]);
            assert_eq!(expected, got, "{spec}");
        }
    }

    fn compiles() -> u64 {
        COMPILES.with(std::cell::Cell::get)
    }

    /// Same graph, different formulas and justice: one compilation, and
    /// the same statistics as a check on a freshly compiled graph.
    #[test]
    fn memo_is_reused_for_the_same_graph() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let la = (PropSet::singleton(a), ActSet::empty());
        let l0 = (PropSet::empty(), ActSet::empty());
        let graph = LabelGraph {
            labels: vec![la, l0, l0],
            origin: vec![ProductState { model: 0, ctrl: 0 }; 3],
            succs: vec![vec![1, 2], vec![0, 1], vec![2, 0]],
            initial: vec![0],
        };
        let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
        let (phi, psi) = (parse("G F a", &v).unwrap(), parse("F G !a", &v).unwrap());
        COMPILED.with(|slot| *slot.borrow_mut() = None);
        let before = compiles();
        let fresh = check_with_stats(&graph, &phi, &justice);
        assert_eq!(compiles(), before + 1);
        let before = compiles();
        let _ = check_with_stats(&graph, &psi, &[]);
        let again = check_with_stats(&graph, &phi, &justice);
        let _ = check_with_stats(&graph.clone(), &phi, &[]);
        assert_eq!(compiles(), before, "an equal graph must reuse the memo");
        assert_eq!(fresh.0, again.0);
        assert_eq!(fresh.1.bdd_nodes, again.1.bdd_nodes);
        assert_eq!(fresh.1.el_iterations, again.1.el_iterations);
        assert_eq!(fresh.1.reach_rings, again.1.reach_rings);
    }

    /// Regression: a graph mutated in place between two calls (same
    /// allocation, same node count) is a different graph; the second call
    /// must recompile, not reuse the memo.
    #[test]
    fn memo_is_not_reused_after_in_place_mutation() {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let la = (PropSet::singleton(a), ActSet::empty());
        let l0 = (PropSet::empty(), ActSet::empty());
        let mut graph = LabelGraph {
            labels: vec![la, l0],
            origin: vec![ProductState { model: 0, ctrl: 0 }; 2],
            succs: vec![vec![0], vec![1]],
            initial: vec![0],
        };
        let phi = parse("G a", &v).unwrap();
        assert!(check_graph_fair_symbolic(&graph, &phi, &[]));
        let before = compiles();
        graph.succs[0][0] = 1;
        assert!(!check_graph_fair(&graph, &phi, &[]).holds());
        assert!(!check_graph_fair_symbolic(&graph, &phi, &[]));
        assert_eq!(compiles(), before + 1);
    }

    fn arb_ltl() -> impl Strategy<Value = Ltl> {
        let v = vocab();
        let a = v.prop("a").unwrap();
        let b = v.prop("b").unwrap();
        let s = v.act("s").unwrap();
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            Just(Ltl::prop(a)),
            Just(Ltl::prop(b)),
            Just(Ltl::act(s)),
        ];
        leaf.prop_recursive(3, 20, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Ltl::not),
                inner.clone().prop_map(Ltl::next),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::and(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::or(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Ltl::until(l, r)),
                (inner.clone(), inner).prop_map(|(l, r)| Ltl::release(l, r)),
            ]
        })
    }

    /// Random branching graphs (not just lassos). `max_nodes`/`max_edges`
    /// scale the instance size.
    fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = LabelGraph> {
        (
            proptest::collection::vec(0u8..8, 1..max_nodes),
            proptest::collection::vec((0usize..max_nodes, 0usize..max_nodes), 1..max_edges),
        )
            .prop_map(|(labels_raw, edges)| {
                let v = vocab();
                let labels = decode(&labels_raw, &v);
                let n = labels.len();
                let mut succs = vec![Vec::new(); n];
                for (a, b) in edges {
                    let (a, b) = (a % n, b % n);
                    if !succs[a].contains(&b) {
                        succs[a].push(b);
                    }
                }
                // Ensure totality so both backends see infinite paths.
                for (i, s) in succs.iter_mut().enumerate() {
                    if s.is_empty() {
                        s.push(i);
                    }
                }
                LabelGraph {
                    origin: vec![ProductState { model: 0, ctrl: 0 }; n],
                    labels,
                    succs,
                    initial: vec![0],
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The explicit and symbolic backends agree on random graphs and
        /// formulas, with and without a justice assumption — on graphs
        /// up to 12 nodes / 40 edge draws (larger than the pre-partition
        /// generator's 6/12).
        #[test]
        fn backends_agree(graph in arb_graph(12, 40), phi in arb_ltl()) {
            let v = vocab();
            let explicit = check_graph_fair(&graph, &phi, &[]).holds();
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &[]);
            prop_assert_eq!(explicit, symbolic, "no justice: {:?}", phi);

            let justice = [Justice::new("a io", parse("a", &v).unwrap()).unwrap()];
            let explicit = matches!(
                check_graph_fair(&graph, &phi, &justice),
                Verdict::Holds
            );
            let symbolic = check_graph_fair_symbolic(&graph, &phi, &justice);
            prop_assert_eq!(explicit, symbolic, "with justice: {:?}", phi);
        }

        /// A random sequence of calls — repeated, alternating and
        /// same-graph/different-justice steps — through the memoized
        /// checker: each verdict equals the explicit checker's and the
        /// fresh-manager reference checker's.
        #[test]
        fn memoized_sequences_match_explicit_and_reference(
            pool in proptest::collection::vec(arb_label_graph(), 1..4),
            steps in proptest::collection::vec(
                (0usize..4, arb_ltl(), arb_justice(), any::<bool>()),
                1..10,
            ),
        ) {
            for (i, (g, phi, justice, twice)) in steps.iter().enumerate() {
                let graph = &pool[g % pool.len()];
                let explicit = check_graph_fair(graph, phi, justice).holds();
                let reference = reference::check(graph, phi, justice);
                prop_assert_eq!(explicit, reference, "step {}: {:?}", i, phi);
                for _ in 0..=usize::from(*twice) {
                    let got = check_with_stats(graph, phi, justice).0;
                    prop_assert_eq!(got, explicit, "step {}: {:?}", i, phi);
                }
            }
        }
    }
}
