//! A hash-map product explorer kept as a test oracle for the compiled
//! one in the parent module: both must produce identical verdicts,
//! lassos and emptiness certificates. Label matching reads the literal
//! lists directly, so the oracle also checks the compiled masks.

use super::{CertifiedVerdict, CexStep, Counterexample, HoldsCertificate, Justice};
use crate::{Buchi, Ltl};
use autokit::LabelGraph;

/// `check_graph_fair_certified` over the reference explorer.
pub(super) fn check_graph_fair_certified(
    graph: &LabelGraph,
    phi: &Ltl,
    justice: &[Justice],
) -> CertifiedVerdict {
    let buchi = Buchi::from_ltl(&Ltl::not(phi.clone()));
    if buchi.num_states() == 0 {
        return CertifiedVerdict::Holds(HoldsCertificate {
            buchi,
            states: Vec::new(),
            comp: Vec::new(),
        });
    }
    let ex = explore(graph, &buchi);
    match find_fair_scc(&ex, graph, &buchi, justice) {
        Some(target) => CertifiedVerdict::Fails(extract_lasso(&ex, graph, &buchi, justice, target)),
        None => CertifiedVerdict::Holds(HoldsCertificate {
            buchi,
            states: ex.states,
            comp: ex.comp,
        }),
    }
}

/// Product state for emptiness checking: (graph node, Büchi state).
type PState = (u32, u32);

/// The explored product `graph ⊗ buchi`: reachable label-consistent
/// pairs, BFS parents (for stems), successor lists, and the Tarjan SCC
/// decomposition.
struct Exploration {
    states: Vec<PState>,
    parents: Vec<Option<u32>>,
    succs: Vec<Vec<u32>>,
    /// Component id per state, in Tarjan completion order: cross-component
    /// edges strictly decrease the id.
    comp: Vec<u32>,
    num_comps: usize,
}

/// BFS over the label-consistent product pairs, followed by an iterative
/// Tarjan SCC decomposition.
// Tarjan stack pops are internal invariants of the decomposition: an
// `expect` failure here is a bug in this function, never an input
// condition.
fn explore(graph: &LabelGraph, buchi: &Buchi) -> Exploration {
    // Label consistency straight from the literal lists, independent of
    // the compiled masks `BuchiState::matches` uses.
    let matches = |g: u32, b: u32| -> bool {
        let (props, acts) = graph.labels[g as usize];
        let st = &buchi.states()[b as usize];
        st.pos.iter().all(|a| a.holds(props, acts)) && st.neg.iter().all(|a| !a.holds(props, acts))
    };

    // --- reachable product exploration (BFS, with parents for stems) ----
    let mut index: std::collections::HashMap<PState, u32> = std::collections::HashMap::new();
    let mut states: Vec<PState> = Vec::new();
    let mut parents: Vec<Option<u32>> = Vec::new();
    let mut succs: Vec<Vec<u32>> = Vec::new();
    let mut queue = std::collections::VecDeque::new();

    for &g in &graph.initial {
        for &b in buchi.initial() {
            let s = (g as u32, b as u32);
            if matches(s.0, s.1) && !index.contains_key(&s) {
                let id = states.len() as u32;
                index.insert(s, id);
                states.push(s);
                parents.push(None);
                succs.push(Vec::new());
                queue.push_back(id);
            }
        }
    }
    while let Some(id) = queue.pop_front() {
        let (g, b) = states[id as usize];
        let mut out = Vec::new();
        for &g2 in &graph.succs[g as usize] {
            for &b2 in &buchi.states()[b as usize].succs {
                let t = (g2 as u32, b2 as u32);
                if !matches(t.0, t.1) {
                    continue;
                }
                let tid = match index.get(&t) {
                    Some(&tid) => tid,
                    None => {
                        let tid = states.len() as u32;
                        index.insert(t, tid);
                        states.push(t);
                        parents.push(Some(id));
                        succs.push(Vec::new());
                        queue.push_back(tid);
                        tid
                    }
                };
                out.push(tid);
            }
        }
        out.sort_unstable();
        out.dedup();
        succs[id as usize] = out;
    }

    // --- iterative Tarjan SCC ------------------------------------------
    let n = states.len();
    let mut comp = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut disc = vec![u32::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_disc = 0u32;
    let mut next_comp = 0u32;
    // Call stack: (node, successor cursor).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        disc[root as usize] = next_disc;
        low[root as usize] = next_disc;
        next_disc += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor < succs[v as usize].len() {
                let w = succs[v as usize][*cursor];
                *cursor += 1;
                if disc[w as usize] == u32::MAX {
                    disc[w as usize] = next_disc;
                    low[w as usize] = next_disc;
                    next_disc += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent as usize] = low[parent as usize].min(low[v as usize]);
            }
            if low[v as usize] == disc[v as usize] {
                loop {
                    let w = stack.pop().expect("tarjan stack non-empty");
                    on_stack[w as usize] = false;
                    comp[w as usize] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
        }
    }

    Exploration {
        states,
        parents,
        succs,
        comp,
        num_comps: next_comp as usize,
    }
}

/// Scans the SCC decomposition for a reachable component that has an
/// internal edge (a real cycle), a Büchi-accepting state, and a witness
/// of every justice condition. Returns its id, if any.
fn find_fair_scc(
    ex: &Exploration,
    graph: &LabelGraph,
    buchi: &Buchi,
    justice: &[Justice],
) -> Option<usize> {
    let nf = justice.len();
    let num_comps = ex.num_comps;
    // has_edge: SCC contains an internal edge (non-trivial cycle).
    let mut has_edge = vec![false; num_comps];
    // accept[c]: SCC contains a Büchi-accepting state.
    let mut accept = vec![false; num_comps];
    // fair[c][j]: SCC contains a state whose label satisfies justice j.
    let mut fair = vec![vec![false; nf]; num_comps];
    for v in 0..ex.states.len() {
        let c = ex.comp[v] as usize;
        let (g, b) = ex.states[v];
        if buchi.states()[b as usize].accepting {
            accept[c] = true;
        }
        let (props, acts) = graph.labels[g as usize];
        for (j, cond) in justice.iter().enumerate() {
            if cond.holds(props, acts) {
                fair[c][j] = true;
            }
        }
        for &w in &ex.succs[v] {
            if ex.comp[w as usize] as usize == c {
                has_edge[c] = true;
            }
        }
    }

    (0..num_comps).find(|&c| has_edge[c] && accept[c] && (0..nf).all(|j| fair[c][j]))
}

/// Extracts a lasso counterexample through the fair accepting SCC
/// `target_comp`: a BFS stem from an initial state, then a cycle that
/// visits an accepting state and one witness per justice condition.
// SCC membership and witness lookups are internal invariants of the
// decomposition: an `expect` failure here is a bug in this module, never
// an input condition.
fn extract_lasso(
    ex: &Exploration,
    graph: &LabelGraph,
    buchi: &Buchi,
    justice: &[Justice],
    target_comp: usize,
) -> Counterexample {
    let Exploration {
        states,
        parents,
        succs,
        comp,
        ..
    } = ex;
    let n = states.len();

    // Entry: any state of the SCC discovered earliest in the BFS.
    let entry = (0..n as u32)
        .find(|&v| comp[v as usize] as usize == target_comp)
        .expect("component non-empty");

    // Stem: BFS parent chain from an initial state to `entry`.
    let mut stem_ids = vec![entry];
    let mut cur = entry;
    while let Some(p) = parents[cur as usize] {
        stem_ids.push(p);
        cur = p;
    }
    stem_ids.reverse();

    // Cycle: inside the SCC, walk entry → accepting witness → each justice
    // witness → back to entry, via BFS restricted to the SCC.
    let in_comp = |v: u32| comp[v as usize] as usize == target_comp;
    let bfs_path = |from: u32, to: u32, require_step: bool| -> Vec<u32> {
        // Path of nodes after `from` ending at `to` (possibly empty if
        // from == to and !require_step).
        if from == to && !require_step {
            return Vec::new();
        }
        let mut par: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut q = std::collections::VecDeque::new();
        // Seed with successors of `from` so a self-loop is found.
        for &w in &succs[from as usize] {
            if in_comp(w) && !par.contains_key(&w) {
                par.insert(w, from);
                q.push_back(w);
            }
        }
        while let Some(v) = q.pop_front() {
            if v == to {
                break;
            }
            for &w in &succs[v as usize] {
                if in_comp(w) && !par.contains_key(&w) {
                    par.insert(w, v);
                    q.push_back(w);
                }
            }
        }
        // Walk parent pointers until `from` is the *parent*, so a loop
        // that starts and ends at the same state keeps its interior.
        let mut path = vec![to];
        let mut cur = to;
        loop {
            let p = *par.get(&cur).expect("target reachable within SCC");
            if p == from {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    };

    // Witness list: one accepting state, one per justice condition.
    let mut waypoints: Vec<u32> = Vec::new();
    let acc_witness = (0..n as u32)
        .find(|&v| in_comp(v) && buchi.states()[states[v as usize].1 as usize].accepting)
        .expect("accepting state in SCC");
    waypoints.push(acc_witness);
    for j in justice {
        let w = (0..n as u32)
            .find(|&v| {
                in_comp(v) && {
                    let (g, _) = states[v as usize];
                    let (props, acts) = graph.labels[g as usize];
                    j.holds(props, acts)
                }
            })
            .expect("justice witness in SCC");
        waypoints.push(w);
    }

    let mut cycle_ids: Vec<u32> = Vec::new();
    let mut pos = entry;
    for &wp in &waypoints {
        let seg = bfs_path(pos, wp, false);
        cycle_ids.extend(seg);
        pos = wp;
    }
    // Close the loop (require at least one step overall).
    let closing = bfs_path(pos, entry, cycle_ids.is_empty());
    cycle_ids.extend(closing);
    // `cycle_ids` holds the states *after* entry around the loop; the cycle
    // itself starts at entry.
    let mut full_cycle = vec![entry];
    full_cycle.extend(
        cycle_ids
            .iter()
            .copied()
            .take(cycle_ids.len().saturating_sub(1)),
    );
    // The final element of cycle_ids is `entry` again (dropped above); if
    // the loop was a pure self-loop, full_cycle is just [entry].

    let to_step = |v: u32| -> CexStep {
        let (g, _) = states[v as usize];
        let (props, acts) = graph.labels[g as usize];
        CexStep {
            state: graph.origin[g as usize],
            props,
            acts,
        }
    };
    let stem: Vec<CexStep> = stem_ids[..stem_ids.len() - 1]
        .iter()
        .map(|&v| to_step(v))
        .collect();
    let cycle: Vec<CexStep> = full_cycle.into_iter().map(to_step).collect();
    Counterexample { stem, cycle }
}
