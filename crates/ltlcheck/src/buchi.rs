//! LTL → Büchi automaton translation via the GPVW tableau construction
//! (Gerth, Peled, Vardi, Wolper, *Simple On-the-fly Automatic Verification
//! of Linear Temporal Logic*, PSTV 1995), followed by the counter-based
//! degeneralization of the resulting generalized Büchi automaton.
//!
//! The produced automaton is *state-labeled*: each state carries a set of
//! positive and negative atom constraints, and a run over a word
//! `ψ₀ψ₁…` occupies state `sᵢ` at position `i` with `ψᵢ` satisfying `sᵢ`'s
//! constraints. This matches the state-labeled graphs that
//! [`autokit::Product::label_graph`] produces, making the model-checking
//! product a plain synchronous product.

use crate::{Atom, Ltl};
use autokit::{ActSet, PropSet};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of distinct subformulas supported per specification.
///
/// Closure sets are stored as `u128` bitmasks. The paper's specifications
/// have closures an order of magnitude smaller.
pub const MAX_CLOSURE: usize = 128;

type FSet = u128;

/// Interned subformula closure of an NNF formula.
struct Closure {
    formulas: Vec<Ltl>,
    index: HashMap<Ltl, u32>,
}

impl Closure {
    fn build(phi: &Ltl) -> Closure {
        let mut c = Closure {
            formulas: Vec::new(),
            index: HashMap::new(),
        };
        c.intern(phi);
        assert!(
            c.formulas.len() <= MAX_CLOSURE,
            "formula closure exceeds {MAX_CLOSURE} subformulas"
        );
        c
    }

    fn intern(&mut self, phi: &Ltl) -> u32 {
        if let Some(&id) = self.index.get(phi) {
            return id;
        }
        match phi {
            Ltl::True | Ltl::False | Ltl::Atom(_) => {}
            Ltl::Not(inner) | Ltl::Next(inner) => {
                self.intern(inner);
            }
            Ltl::And(l, r) | Ltl::Or(l, r) | Ltl::Until(l, r) | Ltl::Release(l, r) => {
                self.intern(l);
                self.intern(r);
            }
        }
        let id = self.formulas.len() as u32;
        self.formulas.push(phi.clone());
        self.index.insert(phi.clone(), id);
        id
    }

    fn id(&self, phi: &Ltl) -> Option<u32> {
        self.index.get(phi).copied()
    }

    /// Id of an interned subformula. The closure is built over every
    /// subformula of the root, so a miss during expansion is a
    /// construction bug, not an input condition.
    #[allow(clippy::expect_used)] // ALLOW: a miss during expansion is a construction bug, not an input condition.
    fn id_of(&self, phi: &Ltl) -> u32 {
        self.id(phi).expect("subformula interned")
    }

    fn get(&self, id: u32) -> &Ltl {
        &self.formulas[id as usize]
    }
}

fn bit(id: u32) -> FSet {
    1u128 << id
}

/// A tableau node during GPVW expansion.
#[derive(Debug, Clone)]
struct TNode {
    incoming: Vec<usize>, // INIT is usize::MAX
    new: FSet,
    old: FSet,
    next: FSet,
}

const INIT: usize = usize::MAX;

/// One state of a (degeneralized) Büchi automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuchiState {
    /// Atoms that must hold in a step label for the run to occupy this
    /// state at that step.
    pub pos: Vec<Atom>,
    /// Atoms that must not hold.
    pub neg: Vec<Atom>,
    /// Successor state indices.
    pub succs: Vec<usize>,
    /// Whether this state belongs to the (single) acceptance set.
    pub accepting: bool,
    /// `pos`/`neg` compiled to bitmasks once at construction, so a
    /// label test is four AND/compare operations.
    masks: LiteralMasks,
}

/// A state's literal constraints as `PropSet`/`ActSet` bitmasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LiteralMasks {
    pos_props: u32,
    pos_acts: u32,
    neg_props: u32,
    neg_acts: u32,
}

impl LiteralMasks {
    fn compile(pos: &[Atom], neg: &[Atom]) -> LiteralMasks {
        let bits = |atoms: &[Atom]| {
            atoms.iter().fold((0u32, 0u32), |(p, a), atom| match *atom {
                Atom::Prop(id) => (p | PropSet::singleton(id).bits(), a),
                Atom::Act(id) => (p, a | ActSet::singleton(id).bits()),
            })
        };
        let (pos_props, pos_acts) = bits(pos);
        let (neg_props, neg_acts) = bits(neg);
        LiteralMasks {
            pos_props,
            pos_acts,
            neg_props,
            neg_acts,
        }
    }
}

impl BuchiState {
    /// Checks whether a step label satisfies this state's constraints.
    #[inline]
    pub fn matches(&self, props: PropSet, acts: ActSet) -> bool {
        let m = &self.masks;
        let (p, a) = (props.bits(), acts.bits());
        p & m.pos_props == m.pos_props
            && a & m.pos_acts == m.pos_acts
            && p & m.neg_props == 0
            && a & m.neg_acts == 0
    }
}

/// A state-labeled Büchi automaton over the alphabet `2^{P ∪ P_A}`.
///
/// Accepts exactly the infinite words satisfying the LTL formula it was
/// built from. A word `ψ₀ψ₁…` is accepted iff some run `s₀s₁…` exists
/// with `s₀` initial, `sᵢ₊₁ ∈ succs(sᵢ)`, `ψᵢ` matching `sᵢ`'s literal
/// constraints, and accepting states visited infinitely often.
///
/// # Example
///
/// ```
/// use autokit::Vocab;
/// use ltlcheck::{parse, Buchi};
///
/// let mut v = Vocab::new();
/// v.add_prop("a")?;
/// let phi = parse("G F a", &v)?;
/// let buchi = Buchi::from_ltl(&phi);
/// assert!(buchi.num_states() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Buchi {
    states: Vec<BuchiState>,
    initial: Vec<usize>,
}

impl Buchi {
    /// Translates an LTL formula into an equivalent Büchi automaton.
    ///
    /// The formula is normalized to NNF internally.
    ///
    /// # Panics
    ///
    /// Panics if the formula's closure exceeds [`MAX_CLOSURE`] subformulas.
    pub fn from_ltl(phi: &Ltl) -> Buchi {
        let nnf = phi.nnf();
        let closure = Closure::build(&nnf);
        let nodes = expand_all(&nnf, &closure);
        degeneralize(&nodes, &closure)
    }

    /// The automaton's states.
    pub fn states(&self) -> &[BuchiState] {
        &self.states
    }

    /// Indices of initial states.
    pub fn initial(&self) -> &[usize] {
        &self.initial
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.states.iter().map(|s| s.succs.len()).sum()
    }
}

/// Runs the GPVW expansion starting from the obligation `{φ}`.
fn expand_all(phi: &Ltl, closure: &Closure) -> Vec<TNode> {
    let mut nodes: Vec<TNode> = Vec::new();
    // Dedup map keyed on (old, next) as in the algorithm's merge step.
    let mut seen: HashMap<(FSet, FSet), usize> = HashMap::new();

    let phi_id = closure.id_of(phi);
    let root = TNode {
        incoming: vec![INIT],
        new: bit(phi_id),
        old: 0,
        next: 0,
    };
    expand(root, closure, &mut nodes, &mut seen);
    nodes
}

fn expand(
    mut node: TNode,
    closure: &Closure,
    nodes: &mut Vec<TNode>,
    seen: &mut HashMap<(FSet, FSet), usize>,
) {
    if node.new == 0 {
        // Fully processed: merge with an existing node or register.
        if let Some(&existing) = seen.get(&(node.old, node.next)) {
            for inc in node.incoming {
                if !nodes[existing].incoming.contains(&inc) {
                    nodes[existing].incoming.push(inc);
                }
            }
            return;
        }
        let id = nodes.len();
        seen.insert((node.old, node.next), id);
        let next = node.next;
        nodes.push(node);
        let successor = TNode {
            incoming: vec![id],
            new: next,
            old: 0,
            next: 0,
        };
        expand(successor, closure, nodes, seen);
        return;
    }

    // Pop the lowest-id obligation.
    let f_id = node.new.trailing_zeros();
    node.new &= !bit(f_id);
    let f = closure.get(f_id).clone();

    match &f {
        Ltl::False => { /* contradiction: drop the node */ }
        Ltl::True => {
            // `true` must be recorded in Old: acceptance families test for
            // the right operand of an Until in Old, and that operand can
            // be `true` (e.g. after desugaring `F φ` inside negations).
            node.old |= bit(f_id);
            expand(node, closure, nodes, seen);
        }
        Ltl::Atom(_) | Ltl::Not(_) => {
            // Literal: check for a contradiction with Old.
            let negation = match &f {
                Ltl::Atom(a) => Ltl::Not(Arc::new(Ltl::Atom(*a))),
                Ltl::Not(inner) => (**inner).clone(),
                _ => unreachable!("literal case"),
            };
            if let Some(neg_id) = closure.id(&negation) {
                if node.old & bit(neg_id) != 0 {
                    return; // inconsistent node
                }
            }
            node.old |= bit(f_id);
            expand(node, closure, nodes, seen);
        }
        Ltl::And(l, r) => {
            let (lid, rid) = (closure.id_of(l), closure.id_of(r));
            node.old |= bit(f_id);
            node.new |= (bit(lid) | bit(rid)) & !node.old;
            expand(node, closure, nodes, seen);
        }
        Ltl::Or(l, r) => {
            let (lid, rid) = (closure.id_of(l), closure.id_of(r));
            let mut n1 = node.clone();
            n1.old |= bit(f_id);
            n1.new |= bit(lid) & !n1.old;
            let mut n2 = node;
            n2.old |= bit(f_id);
            n2.new |= bit(rid) & !n2.old;
            expand(n1, closure, nodes, seen);
            expand(n2, closure, nodes, seen);
        }
        Ltl::Next(inner) => {
            let iid = closure.id_of(inner);
            node.old |= bit(f_id);
            node.next |= bit(iid);
            expand(node, closure, nodes, seen);
        }
        Ltl::Until(l, r) => {
            let (lid, rid) = (closure.id_of(l), closure.id_of(r));
            // μ U ψ  ≡  ψ ∨ (μ ∧ X(μ U ψ))
            let mut n1 = node.clone();
            n1.old |= bit(f_id);
            n1.new |= bit(lid) & !n1.old;
            n1.next |= bit(f_id);
            let mut n2 = node;
            n2.old |= bit(f_id);
            n2.new |= bit(rid) & !n2.old;
            expand(n1, closure, nodes, seen);
            expand(n2, closure, nodes, seen);
        }
        Ltl::Release(l, r) => {
            let (lid, rid) = (closure.id_of(l), closure.id_of(r));
            // μ R ψ  ≡  (ψ ∧ μ) ∨ (ψ ∧ X(μ R ψ))
            let mut n1 = node.clone();
            n1.old |= bit(f_id);
            n1.new |= bit(rid) & !n1.old;
            n1.next |= bit(f_id);
            let mut n2 = node;
            n2.old |= bit(f_id);
            n2.new |= (bit(lid) | bit(rid)) & !n2.old;
            expand(n1, closure, nodes, seen);
            expand(n2, closure, nodes, seen);
        }
    }
}

/// Converts the tableau node set (a generalized Büchi automaton) into an
/// ordinary Büchi automaton with the counter construction.
fn degeneralize(nodes: &[TNode], closure: &Closure) -> Buchi {
    // Acceptance families: one per Until subformula g = μ U ψ,
    // F_g = { n | g ∉ Old(n) or ψ ∈ Old(n) }.
    let untils: Vec<(u32, u32)> = closure
        .formulas
        .iter()
        .enumerate()
        .filter_map(|(id, f)| match f {
            Ltl::Until(_, r) => closure.id(r).map(|rid| (id as u32, rid)),
            _ => None,
        })
        .collect();
    let k = untils.len().max(1);

    let in_family = |node: &TNode, fam: usize| -> bool {
        match untils.get(fam) {
            Some(&(g, psi)) => node.old & bit(g) == 0 || node.old & bit(psi) != 0,
            // No Until subformulas: a single family containing every node.
            None => true,
        }
    };

    // Extract literal constraints from Old sets.
    let literals = |node: &TNode| -> (Vec<Atom>, Vec<Atom>) {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for id in 0..closure.formulas.len() as u32 {
            if node.old & bit(id) != 0 {
                match closure.get(id) {
                    Ltl::Atom(a) => pos.push(*a),
                    Ltl::Not(inner) => {
                        if let Ltl::Atom(a) = &**inner {
                            neg.push(*a);
                        }
                    }
                    _ => {}
                }
            }
        }
        (pos, neg)
    };

    // Base (generalized) transitions: r → n for r ∈ incoming(n).
    let n = nodes.len();
    let mut base_succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut base_initial: Vec<usize> = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        for &inc in &node.incoming {
            if inc == INIT {
                base_initial.push(id);
            } else {
                base_succs[inc].push(id);
            }
        }
    }

    // Counter product: state (node, i) for i ∈ 0..k. Leaving (q, i) with
    // q ∈ F_i advances the counter; accepting states are (q, k-1) with
    // q ∈ F_{k-1}.
    let mut states: Vec<BuchiState> = Vec::with_capacity(n * k);
    for i in 0..k {
        for (id, node) in nodes.iter().enumerate() {
            let (pos, neg) = literals(node);
            states.push(BuchiState {
                masks: LiteralMasks::compile(&pos, &neg),
                pos,
                neg,
                succs: Vec::new(),
                accepting: i == k - 1 && in_family(node, k - 1),
            });
            let _ = id;
        }
    }
    let idx = |node: usize, i: usize| i * n + node;
    for i in 0..k {
        for (id, node) in nodes.iter().enumerate() {
            let i_next = if in_family(node, i) { (i + 1) % k } else { i };
            let succs: Vec<usize> = base_succs[id].iter().map(|&t| idx(t, i_next)).collect();
            states[idx(id, i)].succs = succs;
        }
    }
    let initial: Vec<usize> = base_initial.iter().map(|&t| idx(t, 0)).collect();

    Buchi { states, initial }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use autokit::Vocab;

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.add_prop("a").unwrap();
        v.add_prop("b").unwrap();
        v.add_act("s").unwrap();
        v
    }

    /// Checks whether the Büchi automaton accepts the lasso word
    /// `prefix · cycleᵚ` by explicit product search.
    fn accepts_lasso(
        buchi: &Buchi,
        prefix: &[(PropSet, ActSet)],
        cycle: &[(PropSet, ActSet)],
    ) -> bool {
        // Word positions: 0..p are prefix, then cyclic.
        let p = prefix.len();
        let c = cycle.len();
        let label = |pos: usize| -> (PropSet, ActSet) {
            if pos < p {
                prefix[pos]
            } else {
                cycle[(pos - p) % c]
            }
        };
        // Position space collapses to p + c distinct indices.
        let norm = |pos: usize| -> usize {
            if pos < p {
                pos
            } else {
                p + (pos - p) % c
            }
        };
        // BFS over (word position, buchi state); find a reachable accepting
        // cycle in the finite product (positions wrap inside the lasso
        // cycle).
        let num_pos = p + c;
        let nb = buchi.num_states();
        let mut reach = vec![false; num_pos * nb];
        let mut queue = Vec::new();
        for &s in buchi.initial() {
            let (props, acts) = label(0);
            if buchi.states()[s].matches(props, acts) {
                let key = norm(0) * nb + s;
                if !reach[key] {
                    reach[key] = true;
                    queue.push((0usize, s));
                }
            }
        }
        let mut edges: Vec<((usize, usize), (usize, usize))> = Vec::new();
        while let Some((pos, s)) = queue.pop() {
            let next_pos = pos + 1;
            let (props, acts) = label(next_pos);
            for &t in &buchi.states()[s].succs {
                if buchi.states()[t].matches(props, acts) {
                    let nk = norm(next_pos);
                    edges.push(((norm(pos), s), (nk, t)));
                    let key = nk * nb + t;
                    if !reach[key] {
                        reach[key] = true;
                        queue.push((nk, t));
                    }
                }
            }
        }
        // Accepting cycle detection in the reachable product graph (tiny
        // sizes: Tarjan unnecessary — use DFS per accepting node).
        let mut adj: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        let accepting: Vec<(usize, usize)> = (0..num_pos)
            .flat_map(|pp| (0..nb).map(move |s| (pp, s)))
            .filter(|&(pp, s)| reach[pp * nb + s] && buchi.states()[s].accepting)
            .collect();
        for &acc in &accepting {
            // Is acc reachable from itself?
            let mut stack = vec![acc];
            let mut seen = std::collections::HashSet::new();
            while let Some(v) = stack.pop() {
                for &w in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                    if w == acc {
                        return true;
                    }
                    if seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
        }
        false
    }

    fn sym(v: &Vocab, props: &[&str], acts: &[&str]) -> (PropSet, ActSet) {
        let mut p = PropSet::empty();
        for name in props {
            p.insert(v.prop(name).unwrap());
        }
        let mut a = ActSet::empty();
        for name in acts {
            a.insert(v.act(name).unwrap());
        }
        (p, a)
    }

    #[test]
    fn atom_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[a], &[none]));
        assert!(!accepts_lasso(&buchi, &[none], &[a]));
    }

    #[test]
    fn globally_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("G a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[], &[a]));
        assert!(!accepts_lasso(&buchi, &[a, a], &[none]));
        assert!(!accepts_lasso(&buchi, &[none], &[a]));
    }

    #[test]
    fn eventually_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("F a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[none, none, a], &[none]));
        assert!(accepts_lasso(&buchi, &[], &[none, a]));
        assert!(!accepts_lasso(&buchi, &[none], &[none]));
    }

    #[test]
    fn until_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("a U b", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let b = sym(&v, &["b"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[a, a, b], &[none]));
        assert!(accepts_lasso(&buchi, &[b], &[none]));
        // a never reaches b.
        assert!(!accepts_lasso(&buchi, &[], &[a]));
        // a gap before b.
        assert!(!accepts_lasso(&buchi, &[a, none, b], &[none]));
    }

    #[test]
    fn release_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("a R b", &v).unwrap());
        let ab = sym(&v, &["a", "b"], &[]);
        let b = sym(&v, &["b"], &[]);
        let none = sym(&v, &[], &[]);
        // b forever (a never needed).
        assert!(accepts_lasso(&buchi, &[], &[b]));
        // b until a releases.
        assert!(accepts_lasso(&buchi, &[b, b, ab], &[none]));
        // b stops holding before a release.
        assert!(!accepts_lasso(&buchi, &[b, none], &[ab]));
    }

    #[test]
    fn gf_needs_infinitely_many() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("G F a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[], &[none, a]));
        // a only finitely often.
        assert!(!accepts_lasso(&buchi, &[a, a, a], &[none]));
    }

    #[test]
    fn next_formula() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("X a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[none, a], &[none]));
        assert!(!accepts_lasso(&buchi, &[a, none], &[none]));
    }

    #[test]
    fn until_with_true_rhs_accepts_everything() {
        // Regression: `true` must enter Old so the Until acceptance
        // family F_{μ U true} has witnesses. φ = ¬(true U (true R false))
        // is a tautology; its automaton must accept every word.
        let v = vocab();
        let phi = Ltl::not(Ltl::until(
            Ltl::not(Ltl::False),
            Ltl::release(Ltl::True, Ltl::False),
        ));
        let buchi = Buchi::from_ltl(&phi);
        let none = sym(&v, &[], &[]);
        let a = sym(&v, &["a"], &[]);
        assert!(accepts_lasso(&buchi, &[], &[none]));
        assert!(accepts_lasso(&buchi, &[a], &[none, a]));
    }

    #[test]
    fn unsatisfiable_formula_has_empty_language() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("a & !a", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let none = sym(&v, &[], &[]);
        assert!(!accepts_lasso(&buchi, &[], &[a]));
        assert!(!accepts_lasso(&buchi, &[], &[none]));
    }

    #[test]
    fn mixed_prop_and_act_atoms() {
        let v = vocab();
        let buchi = Buchi::from_ltl(&parse("G(a -> F s)", &v).unwrap());
        let a = sym(&v, &["a"], &[]);
        let s = sym(&v, &[], &["s"]);
        let none = sym(&v, &[], &[]);
        assert!(accepts_lasso(&buchi, &[], &[a, s]));
        assert!(accepts_lasso(&buchi, &[], &[none]));
        assert!(!accepts_lasso(&buchi, &[a], &[none]));
        let _ = s;
    }
}
