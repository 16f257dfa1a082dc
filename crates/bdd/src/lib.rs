//! # bdd — reduced ordered binary decision diagrams
//!
//! A compact BDD kernel in the style of Bryant (1986) with the classic
//! implementation techniques: a hash-consed unique table (canonicity ⇒
//! equality is pointer equality), a memoized `ite` (if-then-else) core
//! from which all Boolean connectives derive, a fused
//! [`and_exists`](BddManager::and_exists) relational product,
//! existential/universal quantification over variable sets, and variable
//! renaming for relational image computation.
//!
//! The table layout follows the high-performance packages (CUDD, BuDDy):
//! the unique table is open-addressed with a deterministic multiplicative
//! hash and a capacity-doubling rehash path, and the hot operation caches
//! (`ite`, `and_exists`) are direct-mapped arrays rather than chained
//! maps — a lossy computed table is still sound (a miss only recomputes)
//! and probes in a couple of cache lines. Cache effectiveness is
//! observable through [`BddManager::cache_hits`] /
//! [`BddManager::cache_lookups`]; [`BddManager::peak_nodes`] tracks the
//! high-water mark of the node store.
//!
//! Nodes are reclaimed in stack order: [`BddManager::mark`] records the
//! node-store watermark and [`BddManager::release`] drops every node
//! built after it. A long-lived base (a compiled transition relation)
//! stays below the mark while per-query work is built above it and
//! dropped when the query is answered.
//!
//! This crate is the symbolic kernel behind `ltlcheck`'s NuSMV-style
//! backend: transition relations of product automata are encoded over
//! current/next state bits and fair cycles are found with symbolic
//! fixpoints instead of explicit graph search.
//!
//! ## Example
//!
//! ```
//! use bdd::BddManager;
//!
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.and(a, b);
//! let g = m.or(f, c);
//!
//! // Canonicity: structurally equal functions are the same node.
//! let g2 = {
//!     let ca = m.or(a, c);
//!     let cb = m.or(b, c);
//!     m.and(ca, cb) // (a∨c)∧(b∨c) ≡ (a∧b)∨c
//! };
//! assert_eq!(g, g2);
//!
//! // Quantification: ∃c. g ≡ true (pick c = 1).
//! let ex = m.exists(g, &[2]);
//! assert_eq!(ex, m.constant(true));
//!
//! // The fused relational product does both steps in one recursion.
//! let fused = m.and_exists(f, g, &[1]);
//! let conj = m.and(f, g);
//! assert_eq!(fused, m.exists(conj, &[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// A BDD node reference. `Ref`s are only meaningful with the manager that
/// produced them; canonicity makes equality of `Ref`s equality of
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

const FALSE: Ref = Ref(0);
const TRUE: Ref = Ref(1);
/// Sentinel variable index for terminal nodes (orders after every real
/// variable).
const TERMINAL_VAR: u32 = u32::MAX;
/// Empty slot marker in the open-addressed unique table.
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// Deterministic multiplicative mix (fibonacci hashing over a 3-word
/// key). All hashing in the manager goes through this, so node counts
/// and cache statistics are identical run to run — the differential and
/// perf gates compare them exactly.
#[inline]
fn mix3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_add(u64::from(c).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
    h ^= h >> 32;
    h
}

/// A direct-mapped operation cache (CUDD's "computed table"): one slot
/// per hash bucket, collisions overwrite. Lossy but sound — the result
/// of a miss is recomputed, never wrong.
#[derive(Debug)]
struct OpCache {
    /// `(a, b, c, result)`; `a == EMPTY` marks a free slot.
    slots: Vec<(u32, u32, u32, Ref)>,
    mask: usize,
}

impl OpCache {
    fn new(capacity_pow2: usize) -> Self {
        OpCache {
            slots: vec![(EMPTY, 0, 0, FALSE); capacity_pow2],
            mask: capacity_pow2 - 1,
        }
    }

    #[inline]
    fn get(&self, a: u32, b: u32, c: u32) -> Option<Ref> {
        let slot = self.slots[(mix3(a, b, c) as usize) & self.mask];
        if slot.0 == a && slot.1 == b && slot.2 == c {
            Some(slot.3)
        } else {
            None
        }
    }

    #[inline]
    fn put(&mut self, a: u32, b: u32, c: u32, r: Ref) {
        let idx = (mix3(a, b, c) as usize) & self.mask;
        self.slots[idx] = (a, b, c, r);
    }

    /// Empties every slot, keeping the capacity.
    fn clear(&mut self) {
        self.slots.fill((EMPTY, 0, 0, FALSE));
    }

    /// Doubles the cache, rehashing the surviving entries into their new
    /// buckets (entries are worth keeping — they are a pure speedup).
    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.slots,
            vec![(EMPTY, 0, 0, FALSE); (self.mask + 1) * 2],
        );
        self.mask = self.slots.len() - 1;
        for (a, b, c, r) in old {
            if a != EMPTY {
                let idx = (mix3(a, b, c) as usize) & self.mask;
                self.slots[idx] = (a, b, c, r);
            }
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Initial size of the direct-mapped operation caches.
const OP_CACHE_INIT: usize = 1 << 12;
/// Initial size of the open-addressed unique table.
const UNIQUE_INIT: usize = 1 << 12;

/// A node-store watermark returned by [`BddManager::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

/// A BDD manager: owns the node store and all caches.
///
/// Variables are indexed `0..num_vars` and ordered by index (lower index
/// = closer to the root).
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    /// Open-addressed unique table over `nodes`: slots hold node indices,
    /// `EMPTY` marks a free slot. Linear probing; doubled and rehashed
    /// when 3/4 full.
    unique: Vec<u32>,
    unique_mask: usize,
    ite_cache: OpCache,
    and_exists_cache: OpCache,
    quant_cache: HashMap<(Ref, u32), Ref>,
    rename_cache: HashMap<(Ref, u32), Ref>,
    /// Interned quantification variable sets: `var_sets[id]` is a sorted,
    /// deduplicated set. Set identity (not a hash of it) keys the
    /// quantification caches, so distinct sets can never collide.
    var_sets: Vec<Vec<u32>>,
    var_set_ids: HashMap<Vec<u32>, u32>,
    /// Interned renaming maps, keyed into the rename cache the same way.
    rename_maps: Vec<Vec<u32>>,
    rename_map_ids: HashMap<Vec<u32>, u32>,
    num_vars: u32,
    /// Largest node count seen before a [`release`](Self::release).
    peak: usize,
    cache_lookups: u64,
    cache_hits: u64,
    rehashes: u64,
}

impl BddManager {
    /// Creates a manager for `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds `2^31` (ample for any realistic use).
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < (1 << 31), "too many variables");
        let mut manager = BddManager {
            nodes: Vec::with_capacity(UNIQUE_INIT / 2),
            unique: vec![EMPTY; UNIQUE_INIT],
            unique_mask: UNIQUE_INIT - 1,
            ite_cache: OpCache::new(OP_CACHE_INIT),
            and_exists_cache: OpCache::new(OP_CACHE_INIT),
            quant_cache: HashMap::new(),
            rename_cache: HashMap::new(),
            var_sets: Vec::new(),
            var_set_ids: HashMap::new(),
            rename_maps: Vec::new(),
            rename_map_ids: HashMap::new(),
            num_vars,
            peak: 0,
            cache_lookups: 0,
            cache_hits: 0,
            rehashes: 0,
        };
        // Index 0 = false terminal, 1 = true terminal. Terminals are not
        // hashed into the unique table; `mk` never constructs them.
        manager.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: FALSE,
            hi: FALSE,
        });
        manager.nodes.push(Node {
            var: TERMINAL_VAR,
            lo: TRUE,
            hi: TRUE,
        });
        manager
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Raises the variable count to `num_vars` (never lowers it). New
    /// variables order after every existing one, so functions built so
    /// far are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds `2^31`.
    pub fn raise_num_vars(&mut self, num_vars: u32) {
        assert!(num_vars < (1 << 31), "too many variables");
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Number of live nodes (including the two terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// High-water mark of the node store over the manager's lifetime:
    /// the most nodes that were ever live at once, including nodes since
    /// dropped by [`release`](Self::release).
    pub fn peak_nodes(&self) -> usize {
        self.peak.max(self.nodes.len())
    }

    /// The current node-store watermark. Every node built after this
    /// call is dropped by [`release`](Self::release) with the returned
    /// mark; every `Ref` obtained before it stays valid.
    pub fn mark(&self) -> Mark {
        Mark(self.nodes.len())
    }

    /// Drops every node built since `mark` was taken, invalidating all
    /// `Ref`s to them. Sound because children always precede their
    /// parents in the store, so no node below the mark points above it.
    ///
    /// The unique table is rebuilt from the surviving nodes and every
    /// operation cache is cleared: a released index is reused by the
    /// next new node, so a stale entry would return the wrong function.
    /// Table and cache capacities are kept.
    ///
    /// # Panics
    ///
    /// Panics if the store is already below `mark` (a mark taken before
    /// an earlier release to a lower watermark).
    pub fn release(&mut self, mark: Mark) {
        assert!(
            mark.0 <= self.nodes.len(),
            "mark {} is above the node store ({} nodes)",
            mark.0,
            self.nodes.len()
        );
        self.peak = self.peak_nodes();
        self.nodes.truncate(mark.0);
        self.unique.fill(EMPTY);
        self.reindex();
        self.ite_cache.clear();
        self.and_exists_cache.clear();
        self.quant_cache.clear();
        self.rename_cache.clear();
    }

    /// Total probes of the hot operation caches (`ite`, `and_exists`).
    pub fn cache_lookups(&self) -> u64 {
        self.cache_lookups
    }

    /// Probes of the hot operation caches that found their result.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Times the unique table doubled its capacity and rehashed.
    pub fn unique_rehashes(&self) -> u64 {
        self.rehashes
    }

    /// The constant function.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    /// The literal `xᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn var(&mut self, i: u32) -> Ref {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.mk(i, FALSE, TRUE)
    }

    /// The literal `¬xᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn nvar(&mut self, i: u32) -> Ref {
        assert!(i < self.num_vars, "variable {i} out of range");
        self.mk(i, TRUE, FALSE)
    }

    /// The conjunction of literals `lits`, given in strictly increasing
    /// variable order (`true` = positive literal). Builds the cube
    /// bottom-up with `len` direct node constructions — no `ite` calls,
    /// no intermediate conjunctions — which is what makes per-state
    /// encodings of transition relations cheap.
    ///
    /// # Panics
    ///
    /// Panics if variables are out of range or not strictly increasing.
    pub fn cube(&mut self, lits: &[(u32, bool)]) -> Ref {
        let mut acc = TRUE;
        let mut prev = u32::MAX;
        for &(v, polarity) in lits.iter().rev() {
            assert!(v < self.num_vars, "variable {v} out of range");
            assert!(v < prev, "cube literals must be strictly increasing");
            prev = v;
            acc = if polarity {
                self.mk(v, FALSE, acc)
            } else {
                self.mk(v, acc, FALSE)
            };
        }
        acc
    }

    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let mut idx = (mix3(var, lo.0, hi.0) as usize) & self.unique_mask;
        loop {
            let slot = self.unique[idx];
            if slot == EMPTY {
                break;
            }
            let n = self.nodes[slot as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ref(slot);
            }
            idx = (idx + 1) & self.unique_mask;
        }
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique[idx] = r.0;
        // Keep the load factor under 3/4; count the two unhashed
        // terminals out.
        if (self.nodes.len() - 2) * 4 > (self.unique_mask + 1) * 3 {
            self.rehash();
        }
        // Keep the direct-mapped caches proportioned to the node store so
        // big relations don't thrash a tiny computed table.
        if self.nodes.len() > self.ite_cache.len() {
            self.ite_cache.grow();
            self.and_exists_cache.grow();
        }
        r
    }

    /// Doubles the unique table and re-inserts every node — the
    /// capacity-doubling rehash path.
    fn rehash(&mut self) {
        let new_cap = (self.unique_mask + 1) * 2;
        self.unique = vec![EMPTY; new_cap];
        self.unique_mask = new_cap - 1;
        self.rehashes += 1;
        self.reindex();
    }

    /// Inserts every non-terminal node into an empty unique table.
    fn reindex(&mut self) {
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            let mut idx = (mix3(n.var, n.lo.0, n.hi.0) as usize) & self.unique_mask;
            while self.unique[idx] != EMPTY {
                idx = (idx + 1) & self.unique_mask;
            }
            self.unique[idx] = i as u32;
        }
    }

    fn node(&self, r: Ref) -> Node {
        self.nodes[r.0 as usize]
    }

    fn var_of(&self, r: Ref) -> u32 {
        self.node(r).var
    }

    /// Shannon cofactors of `f` with respect to variable `v` (which must
    /// be ≤ the root variable of `f`).
    fn cofactors(&self, f: Ref, v: u32) -> (Ref, Ref) {
        let n = self.node(f);
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`. The core
    /// operation every connective reduces to.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal shortcuts.
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        self.cache_lookups += 1;
        if let Some(r) = self.ite_cache.get(f.0, g.0, h.0) {
            self.cache_hits += 1;
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.put(f.0, g.0, h.0, r);
        r
    }

    /// `¬f`.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, FALSE, TRUE)
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, FALSE)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, TRUE, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// `f → g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, TRUE)
    }

    /// `f ↔ g`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Conjunction over an iterator (`true` when empty). Combines
    /// pairwise in a balanced tree, which keeps intermediate BDDs small
    /// when many similarly-sized operands are folded (a left fold makes
    /// one operand grow monotonically).
    pub fn and_all(&mut self, parts: impl IntoIterator<Item = Ref>) -> Ref {
        let layer: Vec<Ref> = parts.into_iter().collect();
        self.balanced(layer, TRUE, Self::and)
    }

    /// Disjunction over an iterator (`false` when empty), combined as a
    /// balanced tree like [`and_all`](Self::and_all).
    pub fn or_all(&mut self, parts: impl IntoIterator<Item = Ref>) -> Ref {
        let layer: Vec<Ref> = parts.into_iter().collect();
        self.balanced(layer, FALSE, Self::or)
    }

    fn balanced(
        &mut self,
        mut layer: Vec<Ref>,
        empty: Ref,
        op: impl Fn(&mut Self, Ref, Ref) -> Ref,
    ) -> Ref {
        if layer.is_empty() {
            return empty;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for chunk in layer.chunks(2) {
                next.push(if chunk.len() == 2 {
                    op(self, chunk[0], chunk[1])
                } else {
                    chunk[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Interns a quantification variable set, returning its stable id.
    /// Ids key the quantification caches exactly (no hash collisions
    /// between distinct sets) and stay valid for the manager's lifetime.
    fn intern_vars(&mut self, vars: &[u32]) -> u32 {
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&id) = self.var_set_ids.get(&sorted) {
            return id;
        }
        let id = self.var_sets.len() as u32;
        self.var_sets.push(sorted.clone());
        self.var_set_ids.insert(sorted, id);
        id
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range.
    pub fn exists(&mut self, f: Ref, vars: &[u32]) -> Ref {
        for &v in vars {
            assert!(v < self.num_vars, "variable {v} out of range");
        }
        let set_id = self.intern_vars(vars);
        let set = std::mem::take(&mut self.var_sets[set_id as usize]);
        let r = self.exists_inner(f, &set, set_id);
        self.var_sets[set_id as usize] = set;
        r
    }

    fn exists_inner(&mut self, f: Ref, vars: &[u32], set_id: u32) -> Ref {
        if f == TRUE || f == FALSE {
            return f;
        }
        let n = self.node(f);
        // Variables are ordered; once the root is past the whole set the
        // function cannot depend on any quantified variable.
        if vars.last().is_none_or(|&max| n.var > max) {
            return f;
        }
        if let Some(&r) = self.quant_cache.get(&(f, set_id)) {
            return r;
        }
        let r = if vars.binary_search(&n.var).is_ok() {
            let lo = self.exists_inner(n.lo, vars, set_id);
            if lo == TRUE {
                TRUE
            } else {
                let hi = self.exists_inner(n.hi, vars, set_id);
                self.or(lo, hi)
            }
        } else {
            let lo = self.exists_inner(n.lo, vars, set_id);
            let hi = self.exists_inner(n.hi, vars, set_id);
            self.mk(n.var, lo, hi)
        };
        self.quant_cache.insert((f, set_id), r);
        r
    }

    /// The fused relational product `∃ vars. f ∧ g` in a single
    /// recursion with its own memo cache — the workhorse of symbolic
    /// image/pre-image computation. Equivalent to
    /// `exists(and(f, g), vars)` but never materializes the conjunction,
    /// whose BDD is typically far larger than either operand or the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range.
    pub fn and_exists(&mut self, f: Ref, g: Ref, vars: &[u32]) -> Ref {
        for &v in vars {
            assert!(v < self.num_vars, "variable {v} out of range");
        }
        let set_id = self.intern_vars(vars);
        let set = std::mem::take(&mut self.var_sets[set_id as usize]);
        let r = self.and_exists_inner(f, g, &set, set_id);
        self.var_sets[set_id as usize] = set;
        r
    }

    fn and_exists_inner(&mut self, f: Ref, g: Ref, vars: &[u32], set_id: u32) -> Ref {
        if f == FALSE || g == FALSE {
            return FALSE;
        }
        if f == TRUE {
            return self.exists_inner(g, vars, set_id);
        }
        if g == TRUE || f == g {
            return self.exists_inner(f, vars, set_id);
        }
        // ∧ is commutative: normalize the operand order for the cache.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        self.cache_lookups += 1;
        if let Some(r) = self.and_exists_cache.get(f.0, g.0, set_id) {
            self.cache_hits += 1;
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = if vars.binary_search(&v).is_ok() {
            let lo = self.and_exists_inner(f0, g0, vars, set_id);
            if lo == TRUE {
                TRUE
            } else {
                let hi = self.and_exists_inner(f1, g1, vars, set_id);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_inner(f0, g0, vars, set_id);
            let hi = self.and_exists_inner(f1, g1, vars, set_id);
            self.mk(v, lo, hi)
        };
        self.and_exists_cache.put(f.0, g.0, set_id, r);
        r
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Ref, vars: &[u32]) -> Ref {
        let nf = self.not(f);
        let ex = self.exists(nf, vars);
        self.not(ex)
    }

    /// Renames every variable `v` to `v + offset` (negative offsets shift
    /// down). Used to move between current-state and next-state variable
    /// blocks in transition relations — offset `1` for interleaved
    /// current/next pairs, the block width for blocked layouts.
    ///
    /// # Panics
    ///
    /// Panics if any renamed variable falls outside the manager's range.
    pub fn rename_shift(&mut self, f: Ref, offset: i64) -> Ref {
        // Variables whose image is out of range map to an out-of-range
        // sentinel, which `rename` rejects only if `f` depends on them.
        let map: Vec<u32> = (0..i64::from(self.num_vars))
            .map(|v| u32::try_from(v + offset).unwrap_or(u32::MAX))
            .collect();
        self.rename(f, &map)
    }

    /// Renames every variable `v` of `f` to `map[v]`. The map must keep
    /// the relative order of the variables `f` depends on (the renamed
    /// diagram is rebuilt node for node, not reordered) — e.g. moving a
    /// function between the current and next blocks of several
    /// components at once, each with its own block offset.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable with no in-range image, or if
    /// the map reorders the variables of `f`.
    pub fn rename(&mut self, f: Ref, map: &[u32]) -> Ref {
        let id = match self.rename_map_ids.get(map) {
            Some(&id) => id,
            None => {
                let id = self.rename_maps.len() as u32;
                self.rename_maps.push(map.to_vec());
                self.rename_map_ids.insert(map.to_vec(), id);
                id
            }
        };
        let map = std::mem::take(&mut self.rename_maps[id as usize]);
        let r = self.rename_inner(f, &map, id);
        self.rename_maps[id as usize] = map;
        r
    }

    fn rename_inner(&mut self, f: Ref, map: &[u32], map_id: u32) -> Ref {
        if f == TRUE || f == FALSE {
            return f;
        }
        if let Some(&r) = self.rename_cache.get(&(f, map_id)) {
            return r;
        }
        let n = self.node(f);
        let new_var = map.get(n.var as usize).copied().unwrap_or(u32::MAX);
        assert!(new_var < self.num_vars, "renamed variable out of range");
        let lo = self.rename_inner(n.lo, map, map_id);
        let hi = self.rename_inner(n.hi, map, map_id);
        assert!(
            new_var < self.var_of(lo) && new_var < self.var_of(hi),
            "renaming must preserve the variable order"
        );
        let r = self.mk(new_var, lo, hi);
        self.rename_cache.insert((f, map_id), r);
        r
    }

    /// Evaluates `f` under a full assignment (`assignment[i]` = value of
    /// variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than a variable the function
    /// depends on.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur == TRUE {
                return true;
            }
            if cur == FALSE {
                return false;
            }
            let n = self.node(cur);
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// `true` iff `f` is satisfiable.
    pub fn satisfiable(&self, f: Ref) -> bool {
        f != FALSE
    }

    /// Picks one satisfying assignment of `f`, if any. Variables the
    /// function does not depend on are reported as `false`.
    pub fn any_sat(&self, f: Ref) -> Option<Vec<bool>> {
        if f == FALSE {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut cur = f;
        while cur != TRUE {
            let n = self.node(cur);
            if n.hi != FALSE {
                assignment[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assignment)
    }

    /// Number of satisfying assignments over all `num_vars` variables,
    /// **saturating at `u64::MAX`**.
    ///
    /// Counts are accumulated in `f64`, so they are exact below `2^53`
    /// assignments; beyond that the mantissa rounds, and at `2^64` and
    /// above the result clamps to `u64::MAX`. A saturated return value
    /// therefore means "at least `u64::MAX`", never a silent wrap — wide
    /// state spaces (≥ 64 variables) routinely exceed the range.
    pub fn sat_count(&self, f: Ref) -> u64 {
        fn count(m: &BddManager, f: Ref, memo: &mut HashMap<Ref, f64>) -> f64 {
            if f == FALSE {
                return 0.0;
            }
            if f == TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let n = m.node(f);
            let lo_var = m.var_of(n.lo);
            let hi_var = m.var_of(n.hi);
            let lo_gap = f64::from(lo_var.min(m.num_vars)) - f64::from(n.var) - 1.0;
            let hi_gap = f64::from(hi_var.min(m.num_vars)) - f64::from(n.var) - 1.0;
            let c = count(m, n.lo, memo) * lo_gap.exp2() + count(m, n.hi, memo) * hi_gap.exp2();
            memo.insert(f, c);
            c
        }
        let mut memo = HashMap::new();
        let root_gap = f64::from(self.var_of(f).min(self.num_vars));
        let total = count(self, f, &mut memo) * root_gap.exp2();
        // Explicit saturation: 2^64 (the first unrepresentable count) and
        // everything above clamp to u64::MAX.
        if total >= u64::MAX as f64 {
            u64::MAX
        } else {
            total as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_and_literals() {
        let mut m = BddManager::new(2);
        let t = m.constant(true);
        let f = m.constant(false);
        assert_ne!(t, f);
        let a = m.var(0);
        let na = m.nvar(0);
        let not_a = m.not(a);
        assert_eq!(na, not_a);
        assert!(m.eval(a, &[true, false]));
        assert!(!m.eval(a, &[false, false]));
    }

    #[test]
    fn canonicity_of_equivalent_formulas() {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        // De Morgan.
        let ab = m.and(a, b);
        let lhs = m.not(ab);
        let (na, nb) = (m.not(a), m.not(b));
        let rhs = m.or(na, nb);
        assert_eq!(lhs, rhs);
        // Distribution.
        let bc = m.or(b, c);
        let lhs = m.and(a, bc);
        let (ab, ac) = (m.and(a, b), m.and(a, c));
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn quantification() {
        let mut m = BddManager::new(3);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        // ∃b. a∧b = a ; ∀b. a∧b = false.
        assert_eq!(m.exists(f, &[1]), a);
        assert_eq!(m.forall(f, &[1]), m.constant(false));
        // ∃a,b. a∧b = true.
        assert_eq!(m.exists(f, &[0, 1]), m.constant(true));
    }

    #[test]
    fn rename_shift_moves_blocks() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let shifted = m.rename_shift(f, 2);
        // x0⊕x1 over [t,f,·,·] vs x2⊕x3 over [·,·,t,f].
        assert!(m.eval(f, &[true, false, false, false]));
        assert!(m.eval(shifted, &[false, false, true, false]));
        assert!(!m.eval(shifted, &[true, false, true, true]));
        // Shifting back recovers the original (canonicity!).
        assert_eq!(m.rename_shift(shifted, -2), f);
    }

    #[test]
    fn any_sat_finds_witness() {
        let mut m = BddManager::new(3);
        let (a, c) = (m.var(0), m.var(2));
        let na = m.not(a);
        let f = m.and(na, c);
        let Some(w) = m.any_sat(f) else {
            panic!("expected a witness")
        };
        assert!(m.eval(f, &w));
        let fals = m.constant(false);
        assert!(m.any_sat(fals).is_none());
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        assert_eq!(m.sat_count(a), 4); // a=1, b,c free
        let b = m.var(1);
        let f = m.or(a, b);
        assert_eq!(m.sat_count(f), 6);
        assert_eq!(m.sat_count(m.constant(true)), 8);
        assert_eq!(m.sat_count(m.constant(false)), 0);
    }

    /// The saturation boundary: 63 variables still count exactly
    /// (`2^63` is a representable power of two), 64 and 65 saturate to
    /// `u64::MAX` instead of wrapping or rounding arbitrarily.
    #[test]
    fn sat_count_saturates_at_the_boundary() {
        let m63 = BddManager::new(63);
        assert_eq!(m63.sat_count(m63.constant(true)), 1u64 << 63);
        let m64 = BddManager::new(64);
        assert_eq!(m64.sat_count(m64.constant(true)), u64::MAX);
        let m65 = BddManager::new(65);
        assert_eq!(m65.sat_count(m65.constant(true)), u64::MAX);
        // Just below the clamp: half the 64-var space is exactly 2^63,
        // which is representable and must NOT be clamped.
        let mut m = BddManager::new(64);
        let a = m.var(0);
        assert_eq!(m.sat_count(a), 1u64 << 63);
    }

    #[test]
    fn cube_is_the_literal_conjunction() {
        let mut m = BddManager::new(5);
        let c = m.cube(&[(0, true), (2, false), (4, true)]);
        let a = m.var(0);
        let nb = m.nvar(2);
        let e = m.var(4);
        let ab = m.and(a, nb);
        let expected = m.and(ab, e);
        assert_eq!(c, expected);
        assert_eq!(m.cube(&[]), m.constant(true));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn cube_rejects_unsorted_literals() {
        let mut m = BddManager::new(3);
        let _ = m.cube(&[(2, true), (0, false)]);
    }

    #[test]
    fn balanced_folds_match_semantics() {
        let mut m = BddManager::new(6);
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        let any = m.or_all(vars.iter().copied());
        // Equal to the sequential folds by canonicity.
        let mut acc = m.constant(true);
        for &v in &vars {
            acc = m.and(acc, v);
        }
        assert_eq!(all, acc);
        let mut acc = m.constant(false);
        for &v in &vars {
            acc = m.or(acc, v);
        }
        assert_eq!(any, acc);
        assert_eq!(m.and_all([]), m.constant(true));
        assert_eq!(m.or_all([]), m.constant(false));
    }

    #[test]
    fn cache_and_table_statistics_populate() {
        let mut m = BddManager::new(16);
        // Force enough distinct nodes to trigger at least one rehash of
        // the initial table.
        let mut funcs = Vec::new();
        for i in 0..16u32 {
            for j in 0..16u32 {
                if i != j {
                    let a = m.var(i);
                    let b = m.var(j);
                    let x = m.xor(a, b);
                    funcs.push(x);
                }
            }
        }
        let _ = m.or_all(funcs);
        assert!(m.cache_lookups() > 0);
        assert!(m.cache_hits() > 0);
        assert!(m.cache_hits() <= m.cache_lookups());
        assert_eq!(m.peak_nodes(), m.num_nodes());
        assert!(m.num_nodes() > 2);
    }

    #[test]
    fn unique_table_rehash_preserves_canonicity() {
        let mut m = BddManager::new(20);
        let mut seen = HashMap::new();
        // Build well past the initial capacity, recording refs.
        for round in 0..2 {
            for i in 0..20u32 {
                for j in 0..20u32 {
                    let a = m.var(i);
                    let b = m.var(j);
                    let f = m.and(a, b);
                    let x = m.xor(f, a);
                    if round == 0 {
                        seen.insert((i, j), x);
                    } else {
                        // Same structure ⇒ same node, across rehashes.
                        assert_eq!(seen[&(i, j)], x);
                    }
                }
            }
        }
        assert!(m.unique_rehashes() > 0 || m.num_nodes() < UNIQUE_INIT);
    }

    #[test]
    fn release_drops_nodes_and_keeps_the_peak() {
        let mut m = BddManager::new(8);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        let mark = m.mark();
        let base = m.num_nodes();
        let lits: Vec<Ref> = (2..8).map(|i| m.var(i)).collect();
        let _ = m.or_all(lits);
        let high = m.num_nodes();
        assert!(high > base);
        m.release(mark);
        assert_eq!(m.num_nodes(), base);
        assert_eq!(m.peak_nodes(), high);
        // Refs below the mark survive and stay canonical.
        assert_eq!(m.and(a, b), f);
        // Releasing at the current watermark is a no-op on the store.
        m.release(m.mark());
        assert_eq!(m.num_nodes(), base);
    }

    #[test]
    #[should_panic(expected = "above the node store")]
    fn release_rejects_a_stale_mark() {
        let mut m = BddManager::new(4);
        let low = m.mark();
        let _ = m.var(0);
        let high = m.mark();
        m.release(low);
        m.release(high);
    }

    #[test]
    fn raised_variables_order_after_existing_ones() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        m.raise_num_vars(4);
        m.raise_num_vars(3); // never lowers
        assert_eq!(m.num_vars(), 4);
        let d = m.var(3);
        let f = m.and(a, d);
        assert!(m.eval(f, &[true, false, false, true]));
        assert_eq!(m.exists(f, &[3]), a);
    }

    #[test]
    fn rename_moves_components_by_their_own_offsets() {
        // Two components with different block widths: [x0 | x1] and
        // [y0 y1 | y0' y1'] at variables 0,1 and 2,3 | 4,5.
        let mut m = BddManager::new(6);
        let (x0, y0, y1) = (m.var(0), m.var(2), m.var(3));
        let y = m.xor(y0, y1);
        let f = m.and(x0, y);
        let to_next = [1, 1, 4, 5, 4, 5];
        let g = m.rename(f, &to_next);
        let (x0n, y0n, y1n) = (m.var(1), m.var(4), m.var(5));
        let yn = m.xor(y0n, y1n);
        assert_eq!(g, m.and(x0n, yn));
        let to_cur = [0, 0, 2, 3, 2, 3];
        assert_eq!(m.rename(g, &to_cur), f);
    }

    #[test]
    #[should_panic(expected = "preserve the variable order")]
    fn rename_rejects_reordering_maps() {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        let _ = m.rename(f, &[1, 0]);
    }

    /// A tiny propositional formula AST for differential testing.
    #[derive(Debug, Clone)]
    enum Form {
        Var(u32),
        Not(Box<Form>),
        And(Box<Form>, Box<Form>),
        Or(Box<Form>, Box<Form>),
        Xor(Box<Form>, Box<Form>),
    }

    fn arb_form(vars: u32) -> impl Strategy<Value = Form> {
        let leaf = (0..vars).prop_map(Form::Var);
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| Form::Not(Box::new(f))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Form::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Form::Or(Box::new(a), Box::new(b))),
                (inner.clone(), inner).prop_map(|(a, b)| Form::Xor(Box::new(a), Box::new(b))),
            ]
        })
    }

    fn build(m: &mut BddManager, f: &Form) -> Ref {
        match f {
            Form::Var(i) => m.var(*i),
            Form::Not(a) => {
                let a = build(m, a);
                m.not(a)
            }
            Form::And(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.and(a, b)
            }
            Form::Or(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.or(a, b)
            }
            Form::Xor(a, b) => {
                let (a, b) = (build(m, a), build(m, b));
                m.xor(a, b)
            }
        }
    }

    fn truth(f: &Form, env: &[bool]) -> bool {
        match f {
            Form::Var(i) => env[*i as usize],
            Form::Not(a) => !truth(a, env),
            Form::And(a, b) => truth(a, env) && truth(b, env),
            Form::Or(a, b) => truth(a, env) || truth(b, env),
            Form::Xor(a, b) => truth(a, env) ^ truth(b, env),
        }
    }

    proptest! {
        /// The BDD agrees with direct truth-table evaluation on every
        /// assignment of up to 4 variables.
        #[test]
        fn matches_truth_table(form in arb_form(4)) {
            let mut m = BddManager::new(4);
            let f = build(&mut m, &form);
            for bits in 0..16u32 {
                let env: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
                prop_assert_eq!(m.eval(f, &env), truth(&form, &env));
            }
        }

        /// ∃x.f is satisfied exactly where some cofactor is.
        #[test]
        fn exists_is_disjunction_of_cofactors(form in arb_form(3)) {
            let mut m = BddManager::new(3);
            let f = build(&mut m, &form);
            let ex = m.exists(f, &[0]);
            for bits in 0..8u32 {
                let mut env: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
                env[0] = false;
                let lo = m.eval(f, &env);
                env[0] = true;
                let hi = m.eval(f, &env);
                prop_assert_eq!(m.eval(ex, &env), lo || hi);
            }
        }

        /// sat_count matches brute-force enumeration.
        #[test]
        fn sat_count_matches_enumeration(form in arb_form(4)) {
            let mut m = BddManager::new(4);
            let f = build(&mut m, &form);
            let expected = (0..16u32)
                .filter(|bits| {
                    let env: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
                    truth(&form, &env)
                })
                .count() as u64;
            prop_assert_eq!(m.sat_count(f), expected);
        }

        /// The fused relational product equals the two-step composition
        /// `∃V. f∧g  ≡  exists(and(f, g), V)` for every quantified
        /// subset of the variables (canonicity makes this `Ref`
        /// equality).
        #[test]
        fn and_exists_matches_two_step(
            f in arb_form(5),
            g in arb_form(5),
            mask in 0u32..32,
        ) {
            let mut m = BddManager::new(5);
            let f = build(&mut m, &f);
            let g = build(&mut m, &g);
            let vars: Vec<u32> = (0..5).filter(|i| mask & (1 << i) != 0).collect();
            let fused = m.and_exists(f, g, &vars);
            let conj = m.and(f, g);
            let two_step = m.exists(conj, &vars);
            prop_assert_eq!(fused, two_step);
        }

        /// Nodes built below a mark survive a release unchanged: `f`
        /// rebuilds to the same `Ref`. Nothing released leaks out of a
        /// cache either: every operation repeated after the release
        /// (whose cache entries, if kept, would name reused indices)
        /// and a fresh one still match their truth tables.
        #[test]
        fn release_keeps_the_base_and_forgets_the_rest(
            f in arb_form(5),
            g in arb_form(5),
            h in arb_form(5),
            mask in 1u32..32,
        ) {
            let env_of = |bits: u32| -> Vec<bool> { (0..5).map(|i| bits & (1 << i) != 0).collect() };
            let vars: Vec<u32> = (0..5).filter(|i| mask & (1 << i) != 0).collect();
            let mut m = BddManager::new(5);
            let fr = build(&mut m, &f);
            let mark = m.mark();
            let gr = build(&mut m, &g);
            let _ = m.and_exists(fr, gr, &vars);
            let _ = m.exists(gr, &vars);
            let _ = m.rename_shift(gr, 0);
            m.release(mark);

            prop_assert_eq!(build(&mut m, &f), fr);
            for round in 0..2 {
                let hr = build(&mut m, &h);
                let gr = build(&mut m, &g);
                let fused = m.and_exists(fr, gr, &vars);
                let ex = m.exists(gr, &vars);
                let same = m.rename_shift(gr, 0);
                for bits in 0..32u32 {
                    let env = env_of(bits);
                    prop_assert_eq!(m.eval(gr, &env), truth(&g, &env), "round {}", round);
                    prop_assert_eq!(m.eval(hr, &env), truth(&h, &env), "round {}", round);
                    prop_assert_eq!(m.eval(same, &env), truth(&g, &env));
                    // ∃V. f∧g and ∃V. g, by enumerating the quantified bits.
                    let witness = |pred: &dyn Fn(&[bool]) -> bool| {
                        (0..32u32).any(|q| {
                            let mut e = env.clone();
                            for &v in &vars {
                                e[v as usize] = q & (1 << v) != 0;
                            }
                            pred(&e)
                        })
                    };
                    prop_assert_eq!(
                        m.eval(fused, &env),
                        witness(&|e| truth(&f, e) && truth(&g, e))
                    );
                    prop_assert_eq!(m.eval(ex, &env), witness(&|e| truth(&g, e)));
                }
                // A second release, so round 1 runs on reused indices again.
                m.release(mark);
            }
        }
    }
}
