//! A compact reverse-mode automatic-differentiation tape over `f32`
//! vectors.
//!
//! Every value on the tape is a flat vector; matrices are row-major
//! vectors with their dimensions carried by the op that consumes them.
//! [`Tape::backward`] walks the recorded ops in reverse and accumulates
//! gradients for every node, which callers read off leaf nodes.
//!
//! The op set is exactly what a softmax MLP language model and the DPO
//! objective need — this is an ml-systems substrate, not a framework.
//! Besides the elementwise/scalar ops it carries four *sequence-batched*
//! ops ([`Tape::matmul`], [`Tape::broadcast_add`],
//! [`Tape::bias_log_softmax`], [`Tape::gather_sum`]) plus an embedding
//! pack ([`Tape::pack_inputs`]): one node processes every position of a
//! sequence, so a forward/backward pass costs O(ops) tape nodes instead
//! of O(ops · positions). Each batched op keeps the per-output inner
//! accumulation order identical to its per-position counterpart, so a
//! batched graph produces bit-identical values and gradients (see the
//! per-op docs for the exact ordering argument).
//!
//! Tapes and gradient buffers are reusable: [`Tape::reset`] recycles
//! value buffers for the next graph, and [`Tape::backward_into`] reuses
//! a caller-held [`GradArena`] instead of reallocating the gradient
//! arena every call.
//!
//! The numeric inner loops live in [`crate::kernels`]: blocked,
//! vectorizable forward/backward kernels, bit-identical to the scalar
//! loops they replaced.
//!
//! # Example
//!
//! ```
//! use tinylm::tape::Tape;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(vec![1.0, 2.0]);
//! let w = tape.leaf(vec![0.5, -0.5, 1.0, 1.5]); // 2×2 row-major
//! let y = tape.matvec(w, 2, 2, x);
//! let h = tape.tanh(y);
//! let s = tape.sum(h);
//! let grads = tape.backward(s);
//! assert_eq!(grads[x.index()].len(), 2);
//! assert_eq!(grads[w.index()].len(), 4);
//! ```

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Position of this node on its tape (index into the gradient vector
    /// returned by [`Tape::backward`]).
    pub fn index(self) -> usize {
        self.0
    }
}

use crate::kernels;
pub(crate) use kernels::dot;

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    /// Elementwise addition.
    Add(VarId, VarId),
    /// Elementwise subtraction `a - b`.
    Sub(VarId, VarId),
    /// Elementwise multiplication.
    Mul(VarId, VarId),
    /// Scalar scale.
    Scale(VarId, f32),
    /// Matrix(rows×cols, row-major) × vector(cols).
    MatVec {
        m: VarId,
        rows: usize,
        cols: usize,
        x: VarId,
    },
    /// Matrix(rows×cols) × each of `n` packed column-vectors.
    MatMul {
        m: VarId,
        rows: usize,
        cols: usize,
        x: VarId,
        n: usize,
    },
    /// Chunk-wise `a + b` where `a` packs `n` chunks of `b`'s length.
    BroadcastAdd {
        a: VarId,
        b: VarId,
        n: usize,
    },
    /// Fused per-chunk bias add + log-softmax over `n` chunks.
    BiasLogSoftmax {
        a: VarId,
        b: VarId,
        n: usize,
    },
    /// Scalar: Σ over chunks of `chunk` width of the `targets[p]`-th
    /// component.
    GatherSum {
        a: VarId,
        chunk: usize,
        targets: Vec<usize>,
    },
    /// Packed per-position model inputs gathered from two embedding
    /// tables: `[shared-row ; table-row(idx[p·k]) ; … ; table-row(idx[p·k+k-1])]`
    /// for each position `p`.
    PackInputs {
        shared: VarId,
        table: VarId,
        dim: usize,
        k: usize,
        indices: Vec<usize>,
    },
    /// Elementwise tanh.
    Tanh(VarId),
    /// log-softmax over the whole vector.
    LogSoftmax(VarId),
    /// Scalar: the `i`-th component of a vector.
    Index(VarId, usize),
    /// Scalar: sum of components.
    Sum(VarId),
    /// Concatenation of several vectors.
    Concat(Vec<VarId>),
    /// Scalar: log σ(x) of a 1-element vector.
    LogSigmoid(VarId),
}

/// A reverse-mode autodiff tape.
#[derive(Debug, Default)]
pub struct Tape {
    vals: Vec<Vec<f32>>,
    ops: Vec<Op>,
    /// Value buffers recycled by [`Tape::reset`]; [`Tape::alloc`] pops
    /// from here before touching the allocator.
    spare: Vec<Vec<f32>>,
}

/// A reusable gradient arena for [`Tape::backward_into`]: one buffer per
/// tape node, recycled across backward passes so the hot training loop
/// stops reallocating the whole arena every step.
#[derive(Debug, Default)]
pub struct GradArena {
    bufs: Vec<Vec<f32>>,
    /// Dirty flag per node: set when a gradient is first written, so the
    /// backward walk skips untouched nodes without scanning their buffer.
    dirty: Vec<bool>,
    reuses: u64,
}

impl GradArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient buffer of `id` after a [`Tape::backward_into`] pass.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the last backward pass.
    pub fn grad(&self, id: VarId) -> &[f32] {
        &self.bufs[id.0]
    }

    /// How many node buffers were reused (capacity already sufficient)
    /// across all backward passes into this arena.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all nodes while keeping every value buffer for reuse by
    /// the next graph — the recycling half of the tape fast path.
    pub fn reset(&mut self) {
        self.spare.append(&mut self.vals);
        self.ops.clear();
    }

    /// An empty `Vec<f32>` with recycled capacity when available.
    fn alloc(&mut self) -> Vec<f32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    fn push(&mut self, val: Vec<f32>, op: Op) -> VarId {
        self.vals.push(val);
        self.ops.push(op);
        VarId(self.vals.len() - 1)
    }

    /// Records an input (leaf) node. Gradients accumulate here.
    pub fn leaf(&mut self, val: Vec<f32>) -> VarId {
        self.push(val, Op::Leaf)
    }

    /// Records a leaf by copying from a slice into a recycled buffer.
    pub fn leaf_from(&mut self, val: &[f32]) -> VarId {
        let mut buf = self.alloc();
        buf.extend_from_slice(val);
        self.push(buf, Op::Leaf)
    }

    /// The current value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this tape.
    pub fn value(&self, id: VarId) -> &[f32] {
        &self.vals[id.0]
    }

    /// Scalar value of a 1-element node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not scalar.
    pub fn scalar(&self, id: VarId) -> f32 {
        assert_eq!(self.vals[id.0].len(), 1, "node is not scalar");
        self.vals[id.0][0]
    }

    /// Elementwise `a + b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        assert_eq!(self.vals[a.0].len(), self.vals[b.0].len());
        let mut val = self.alloc();
        val.extend(
            self.vals[a.0]
                .iter()
                .zip(&self.vals[b.0])
                .map(|(x, y)| x + y),
        );
        self.push(val, Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        assert_eq!(self.vals[a.0].len(), self.vals[b.0].len());
        let mut val = self.alloc();
        val.extend(
            self.vals[a.0]
                .iter()
                .zip(&self.vals[b.0])
                .map(|(x, y)| x - y),
        );
        self.push(val, Op::Sub(a, b))
    }

    /// Elementwise `a ⊙ b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        assert_eq!(self.vals[a.0].len(), self.vals[b.0].len());
        let mut val = self.alloc();
        val.extend(
            self.vals[a.0]
                .iter()
                .zip(&self.vals[b.0])
                .map(|(x, y)| x * y),
        );
        self.push(val, Op::Mul(a, b))
    }

    /// `c · a`.
    pub fn scale(&mut self, a: VarId, c: f32) -> VarId {
        let mut val = self.alloc();
        val.extend(self.vals[a.0].iter().map(|x| c * x));
        self.push(val, Op::Scale(a, c))
    }

    /// `M x` where `m` is a `rows×cols` row-major matrix node.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match the operand lengths.
    pub fn matvec(&mut self, m: VarId, rows: usize, cols: usize, x: VarId) -> VarId {
        assert_eq!(self.vals[m.0].len(), rows * cols, "matrix size mismatch");
        assert_eq!(self.vals[x.0].len(), cols, "vector size mismatch");
        let mut out = self.alloc();
        out.resize(rows, 0.0);
        kernels::matmul_forward(&mut out, &self.vals[m.0], &self.vals[x.0], rows, cols, 1);
        self.push(out, Op::MatVec { m, rows, cols, x })
    }

    /// Sequence-batched [`Tape::matvec`]: `x` packs `n` column-vectors of
    /// length `cols` (position-major); the output packs `n` result
    /// vectors of length `rows`.
    ///
    /// Bit-exactness: output `p·rows + r` is [`dot`] of matrix row `r`
    /// with chunk `p` — the same left-to-right fold `matvec` computes —
    /// so the values equal `n` separate `matvec` calls exactly. The loop
    /// kernel advances eight row dots together (each still the exact
    /// [`dot`] fold — see [`crate::kernels`]), filling the FPU pipeline
    /// without changing any output's bits.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match the operand lengths.
    pub fn matmul(&mut self, m: VarId, rows: usize, cols: usize, x: VarId, n: usize) -> VarId {
        assert_eq!(self.vals[m.0].len(), rows * cols, "matrix size mismatch");
        assert_eq!(self.vals[x.0].len(), n * cols, "packed operand mismatch");
        let mut out = self.alloc();
        out.resize(n * rows, 0.0);
        kernels::matmul_forward(&mut out, &self.vals[m.0], &self.vals[x.0], rows, cols, n);
        self.push(
            out,
            Op::MatMul {
                m,
                rows,
                cols,
                x,
                n,
            },
        )
    }

    /// Chunk-wise `a + b`: `a` packs `n` chunks of `b`'s length, and `b`
    /// is added to every chunk (the batched form of adding a bias to each
    /// position). Values equal `n` elementwise [`Tape::add`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s length is not `n ·` `b`'s length.
    pub fn broadcast_add(&mut self, a: VarId, b: VarId, n: usize) -> VarId {
        let len = self.vals[b.0].len();
        assert_eq!(self.vals[a.0].len(), n * len, "packed operand mismatch");
        let mut val = self.alloc();
        val.extend(
            self.vals[a.0]
                .iter()
                .enumerate()
                .map(|(i, x)| x + self.vals[b.0][i % len]),
        );
        self.push(val, Op::BroadcastAdd { a, b, n })
    }

    /// Fused bias add + numerically stable log-softmax, per chunk: for
    /// each of the `n` chunks of `a`, computes `log_softmax(chunk + b)`.
    /// The per-chunk arithmetic is the exact composition of
    /// [`Tape::add`] and [`Tape::log_softmax`], so values match the
    /// unfused pair bit-for-bit; fusing removes one intermediate node
    /// (and its buffer) per sequence.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s length is not `n ·` `b`'s length.
    pub fn bias_log_softmax(&mut self, a: VarId, b: VarId, n: usize) -> VarId {
        let len = self.vals[b.0].len();
        assert_eq!(self.vals[a.0].len(), n * len, "packed operand mismatch");
        let mut val = self.alloc();
        val.resize(n * len, 0.0);
        kernels::bias_log_softmax_forward(&mut val, &self.vals[a.0], &self.vals[b.0], n);
        self.push(val, Op::BiasLogSoftmax { a, b, n })
    }

    /// Scalar `Σ_p a[p·chunk + targets[p]]` — the batched form of the
    /// per-position [`Tape::index`] + [`Tape::add`] chain that sums one
    /// picked log-probability per position. The fold starts from the
    /// first picked component and adds left-to-right, exactly like the
    /// chain of scalar `add` nodes it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty, a target is out of chunk range, or
    /// `a` does not pack `targets.len()` chunks.
    pub fn gather_sum(&mut self, a: VarId, chunk: usize, targets: Vec<usize>) -> VarId {
        assert!(!targets.is_empty(), "gather_sum needs at least one chunk");
        assert_eq!(
            self.vals[a.0].len(),
            targets.len() * chunk,
            "packed operand mismatch"
        );
        for &t in &targets {
            assert!(t < chunk, "target {t} out of chunk range {chunk}");
        }
        let acc = kernels::gather_sum_forward(&self.vals[a.0], chunk, &targets);
        let mut val = self.alloc();
        val.push(acc);
        self.push(val, Op::GatherSum { a, chunk, targets })
    }

    /// Packs per-position model inputs from two embedding tables: for
    /// each position `p`, the output chunk is `shared` followed by the
    /// `k` rows `table[indices[p·k + j]]` (`table` is row-major with
    /// `dim`-wide rows). One node replaces the per-position pattern of
    /// `k` embedding leaves plus a [`Tape::concat`].
    ///
    /// The backward pass accumulates into `shared`'s gradient in
    /// *reverse* position order and into `table`'s gradient in *forward*
    /// `(position, slot)` order — matching, respectively, the reverse
    /// node-order walk over per-position `concat` nodes and the forward
    /// scatter loop over embedding leaves that the unbatched graph
    /// performs, so gradients stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not a multiple of `k`, an index is out of
    /// table range, or `table`'s length is not a multiple of `dim`.
    pub fn pack_inputs(
        &mut self,
        shared: VarId,
        table: VarId,
        dim: usize,
        k: usize,
        indices: Vec<usize>,
    ) -> VarId {
        assert!(
            k > 0 && indices.len().is_multiple_of(k),
            "indices must pack k per position"
        );
        assert_eq!(
            self.vals[table.0].len() % dim,
            0,
            "table rows must be dim-wide"
        );
        let rows = self.vals[table.0].len() / dim;
        let shared_len = self.vals[shared.0].len();
        let n = indices.len() / k;
        let mut val = self.alloc();
        val.reserve(n * (shared_len + k * dim));
        {
            let sh = &self.vals[shared.0];
            let tb = &self.vals[table.0];
            for pos in indices.chunks(k) {
                val.extend_from_slice(sh);
                for &i in pos {
                    assert!(i < rows, "index {i} out of table range {rows}");
                    val.extend_from_slice(&tb[i * dim..(i + 1) * dim]);
                }
            }
        }
        self.push(
            val,
            Op::PackInputs {
                shared,
                table,
                dim,
                k,
                indices,
            },
        )
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let mut val = self.alloc();
        val.extend(self.vals[a.0].iter().map(|x| x.tanh()));
        self.push(val, Op::Tanh(a))
    }

    /// Numerically stable log-softmax over the whole vector.
    pub fn log_softmax(&mut self, a: VarId) -> VarId {
        let mut val = self.alloc();
        {
            let v = &self.vals[a.0];
            let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_z = max + v.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            val.extend(v.iter().map(|x| x - log_z));
        }
        self.push(val, Op::LogSoftmax(a))
    }

    /// The scalar `a[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn index(&mut self, a: VarId, i: usize) -> VarId {
        let v = self.vals[a.0][i];
        let mut val = self.alloc();
        val.push(v);
        self.push(val, Op::Index(a, i))
    }

    /// The scalar `Σ a`.
    pub fn sum(&mut self, a: VarId) -> VarId {
        let s = self.vals[a.0].iter().sum();
        let mut val = self.alloc();
        val.push(s);
        self.push(val, Op::Sum(a))
    }

    /// Concatenation of vectors.
    pub fn concat(&mut self, parts: &[VarId]) -> VarId {
        let mut val = self.alloc();
        for p in parts {
            val.extend_from_slice(&self.vals[p.0]);
        }
        self.push(val, Op::Concat(parts.to_vec()))
    }

    /// Numerically stable `log σ(x)` of a scalar node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not scalar.
    pub fn log_sigmoid(&mut self, a: VarId) -> VarId {
        assert_eq!(self.vals[a.0].len(), 1, "log_sigmoid takes a scalar");
        let x = self.vals[a.0][0];
        // log σ(x) = -log(1 + e^{-x}) = min(x, 0) - ln(1 + e^{-|x|})
        let v = x.min(0.0) - (-x.abs()).exp().ln_1p();
        let mut val = self.alloc();
        val.push(v);
        self.push(val, Op::LogSigmoid(a))
    }

    /// Runs backpropagation from a scalar node; returns one gradient
    /// vector per node (same indexing as [`VarId::index`]).
    ///
    /// Allocates a fresh arena per call; hot loops should hold a
    /// [`GradArena`] and call [`Tape::backward_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not scalar.
    pub fn backward(&self, root: VarId) -> Vec<Vec<f32>> {
        let mut arena = GradArena::new();
        self.backward_into(root, &mut arena);
        arena.bufs
    }

    /// [`Tape::backward`] into a reusable arena: node gradient buffers
    /// are recycled across calls (read them via [`GradArena::grad`]).
    ///
    /// Nodes whose gradient was never written are skipped via a dirty
    /// flag set on first write — no per-node O(len) zero scan.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not scalar.
    pub fn backward_into(&self, root: VarId, arena: &mut GradArena) {
        assert_eq!(self.vals[root.0].len(), 1, "backward root must be scalar");
        let n = self.vals.len();
        let prior = n.min(arena.bufs.len());
        for (i, buf) in arena.bufs.iter_mut().enumerate().take(prior) {
            if buf.capacity() >= self.vals[i].len() {
                arena.reuses += 1;
            }
            buf.clear();
            buf.resize(self.vals[i].len(), 0.0);
        }
        for i in arena.bufs.len()..n {
            arena.bufs.push(vec![0.0; self.vals[i].len()]);
        }
        arena.dirty.clear();
        arena.dirty.resize(n, false);
        let grads = &mut arena.bufs;
        let dirty = &mut arena.dirty;
        grads[root.0][0] = 1.0;
        dirty[root.0] = true;
        for i in (0..=root.0).rev() {
            if !dirty[i] {
                continue;
            }
            // Split off the current gradient to appease the borrow checker.
            let g = std::mem::take(&mut grads[i]);
            match &self.ops[i] {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    dirty[a.0] = true;
                    dirty[b.0] = true;
                    for (k, &gk) in g.iter().enumerate() {
                        grads[a.0][k] += gk;
                        grads[b.0][k] += gk;
                    }
                }
                // (indexing by k is intentional throughout: gradient
                // slices alias multiple nodes, so zip-style iteration
                // would fight the borrow checker for no clarity gain)
                Op::Sub(a, b) => {
                    dirty[a.0] = true;
                    dirty[b.0] = true;
                    for (k, &gk) in g.iter().enumerate() {
                        grads[a.0][k] += gk;
                        grads[b.0][k] -= gk;
                    }
                }
                Op::Mul(a, b) => {
                    dirty[a.0] = true;
                    dirty[b.0] = true;
                    for (k, &gk) in g.iter().enumerate() {
                        let (av, bv) = (self.vals[a.0][k], self.vals[b.0][k]);
                        grads[a.0][k] += gk * bv;
                        grads[b.0][k] += gk * av;
                    }
                }
                Op::Scale(a, c) => {
                    dirty[a.0] = true;
                    for (k, &gk) in g.iter().enumerate() {
                        grads[a.0][k] += gk * c;
                    }
                }
                Op::MatVec { m, rows, cols, x } => {
                    dirty[m.0] = true;
                    dirty[x.0] = true;
                    let xv = &self.vals[x.0];
                    let mv = &self.vals[m.0];
                    if m.0 == x.0 {
                        // Aliased operands share one gradient buffer:
                        // keep the historical interleaved indexed walk.
                        let gb = &mut grads[m.0];
                        for r in 0..*rows {
                            let gr = g[r];
                            if gr == 0.0 {
                                continue;
                            }
                            for c in 0..*cols {
                                gb[r * cols + c] += gr * xv[c];
                                gb[c] += gr * mv[r * cols + c];
                            }
                        }
                    } else {
                        let mut gm = std::mem::take(&mut grads[m.0]);
                        let mut gx = std::mem::take(&mut grads[x.0]);
                        kernels::matmul_backward(&mut gm, &mut gx, &g, mv, xv, *rows, *cols, 1);
                        grads[m.0] = gm;
                        grads[x.0] = gx;
                    }
                }
                // Positions are walked in reverse: the unbatched graph
                // records one matvec per position, and the reverse
                // node-order walk reaches them last-position-first, so
                // the shared matrix gradient must accumulate in that
                // same order to stay bit-identical (the ordering
                // argument continues in `kernels::matmul_backward`).
                Op::MatMul {
                    m,
                    rows,
                    cols,
                    x,
                    n,
                } => {
                    dirty[m.0] = true;
                    dirty[x.0] = true;
                    let xv = &self.vals[x.0];
                    let mv = &self.vals[m.0];
                    if m.0 == x.0 {
                        // Aliased operands share one gradient buffer:
                        // keep the historical interleaved indexed walk.
                        let gb = &mut grads[m.0];
                        for p in (0..*n).rev() {
                            for r in 0..*rows {
                                let gr = g[p * rows + r];
                                if gr == 0.0 {
                                    continue;
                                }
                                for c in 0..*cols {
                                    gb[r * cols + c] += gr * xv[p * cols + c];
                                    gb[p * cols + c] += gr * mv[r * cols + c];
                                }
                            }
                        }
                    } else {
                        let mut gm = std::mem::take(&mut grads[m.0]);
                        let mut gx = std::mem::take(&mut grads[x.0]);
                        kernels::matmul_backward(&mut gm, &mut gx, &g, mv, xv, *rows, *cols, *n);
                        grads[m.0] = gm;
                        grads[x.0] = gx;
                    }
                }
                // Reverse position order for the same reason as MatMul:
                // the per-position `add` nodes would be walked
                // last-position-first.
                Op::BroadcastAdd { a, b, n } => {
                    dirty[a.0] = true;
                    dirty[b.0] = true;
                    if a.0 == b.0 {
                        let len = g.len() / n;
                        let gb = &mut grads[a.0];
                        for p in (0..*n).rev() {
                            for k in 0..len {
                                let gk = g[p * len + k];
                                gb[p * len + k] += gk;
                                gb[k] += gk;
                            }
                        }
                    } else {
                        let mut ga = std::mem::take(&mut grads[a.0]);
                        let mut gb = std::mem::take(&mut grads[b.0]);
                        kernels::broadcast_add_backward(&mut ga, &mut gb, &g, *n);
                        grads[a.0] = ga;
                        grads[b.0] = gb;
                    }
                }
                // Per chunk this is the exact composition of the
                // LogSoftmax and Add backward rules: both `a` and the
                // bias receive `g[j] − (Σg)·softmax_j`, the single f32
                // expression the unfused pair produces. Chunks walk in
                // reverse position order for the shared bias gradient.
                Op::BiasLogSoftmax { a, b, n } => {
                    dirty[a.0] = true;
                    dirty[b.0] = true;
                    if a.0 == b.0 {
                        let len = g.len() / n;
                        let y = &self.vals[i];
                        let gb = &mut grads[a.0];
                        for p in (0..*n).rev() {
                            let gc = &g[p * len..(p + 1) * len];
                            let gsum: f32 = gc.iter().sum();
                            for j in 0..len {
                                let d = gc[j] - gsum * y[p * len + j].exp();
                                gb[p * len + j] += d;
                                gb[j] += d;
                            }
                        }
                    } else {
                        let mut ga = std::mem::take(&mut grads[a.0]);
                        let mut gb = std::mem::take(&mut grads[b.0]);
                        kernels::bias_log_softmax_backward(&mut ga, &mut gb, &g, &self.vals[i], *n);
                        grads[a.0] = ga;
                        grads[b.0] = gb;
                    }
                }
                Op::GatherSum { a, chunk, targets } => {
                    dirty[a.0] = true;
                    kernels::gather_sum_backward(&mut grads[a.0], g[0], *chunk, targets);
                }
                // `shared` accumulates in reverse position order (the
                // per-position concat nodes would be walked
                // last-position-first); `table` accumulates in forward
                // (position, slot) order (the unbatched graph's final
                // embedding scatter runs forward over its leaves).
                Op::PackInputs {
                    shared,
                    table,
                    dim,
                    k,
                    indices,
                } => {
                    dirty[shared.0] = true;
                    dirty[table.0] = true;
                    if shared.0 == table.0 {
                        let n = indices.len() / k;
                        let shared_len = self.vals[shared.0].len();
                        let stride = shared_len + k * dim;
                        let gb = &mut grads[shared.0];
                        for p in (0..n).rev() {
                            for j in 0..shared_len {
                                gb[j] += g[p * stride + j];
                            }
                        }
                        for (p, pos) in indices.chunks(*k).enumerate() {
                            for (slot, &idx) in pos.iter().enumerate() {
                                let src = p * stride + shared_len + slot * dim;
                                for j in 0..*dim {
                                    gb[idx * dim + j] += g[src + j];
                                }
                            }
                        }
                    } else {
                        let mut gshared = std::mem::take(&mut grads[shared.0]);
                        let mut gtable = std::mem::take(&mut grads[table.0]);
                        kernels::pack_inputs_backward(
                            &mut gshared,
                            &mut gtable,
                            &g,
                            *dim,
                            *k,
                            indices,
                        );
                        grads[shared.0] = gshared;
                        grads[table.0] = gtable;
                    }
                }
                Op::Tanh(a) => {
                    dirty[a.0] = true;
                    let y = &self.vals[i];
                    for ((ga_k, &gk), &yk) in grads[a.0].iter_mut().zip(&g).zip(y) {
                        *ga_k += gk * (1.0 - yk * yk);
                    }
                }
                Op::LogSoftmax(a) => {
                    // d/dx_j (x_k - logZ) = δ_jk - softmax(x)_j
                    dirty[a.0] = true;
                    let gsum: f32 = g.iter().sum();
                    for (j, &yj) in self.vals[i].iter().enumerate() {
                        let p = yj.exp();
                        grads[a.0][j] += g[j] - gsum * p;
                    }
                }
                Op::Index(a, idx) => {
                    dirty[a.0] = true;
                    grads[a.0][*idx] += g[0];
                }
                Op::Sum(a) => {
                    dirty[a.0] = true;
                    for gk in grads[a.0].iter_mut() {
                        *gk += g[0];
                    }
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        dirty[p.0] = true;
                        let len = self.vals[p.0].len();
                        for k in 0..len {
                            grads[p.0][k] += g[offset + k];
                        }
                        offset += len;
                    }
                }
                Op::LogSigmoid(a) => {
                    // d/dx log σ(x) = 1 - σ(x) = σ(-x)
                    dirty[a.0] = true;
                    let x = self.vals[a.0][0];
                    let sig_neg = 1.0 / (1.0 + x.exp());
                    grads[a.0][0] += g[0] * sig_neg;
                }
            }
            grads[i] = g;
        }
    }

    /// Number of nodes recorded.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` iff the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // ALLOW: index-parallel comparisons read clearest.
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Central finite difference of `f` at `x` in coordinate `i`.
    fn numeric_grad(f: impl Fn(&[f32]) -> f32, x: &[f32], i: usize) -> f32 {
        let h = 1e-3;
        let mut xp = x.to_vec();
        xp[i] += h;
        let mut xm = x.to_vec();
        xm[i] -= h;
        (f(&xp) - f(&xm)) / (2.0 * h)
    }

    #[test]
    fn add_mul_grads() {
        let mut tape = Tape::new();
        let a = tape.leaf(vec![1.0, 2.0]);
        let b = tape.leaf(vec![3.0, -1.0]);
        let prod = tape.mul(a, b);
        let s = tape.sum(prod);
        assert!((tape.scalar(s) - 1.0).abs() < 1e-6);
        let grads = tape.backward(s);
        assert_eq!(grads[a.index()], vec![3.0, -1.0]);
        assert_eq!(grads[b.index()], vec![1.0, 2.0]);
    }

    #[test]
    fn matvec_forward_and_grad() {
        let m = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
        let x = vec![5.0, 6.0];
        let mut tape = Tape::new();
        let mv = tape.leaf(m.clone());
        let xv = tape.leaf(x.clone());
        let y = tape.matvec(mv, 2, 2, xv);
        assert_eq!(tape.value(y), &[17.0, 39.0]);
        let s = tape.sum(y);
        let grads = tape.backward(s);
        // d(sum(Mx))/dM = [x; x], d/dx = column sums of M.
        assert_eq!(grads[mv.index()], vec![5.0, 6.0, 5.0, 6.0]);
        assert_eq!(grads[xv.index()], vec![4.0, 6.0]);
    }

    #[test]
    fn log_softmax_is_normalized() {
        let mut tape = Tape::new();
        let x = tape.leaf(vec![1.0, 2.0, 3.0]);
        let ls = tape.log_softmax(x);
        let total: f32 = tape.value(ls).iter().map(|l| l.exp()).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_stable_for_large_inputs() {
        let mut tape = Tape::new();
        let x = tape.leaf(vec![1000.0, 999.0]);
        let ls = tape.log_softmax(x);
        assert!(tape.value(ls).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_sigmoid_matches_reference() {
        for x in [-20.0f32, -1.0, 0.0, 1.0, 20.0] {
            let mut tape = Tape::new();
            let v = tape.leaf(vec![x]);
            let ls = tape.log_sigmoid(v);
            let expected = (1.0 / (1.0 + (-f64::from(x)).exp())).ln() as f32;
            assert!(
                (tape.scalar(ls) - expected).abs() < 1e-5,
                "x={x}: {} vs {}",
                tape.scalar(ls),
                expected
            );
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        // f(w) = logsoftmax(W2 · tanh(W1 x))[target]
        let x = vec![0.3, -0.7, 0.2];
        let w1: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin() * 0.5).collect();
        let w2: Vec<f32> = (0..8).map(|i| (i as f32 * 0.53).cos() * 0.5).collect();

        let f_of_w1 = |w: &[f32]| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let w1v = tape.leaf(w.to_vec());
            let w2v = tape.leaf(w2.clone());
            let h = tape.matvec(w1v, 4, 3, xv);
            let t = tape.tanh(h);
            let o = tape.matvec(w2v, 2, 4, t);
            let ls = tape.log_softmax(o);
            let picked = tape.index(ls, 1);
            tape.scalar(picked)
        };

        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let w1v = tape.leaf(w1.clone());
        let w2v = tape.leaf(w2.clone());
        let h = tape.matvec(w1v, 4, 3, xv);
        let t = tape.tanh(h);
        let o = tape.matvec(w2v, 2, 4, t);
        let ls = tape.log_softmax(o);
        let picked = tape.index(ls, 1);
        let grads = tape.backward(picked);

        for i in 0..w1.len() {
            let num = numeric_grad(f_of_w1, &w1, i);
            let ana = grads[w1v.index()][i];
            assert!(
                (num - ana).abs() < 2e-2,
                "w1[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// The batched matmul produces exactly the values and gradients of
    /// per-position matvec calls — same dots, same accumulation order.
    #[test]
    fn matmul_is_bitwise_batched_matvec() {
        let rows = 3;
        let cols = 4;
        let n = 5;
        let m: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.7).sin()).collect();
        let xs: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.31).cos()).collect();

        // Unbatched reference: one matvec per chunk, summed via the same
        // picked-index chain the model builds.
        let mut ref_tape = Tape::new();
        let mv = ref_tape.leaf(m.clone());
        let mut total = None;
        let mut outs = Vec::new();
        for p in 0..n {
            let x = ref_tape.leaf(xs[p * cols..(p + 1) * cols].to_vec());
            let y = ref_tape.matvec(mv, rows, cols, x);
            outs.push((x, y));
            let s = ref_tape.sum(y);
            total = Some(match total {
                None => s,
                Some(acc) => ref_tape.add(acc, s),
            });
        }
        let ref_root = total.expect("n > 0");
        let ref_grads = ref_tape.backward(ref_root);

        let mut tape = Tape::new();
        let mv2 = tape.leaf(m.clone());
        let xv2 = tape.leaf(xs.clone());
        let y = tape.matmul(mv2, rows, cols, xv2, n);
        let s = tape.sum(y);
        let grads = tape.backward(s);

        for p in 0..n {
            assert_eq!(
                &tape.value(y)[p * rows..(p + 1) * rows],
                ref_tape.value(outs[p].1),
                "chunk {p} forward differs"
            );
            assert_eq!(
                &grads[xv2.index()][p * cols..(p + 1) * cols],
                &ref_grads[outs[p].0.index()][..],
                "chunk {p} x-gradient differs"
            );
        }
        assert_eq!(grads[mv2.index()], ref_grads[mv.index()]);
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let rows = 2;
        let cols = 3;
        let n = 3;
        let m: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.43).sin()).collect();
        let xs: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.17).cos()).collect();
        let f_of_m = |w: &[f32]| -> f32 {
            let mut tape = Tape::new();
            let mv = tape.leaf(w.to_vec());
            let xv = tape.leaf(xs.clone());
            let y = tape.matmul(mv, rows, cols, xv, n);
            let t = tape.tanh(y);
            let s = tape.sum(t);
            tape.scalar(s)
        };
        let mut tape = Tape::new();
        let mv = tape.leaf(m.clone());
        let xv = tape.leaf(xs.clone());
        let y = tape.matmul(mv, rows, cols, xv, n);
        let t = tape.tanh(y);
        let s = tape.sum(t);
        let grads = tape.backward(s);
        for i in 0..m.len() {
            let num = numeric_grad(f_of_m, &m, i);
            assert!(
                (num - grads[mv.index()][i]).abs() < 2e-2,
                "m[{i}]: numeric {num} vs analytic {}",
                grads[mv.index()][i]
            );
        }
        let f_of_x = |x: &[f32]| -> f32 {
            let mut tape = Tape::new();
            let mv = tape.leaf(m.clone());
            let xv = tape.leaf(x.to_vec());
            let y = tape.matmul(mv, rows, cols, xv, n);
            let t = tape.tanh(y);
            let s = tape.sum(t);
            tape.scalar(s)
        };
        for i in 0..xs.len() {
            let num = numeric_grad(f_of_x, &xs, i);
            assert!(
                (num - grads[xv.index()][i]).abs() < 2e-2,
                "x[{i}]: numeric {num} vs analytic {}",
                grads[xv.index()][i]
            );
        }
    }

    /// The fused bias+log-softmax op matches the unfused broadcast_add +
    /// per-chunk log_softmax composition bit-for-bit, and its gradient
    /// matches finite differences.
    #[test]
    fn bias_log_softmax_matches_unfused_and_finite_difference() {
        let len = 4;
        let n = 3;
        let a: Vec<f32> = (0..n * len).map(|i| (i as f32 * 0.61).sin()).collect();
        let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.29).cos()).collect();

        // Unfused reference per chunk.
        let mut ref_tape = Tape::new();
        let mut fused_tape = Tape::new();
        let av = fused_tape.leaf(a.clone());
        let bv = fused_tape.leaf(b.clone());
        let fused = fused_tape.bias_log_softmax(av, bv, n);
        for p in 0..n {
            let ac = ref_tape.leaf(a[p * len..(p + 1) * len].to_vec());
            let bc = ref_tape.leaf(b.clone());
            let sum = ref_tape.add(ac, bc);
            let ls = ref_tape.log_softmax(sum);
            assert_eq!(
                &fused_tape.value(fused)[p * len..(p + 1) * len],
                ref_tape.value(ls),
                "chunk {p} differs from unfused composition"
            );
        }

        // Finite-difference gradient check through a picked-target root,
        // the shape the model uses.
        let targets = vec![1usize, 3, 0];
        let f_of = |which: usize, v: &[f32]| -> f32 {
            let mut tape = Tape::new();
            let av = tape.leaf(if which == 0 { v.to_vec() } else { a.clone() });
            let bv = tape.leaf(if which == 1 { v.to_vec() } else { b.clone() });
            let ls = tape.bias_log_softmax(av, bv, n);
            let root = tape.gather_sum(ls, len, targets.clone());
            tape.scalar(root)
        };
        let mut tape = Tape::new();
        let av2 = tape.leaf(a.clone());
        let bv2 = tape.leaf(b.clone());
        let ls = tape.bias_log_softmax(av2, bv2, n);
        let root = tape.gather_sum(ls, len, targets.clone());
        let grads = tape.backward(root);
        for i in 0..a.len() {
            let num = numeric_grad(|v| f_of(0, v), &a, i);
            assert!(
                (num - grads[av2.index()][i]).abs() < 2e-2,
                "a[{i}]: numeric {num} vs analytic {}",
                grads[av2.index()][i]
            );
        }
        for i in 0..b.len() {
            let num = numeric_grad(|v| f_of(1, v), &b, i);
            assert!(
                (num - grads[bv2.index()][i]).abs() < 2e-2,
                "b[{i}]: numeric {num} vs analytic {}",
                grads[bv2.index()][i]
            );
        }
    }

    /// broadcast_add equals per-chunk add, values and gradients.
    #[test]
    fn broadcast_add_matches_per_chunk_add() {
        let len = 3;
        let n = 4;
        let a: Vec<f32> = (0..n * len).map(|i| i as f32 * 0.5 - 2.0).collect();
        let b = vec![0.25, -1.5, 3.0];
        let mut tape = Tape::new();
        let av = tape.leaf(a.clone());
        let bv = tape.leaf(b.clone());
        let sum = tape.broadcast_add(av, bv, n);
        let t = tape.tanh(sum);
        let s = tape.sum(t);
        let grads = tape.backward(s);
        let mut bgrad = vec![0.0f32; len];
        // Reverse chunk order, matching the op's backward walk.
        for p in (0..n).rev() {
            for k in 0..len {
                let y = (a[p * len + k] + b[k]).tanh();
                assert_eq!(tape.value(sum)[p * len + k], a[p * len + k] + b[k]);
                bgrad[k] += 1.0 - y * y;
            }
        }
        assert_eq!(grads[bv.index()], bgrad);
    }

    /// gather_sum equals the left-to-right picked-index add chain.
    #[test]
    fn gather_sum_matches_index_add_chain() {
        let chunk = 4;
        let targets = vec![2usize, 0, 3];
        let a: Vec<f32> = (0..chunk * targets.len())
            .map(|i| (i as f32 * 0.77).sin())
            .collect();

        let mut ref_tape = Tape::new();
        let ar = ref_tape.leaf(a.clone());
        let mut total = None;
        for (p, &t) in targets.iter().enumerate() {
            // Per-chunk slice indices into the packed vector.
            let picked = ref_tape.index(ar, p * chunk + t);
            total = Some(match total {
                None => picked,
                Some(acc) => ref_tape.add(acc, picked),
            });
        }
        let ref_root = total.expect("targets non-empty");
        let ref_grads = ref_tape.backward(ref_root);

        let mut tape = Tape::new();
        let av = tape.leaf(a.clone());
        let root = tape.gather_sum(av, chunk, targets.clone());
        assert_eq!(tape.scalar(root), ref_tape.scalar(ref_root));
        let grads = tape.backward(root);
        assert_eq!(grads[av.index()], ref_grads[ar.index()]);
    }

    /// pack_inputs gathers the right rows and scatters gradients back to
    /// both tables.
    #[test]
    fn pack_inputs_forward_and_grad() {
        let dim = 2;
        let k = 2;
        let shared = vec![9.0f32, 8.0];
        let table = vec![0.0f32, 1.0, 10.0, 11.0, 20.0, 21.0]; // 3 rows
        let indices = vec![2usize, 0, 1, 2];
        let mut tape = Tape::new();
        let sh = tape.leaf(shared.clone());
        let tb = tape.leaf(table.clone());
        let x = tape.pack_inputs(sh, tb, dim, k, indices);
        assert_eq!(
            tape.value(x),
            &[9.0, 8.0, 20.0, 21.0, 0.0, 1.0, 9.0, 8.0, 10.0, 11.0, 20.0, 21.0]
        );
        let s = tape.sum(x);
        let grads = tape.backward(s);
        // Shared row appears once per position.
        assert_eq!(grads[sh.index()], vec![2.0, 2.0]);
        // Row 2 appears twice, rows 0 and 1 once.
        assert_eq!(grads[tb.index()], vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    /// reset + backward_into reuse buffers and reproduce fresh-tape
    /// results exactly.
    #[test]
    fn reset_and_arena_reuse_are_exact() {
        let mut arena = GradArena::new();
        let mut tape = Tape::new();
        let mut fresh_results = Vec::new();
        for round in 0..3 {
            tape.reset();
            let scale = 1.0 + round as f32;
            let a = tape.leaf(vec![0.3 * scale, -0.7, 0.2 * scale]);
            let b = tape.leaf(vec![1.0, 2.0, -1.0]);
            let m = tape.mul(a, b);
            let t = tape.tanh(m);
            let s = tape.sum(t);
            tape.backward_into(s, &mut arena);
            fresh_results.push((tape.scalar(s), arena.grad(a).to_vec()));

            // A fresh tape + fresh arena agree bit-for-bit.
            let mut f = Tape::new();
            let a2 = f.leaf(vec![0.3 * scale, -0.7, 0.2 * scale]);
            let b2 = f.leaf(vec![1.0, 2.0, -1.0]);
            let m2 = f.mul(a2, b2);
            let t2 = f.tanh(m2);
            let s2 = f.sum(t2);
            let grads = f.backward(s2);
            assert_eq!(f.scalar(s2), fresh_results[round].0);
            assert_eq!(grads[a2.index()], fresh_results[round].1);
        }
        // From the second round on every buffer is recycled.
        assert!(arena.reuses() >= 5, "reuses = {}", arena.reuses());
    }

    proptest! {
        /// Every op's gradient matches central finite differences on a
        /// random composite expression g(a) = sum(tanh(a ⊙ a + c·a)).
        #[test]
        fn composite_grad_matches_numeric(
            vals in proptest::collection::vec(-2.0f32..2.0, 2..6),
            c in -2.0f32..2.0,
        ) {
            let f = |a: &[f32]| -> f32 {
                let mut tape = Tape::new();
                let av = tape.leaf(a.to_vec());
                let sq = tape.mul(av, av);
                let sc = tape.scale(av, c);
                let s = tape.add(sq, sc);
                let t = tape.tanh(s);
                let out = tape.sum(t);
                tape.scalar(out)
            };
            let mut tape = Tape::new();
            let av = tape.leaf(vals.clone());
            let sq = tape.mul(av, av);
            let sc = tape.scale(av, c);
            let s = tape.add(sq, sc);
            let t = tape.tanh(s);
            let out = tape.sum(t);
            let grads = tape.backward(out);
            for i in 0..vals.len() {
                let num = numeric_grad(f, &vals, i);
                let ana = grads[av.index()][i];
                prop_assert!((num - ana).abs() < 5e-2, "i={}: {} vs {}", i, num, ana);
            }
        }

        /// Concat routes gradients to the right parts.
        #[test]
        fn concat_grad_routing(
            a in proptest::collection::vec(-1.0f32..1.0, 1..4),
            b in proptest::collection::vec(-1.0f32..1.0, 1..4),
        ) {
            let mut tape = Tape::new();
            let av = tape.leaf(a.clone());
            let bv = tape.leaf(b.clone());
            let cat = tape.concat(&[av, bv]);
            let s = tape.sum(cat);
            let grads = tape.backward(s);
            prop_assert!(grads[av.index()].iter().all(|&g| (g - 1.0).abs() < 1e-6));
            prop_assert!(grads[bv.index()].iter().all(|&g| (g - 1.0).abs() < 1e-6));
        }
    }
}
