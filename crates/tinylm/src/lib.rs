//! # tinylm — a from-scratch trainable language-model substrate
//!
//! The paper fine-tunes **Llama2-7B** with LoRA adapters. This crate is
//! the reproduction's stand-in: a small conditional neural language model
//! implemented from first principles, with everything DPO-AF needs from a
//! language model:
//!
//! * sampling multiple responses per prompt at a temperature
//!   ([`CondLm::sample`]),
//! * exact log-likelihoods `log P(y | x, θ)` and their gradients
//!   ([`CondLm::log_prob`], [`CondLm::log_prob_grad`]),
//! * a frozen reference copy for DPO ([`CondLm`] is `Clone`),
//! * **LoRA** low-rank adapters (paper Appendix E): hold `W` constant and
//!   train `A·B` with `rank ≪ dim` ([`AdaptMode::Lora`]).
//!
//! Components:
//!
//! * [`tape`] — a compact reverse-mode automatic-differentiation tape over
//!   `f32` vectors (the "tensor library" layer).
//! * [`Tokenizer`] — word-level tokenizer with `BOS`/`EOS` specials.
//! * [`CondLm`] — a conditional n-gram MLP language model: a task
//!   embedding concatenated with the embeddings of the last `k` tokens,
//!   through a tanh MLP to a softmax over the vocabulary. The persistent
//!   task embedding keeps generation conditioned on the prompt even
//!   beyond the context window.
//! * [`optim`] — SGD and Adam optimizers over flat parameter vectors.
//! * [`pretrain`] — cross-entropy pretraining on a corpus of
//!   `(task, response)` pairs, standing in for the "pre-trained" model.
//!
//! The architecture is deliberately small (a few thousand parameters):
//! what matters for reproducing the paper is the *training dynamics* of
//! DPO over ranked responses, not the capacity of the base model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod model;
pub mod optim;
mod pretrain_mod;
pub mod tape;
mod tokenizer;

pub use model::{
    AdaptMode, CondLm, GradBuffer, LmConfig, LmError, SampleOptions, SeqGraph, SeqWorkspace,
};
pub use pretrain_mod::{pretrain, pretrain_in, PretrainOptions, PretrainStats};
pub use tokenizer::{Token, Tokenizer, BOS, EOS};
