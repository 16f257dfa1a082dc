//! # ltlcheck — an explicit-state LTL model checker
//!
//! This crate is the reproduction's stand-in for **NuSMV** in
//! *"Fine-Tuning Language Models Using Formal Methods Feedback"*
//! (MLSys 2024). The paper verifies product automata `M ⊗ C` against
//! linear temporal logic specifications; this crate implements the full
//! verification stack from scratch:
//!
//! * [`Ltl`] — LTL syntax over the mixed proposition/action alphabet
//!   `2^{P ∪ P_A}`, with a parser ([`parse`]) and pretty-printer.
//! * [`Buchi`] — Büchi automata built from LTL formulas via the classic
//!   GPVW tableau construction (`Gerth, Peled, Vardi, Wolper 1995`),
//!   degeneralized with a counter construction.
//! * [`check_graph`] / [`verify`] — automata-theoretic model checking:
//!   the negated specification is translated to a Büchi automaton, composed
//!   with the product automaton's label graph, and checked for emptiness
//!   by SCC decomposition. Violations come with a **lasso
//!   counterexample** rendered in the paper's `(p, q, c ∪ a)` trace format;
//!   yes/no queries ([`analysis::exists_fair_path`],
//!   [`analysis::holds_fair`]) stop at the first fair accepting component
//!   instead.
//! * [`finite`] — LTL over *finite* traces (LTLf semantics), used for the
//!   paper's empirical evaluation of simulator rollouts (its Eq. 2).
//! * [`specs`] — the paper's 15 driving-rule specifications Φ₁..Φ₁₅
//!   (Appendix C), expressed over the `autokit` driving vocabulary.
//! * [`smv`] — NuSMV module export for controllers and specifications,
//!   mirroring the paper's Appendix D artifacts.
//!
//! ## Example: the paper's Φ₃ on a trivial controller
//!
//! ```
//! use autokit::{ActSet, ControllerBuilder, Guard, Product, PropSet, Vocab, WorldModel};
//! use ltlcheck::{parse, verify, Verdict};
//!
//! let mut v = Vocab::new();
//! let green = v.add_prop("green traffic light")?;
//! let go = v.add_act("go straight")?;
//!
//! // Two-phase light.
//! let mut model = WorldModel::new("light");
//! let g = model.add_state(PropSet::singleton(green));
//! let r = model.add_state(PropSet::empty());
//! model.add_transition(g, r);
//! model.add_transition(r, g);
//! model.add_transition(g, g);
//! model.add_transition(r, r);
//!
//! // A reckless controller that always goes straight...
//! let reckless = ControllerBuilder::new("always go", 1)
//!     .initial(0)
//!     .transition(0, Guard::always(), ActSet::singleton(go), 0)
//!     .build()?;
//!
//! // ...violates Φ₃ = □(¬green traffic light → ¬go straight).
//! let phi3 = parse("G(!\"green traffic light\" -> !\"go straight\")", &v)?;
//! let verdict = verify(&model, &reckless, &phi3);
//! assert!(matches!(verdict, Verdict::Fails(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod ast;
mod buchi;
pub mod finite;
mod mc;
mod parser;
pub mod smv;
pub mod specs;
pub mod symbolic;
#[cfg(test)]
mod testgen;

pub use ast::{Atom, Ltl};
pub use buchi::{Buchi, BuchiState, MAX_CLOSURE};
pub use mc::{
    check_graph, check_graph_fair, check_graph_fair_certified, holds_on_lasso, verify, verify_all,
    verify_all_fair, verify_all_fair_pooled, verify_fair, CertifiedVerdict, CexStep,
    Counterexample, HoldsCertificate, Justice, NonPropositionalError, SpecResult, Verdict,
    VerificationReport,
};
pub use parser::{parse, ParseLtlError, MAX_NESTING};
