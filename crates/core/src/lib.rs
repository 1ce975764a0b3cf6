//! # cal-core — concurrency-aware linearizability
//!
//! A from-scratch implementation of *concurrency-aware linearizability*
//! (CAL) as defined by Hemed, Rinetzky and Vafeiadis: a generalization of
//! Herlihy–Wing linearizability in which a specification is a set of
//! **CA-traces** — sequences of sets of operations that appear to take
//! effect *simultaneously* — rather than a set of sequential histories.
//! CAL makes it possible to specify concurrency-aware objects such as
//! exchangers, elimination arrays and synchronous queues, whose concurrent
//! behaviour is intentionally different from any sequential behaviour.
//!
//! The crate provides:
//!
//! - the formal vocabulary: [`Action`]s, [`History`]s with projections and
//!   the real-time order (Defs. 1–3), [`Operation`]s, [`CaElement`]s and
//!   [`CaTrace`]s (Def. 4);
//! - the agreement relation `H ⊑CAL T` ([`agree`], Def. 5);
//! - a CAL membership checker over stateful trace specifications
//!   ([`check`], Def. 6, [`spec::CaSpec`]);
//! - a classical linearizability checker as the singleton-element special
//!   case ([`seqlin`], [`spec::SeqSpec`]), running the CAL search over
//!   [`spec::SeqAsCa`];
//! - interval-linearizability ([`interval`]) and causal CAL over a
//!   happens-before partial order ([`causal`]);
//! - one options-taking entry point per mode (`check_cal_with`,
//!   `check_linearizable_with`, `check_interval_with`,
//!   `check_causal_with`), where [`check::CheckOptions::threads`] picks
//!   the sequential or the parallel driver of the shared search kernel
//!   ([`engine`]);
//! - the `F_o` view-function machinery for compositional verification of
//!   objects built from subobjects ([`compose`]);
//! - generators of sound and adversarial histories ([`gen`]).
//!
//! ## Example: a successful exchange is CAL but not linearizable
//!
//! ```
//! use cal_core::{check, Action, History, Method, ObjectId, ThreadId, Value};
//! use cal_core::spec::{CaSpec, Invocation};
//! use cal_core::trace::CaElement;
//!
//! /// Exchanger spec: a CA-element is a matched swap pair or a singleton
//! /// failure.
//! #[derive(Debug)]
//! struct Exchanger;
//! impl CaSpec for Exchanger {
//!     type State = ();
//!     fn initial(&self) {}
//!     fn step(&self, _: &(), e: &CaElement) -> Option<()> {
//!         match e.ops() {
//!             [a] => {
//!                 let (ok, v) = a.ret.as_pair()?;
//!                 (!ok && Value::Int(v) == a.arg).then_some(())
//!             }
//!             [a, b] => {
//!                 let (oka, va) = a.ret.as_pair()?;
//!                 let (okb, vb) = b.ret.as_pair()?;
//!                 (oka && okb && a.arg == Value::Int(vb) && b.arg == Value::Int(va))
//!                     .then_some(())
//!             }
//!             _ => None,
//!         }
//!     }
//!     fn max_element_size(&self) -> usize { 2 }
//!     fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
//!         vec![Value::Pair(false, inv.arg.as_int().unwrap_or(0))]
//!     }
//! }
//!
//! let e = ObjectId(0);
//! let ex = Method("exchange");
//! // Two overlapping exchanges that swapped 3 ↔ 4:
//! let h = History::from_actions(vec![
//!     Action::invoke(ThreadId(1), e, ex, Value::Int(3)),
//!     Action::invoke(ThreadId(2), e, ex, Value::Int(4)),
//!     Action::response(ThreadId(1), e, ex, Value::Pair(true, 4)),
//!     Action::response(ThreadId(2), e, ex, Value::Pair(true, 3)),
//! ]);
//! assert!(check::is_cal(&h, &Exchanger).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod agree;
pub mod bitset;
pub mod causal;
pub mod check;
pub mod compose;
pub mod dsl;
pub mod engine;
pub mod format;
pub mod fpmemo;
pub mod gen;
pub mod history;
pub mod ids;
pub mod interval;
pub mod obs;
pub mod op;
pub mod seqlin;
pub mod spec;
pub mod stream;
pub mod symmetry;
pub mod text;
pub mod trace;

pub use action::{Action, ActionKind};
pub use history::{History, HistoryError, Span};
pub use ids::{Method, ObjectId, ThreadId, Value};
pub use op::Operation;
pub use trace::{CaElement, CaElementError, CaTrace};
