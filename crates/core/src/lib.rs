//! # gomq-core
//!
//! Relational substrate for the `guarded-omq` reproduction of
//! *Dichotomies in Ontology-Mediated Querying with the Guarded Fragment*
//! (Hernich, Lutz, Papacchini, Wolter; PODS 2017).
//!
//! This crate provides the data model every other crate builds on:
//!
//! * [`Vocab`] — an interner for relation symbols (with arities), constants
//!   and labelled nulls,
//! * [`Interpretation`] — a finite set of atoms over constants and nulls
//!   (the paper's interpretations; a database *instance* is an
//!   interpretation whose terms are all constants),
//! * [`FactStore`] — the columnar fact plane: a flat-arena, deduplicating
//!   fact table that `Interpretation` and [`IndexedInstance`] are views
//!   over ([`store`]),
//! * homomorphisms between interpretations ([`hom`]),
//! * indexed fact stores and the join-lookup abstraction ([`index`]),
//! * fixed-width bitset rows/matrices and dense term interning
//!   ([`bitset`], [`intern`]) — the substrate of the bit-parallel
//!   propagation kernels,
//! * guarded sets, Gaifman graphs and guarded tree decompositions
//!   ([`guarded`], [`treedec`]),
//! * conjunctive queries, unions thereof, and rooted acyclic queries
//!   ([`query`]).
//!
//! The paper's terminology is kept deliberately close: an `Instance` is an
//! `Interpretation` all of whose terms are constants, interpretations make
//! the *standard names* assumption (a constant denotes itself), and query
//! answers are defined by homomorphisms from canonical databases.

#![warn(missing_docs)]

pub mod bisim;
pub mod bitset;
pub mod fact;
pub mod faults;
pub mod guarded;
pub mod hom;
pub mod index;
pub mod intern;
pub mod interpretation;
pub mod parse;
pub mod query;
pub mod store;
pub mod symbols;
pub mod treedec;

pub use fact::{Fact, Term};
pub use hom::{find_homomorphism, Homomorphism};
pub use index::{DeltaView, FactLookup, IdSetView, IndexedInstance};
pub use intern::TermInterner;
pub use interpretation::{ArityError, Instance, Interpretation};
pub use query::{Cq, CqAtom, Ucq, VarOrConst};
pub use store::{FactBuf, FactId, FactRef, FactStore, StoreStats};
pub use symbols::{
    is_reserved_rel_name, reserved_rel_message, ConstId, NullId, RelId, RequestConsts, Vocab,
    RESERVED_REL_PREFIX,
};
