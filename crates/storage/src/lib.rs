//! Relational storage substrate for the NPRR worst-case-optimal join
//! reproduction.
//!
//! The paper assumes a handful of storage facilities (§5.3.2 and footnote 3):
//!
//! * relations as sets of tuples over named attributes;
//! * hash-based natural join of two relations in time
//!   `O(|R| + |S| + |R ⋈ S|)`;
//! * per-relation **search trees** honouring a *total order* of attributes,
//!   supporting the three operations (ST1)–(ST3):
//!   1. (ST1) decide `t ∈ π_{a₁..aᵢ}(Rₑ)` by stepping down the tree,
//!   2. (ST2) query `|π_{aᵢ₊₁..aⱼ}(Rₑ[t])|` cheaply after the descent,
//!   3. (ST3) list `π_{aᵢ₊₁..aⱼ}(Rₑ[t])` in output-linear time.
//!
//! This crate provides all of them:
//!
//! * [`Value`] — dictionary-encoded machine word; [`Dictionary`] round-trips
//!   user data ([`Datum`]) at the API boundary so hot loops touch only
//!   `u64`s;
//! * [`Attr`] / [`Schema`] — attribute identifiers and ordered,
//!   duplicate-free attribute lists;
//! * [`Relation`] — row-major tuple storage with set semantics;
//! * [`RowBuf`] — a schema-less flat buffer of equal-arity rows, the unit
//!   the join engine emits and [`Relation::from_flat`] adopts without a copy;
//! * [`ops`] — relational algebra (project / select / rename / union /
//!   difference / semijoin / natural join / cross product);
//! * [`FlatIndex`] — the paper's search tree, a *counted trie* over sorted
//!   rows (sorted construction costs an extra `log` factor, which the
//!   paper's footnote 3 explicitly allows) in a **flat columnar** layout:
//!   contiguous sorted value arrays per level plus offset ranges, with
//!   [`gallop`]ing lookups;
//! * [`DeltaRelation`] — a mutable view over a frozen, `Arc`-shared base:
//!   sorted insert/delete buffers, read through one [`FlatIndex`] per
//!   content version and column order (one linear merge of the base's
//!   index with the buffers, shared by every reader of the version), plus
//!   minor compaction (one sequential merge into a fresh base);
//! * [`gallop`] — exponential search and adaptive intersection over sorted
//!   slices, shared by the flat backend and the engine's scan sites;
//! * [`hash`] — a fast non-cryptographic hasher (`FxHashMap`/`FxHashSet`)
//!   so join keys are not bottlenecked on SipHash.

mod delta;
mod flat;
pub mod gallop;
pub mod hash;
pub mod index;
pub mod ops;
#[cfg(test)]
mod proptests;
mod relation;
mod rowbuf;
mod schema;
mod value;

pub use delta::DeltaRelation;
pub use flat::{FlatChildren, FlatIndex, FlatNode};
pub use index::SearchTree;
pub use relation::{Relation, RowSet};
pub use rowbuf::RowBuf;
pub use schema::{Attr, Schema};
pub use value::{Datum, Dictionary, Value};

use std::fmt;

/// Errors surfaced by storage-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's arity does not match its relation's schema.
    ArityMismatch {
        /// Arity the schema requires.
        expected: usize,
        /// Arity that was supplied.
        got: usize,
    },
    /// An attribute list contains the same attribute twice.
    DuplicateAttr(Attr),
    /// An operation referenced an attribute absent from the schema.
    UnknownAttr(Attr),
    /// Two relations were expected to share a schema but do not.
    SchemaMismatch,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            StorageError::DuplicateAttr(a) => write!(f, "duplicate attribute {a:?} in schema"),
            StorageError::UnknownAttr(a) => write!(f, "attribute {a:?} not in schema"),
            StorageError::SchemaMismatch => write!(f, "relations have different schemas"),
        }
    }
}

impl std::error::Error for StorageError {}
