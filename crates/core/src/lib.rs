//! # Ordered Inverted File (OIF)
//!
//! From-scratch implementation of the index and query algorithms of
//! *"Efficient Answering of Set Containment Queries for Skewed Item
//! Distributions"* (Terrovitis, Bouros, Vassiliadis, Sellis, Mamoulis —
//! EDBT 2011).
//!
//! The OIF extends the classic inverted file with a global ordering:
//!
//! 1. Items are totally ordered by descending frequency (`<D`, Eq. 1) —
//!    see [`order::ItemOrder`].
//! 2. Every set-value gets a *sequence form* — its items listed in `<D`
//!    order — and records are re-assigned ids by the lexicographic order of
//!    their sequence forms ([`seqform::SeqForm`], Def. 1).
//! 3. Each inverted list is split into blocks; each block is *tagged* with
//!    the sequence form of its last record, and all blocks of all lists
//!    live in one B⁺-tree keyed by `(item, tag, last-id)` ([`block`]).
//! 4. A *metadata table* stores, per item `o`, the contiguous region
//!    `[l, u]` of ids whose smallest (most frequent) item is `o`
//!    (Theorem 1), letting the suffix of `o`'s list be dropped entirely
//!    ([`meta::MetaTable`]).
//!
//! Queries compute a *Range of Interest* from the query set alone
//! ([`roi`], Defs. 2–4) and only touch blocks whose tags intersect it,
//! which is what produces the order-of-magnitude I/O savings the paper
//! reports.
//!
//! ## Quick start
//!
//! ```
//! use datagen::Dataset;
//! use oif::Oif;
//!
//! let data = Dataset::paper_fig1();
//! let index = Oif::build(&data);
//! // Subset query {a, d}: which records contain both?
//! assert_eq!(index.subset(&[0, 3]), vec![101, 104, 114]);
//! // Superset query {a, c}: which records contain nothing else?
//! assert_eq!(index.superset(&[0, 2]), vec![106, 113]);
//! // Equality query {a, d}.
//! assert_eq!(index.equality(&[0, 3]), vec![114]);
//! ```

pub mod block;
pub mod build;
pub mod containment;
pub mod delta;
pub mod index;
pub mod meta;
pub mod order;
pub mod par;
pub mod persist;
pub mod query;
pub mod roi;
pub mod seqform;

pub use block::BlockConfig;
pub use containment::{ContainmentIndex, DynContainmentIndex, Persist};
pub use delta::DeltaOif;
pub use index::{Oif, OifBuilder, OifConfig, SpaceBreakdown};
pub use order::{ItemOrder, Rank};
pub use query::QueryScratch;
pub use seqform::SeqForm;
