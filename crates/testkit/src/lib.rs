//! # psens-testkit
//!
//! Fixture builders shared by the integration suites. Before this crate,
//! the kernel, search and group-by equivalence suites each carried their
//! own copies of the same schemas, row strategies, table builders, and QI
//! spaces; any fix to one silently diverged from the others.
//!
//! **Compatibility contract:** the proptest strategies here are
//! *structurally identical* to the copies they replaced — same tuple
//! shapes, same ranges, in the same order. The committed
//! `.proptest-regressions` files replay by seed, so changing a strategy's
//! structure would silently re-map every persisted failure onto a
//! different input. Extend by adding new functions, not by editing the
//! shapes of existing ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltas;
pub mod spaces;
pub mod tables;
