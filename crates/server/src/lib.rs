//! # psens-server
//!
//! A long-running anonymization daemon over the workspace's search stack.
//! The CLI parses, interns, and evaluates a dataset per invocation; the
//! server does that work once at `register` and then serves `check` /
//! `analyze` / `anonymize` / `query` requests against the interned table,
//! keeping a pool of warm [`psens_core::VerdictStore`]s per dataset (keyed
//! by `(model, k, ts)` — a store's verdicts hold for one configuration
//! only) so repeated anonymize calls amortize lattice work.
//!
//! - [`protocol`]: 4-byte big-endian length-prefixed JSON frames; request /
//!   response shapes and error codes.
//! - [`registry`]: the name → dataset map and the warm store pools.
//! - [`server`]: accept loop, admission gate, per-request cancellation
//!   (client disconnect → that request's token only; SIGINT / `shutdown` →
//!   every request, via [`psens_core::CancelToken::child`] parent links).
//! - [`client`]: the synchronous client used by `psens-load`, the CLI
//!   `client` subcommand, and the tests; retries `busy` / transport errors
//!   with seeded exponential backoff and idempotent request ids.
//! - [`fault`]: deterministic fault injection (test-only `inject` verb) for
//!   the chaos harness.
//! - [`state`]: write-ahead registry journal and verdict-store snapshots
//!   behind `--state-dir`; replayed with hash verification on boot.
//!
//! DESIGN.md §14–15 document the architecture; EXPERIMENTS.md's BENCH_7/8
//! hold the sustained-traffic and robustness numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod state;

pub use client::{Client, RetryPolicy, RetryStats};
pub use fault::FaultPlan;
pub use registry::Registry;
pub use server::{start, ServerConfig, ServerHandle};
pub use state::StateDir;
