//! Synthesis-as-a-service: a fault-tolerant resident daemon over the
//! engine's batched compile path.
//!
//! The IWLS-2020-contest framing of this repo is batch-oriented — load a
//! problem, learn, compile, score. This crate wraps the same engine in a
//! long-lived server so repeated synthesis work amortizes the PR 8 sharded
//! caches across requests *and restarts*:
//!
//! * [`protocol`] — hand-rolled length-prefixed TCP frames (no registry
//!   deps, so no serde/tonic/tokio); every decode path is a `Result`.
//! * [`queue`] — bounded admission with per-client fairness; overload sheds
//!   explicitly ([`protocol::Status::Overloaded`]), never hangs. The
//!   condvar sleep/wake protocol is loom-model-checked.
//! * [`server`] — the daemon: deadline cancellation at pass boundaries
//!   (partial-best-so-far for timed-out `SelectBest`), panic isolation at
//!   the request boundary, graceful drain on SIGTERM.
//! * [`snapshot`] — crash-safe cache persistence; torn or bit-flipped
//!   snapshots cold-start, never crash.
//! * [`durable`] — the checksummed file frame and the temp + fsync + atomic
//!   rename writer that snapshots and `lsml-suite` checkpoints share.
//! * [`fault`] — the deterministic fault-injection harness
//!   (`LSML_FAULT_SEED`) that CI runs the daemon under.
//! * [`client`] — a blocking client for tests and the bench load generator.
//!
//! Environment knobs (`LSML_SERVE_*`, `LSML_FAULT_SEED`) are documented in
//! the [`lsml_aig::par`] knob table, next to the engine's `LSML_*` family.
//!
//! # Example
//!
//! ```
//! use lsml_serve::client::Client;
//! use lsml_serve::server::{Server, ServerConfig};
//! use lsml_pla::{Dataset, Pattern};
//!
//! let server = Server::start(ServerConfig::for_tests()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! // AND-of-3 truth table, split into train/valid.
//! let mut train = Dataset::new(3);
//! let mut valid = Dataset::new(3);
//! for m in 0..8u64 {
//!     let ds = if m % 2 == 0 { &mut train } else { &mut valid };
//!     ds.push(Pattern::from_index(m, 3), m == 7);
//! }
//! client.load_dataset(&train, &valid, 0, 100).unwrap();
//! client.learn(4).unwrap();
//! let best = client.select_best(0).unwrap();
//! assert!(best.and_gates <= 100);
//! client.shutdown_server().unwrap();
//! server.shutdown_and_join();
//! ```

pub mod client;
pub mod durable;
pub mod fault;
pub mod protocol;
pub mod queue;
pub mod server;
#[cfg(unix)]
pub mod signal;
pub mod snapshot;

pub use client::Client;
pub use fault::FaultPlan;
pub use server::{Server, ServerConfig};
