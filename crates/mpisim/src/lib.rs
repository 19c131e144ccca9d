//! # mpisim — an in-process MPI-subset message-passing substrate
//!
//! HMPI is "a small set of extensions to MPI"; reproducing it therefore needs
//! an MPI to extend. Real MPI implementations (and the thin `rsmpi` binding)
//! are unavailable/unsuitable here, so this crate implements the subset of
//! MPI that HMPI and the paper's two applications rest on, from scratch:
//!
//! * **ranks as threads** — [`Universe::run`] spawns one OS thread per rank,
//!   each executing the same SPMD closure with its own [`Process`] handle;
//! * **groups** ([`Group`]) with the full set/range constructor family
//!   (`union`, `intersection`, `difference`, `incl`, `excl`, `range_incl`,
//!   `range_excl`, `translate_ranks`, `compare`);
//! * **communicators** ([`Comm`]) with `dup`, `split` and `create`, each with
//!   its own context id so messages never cross communicators;
//! * **point-to-point** typed `send`/`recv`/`sendrecv`/`isend`/`irecv`/
//!   `probe` with `ANY_SOURCE`/`ANY_TAG` wildcards and MPI's per-pair
//!   non-overtaking guarantee;
//! * **collectives** built *on top of* point-to-point (broadcast, reduce,
//!   allreduce, allgather(v), gather(v), scatter(v), alltoall(v), scan,
//!   exscan, barrier, reduce_scatter_block), every one a
//!   [`perfmodel::collective`] schedule run by the one executor in
//!   [`engine`], so their cost model emerges from the link model rather
//!   than being postulated, and the pricer predicts it exactly;
//! * **virtual time** — every rank carries a logical clock
//!   ([`LocalClock`]); [`Process::compute`] advances it by
//!   `volume / speed(node, now)` against the [`hetsim::Cluster`] the ranks
//!   are placed on, and every message carries its arrival time
//!   `send_time + latency + bytes/bandwidth` (plus contention, if the
//!   cluster's [`hetsim::ContentionModel`] serialises NICs or the bus). The
//!   receiver's clock advances to `max(own, arrival)`. The reported program
//!   time is the maximum final clock over all ranks.
//!
//! The result is a *functionally real* message-passing program — the EM3D
//! fields and matrix products computed through this crate are checked against
//! serial references — whose *timing* is a deterministic model of the
//! paper's heterogeneous LAN.

#![warn(missing_docs)]

pub mod agree;
pub mod cart;
pub mod comm;
pub mod datatype;
pub mod engine;
pub mod error;
pub mod group;
mod lane;
pub mod op;
pub mod p2p;
pub mod pool;
mod quiesce;
pub mod runtime;
pub mod vtime;

pub use agree::Agreement;
pub use cart::{dims_create, CartComm};
pub use comm::{wait_all, wait_any, Comm, RecvRequest, SendRequest};
pub use datatype::MpiType;
pub use engine::CollectivePolicy;
pub use error::{MpiError, MpiResult, WaitGraph};
pub use perfmodel::collective::{CollectiveAlgo, CollectiveKind, FixedKind};
pub use group::{Group, GroupCompare};
pub use op::ReduceOp;
pub use p2p::{Msg, Payload, Status, ANY_SOURCE, ANY_TAG, DEADLOCK_TIMEOUT, DEFAULT_EAGER_LIMIT};
pub use pool::{BufferPool, PoolReport};
pub use runtime::{Process, RunReport, Universe, UniverseConfig};
pub use vtime::LocalClock;
