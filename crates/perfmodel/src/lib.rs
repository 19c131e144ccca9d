//! # perfmodel — HMPI's performance-model definition language
//!
//! HMPI "provides a small and dedicated model definition language for
//! specifying this performance model. This language uses most of the features
//! in the specification of network types of the mpC language. A compiler
//! compiles the description of this performance model to generate a set of
//! functions. The functions make up an algorithm-specific part of the HMPI
//! runtime system."
//!
//! This crate is that pipeline, reimplemented in Rust:
//!
//! * [`lexer`] / [`parser`] — turn model source (the paper's Figures 4 and 7
//!   parse verbatim) into an AST, which compilation lowers once into a
//!   slot-resolved form (names bound to frame slots, array subscripts to
//!   strides, extern calls to a callee table);
//! * [`model::CompiledModel`] — the "set of functions": bind parameters with
//!   [`model::CompiledModel::instantiate`] to obtain a
//!   [`model::ModelInstance`] exposing per-processor computation volumes
//!   ([`model::PerformanceModel::volumes`]), pairwise communication volumes
//!   ([`model::PerformanceModel::comm_bytes`]), the parent, and a replayable
//!   interaction pattern ([`model::PerformanceModel::run_scheme`]);
//! * [`scheme`] — what running a `scheme { ... }` section produces. Activities
//!   (`e %% [i]` computations and `e %% [i] -> [j]` transfers) are emitted to
//!   a [`scheme::SchemeSink`]; `par` algorithmic patterns fork virtual time.
//!   [`scheme::TimelineSink`] turns the pattern into a predicted execution
//!   time against per-processor speeds and link costs — the engine behind
//!   `HMPI_Timeof` and `HMPI_Group_create`;
//! * [`builder`] — a typed Rust front-end ([`builder::ModelBuilder`])
//!   producing the same [`model::PerformanceModel`] interface without going
//!   through source text;
//! * [`compile`] — the selection engine's fast path: a model's
//!   (assignment-independent) event stream recorded once into a flat
//!   [`compile::CostProgram`] that is re-priced per mapping, with
//!   incremental delta re-pricing for local-search moves.
//!
//! ## Language semantics notes
//!
//! The paper's language is C-flavoured. Two deliberate choices where the
//! paper is silent:
//!
//! 1. **Index/control expressions** (array subscripts, loop bounds, guards)
//!    evaluate in 64-bit integers with C truncating division — `k%l`, `n/l`
//!    behave as a C programmer expects.
//! 2. **Volume and percentage expressions** (the argument of `bench*(...)`,
//!    `length*(...)` and the expression before `%%`) evaluate in `f64` with
//!    true division: the paper writes `(100/n)%%[...]`, which under integer
//!    division would be zero for `n > 100` and make every step free.

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builder;
pub mod collective;
pub mod compile;
pub mod error;
pub mod eval;
pub mod hier;
pub mod lexer;
mod lower;
pub mod model;
pub mod parser;
pub mod pretty;
pub mod scheme;
pub mod value;

pub use analysis::{analyze, CoverageSink, Finding, ModelReport};
pub use collective::{
    algos_for, chunk_bounds, eligible, price, schedule, select, CollectiveAlgo, CollectiveKind,
    FixedKind, LinkSharing, Xfer,
};
pub use builder::{BuiltModel, ModelBuilder};
pub use compile::{CostProgram, DeltaBaseline, PairCost, PriceScratch};
pub use hier::{plan as hier_plan, GatherXfer, HierPlan, RankTopology};
pub use error::{EvalError, ParseError};
pub use model::{CompiledModel, ModelInstance, ParamValue, PerformanceModel};
pub use parser::parse_program;
pub use scheme::{CostModel, RecordingSink, SchemeEvent, SchemeSink, TimelineSink};
pub use value::Value;
