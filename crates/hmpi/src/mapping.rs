//! Group selection: mapping abstract processors onto physical processes.
//!
//! "During the creation of this group of processes, HMPI runtime system
//! solves the problem of selection of the optimal set of processes running
//! on different computers of the heterogeneous network." The objective is
//! the predicted execution time ([`crate::estimate::predicted_time`]); this
//! module provides the search strategies:
//!
//! * [`MappingAlgorithm::Exhaustive`] — enumerate every injective mapping
//!   (exact, for small instances; falls back to the refined greedy beyond a
//!   work cap). The default path prunes with an admissible computation-only
//!   lower bound (branch and bound) and splits the first levels of the
//!   search tree across threads, returning the *same* mapping as the
//!   sequential enumeration (first strict improver in lexicographic order);
//! * [`MappingAlgorithm::Greedy`] — sort abstract processors by volume and
//!   candidates by estimated speed and pair them off (the optimal pairing
//!   for pure computation by the rearrangement inequality), no search;
//! * [`MappingAlgorithm::GreedyRefined`] — greedy start, then
//!   first-improvement local search over pairwise swaps and replacements
//!   with unused candidates (the default);
//! * [`MappingAlgorithm::Annealing`] — seeded simulated annealing for
//!   rugged objective landscapes (heavy communication terms).
//!
//! The model's *parent* processor is pinned to the parent process ("every
//! newly created group has exactly one process shared with already existing
//! groups ... the connecting link, through which results of computations are
//! passed").
//!
//! Two objective implementations drive the searches: the **engine** path
//! ([`crate::engine::Evaluator`]) prices mappings against a compiled cost
//! program with incremental delta evaluation of swap/replace moves, and the
//! **naive** path re-derives a fresh cost model per evaluation
//! ([`select_mapping_naive`], kept as the reference the engine is verified
//! against). Both produce bit-identical mappings.

use crate::engine::Evaluator;
use crate::estimate::predicted_time;
use hetsim::{Cluster, NodeId, SpeedEstimates};
use perfmodel::PerformanceModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything the search needs to price a candidate mapping.
#[derive(Debug, Clone)]
pub struct SelectionCtx<'a> {
    /// The cluster model.
    pub cluster: &'a Cluster,
    /// `placement[world_rank] = node`.
    pub placement: &'a [NodeId],
    /// Current speed estimates (from the latest `HMPI_Recon`).
    pub estimates: &'a SpeedEstimates,
    /// World ranks eligible for membership (the parent plus all free
    /// processes).
    pub candidates: Vec<usize>,
    /// World rank that must host the model's parent processor.
    pub pinned_parent: Option<usize>,
}

/// Objective-evaluation counters from one selection search — the
/// observability layer's view of how hard the search worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full objective evaluations (including delta-baseline rebases).
    pub evals: u64,
    /// Incremental delta probes of baseline perturbations.
    pub probes: u64,
}

/// A selection result.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// `assignment[abstract processor] = world rank`.
    pub assignment: Vec<usize>,
    /// Predicted execution time in seconds under the current estimates.
    pub predicted: f64,
    /// How many objective evaluations/probes the search performed.
    pub stats: SearchStats,
}

/// Search strategy for [`select_mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingAlgorithm {
    /// Exact enumeration (small instances; falls back to `GreedyRefined`
    /// above [`EXHAUSTIVE_CAP`] candidate mappings).
    Exhaustive,
    /// Volume/speed sorted pairing only.
    Greedy,
    /// Greedy start plus swap/replace local search. The default.
    GreedyRefined {
        /// Maximum improvement rounds.
        max_rounds: usize,
    },
    /// Seeded simulated annealing.
    Annealing {
        /// RNG seed (results are deterministic per seed).
        seed: u64,
        /// Number of proposal steps.
        iters: usize,
    },
}

impl Default for MappingAlgorithm {
    fn default() -> Self {
        MappingAlgorithm::GreedyRefined { max_rounds: 64 }
    }
}

/// Work cap for exhaustive enumeration (number of mappings). Branch and
/// bound prunes most of the tree on computation-dominated instances and
/// the compiled evaluator prices leaves orders of magnitude faster than
/// the interpreter did, so the cap sits far above the pre-engine 2×10⁶.
pub const EXHAUSTIVE_CAP: u64 = 50_000_000;

/// Errors from the selection search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The model needs more processes than there are candidates.
    NotEnoughProcesses {
        /// Abstract processors required.
        required: usize,
        /// Candidates available.
        available: usize,
    },
    /// The pinned parent is not among the candidates.
    ParentNotCandidate {
        /// The offending world rank.
        world_rank: usize,
    },
    /// The model's scheme program failed to evaluate on every assignment
    /// the search tried.
    Eval(
        /// The evaluation error, rendered.
        String,
    ),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::NotEnoughProcesses {
                required,
                available,
            } => write!(
                f,
                "model needs {required} processes but only {available} are free"
            ),
            SelectError::ParentNotCandidate { world_rank } => {
                write!(f, "pinned parent rank {world_rank} is not a candidate")
            }
            SelectError::Eval(msg) => {
                write!(f, "the model's scheme failed to evaluate: {msg}")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// The search-facing objective: full evaluations that set the delta
/// baseline, and probes of small perturbations of that baseline.
trait Objective {
    /// Fully evaluates `a` and makes it the baseline for probes.
    fn rebase(&mut self, a: &[usize]) -> f64;
    /// Evaluates `a`, which differs from the baseline exactly at the
    /// abstract processors in `changed`.
    fn probe(&mut self, a: &[usize], changed: &[usize]) -> f64;
}

/// The pre-engine reference objective: every evaluation rebuilds the cost
/// model and re-interprets the scheme.
struct NaiveObjective<'a> {
    model: &'a dyn PerformanceModel,
    ctx: &'a SelectionCtx<'a>,
    evals: u64,
    probes: u64,
}

impl<'a> NaiveObjective<'a> {
    fn new(model: &'a dyn PerformanceModel, ctx: &'a SelectionCtx<'a>) -> Self {
        NaiveObjective {
            model,
            ctx,
            evals: 0,
            probes: 0,
        }
    }

    fn price(&self, a: &[usize]) -> f64 {
        predicted_time(
            self.model,
            a,
            self.ctx.cluster,
            self.ctx.placement,
            self.ctx.estimates,
        )
        .unwrap_or(f64::INFINITY)
    }

    fn stats(&self) -> SearchStats {
        SearchStats {
            evals: self.evals,
            probes: self.probes,
        }
    }
}

impl Objective for NaiveObjective<'_> {
    fn rebase(&mut self, a: &[usize]) -> f64 {
        self.evals += 1;
        self.price(a)
    }
    fn probe(&mut self, a: &[usize], _changed: &[usize]) -> f64 {
        self.probes += 1;
        self.price(a)
    }
}

/// The engine objective: compiled program, table lookups, delta probes.
struct EngineObjective<'a> {
    ev: &'a mut Evaluator,
}

impl Objective for EngineObjective<'_> {
    fn rebase(&mut self, a: &[usize]) -> f64 {
        self.ev.rebase(a)
    }
    fn probe(&mut self, a: &[usize], changed: &[usize]) -> f64 {
        self.ev.probe(a, changed)
    }
}

/// Selects the mapping minimising predicted execution time, using the
/// compiled selection engine (see [`crate::engine`]).
///
/// # Errors
/// [`SelectError`] on infeasible instances.
pub fn select_mapping(
    algo: MappingAlgorithm,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
) -> Result<Mapping, SelectError> {
    select_mapping_impl(algo, model, ctx, true)
}

/// The pre-engine reference path: every objective evaluation rebuilds the
/// cost model and re-interprets the scheme, and `Exhaustive` enumerates
/// sequentially without pruning. Kept public as the baseline the engine is
/// benchmarked and property-tested against; it selects bit-identical
/// mappings to [`select_mapping`].
///
/// # Errors
/// As [`select_mapping`].
pub fn select_mapping_naive(
    algo: MappingAlgorithm,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
) -> Result<Mapping, SelectError> {
    select_mapping_impl(algo, model, ctx, false)
}

fn select_mapping_impl(
    algo: MappingAlgorithm,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    engine: bool,
) -> Result<Mapping, SelectError> {
    let p = model.num_processors();
    if p > ctx.candidates.len() {
        return Err(SelectError::NotEnoughProcesses {
            required: p,
            available: ctx.candidates.len(),
        });
    }
    if let Some(parent) = ctx.pinned_parent {
        if !ctx.candidates.contains(&parent) {
            return Err(SelectError::ParentNotCandidate { world_rank: parent });
        }
    }
    // Evaluation failures price an assignment as infeasible rather than
    // aborting the search; if the *chosen* assignment also fails, the typed
    // error surfaces below.
    let mapping = match algo {
        MappingAlgorithm::Greedy => {
            let a = greedy(model, ctx);
            let (predicted, stats) = if engine {
                let mut ev = Evaluator::new(model, ctx);
                let t = ev.eval(&a);
                (t, search_stats(&ev))
            } else {
                let mut obj = NaiveObjective::new(model, ctx);
                let t = obj.rebase(&a);
                (t, obj.stats())
            };
            Mapping {
                predicted,
                assignment: a,
                stats,
            }
        }
        MappingAlgorithm::GreedyRefined { max_rounds } => {
            let a = greedy(model, ctx);
            let (assignment, predicted, stats) = if engine {
                let mut ev = Evaluator::new(model, ctx);
                let (a, t) =
                    local_search(a, model, ctx, &mut EngineObjective { ev: &mut ev }, max_rounds);
                (a, t, search_stats(&ev))
            } else {
                let mut obj = NaiveObjective::new(model, ctx);
                let (a, t) = local_search(a, model, ctx, &mut obj, max_rounds);
                (a, t, obj.stats())
            };
            Mapping {
                assignment,
                predicted,
                stats,
            }
        }
        MappingAlgorithm::Exhaustive => {
            if exhaustive_count(ctx.candidates.len(), p) > EXHAUSTIVE_CAP {
                return select_mapping_impl(
                    MappingAlgorithm::GreedyRefined { max_rounds: 64 },
                    model,
                    ctx,
                    engine,
                );
            }
            if engine {
                exhaustive_bb(model, ctx, &Evaluator::new(model, ctx))
            } else {
                exhaustive_seq(model, ctx)
            }
        }
        MappingAlgorithm::Annealing { seed, iters } => {
            let start = greedy(model, ctx);
            if engine {
                let mut ev = Evaluator::new(model, ctx);
                let mut m =
                    anneal(start, model, ctx, &mut EngineObjective { ev: &mut ev }, seed, iters);
                m.stats = search_stats(&ev);
                m
            } else {
                let mut obj = NaiveObjective::new(model, ctx);
                let mut m = anneal(start, model, ctx, &mut obj, seed, iters);
                m.stats = obj.stats();
                m
            }
        }
    };
    if !mapping.predicted.is_finite() {
        // Distinguish a genuine eval failure from a legitimately infinite
        // prediction (e.g. an estimated speed of zero).
        if let Err(e) = predicted_time(
            model,
            &mapping.assignment,
            ctx.cluster,
            ctx.placement,
            ctx.estimates,
        ) {
            return Err(SelectError::Eval(e.to_string()));
        }
    }
    Ok(mapping)
}

/// Reads an engine evaluator's counters into [`SearchStats`].
fn search_stats(ev: &Evaluator) -> SearchStats {
    SearchStats {
        evals: ev.eval_count(),
        probes: ev.probe_count(),
    }
}

/// Number of injective mappings of `p` processors onto `c` candidates.
fn exhaustive_count(c: usize, p: usize) -> u64 {
    let mut n: u64 = 1;
    for i in 0..p {
        n = n.saturating_mul((c - i) as u64);
        if n > EXHAUSTIVE_CAP {
            return n;
        }
    }
    n
}

/// Volume-descending / speed-descending pairing, with the parent pinned.
fn greedy(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> Vec<usize> {
    let p = model.num_processors();
    let volumes = model.volumes();
    let parent_abs = model.parent();

    let mut abs_order: Vec<usize> = (0..p).collect();
    abs_order.sort_by(|&a, &b| volumes[b].total_cmp(&volumes[a]));

    let speed_of = |w: usize| ctx.estimates.speed(ctx.placement[w]);
    let mut cand = ctx.candidates.clone();
    cand.sort_by(|&a, &b| speed_of(b).total_cmp(&speed_of(a)));

    let mut assignment = vec![usize::MAX; p];
    let mut used = vec![false; cand.len()];

    if let Some(parent_w) = ctx.pinned_parent {
        assignment[parent_abs] = parent_w;
        if let Some(pos) = cand.iter().position(|&w| w == parent_w) {
            used[pos] = true;
        }
    }

    for &abs in &abs_order {
        if assignment[abs] != usize::MAX {
            continue;
        }
        let pos = used
            .iter()
            .position(|&u| !u)
            .expect("feasibility checked by caller");
        assignment[abs] = cand[pos];
        used[pos] = true;
    }
    assignment
}

/// First-improvement local search over swaps and replace-with-unused moves.
/// Returns the refined assignment and its (full-evaluation) predicted time.
fn local_search(
    mut assignment: Vec<usize>,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    obj: &mut dyn Objective,
    max_rounds: usize,
) -> (Vec<usize>, f64) {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let mut best = obj.rebase(&assignment);
    for _ in 0..max_rounds {
        let mut improved = false;

        // Pairwise swaps.
        'swap: for i in 0..p {
            for j in (i + 1)..p {
                assignment.swap(i, j);
                let pin_ok = ctx
                    .pinned_parent
                    .is_none_or(|w| assignment[parent_abs] == w);
                if pin_ok {
                    let t = obj.probe(&assignment, &[i, j]);
                    if t < best {
                        best = obj.rebase(&assignment);
                        improved = true;
                        continue 'swap;
                    }
                }
                assignment.swap(i, j); // revert
            }
        }

        // Replace an assignment with an unused candidate. Candidates
        // displaced by an accepted move become available immediately, so a
        // chain of replacements can complete within one round.
        for i in 0..p {
            if ctx.pinned_parent.is_some() && i == parent_abs {
                continue;
            }
            for wi in 0..ctx.candidates.len() {
                let w = ctx.candidates[wi];
                if assignment.contains(&w) {
                    continue;
                }
                let old = assignment[i];
                assignment[i] = w;
                let t = obj.probe(&assignment, &[i]);
                if t < best {
                    best = obj.rebase(&assignment);
                    improved = true;
                } else {
                    assignment[i] = old;
                }
            }
        }

        if !improved {
            break;
        }
    }
    (assignment, best)
}

/// Sequential exact enumeration (the naive path): first strict improver in
/// lexicographic candidate order wins.
fn exhaustive_seq(model: &dyn PerformanceModel, ctx: &SelectionCtx<'_>) -> Mapping {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let mut obj = NaiveObjective::new(model, ctx);
    let mut assignment = vec![usize::MAX; p];
    let mut used = vec![false; ctx.candidates.len()];
    let mut best: Option<Mapping> = None;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        abs: usize,
        p: usize,
        parent_abs: usize,
        ctx: &SelectionCtx<'_>,
        assignment: &mut Vec<usize>,
        used: &mut Vec<bool>,
        obj: &mut NaiveObjective<'_>,
        best: &mut Option<Mapping>,
    ) {
        if abs == p {
            let t = obj.rebase(assignment);
            if best.as_ref().is_none_or(|b| t < b.predicted) {
                *best = Some(Mapping {
                    assignment: assignment.clone(),
                    predicted: t,
                    stats: SearchStats::default(),
                });
            }
            return;
        }
        for ci in 0..ctx.candidates.len() {
            if used[ci] {
                continue;
            }
            let w = ctx.candidates[ci];
            if abs == parent_abs {
                if let Some(pin) = ctx.pinned_parent {
                    if w != pin {
                        continue;
                    }
                }
            }
            used[ci] = true;
            assignment[abs] = w;
            rec(abs + 1, p, parent_abs, ctx, assignment, used, obj, best);
            used[ci] = false;
        }
        assignment[abs] = usize::MAX;
    }

    rec(
        0,
        p,
        parent_abs,
        ctx,
        &mut assignment,
        &mut used,
        &mut obj,
        &mut best,
    );
    let mut best = best.expect("feasibility checked by caller");
    best.stats = obj.stats();
    best
}

/// The admissible lower-bound data for branch and bound: per-processor
/// computation totals `U_p` (any feasible completion costs processor `p`
/// at least `U_p / speed`), the suffix maxima over the still-unassigned
/// tail, and the fastest candidate speed.
struct Bound {
    units: Vec<f64>,
    suffix_max: Vec<f64>,
    max_speed: f64,
}

fn make_bound(ev: &Evaluator, ctx: &SelectionCtx<'_>, p: usize) -> Option<Bound> {
    let units = ev.compute_units()?.to_vec();
    let mut max_speed = 0.0f64;
    for &w in &ctx.candidates {
        let s = ev.world_speed(w);
        if s.is_nan() || s <= 0.0 {
            // A non-positive speed can poison clocks with NaN; disable
            // pruning rather than risk cutting the true argmin.
            return None;
        }
        max_speed = max_speed.max(s);
    }
    let mut suffix_max = vec![0.0f64; p + 1];
    for d in (0..p).rev() {
        suffix_max[d] = suffix_max[d + 1].max(units[d]);
    }
    Some(Bound {
        units,
        suffix_max,
        max_speed,
    })
}

/// Lock-free shared incumbent: monotonically decreasing f64 behind an
/// `AtomicU64` of its bits.
fn atomic_min_f64(best: &AtomicU64, v: f64) {
    let mut cur = best.load(Ordering::Relaxed);
    while v < f64::from_bits(cur) {
        match best.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// Headroom on the pruning test. The bound divides compute units by a
/// speed, while the evaluator reaches the same time through its own
/// float operations, so a bound that is exact in real arithmetic can
/// round a few ulps above a leaf that ties the incumbent. Pruning such a
/// subtree would make the result depend on which worker thread found the
/// incumbent first.
const PRUNE_SLACK: f64 = 1.0 + 1e-12;

#[allow(clippy::too_many_arguments)]
fn bb_rec(
    abs: usize,
    p: usize,
    parent_abs: usize,
    ctx: &SelectionCtx<'_>,
    assignment: &mut Vec<usize>,
    used: &mut Vec<bool>,
    ev: &mut Evaluator,
    bound: Option<&Bound>,
    lb_partial: f64,
    shared: &AtomicU64,
    best: &mut Option<Mapping>,
) {
    if let Some(b) = bound {
        // Prune only on a *strict* bound violation (with rounding headroom,
        // see `PRUNE_SLACK`): equal-valued subtrees survive, so the
        // first-improver tie-break matches the sequential enumeration
        // exactly. The incumbent only ever comes from real leaves, so
        // nothing is pruned before the first leaf is priced.
        let tail = if abs < p {
            b.suffix_max[abs] / b.max_speed
        } else {
            0.0
        };
        let incumbent = f64::from_bits(shared.load(Ordering::Relaxed));
        if lb_partial.max(tail) > incumbent * PRUNE_SLACK {
            return;
        }
    }
    if abs == p {
        let t = ev.eval(assignment);
        if best.as_ref().is_none_or(|b| t < b.predicted) {
            *best = Some(Mapping {
                assignment: assignment.clone(),
                predicted: t,
                stats: SearchStats::default(),
            });
            atomic_min_f64(shared, t);
        }
        return;
    }
    for ci in 0..ctx.candidates.len() {
        if used[ci] {
            continue;
        }
        let w = ctx.candidates[ci];
        if abs == parent_abs {
            if let Some(pin) = ctx.pinned_parent {
                if w != pin {
                    continue;
                }
            }
        }
        let child_lb = match bound {
            Some(b) => lb_partial.max(b.units[abs] / ev.world_speed(w)),
            None => lb_partial,
        };
        used[ci] = true;
        assignment[abs] = w;
        bb_rec(
            abs + 1,
            p,
            parent_abs,
            ctx,
            assignment,
            used,
            ev,
            bound,
            child_lb,
            shared,
            best,
        );
        used[ci] = false;
    }
    assignment[abs] = usize::MAX;
}

/// Enumerates the feasible prefixes of the first `depth` abstract
/// processors in exactly the sequential DFS candidate order.
fn gen_prefixes(
    abs: usize,
    depth: usize,
    parent_abs: usize,
    ctx: &SelectionCtx<'_>,
    prefix: &mut Vec<usize>,
    used: &mut [bool],
    out: &mut Vec<Vec<usize>>,
) {
    if abs == depth {
        out.push(prefix.clone());
        return;
    }
    for ci in 0..ctx.candidates.len() {
        if used[ci] {
            continue;
        }
        let w = ctx.candidates[ci];
        if abs == parent_abs {
            if let Some(pin) = ctx.pinned_parent {
                if w != pin {
                    continue;
                }
            }
        }
        used[ci] = true;
        prefix.push(w);
        gen_prefixes(abs + 1, depth, parent_abs, ctx, prefix, used, out);
        prefix.pop();
        used[ci] = false;
    }
}

/// Searches the subtree under one prefix; returns its best mapping (or
/// `None` if the subtree was entirely pruned).
fn bb_search_prefix(
    prefix: &[usize],
    p: usize,
    parent_abs: usize,
    ctx: &SelectionCtx<'_>,
    ev: &mut Evaluator,
    bound: Option<&Bound>,
    shared: &AtomicU64,
) -> Option<Mapping> {
    let mut assignment = vec![usize::MAX; p];
    let mut used = vec![false; ctx.candidates.len()];
    let mut lb = 0.0f64;
    for (abs, &w) in prefix.iter().enumerate() {
        assignment[abs] = w;
        let ci = ctx
            .candidates
            .iter()
            .position(|&c| c == w)
            .expect("prefix drawn from candidates");
        used[ci] = true;
        if let Some(b) = bound {
            lb = lb.max(b.units[abs] / ev.world_speed(w));
        }
    }
    let mut best: Option<Mapping> = None;
    bb_rec(
        prefix.len(),
        p,
        parent_abs,
        ctx,
        &mut assignment,
        &mut used,
        ev,
        bound,
        lb,
        shared,
        &mut best,
    );
    best
}

/// Exact enumeration with branch-and-bound pruning and a deterministic
/// multi-threaded split of the search tree's first levels. Returns exactly
/// the mapping [`exhaustive_seq`] would: pruning is strict (`lb > best`,
/// with rounding headroom), so equal-valued leaves survive to the same
/// first-improver tie-break, and per-prefix results are merged in
/// sequential prefix order.
fn exhaustive_bb(
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    proto: &Evaluator,
) -> Mapping {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let bound = make_bound(proto, ctx, p);

    let depth = p.min(2);
    let mut prefixes: Vec<Vec<usize>> = Vec::new();
    {
        let mut used = vec![false; ctx.candidates.len()];
        let mut prefix = Vec::with_capacity(depth);
        gen_prefixes(0, depth, parent_abs, ctx, &mut prefix, &mut used, &mut prefixes);
    }

    let shared = AtomicU64::new(f64::INFINITY.to_bits());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(prefixes.len().max(1));

    let mut results: Vec<Option<Mapping>> = vec![None; prefixes.len()];
    let mut total = SearchStats::default();
    if threads <= 1 {
        let mut ev = proto.clone();
        for (slot, prefix) in results.iter_mut().zip(&prefixes) {
            *slot = bb_search_prefix(prefix, p, parent_abs, ctx, &mut ev, bound.as_ref(), &shared);
        }
        total = search_stats(&ev);
    } else {
        let prefixes = &prefixes;
        let shared = &shared;
        let bound = bound.as_ref();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let mut ev = proto.clone();
                    scope.spawn(move || {
                        let mut out: Vec<(usize, Option<Mapping>)> = Vec::new();
                        let mut i = tid;
                        while i < prefixes.len() {
                            out.push((
                                i,
                                bb_search_prefix(
                                    &prefixes[i],
                                    p,
                                    parent_abs,
                                    ctx,
                                    &mut ev,
                                    bound,
                                    shared,
                                ),
                            ));
                            i += threads;
                        }
                        (out, search_stats(&ev))
                    })
                })
                .collect();
            for h in handles {
                let (out, stats) = h.join().expect("search thread panicked");
                total.evals += stats.evals;
                total.probes += stats.probes;
                for (i, r) in out {
                    results[i] = r;
                }
            }
        });
    }

    let mut best: Option<Mapping> = None;
    for r in results.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| r.predicted < b.predicted) {
            best = Some(r);
        }
    }
    let mut best = best.expect("feasibility checked by caller");
    best.stats = total;
    best
}

/// Simulated annealing from a greedy start.
fn anneal(
    start: Vec<usize>,
    model: &dyn PerformanceModel,
    ctx: &SelectionCtx<'_>,
    obj: &mut dyn Objective,
    seed: u64,
    iters: usize,
) -> Mapping {
    let p = model.num_processors();
    let parent_abs = model.parent();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    let mut current_t = obj.rebase(&current);
    let mut best = Mapping {
        assignment: current.clone(),
        predicted: current_t,
        stats: SearchStats::default(),
    };

    let t0 = (current_t * 0.25).max(1e-9);
    for step in 0..iters {
        let temp = t0 * (1.0 - step as f64 / iters as f64).max(1e-3);
        let mut proposal = current.clone();

        let unused: Vec<usize> = ctx
            .candidates
            .iter()
            .copied()
            .filter(|w| !proposal.contains(w))
            .collect();
        let do_replace = !unused.is_empty() && rng.random_range(0..2) == 0;
        let mut changed = [0usize; 2];
        let changed: &[usize] = if do_replace {
            // Resample until the index is not the pinned parent: shifting
            // deterministically (the old `i + 1` trick) over-sampled the
            // parent's neighbour.
            if ctx.pinned_parent.is_some() && p == 1 {
                continue;
            }
            let i = loop {
                let i = rng.random_range(0..p);
                if ctx.pinned_parent.is_none() || i != parent_abs {
                    break i;
                }
            };
            proposal[i] = unused[rng.random_range(0..unused.len())];
            changed[0] = i;
            &changed[..1]
        } else {
            if p < 2 {
                continue;
            }
            let i = rng.random_range(0..p);
            let j = rng.random_range(0..p);
            if i == j {
                continue;
            }
            proposal.swap(i, j);
            if let Some(pin) = ctx.pinned_parent {
                if proposal[parent_abs] != pin {
                    continue;
                }
            }
            changed[0] = i;
            changed[1] = j;
            &changed[..2]
        };

        let t = obj.probe(&proposal, changed);
        let accept = t < current_t || {
            let delta = t - current_t;
            rng.random_range(0.0..1.0) < (-delta / temp).exp()
        };
        if accept {
            current = proposal;
            current_t = obj.rebase(&current);
            if current_t < best.predicted {
                best = Mapping {
                    assignment: current.clone(),
                    predicted: current_t,
                    stats: SearchStats::default(),
                };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::{ClusterBuilder, Link, Protocol};
    use perfmodel::ModelBuilder;

    fn paper_like_ctx<'a>(
        cluster: &'a Cluster,
        placement: &'a [NodeId],
        estimates: &'a SpeedEstimates,
    ) -> SelectionCtx<'a> {
        SelectionCtx {
            cluster,
            placement,
            estimates,
            candidates: (0..placement.len()).collect(),
            pinned_parent: Some(0),
        }
    }

    fn hetero_cluster() -> Cluster {
        ClusterBuilder::new()
            .node("a", 46.0)
            .node("b", 46.0)
            .node("c", 176.0)
            .node("d", 106.0)
            .node("e", 9.0)
            .all_to_all(Link::new(150e-6, 11e6, Protocol::Tcp))
            .build()
    }

    #[test]
    fn greedy_pairs_big_volume_with_fast_node() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        let model = ModelBuilder::new("t")
            .processors(3)
            .volumes(vec![10.0, 1000.0, 100.0])
            .build()
            .unwrap();
        let m = select_mapping(MappingAlgorithm::Greedy, &model, &ctx).unwrap();
        // Volumes sorted: abs1 (1000) -> node 2 (176), abs2 (100) -> node 3
        // (106), abs0 (10) -> node 0/1 (46).
        assert_eq!(m.assignment[1], 2);
        assert_eq!(m.assignment[2], 3);
        assert!(m.assignment[0] == 0 || m.assignment[0] == 1);
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = ModelBuilder::new("t")
            .processors(3)
            .volumes(vec![50.0, 500.0, 200.0])
            .comm_fn(|_, _| 1e6)
            .build()
            .unwrap();
        let g = select_mapping(MappingAlgorithm::Greedy, &model, &ctx).unwrap();
        let e = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        assert!(e.predicted <= g.predicted + 1e-12);
    }

    #[test]
    fn refined_matches_or_beats_greedy() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = ModelBuilder::new("t")
            .processors(4)
            .volumes(vec![300.0, 50.0, 500.0, 200.0])
            .comm_fn(|s, d| if s.abs_diff(d) == 1 { 5e6 } else { 0.0 })
            .build()
            .unwrap();
        let g = select_mapping(MappingAlgorithm::Greedy, &model, &ctx).unwrap();
        let r = select_mapping(MappingAlgorithm::default(), &model, &ctx).unwrap();
        let e = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        assert!(r.predicted <= g.predicted + 1e-12);
        assert!(e.predicted <= r.predicted + 1e-12);
        // On this instance local search should reach the optimum.
        assert!((r.predicted - e.predicted).abs() < 0.05 * e.predicted);
    }

    #[test]
    fn parent_stays_pinned() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est); // parent pinned to world 0
        let model = ModelBuilder::new("t")
            .processors(3)
            .volumes(vec![1000.0, 10.0, 10.0])
            .build()
            .unwrap();
        for algo in [
            MappingAlgorithm::Greedy,
            MappingAlgorithm::default(),
            MappingAlgorithm::Exhaustive,
            MappingAlgorithm::Annealing {
                seed: 42,
                iters: 200,
            },
        ] {
            let m = select_mapping(algo, &model, &ctx).unwrap();
            assert_eq!(m.assignment[0], 0, "{algo:?} must keep the parent pinned");
            let mut sorted = m.assignment.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "{algo:?} produced a non-injective mapping");
        }
    }

    #[test]
    fn infeasible_instances_error() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        let model = ModelBuilder::new("t").processors(6).build().unwrap();
        assert!(matches!(
            select_mapping(MappingAlgorithm::Greedy, &model, &ctx),
            Err(SelectError::NotEnoughProcesses { required: 6, .. })
        ));
        ctx.candidates = vec![1, 2];
        ctx.pinned_parent = Some(0);
        let small = ModelBuilder::new("t").processors(2).build().unwrap();
        assert!(matches!(
            select_mapping(MappingAlgorithm::Greedy, &small, &ctx),
            Err(SelectError::ParentNotCandidate { world_rank: 0 })
        ));
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = ModelBuilder::new("t")
            .processors(4)
            .volumes(vec![100.0, 200.0, 300.0, 400.0])
            .comm_fn(|_, _| 1e5)
            .build()
            .unwrap();
        let algo = MappingAlgorithm::Annealing {
            seed: 7,
            iters: 300,
        };
        let a = select_mapping(algo, &model, &ctx).unwrap();
        let b = select_mapping(algo, &model, &ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exhaustive_count_respects_cap() {
        assert_eq!(exhaustive_count(5, 3), 60);
        assert!(exhaustive_count(30, 15) > EXHAUSTIVE_CAP);
    }

    #[test]
    fn uses_fewer_processes_than_available_when_beneficial() {
        // One big task, five nodes: only the fastest should matter; the
        // mapping uses exactly p=1 process even though 5 are free.
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let mut ctx = paper_like_ctx(&c, &placement, &est);
        ctx.pinned_parent = None;
        let model = ModelBuilder::new("t")
            .processors(1)
            .volumes(vec![176.0])
            .build()
            .unwrap();
        let m = select_mapping(MappingAlgorithm::Exhaustive, &model, &ctx).unwrap();
        assert_eq!(m.assignment, vec![2]);
        assert!((m.predicted - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_model_that_never_evaluates_yields_a_typed_error() {
        struct Broken {
            vols: Vec<f64>,
            comm: Vec<Vec<f64>>,
        }
        impl perfmodel::PerformanceModel for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn num_processors(&self) -> usize {
                2
            }
            fn volumes(&self) -> &[f64] {
                &self.vols
            }
            fn comm_bytes(&self) -> &[Vec<f64>] {
                &self.comm
            }
            fn parent(&self) -> usize {
                0
            }
            fn run_scheme(
                &self,
                _sink: &mut dyn perfmodel::SchemeSink,
            ) -> Result<(), perfmodel::EvalError> {
                Err(perfmodel::EvalError::Undefined("boom".into()))
            }
        }
        let cluster = ClusterBuilder::new()
            .node("a", 10.0)
            .node("b", 20.0)
            .all_to_all(Link::new(1e-3, 1e6, Protocol::Tcp))
            .build();
        let placement: Vec<NodeId> = cluster.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&cluster);
        let ctx = paper_like_ctx(&cluster, &placement, &est);
        let model = Broken {
            vols: vec![1.0, 1.0],
            comm: vec![vec![0.0; 2]; 2],
        };
        for algo in [
            MappingAlgorithm::Greedy,
            MappingAlgorithm::Exhaustive,
            MappingAlgorithm::default(),
        ] {
            let e = select_mapping(algo, &model, &ctx).unwrap_err();
            assert!(matches!(e, SelectError::Eval(_)), "{algo:?}: {e}");
        }
    }

    #[test]
    fn engine_and_naive_paths_select_bit_identical_mappings() {
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let models = [
            ModelBuilder::new("compute")
                .processors(3)
                .volumes(vec![50.0, 500.0, 200.0])
                .comm_fn(|_, _| 1e6)
                .build()
                .unwrap(),
            ModelBuilder::new("chain")
                .processors(4)
                .volumes(vec![300.0, 50.0, 500.0, 200.0])
                .comm_fn(|s, d| if s.abs_diff(d) == 1 { 5e6 } else { 0.0 })
                .build()
                .unwrap(),
        ];
        for model in &models {
            for pinned in [Some(0), None] {
                let mut ctx = paper_like_ctx(&c, &placement, &est);
                ctx.pinned_parent = pinned;
                for algo in [
                    MappingAlgorithm::Greedy,
                    MappingAlgorithm::default(),
                    MappingAlgorithm::Exhaustive,
                    MappingAlgorithm::Annealing {
                        seed: 11,
                        iters: 400,
                    },
                ] {
                    let fast = select_mapping(algo, model, &ctx).unwrap();
                    let naive = select_mapping_naive(algo, model, &ctx).unwrap();
                    assert_eq!(fast.assignment, naive.assignment, "{algo:?} pinned={pinned:?}");
                    assert_eq!(
                        fast.predicted.to_bits(),
                        naive.predicted.to_bits(),
                        "{algo:?} pinned={pinned:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn annealing_replace_move_no_longer_skews_off_the_parent() {
        // p = 2 with the parent at abs 0: the old `i + 1` shift mapped a
        // draw of the parent index deterministically onto index 1, doubling
        // its proposal rate. With resampling both outcomes remain possible
        // and the search still respects the pin.
        let c = hetero_cluster();
        let placement: Vec<NodeId> = c.node_ids().collect();
        let est = SpeedEstimates::from_base_speeds(&c);
        let ctx = paper_like_ctx(&c, &placement, &est);
        let model = ModelBuilder::new("t")
            .processors(2)
            .volumes(vec![400.0, 100.0])
            .build()
            .unwrap();
        for seed in 0..8 {
            let m = select_mapping(
                MappingAlgorithm::Annealing { seed, iters: 300 },
                &model,
                &ctx,
            )
            .unwrap();
            assert_eq!(m.assignment[0], 0, "parent must stay pinned (seed {seed})");
            assert!(m.predicted.is_finite());
        }
    }
}
