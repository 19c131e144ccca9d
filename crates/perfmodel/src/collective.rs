//! Collective algorithm schedules and their pricing.
//!
//! The collective engine (DESIGN.md §10) expresses every collective
//! algorithm as a *schedule*: an ordered list of rounds, each round an
//! ordered list of point-to-point transfers. The same schedule drives two
//! consumers that must never disagree:
//!
//! * the **executor** in `mpisim`, which turns each transfer into an eager
//!   `post_bytes` / blocking `recv_bytes` pair on the collective plane, and
//! * the **pricer** here, which replays the rounds against a [`PairCost`]
//!   table to predict the collective's virtual time.
//!
//! The replay mirrors the transport exactly: within a round every rank
//! issues all of its sends first (each advancing the sender's clock by the
//! link latency, the eager injection overhead) and then merges the arrival
//! times of its receives. The transport's contention arbitration is
//! *endpoint-causal* — a sender grants a transfer against its own view of
//! the shared resource (NIC pair, bus, or intra-node memory bus) and the
//! receiver settles the stamped reservation against its own view at match
//! time — so each rank's state evolves only through its own program-order
//! actions. The replay keeps one clock and one resource frontier per rank
//! and performs the identical grant/settle arithmetic in schedule order,
//! which *is* each rank's program order; the prediction is therefore
//! bit-exact under every contention model, not just parallel links.
//!
//! Reduction schedules move **raw contributions** (or ascending partial
//! folds), never tree-shaped partial sums, so that every algorithm yields
//! the identical identity-seeded rank-ascending left fold — selection can
//! switch algorithms per call without perturbing floating-point results.

use crate::compile::PairCost;

/// Which collective a schedule implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// One-to-all broadcast (`MPI_Bcast`).
    Bcast,
    /// All-to-one reduction (`MPI_Reduce`).
    Reduce,
    /// All-to-all reduction (`MPI_Allreduce`).
    Allreduce,
    /// All-to-all gather with equal contributions (`MPI_Allgather`).
    Allgather,
}

impl CollectiveKind {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Allgather => "allgather",
        }
    }
}

/// A collective algorithm the engine can schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveAlgo {
    /// Flat root-fanout (or direct exchange): every transfer in one round.
    /// For [`FixedKind::Scan`] and [`FixedKind::Exscan`], the rank chain.
    Linear,
    /// Binomial tree: ⌈log₂ p⌉ rounds of doubling fan-out (bcast) or
    /// raw-contribution gather (reduce).
    Binomial,
    /// Pipelined chain: the payload is cut into p chunks that travel the
    /// rank-ascending chain hop by hop (and back, for allreduce).
    Ring,
    /// Recursive doubling: log₂ p rounds of pairwise block exchange.
    /// Eligible only when the communicator size is a power of two.
    RecursiveDoubling,
    /// Rabenseifner-style scatter-allgather: chunk scatter (or direct
    /// reduce-scatter) followed by an all-to-all chunk allgather.
    ScatterAllgather,
    /// A topology-aware multi-level plan from [`crate::hier::plan`]: one
    /// per-group algorithm per hierarchy level, crossing each expensive
    /// boundary once. Not a flat schedule — it is never [`eligible`] here
    /// and never appears in [`CollectiveAlgo::ALL`]; the engine reaches it
    /// only through hierarchy-aware auto-selection, and this variant names
    /// the choice in traces, predictions and bench output.
    Hierarchical,
}

impl CollectiveAlgo {
    /// Every *flat* algorithm, in selection tie-break order.
    /// [`CollectiveAlgo::Hierarchical`] is deliberately absent: it has no
    /// flat schedule and competes against the flat winner separately.
    pub const ALL: [CollectiveAlgo; 5] = [
        CollectiveAlgo::Linear,
        CollectiveAlgo::Binomial,
        CollectiveAlgo::Ring,
        CollectiveAlgo::RecursiveDoubling,
        CollectiveAlgo::ScatterAllgather,
    ];

    /// Stable lower-case label (used for trace spans and bench output).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Linear => "linear",
            CollectiveAlgo::Binomial => "binomial",
            CollectiveAlgo::Ring => "ring",
            CollectiveAlgo::RecursiveDoubling => "recursive-doubling",
            CollectiveAlgo::ScatterAllgather => "scatter-allgather",
            CollectiveAlgo::Hierarchical => "hierarchical",
        }
    }
}

/// One scheduled point-to-point transfer: `elems()` payload elements from
/// communicator rank `src` to rank `dst`.
///
/// For data-movement collectives `[lo, hi)` is the element range of the
/// logical payload buffer the transfer carries. Reduction schedules reuse
/// the range purely as an element *count* (`lo == 0`) where the payload is
/// a set of raw contributions rather than a buffer slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Xfer {
    /// Sending communicator rank.
    pub src: usize,
    /// Receiving communicator rank.
    pub dst: usize,
    /// First payload element (inclusive).
    pub lo: usize,
    /// Last payload element (exclusive).
    pub hi: usize,
}

impl Xfer {
    /// Payload size in elements.
    #[inline]
    pub fn elems(&self) -> usize {
        self.hi - self.lo
    }
}

/// How concurrent transfers share the network, mirroring hetsim's
/// `ContentionModel` without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkSharing {
    /// Every pair has a private link; transfers never contend.
    #[default]
    Parallel,
    /// One NIC per node: a node's transfers (in or out) serialise.
    PerEndpoint,
    /// One shared medium: every transfer serialises globally.
    Shared,
}

/// The balanced chunk decomposition every chunked schedule uses: chunk `i`
/// of an `n`-element payload cut into `parts` is `[i*n/parts, (i+1)*n/parts)`.
#[inline]
pub fn chunk_bounds(n: usize, parts: usize, i: usize) -> (usize, usize) {
    (i * n / parts, (i + 1) * n / parts)
}

/// Whether `algo` can run `kind` on a `p`-rank communicator.
///
/// A single rank degenerates every collective to a local operation, so only
/// [`CollectiveAlgo::Linear`] (an empty schedule) is offered. Recursive
/// doubling needs a power-of-two communicator; everything else is
/// unrestricted.
pub fn eligible(kind: CollectiveKind, algo: CollectiveAlgo, p: usize) -> bool {
    if algo == CollectiveAlgo::Hierarchical {
        // Not a flat schedule: produced only by `crate::hier::plan`.
        return false;
    }
    if p <= 1 {
        return algo == CollectiveAlgo::Linear;
    }
    match (kind, algo) {
        (CollectiveKind::Bcast, CollectiveAlgo::RecursiveDoubling) => false,
        (CollectiveKind::Reduce, CollectiveAlgo::Ring | CollectiveAlgo::RecursiveDoubling | CollectiveAlgo::ScatterAllgather) => false,
        (CollectiveKind::Allreduce | CollectiveKind::Allgather, CollectiveAlgo::RecursiveDoubling) => p.is_power_of_two(),
        (CollectiveKind::Allgather, CollectiveAlgo::Binomial | CollectiveAlgo::ScatterAllgather) => false,
        _ => true,
    }
}

/// The algorithms eligible for `kind` on a `p`-rank communicator, in
/// tie-break order.
pub fn algos_for(kind: CollectiveKind, p: usize) -> Vec<CollectiveAlgo> {
    CollectiveAlgo::ALL
        .into_iter()
        .filter(|&a| eligible(kind, a, p))
        .collect()
}

fn push(round: &mut Vec<Xfer>, src: usize, dst: usize, lo: usize, hi: usize) {
    if hi > lo && src != dst {
        round.push(Xfer { src, dst, lo, hi });
    }
}

/// The schedule of `algo` running `kind` over `p` ranks rooted at `root`
/// (ignored for rootless kinds) on an `n`-element payload; `None` if the
/// algorithm is not [`eligible`].
///
/// For [`CollectiveKind::Allgather`], `n` is the *total* output length
/// (`p` equal contributions of `n / p` elements each).
pub fn schedule(
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    p: usize,
    root: usize,
    n: usize,
) -> Option<Vec<Vec<Xfer>>> {
    if !eligible(kind, algo, p) || root >= p {
        return None;
    }
    if p <= 1 {
        return Some(Vec::new());
    }
    Some(match kind {
        CollectiveKind::Bcast => bcast_rounds(algo, p, root, n),
        CollectiveKind::Reduce => reduce_rounds(algo, p, root, n),
        CollectiveKind::Allreduce => allreduce_rounds(algo, p, n),
        CollectiveKind::Allgather => allgather_rounds(algo, p, n),
    })
}

/// A collective with exactly one schedule: the engine runs it whatever the
/// collective policy, and it never gets a hierarchical plan. These are the
/// `Comm` collectives whose receivers may not be told the counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FixedKind {
    /// Synchronisation (`MPI_Barrier`): empty messages up a binomial tree
    /// to rank 0, then down the [`FixedKind::Bcastv`] tree.
    Barrier,
    /// Broadcast whose non-roots learn the length from the message: the
    /// binomial tree in which a relative rank's parent clears its lowest
    /// set bit, fanning out largest subtree first.
    Bcastv,
    /// Gather of per-rank counts to a root (`MPI_Gatherv`), rank order.
    Gatherv,
    /// Scatter of per-rank counts from a root (`MPI_Scatterv`), rank order.
    Scatterv,
    /// Personalised all-to-all exchange (`MPI_Alltoallv`).
    Alltoallv,
    /// Inclusive prefix reduction (`MPI_Scan`) along the rank chain.
    Scan,
    /// Exclusive prefix reduction (`MPI_Exscan`) along the rank chain.
    Exscan,
}

impl FixedKind {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            FixedKind::Barrier => "barrier",
            FixedKind::Bcastv => "bcastv",
            FixedKind::Gatherv => "gatherv",
            FixedKind::Scatterv => "scatterv",
            FixedKind::Alltoallv => "alltoallv",
            FixedKind::Scan => "scan",
            FixedKind::Exscan => "exscan",
        }
    }

    /// The algorithm the one schedule is an instance of (for traces).
    pub fn algo(self) -> CollectiveAlgo {
        match self {
            FixedKind::Barrier | FixedKind::Bcastv => CollectiveAlgo::Binomial,
            _ => CollectiveAlgo::Linear,
        }
    }

    /// How many blocks the kind moves over `p` ranks (see
    /// [`FixedKind::schedule`]).
    pub fn blocks(self, p: usize) -> usize {
        match self {
            FixedKind::Barrier => 0,
            FixedKind::Bcastv | FixedKind::Scan | FixedKind::Exscan => 1,
            FixedKind::Gatherv | FixedKind::Scatterv => p,
            FixedKind::Alltoallv => p * p,
        }
    }

    /// The schedule over `p` ranks rooted at `root` (ignored by rootless
    /// kinds) for explicit block counts; `None` for a bad root or count
    /// arity (`counts.len()` must be [`FixedKind::blocks`]).
    ///
    /// Every transfer carries exactly one block, and `counts[b]` is block
    /// `b`'s element count: rank `b`'s contribution for gatherv, rank
    /// `b`'s part for scatterv, the block from rank `b / p` to rank
    /// `b % p` for alltoallv, and the single payload for bcastv, scan and
    /// exscan. A transfer's range is its block's place in the
    /// concatenation of all blocks; the barrier moves empty messages.
    ///
    /// Which ranks talk, and in what order, never depends on the counts,
    /// and empty blocks are still sent: the transport charges a
    /// zero-byte message its latency, and a rank that is not told a count
    /// can build the same schedule with a placeholder and take the length
    /// from the message.
    pub fn schedule(self, p: usize, root: usize, counts: &[usize]) -> Option<Vec<Vec<Xfer>>> {
        if root >= p || counts.len() != self.blocks(p) {
            return None;
        }
        let mut displ = Vec::with_capacity(counts.len() + 1);
        displ.push(0);
        for &c in counts {
            displ.push(displ[displ.len() - 1] + c);
        }
        let block = |src: usize, dst: usize, b: usize| Xfer {
            src,
            dst,
            lo: displ[b],
            hi: displ[b + 1],
        };
        let empty = |src: usize, dst: usize| Xfer {
            src,
            dst,
            lo: 0,
            hi: 0,
        };
        Some(match self {
            FixedKind::Barrier => {
                // Binomial fan-in: a rank whose lowest set bit is `mask`
                // reports to `rank - mask` once its subtree has.
                let mut rounds = Vec::new();
                let mut mask = 1;
                while mask < p {
                    let round = (mask..p).step_by(2 * mask).map(|r| empty(r, r - mask));
                    rounds.push(round.collect());
                    mask <<= 1;
                }
                rounds.extend(bcastv_rounds(p, 0, empty));
                rounds
            }
            FixedKind::Bcastv => bcastv_rounds(p, root, |src, dst| block(src, dst, 0)),
            FixedKind::Gatherv => vec![(0..p)
                .filter(|&src| src != root)
                .map(|src| block(src, root, src))
                .collect()],
            FixedKind::Scatterv => vec![(0..p)
                .filter(|&dst| dst != root)
                .map(|dst| block(root, dst, dst))
                .collect()],
            FixedKind::Alltoallv => vec![(0..p * p)
                .filter(|b| b / p != b % p)
                .map(|b| block(b / p, b % p, b))
                .collect()],
            FixedKind::Scan | FixedKind::Exscan => {
                (1..p).map(|dst| vec![block(dst - 1, dst, 0)]).collect()
            }
        })
    }
}

/// The [`FixedKind::Bcastv`] tree rooted at `root`: in the round of
/// mask `m` (highest first), every relative rank that is a multiple of
/// `2m` sends to relative rank `+ m`.
fn bcastv_rounds(p: usize, root: usize, xfer: impl Fn(usize, usize) -> Xfer) -> Vec<Vec<Xfer>> {
    let abs = |rel: usize| (rel + root) % p;
    let mut rounds = Vec::new();
    let mut mask = p.next_power_of_two() >> 1;
    while mask > 0 {
        rounds.push(
            (0..p)
                .step_by(2 * mask)
                .filter(|rel| rel + mask < p)
                .map(|rel| xfer(abs(rel), abs(rel + mask)))
                .collect(),
        );
        mask >>= 1;
    }
    rounds
}

fn bcast_rounds(algo: CollectiveAlgo, p: usize, root: usize, n: usize) -> Vec<Vec<Xfer>> {
    let abs = |rel: usize| (rel + root) % p;
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => {
            let mut r0 = Vec::new();
            for dst in 0..p {
                if dst != root {
                    push(&mut r0, root, dst, 0, n);
                }
            }
            rounds.push(r0);
        }
        CollectiveAlgo::Binomial => {
            let mut span = 1;
            while span < p {
                let mut round = Vec::new();
                for rel_src in 0..span {
                    let rel_dst = rel_src + span;
                    if rel_dst < p {
                        push(&mut round, abs(rel_src), abs(rel_dst), 0, n);
                    }
                }
                rounds.push(round);
                span <<= 1;
            }
        }
        CollectiveAlgo::Ring => {
            // Pipelined chain: chunk c leaves chain position r in round c+r.
            let nchunks = p;
            for t in 0..nchunks + p - 2 {
                let mut round = Vec::new();
                for rel in 0..p - 1 {
                    if let Some(c) = t.checked_sub(rel) {
                        if c < nchunks {
                            let (lo, hi) = chunk_bounds(n, nchunks, c);
                            push(&mut round, abs(rel), abs(rel + 1), lo, hi);
                        }
                    }
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::ScatterAllgather => {
            // Chunk i belongs to absolute rank i. Scatter, then direct
            // all-to-all allgather of the chunks.
            let mut r0 = Vec::new();
            for i in 0..p {
                if i != root {
                    let (lo, hi) = chunk_bounds(n, p, i);
                    push(&mut r0, root, i, lo, hi);
                }
            }
            rounds.push(r0);
            let mut r1 = Vec::new();
            for src in 0..p {
                let (lo, hi) = chunk_bounds(n, p, src);
                for dst in 0..p {
                    if dst != src {
                        push(&mut r1, src, dst, lo, hi);
                    }
                }
            }
            rounds.push(r1);
        }
        CollectiveAlgo::RecursiveDoubling | CollectiveAlgo::Hierarchical => {
            unreachable!("ineligible")
        }
    }
    rounds
}

fn reduce_rounds(algo: CollectiveAlgo, p: usize, root: usize, n: usize) -> Vec<Vec<Xfer>> {
    let abs = |rel: usize| (rel + root) % p;
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => {
            let mut r0 = Vec::new();
            for src in 0..p {
                if src != root {
                    push(&mut r0, src, root, 0, n);
                }
            }
            rounds.push(r0);
        }
        CollectiveAlgo::Binomial => {
            // Raw-contribution gather up the binomial tree: the sender at
            // distance `span` forwards every contribution its subtree holds,
            // so the root can fold in ascending rank order.
            let mut span = 1;
            while span < p {
                let mut round = Vec::new();
                let mut rel = span;
                while rel < p {
                    let held = span.min(p - rel);
                    push(&mut round, abs(rel), abs(rel - span), 0, held * n);
                    rel += span * 2;
                }
                rounds.push(round);
                span <<= 1;
            }
        }
        _ => unreachable!("ineligible"),
    }
    rounds
}

fn allgather_rounds(algo: CollectiveAlgo, p: usize, n: usize) -> Vec<Vec<Xfer>> {
    let mut rounds = Vec::new();
    match algo {
        CollectiveAlgo::Linear => {
            let mut r0 = Vec::new();
            for src in 0..p {
                let (lo, hi) = chunk_bounds(n, p, src);
                for dst in 0..p {
                    if dst != src {
                        push(&mut r0, src, dst, lo, hi);
                    }
                }
            }
            rounds.push(r0);
        }
        CollectiveAlgo::Ring => {
            for t in 0..p - 1 {
                let mut round = Vec::new();
                for r in 0..p {
                    let c = (r + p - t) % p;
                    let (lo, hi) = chunk_bounds(n, p, c);
                    push(&mut round, r, (r + 1) % p, lo, hi);
                }
                rounds.push(round);
            }
        }
        CollectiveAlgo::RecursiveDoubling => {
            let mut span = 1;
            while span < p {
                let mut round = Vec::new();
                for r in 0..p {
                    let partner = r ^ span;
                    let start = r & !(span - 1);
                    let lo = chunk_bounds(n, p, start).0;
                    let hi = chunk_bounds(n, p, start + span - 1).1;
                    push(&mut round, r, partner, lo, hi);
                }
                rounds.push(round);
                span <<= 1;
            }
        }
        _ => unreachable!("ineligible"),
    }
    rounds
}

fn allreduce_rounds(algo: CollectiveAlgo, p: usize, n: usize) -> Vec<Vec<Xfer>> {
    match algo {
        CollectiveAlgo::Linear | CollectiveAlgo::Binomial => {
            let mut rounds = reduce_rounds(algo, p, 0, n);
            rounds.extend(bcast_rounds(algo, p, 0, n));
            rounds
        }
        CollectiveAlgo::Ring => {
            // Forward: partial folds travel the ascending chain chunk by
            // chunk; backward: finished chunks travel the chain in reverse.
            // Both directions pipeline through shared global rounds so that
            // the tail rank turns each chunk around one round after it
            // completes it.
            let nchunks = p;
            let mut rounds = Vec::new();
            for g in 0..nchunks + 2 * p - 3 {
                let mut round = Vec::new();
                for r in 0..p - 1 {
                    if let Some(c) = g.checked_sub(r) {
                        if c < nchunks {
                            let (lo, hi) = chunk_bounds(n, nchunks, c);
                            push(&mut round, r, r + 1, lo, hi);
                        }
                    }
                }
                for r in 1..p {
                    if let Some(c) = (g + r).checked_sub(2 * (p - 1)) {
                        if c < nchunks {
                            let (lo, hi) = chunk_bounds(n, nchunks, c);
                            push(&mut round, r, r - 1, lo, hi);
                        }
                    }
                }
                rounds.push(round);
            }
            rounds
        }
        CollectiveAlgo::RecursiveDoubling => {
            // Doubling gather of raw contributions: round k exchanges the
            // 2^k contributions each partner holds, so the payload doubles
            // every round and each rank folds all p contributions locally.
            let mut rounds = Vec::new();
            let mut span = 1;
            while span < p {
                let mut round = Vec::new();
                for r in 0..p {
                    push(&mut round, r, r ^ span, 0, span * n);
                }
                rounds.push(round);
                span <<= 1;
            }
            rounds
        }
        CollectiveAlgo::ScatterAllgather => {
            // Direct reduce-scatter of raw chunks (rank j owns chunk j and
            // folds every rank's copy of it), then a direct allgather of the
            // reduced chunks.
            let mut r0 = Vec::new();
            for src in 0..p {
                for dst in 0..p {
                    if dst != src {
                        let (lo, hi) = chunk_bounds(n, p, dst);
                        push(&mut r0, src, dst, lo, hi);
                    }
                }
            }
            let mut r1 = Vec::new();
            for src in 0..p {
                let (lo, hi) = chunk_bounds(n, p, src);
                for dst in 0..p {
                    if dst != src {
                        push(&mut r1, src, dst, lo, hi);
                    }
                }
            }
            vec![r0, r1]
        }
        CollectiveAlgo::Hierarchical => unreachable!("ineligible"),
    }
}

/// Predicts the engine's fault surface for a schedule: which ranks complete
/// and which abort, when the ranks in `failed` are fail-stopped for the
/// whole run (the crash-before-collective case).
///
/// Returns one entry per schedule rank: `None` — the rank completes with
/// the full, correct result; `Some(b)` — the rank aborts blaming rank `b`
/// (a failed rank blames itself). The replay mirrors the executor's fault
/// propagation exactly:
///
/// * within a round every rank issues its sends in schedule order, then
///   completes its receives in schedule order;
/// * a send to a dead rank aborts the sender, blaming the dead rank;
/// * a receive from a dead rank aborts the receiver, blaming the dead rank;
/// * a rank that aborts stops at its first failing transfer and *poisons*
///   the rest of its scheduled sends, so a receive of a poisoned transfer
///   aborts the receiver with the same blame — faults propagate along
///   schedule edges, transitively, in deterministic schedule order.
///
/// Ranks are schedule (communicator) ranks throughout; callers working in
/// world-rank space translate on the way in and out.
pub fn fault_impact(rounds: &[Vec<Xfer>], p: usize, failed: &[usize]) -> Vec<Option<usize>> {
    let mut blame: Vec<Option<usize>> = vec![None; p];
    let mut dead = vec![false; p];
    for &f in failed {
        if f < p {
            dead[f] = true;
            blame[f] = Some(f);
        }
    }
    for round in rounds {
        // Send phase: what each transfer of this round carries — `None` for
        // data, `Some(b)` for poison (or, for a dead sender, the abort its
        // receiver's failure detector will raise).
        let payload: Vec<Option<usize>> = round
            .iter()
            .map(|x| {
                if let Some(b) = blame[x.src] {
                    Some(b)
                } else if dead[x.dst] {
                    // The send itself fails; the sender aborts here and
                    // poisons everything after this edge.
                    blame[x.src] = Some(x.dst);
                    Some(x.dst)
                } else {
                    None
                }
            })
            .collect();
        // Receive phase: a rank stops at its first failing receive.
        for (x, carried) in round.iter().zip(&payload) {
            if blame[x.dst].is_none() {
                if let Some(b) = carried {
                    blame[x.dst] = Some(*b);
                }
            }
        }
    }
    blame
}

/// A shared resource a stamped reservation occupies, by node index.
#[derive(Clone, Copy, Debug)]
enum PriceRes {
    Nic { src: usize, dst: usize },
    Bus,
    Mem { node: usize },
}

/// One rank's private view of the shared resources — the pricer's mirror
/// of the transport's per-rank `NetFrontier`.
#[derive(Clone, Debug)]
struct PriceFrontier {
    nic: Vec<f64>,
    bus: f64,
    mem: Vec<f64>,
}

impl PriceFrontier {
    fn new(n_nodes: usize) -> Self {
        PriceFrontier {
            nic: vec![0.0; n_nodes],
            bus: 0.0,
            mem: vec![0.0; n_nodes],
        }
    }

    fn occupy(&mut self, res: PriceRes, until: f64) {
        match res {
            PriceRes::Nic { src, dst } => {
                self.nic[src] = until;
                self.nic[dst] = until;
            }
            PriceRes::Bus => self.bus = until,
            PriceRes::Mem { node } => self.mem[node] = until,
        }
    }
}

/// A transfer granted by its sender, awaiting receiver-side settlement:
/// either an uncontended arrival or a stamped reservation.
#[derive(Clone, Copy, Debug)]
enum Pending {
    Plain(f64),
    Stamp { start: f64, total: f64, res: PriceRes },
}

/// Replays a schedule against a [`PairCost`] table and returns the predicted
/// completion time (seconds): the maximum rank clock after the last round.
///
/// `elem_bytes` converts element counts to wire bytes. The replay performs
/// the transport's exact endpoint-causal arbitration: each send charges the
/// link latency on the sender's clock (eager injection) and *grants* the
/// transfer against the sender's own resource frontier; each receive
/// *settles* the stamped reservation against the receiver's own frontier
/// and merges the settled arrival. Within a round every rank's sends run
/// before its receives, matching the executor's program order, so the
/// prediction is bit-exact under every contention model. Ranks sharing a
/// host ([`PairCost::node_of`]) contend for that node's NIC and, when the
/// pair table prices one, its memory bus.
pub fn price(
    p: usize,
    rounds: &[Vec<Xfer>],
    elem_bytes: f64,
    cost: &impl PairCost,
    sharing: LinkSharing,
) -> f64 {
    let nodes: Vec<usize> = (0..p).map(|r| cost.node_of(r)).collect();
    let n_nodes = nodes.iter().max().map_or(0, |m| m + 1);
    let mut clocks = vec![0.0f64; p];
    let mut frontiers: Vec<PriceFrontier> = vec![PriceFrontier::new(n_nodes); p];
    let mut pending: Vec<(usize, Pending)> = Vec::new();
    for round in rounds {
        pending.clear();
        for x in round {
            let lat = cost.latency(x.src, x.dst);
            let bw = cost.bandwidth(x.src, x.dst);
            let bytes = x.elems() as f64 * elem_bytes;
            // Mirrors `Link::transfer_time`: an infinite-bandwidth link
            // costs its latency alone.
            let total = if bw > 0.0 && bw.is_finite() {
                lat + bytes / bw
            } else {
                lat
            };
            let now = clocks[x.src];
            let (ns, nd) = (nodes[x.src], nodes[x.dst]);
            let f = &mut frontiers[x.src];
            let sent = if total <= 0.0 {
                Pending::Plain(now)
            } else if ns == nd {
                // Same host: the intra-node memory bus, under any sharing
                // model (a positive same-host cost means one is priced).
                let start = now.max(f.mem[ns]);
                let res = PriceRes::Mem { node: ns };
                f.occupy(res, start + total);
                Pending::Stamp { start, total, res }
            } else {
                match sharing {
                    LinkSharing::Parallel => Pending::Plain(now + total),
                    LinkSharing::PerEndpoint => {
                        let start = now.max(f.nic[ns]).max(f.nic[nd]);
                        let res = PriceRes::Nic { src: ns, dst: nd };
                        f.occupy(res, start + total);
                        Pending::Stamp { start, total, res }
                    }
                    LinkSharing::Shared => {
                        let start = now.max(f.bus);
                        let res = PriceRes::Bus;
                        f.occupy(res, start + total);
                        Pending::Stamp { start, total, res }
                    }
                }
            };
            clocks[x.src] = now + lat;
            pending.push((x.dst, sent));
        }
        for &(dst, sent) in &pending {
            let arrival = match sent {
                Pending::Plain(a) => a,
                Pending::Stamp { start, total, res } => {
                    let f = &mut frontiers[dst];
                    let floor = match res {
                        PriceRes::Nic { src, dst } => f.nic[src].max(f.nic[dst]),
                        PriceRes::Bus => f.bus,
                        PriceRes::Mem { node } => f.mem[node],
                    };
                    let a = start.max(floor) + total;
                    f.occupy(res, a);
                    a
                }
            };
            if arrival > clocks[dst] {
                clocks[dst] = arrival;
            }
        }
    }
    clocks.iter().copied().fold(0.0, f64::max)
}

/// Prices every eligible algorithm and returns the predicted-cheapest one
/// with its predicted time. Ties break toward the earlier entry of
/// [`CollectiveAlgo::ALL`], so selection is deterministic — every rank that
/// evaluates the same inputs picks the same algorithm.
///
/// # Panics
/// Panics if `root >= p` (no schedule exists for an out-of-range root);
/// callers with user-supplied roots must validate at their API boundary —
/// the mpisim engine returns `MpiError::InvalidRank` before reaching here.
pub fn select(
    kind: CollectiveKind,
    p: usize,
    root: usize,
    n: usize,
    elem_bytes: f64,
    cost: &impl PairCost,
    sharing: LinkSharing,
) -> (CollectiveAlgo, f64) {
    assert!(root < p, "select: root {root} outside 0..{p}");
    let mut best: Option<(CollectiveAlgo, f64)> = None;
    for algo in algos_for(kind, p) {
        let rounds = schedule(kind, algo, p, root, n).expect("eligible algorithm");
        let t = price(p, &rounds, elem_bytes, cost, sharing);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((algo, t));
        }
    }
    best.expect("Linear is always eligible")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform test network: every pair `lat` seconds away at `bw` B/s.
    struct Uniform {
        lat: f64,
        bw: f64,
    }

    impl PairCost for Uniform {
        fn speed(&self, _p: usize) -> f64 {
            1.0
        }
        fn latency(&self, _s: usize, _d: usize) -> f64 {
            self.lat
        }
        fn bandwidth(&self, _s: usize, _d: usize) -> f64 {
            self.bw
        }
    }

    const TCP: Uniform = Uniform {
        lat: 1.5e-4,
        bw: 11e6,
    };

    /// Replays a data-movement schedule symbolically: every rank's set of
    /// owned element intervals, starting from `init`, must cover `[0, n)`
    /// everywhere at the end. A transfer of elements the sender does not yet
    /// own is a schedule bug.
    fn check_coverage(n: usize, rounds: &[Vec<Xfer>], init: Vec<Vec<(usize, usize)>>) {
        let mut owned = init;
        for round in rounds {
            let snapshot = owned.clone();
            for x in round {
                assert!(
                    snapshot[x.src]
                        .iter()
                        .any(|&(lo, hi)| lo <= x.lo && x.hi <= hi),
                    "rank {} sends [{}, {}) it does not own",
                    x.src,
                    x.lo,
                    x.hi
                );
                owned[x.dst].push((x.lo, x.hi));
            }
            // Coalesce so later rounds can send merged ranges.
            for set in &mut owned {
                set.sort_unstable();
                let mut merged: Vec<(usize, usize)> = Vec::new();
                for &(lo, hi) in set.iter() {
                    match merged.last_mut() {
                        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                        _ => merged.push((lo, hi)),
                    }
                }
                *set = merged;
            }
        }
        for (r, set) in owned.iter().enumerate() {
            assert_eq!(set, &vec![(0, n)], "rank {r} did not end with [0, {n})");
        }
    }

    #[test]
    fn bcast_schedules_deliver_everything() {
        for p in [2, 3, 5, 8, 9] {
            for root in [0, p - 1, p / 2] {
                for algo in algos_for(CollectiveKind::Bcast, p) {
                    let n = 40;
                    let rounds = schedule(CollectiveKind::Bcast, algo, p, root, n).unwrap();
                    let mut init = vec![Vec::new(); p];
                    init[root].push((0, n));
                    check_coverage(n, &rounds, init);
                }
            }
        }
    }

    #[test]
    fn allgather_schedules_deliver_everything() {
        for p in [2, 3, 4, 8, 9] {
            for algo in algos_for(CollectiveKind::Allgather, p) {
                let n = 4 * p;
                let rounds = schedule(CollectiveKind::Allgather, algo, p, 0, n).unwrap();
                let init = (0..p)
                    .map(|r| vec![chunk_bounds(n, p, r)])
                    .collect();
                check_coverage(n, &rounds, init);
            }
        }
    }

    #[test]
    fn reduce_schedules_carry_every_contribution_to_root() {
        // Raw-gather reduces: the total element count entering the root must
        // be exactly (p - 1) * n — one full contribution per non-root rank.
        for p in [2, 3, 5, 8, 9] {
            for root in [0, p - 1] {
                for algo in algos_for(CollectiveKind::Reduce, p) {
                    let n = 7;
                    let rounds = schedule(CollectiveKind::Reduce, algo, p, root, n).unwrap();
                    let into_root: usize = rounds
                        .iter()
                        .flatten()
                        .filter(|x| x.dst == root)
                        .map(Xfer::elems)
                        .sum();
                    assert_eq!(into_root, (p - 1) * n, "{} p={p} root={root}", algo.name());
                }
            }
        }
    }

    #[test]
    fn recursive_doubling_requires_power_of_two() {
        assert!(eligible(
            CollectiveKind::Allreduce,
            CollectiveAlgo::RecursiveDoubling,
            8
        ));
        assert!(!eligible(
            CollectiveKind::Allreduce,
            CollectiveAlgo::RecursiveDoubling,
            9
        ));
        assert!(schedule(CollectiveKind::Allreduce, CollectiveAlgo::RecursiveDoubling, 9, 0, 4)
            .is_none());
    }

    #[test]
    fn single_rank_offers_only_an_empty_linear_schedule() {
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            assert_eq!(algos_for(kind, 1), vec![CollectiveAlgo::Linear]);
            assert!(schedule(kind, CollectiveAlgo::Linear, 1, 0, 10)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn binomial_bcast_wins_small_linear_loses_latency() {
        // 1 element over 9 ranks: the linear root pays 8 serial injection
        // latencies; the binomial critical path is 4 rounds.
        let (p, n) = (9, 1);
        let lin = price(
            p,
            &schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        let bin = price(
            p,
            &schedule(CollectiveKind::Bcast, CollectiveAlgo::Binomial, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        assert!(bin < lin, "binomial {bin} vs linear {lin}");
        let (chosen, _) = select(CollectiveKind::Bcast, p, 0, n, 8.0, &TCP, LinkSharing::Parallel);
        assert_eq!(chosen, CollectiveAlgo::Binomial);
    }

    #[test]
    fn scatter_allgather_bcast_wins_large_under_parallel_links() {
        // 64 KiB over 9 ranks: two chunk-sized wire times beat one full-size
        // wire time plus the fan-out, and beat four full-size tree hops.
        let (p, n) = (9, 8192); // 8192 f64 = 64 KiB
        let prices: Vec<(CollectiveAlgo, f64)> = algos_for(CollectiveKind::Bcast, p)
            .into_iter()
            .map(|a| {
                let r = schedule(CollectiveKind::Bcast, a, p, 0, n).unwrap();
                (a, price(p, &r, 8.0, &TCP, LinkSharing::Parallel))
            })
            .collect();
        let linear = prices
            .iter()
            .find(|(a, _)| *a == CollectiveAlgo::Linear)
            .unwrap()
            .1;
        let (chosen, t) = select(CollectiveKind::Bcast, p, 0, n, 8.0, &TCP, LinkSharing::Parallel);
        assert_eq!(chosen, CollectiveAlgo::ScatterAllgather, "{prices:?}");
        assert!(t < linear, "selector {t} must beat linear {linear}");
    }

    #[test]
    fn selector_beats_linear_allreduce_at_large_sizes() {
        let (p, n) = (9, 8192);
        let lin = price(
            p,
            &schedule(CollectiveKind::Allreduce, CollectiveAlgo::Linear, p, 0, n).unwrap(),
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        let (chosen, t) = select(
            CollectiveKind::Allreduce,
            p,
            0,
            n,
            8.0,
            &TCP,
            LinkSharing::Parallel,
        );
        assert!(t < lin, "selector {t} ({}) must beat linear {lin}", chosen.name());
    }

    #[test]
    fn serialized_nic_changes_the_ranking() {
        // Under parallel links the root's sends all overlap, so the flat
        // linear bcast finishes in roughly one transfer time and beats the
        // binomial tree's log-p sequential stages. Per-endpoint
        // serialisation reverses that: every linear transfer queues on the
        // root's NIC (p-1 back-to-back bandwidth terms) while the binomial
        // tree spreads its sends over distinct endpoints. The pricer must
        // see the flip.
        let (p, n) = (9, 8192);
        let at = |algo, sharing| {
            price(
                p,
                &schedule(CollectiveKind::Bcast, algo, p, 0, n).unwrap(),
                8.0,
                &TCP,
                sharing,
            )
        };
        let lin_par = at(CollectiveAlgo::Linear, LinkSharing::Parallel);
        let bin_par = at(CollectiveAlgo::Binomial, LinkSharing::Parallel);
        let lin_nic = at(CollectiveAlgo::Linear, LinkSharing::PerEndpoint);
        let bin_nic = at(CollectiveAlgo::Binomial, LinkSharing::PerEndpoint);
        assert!(
            lin_par < bin_par,
            "parallel links: overlapped linear {lin_par} should beat binomial {bin_par}"
        );
        assert!(
            bin_nic < lin_nic,
            "serialised NICs: binomial {bin_nic} should beat root-bound linear {lin_nic}"
        );
        // Contention never makes anything cheaper.
        assert!(lin_par <= lin_nic && bin_par <= bin_nic);
    }

    #[test]
    fn empty_payload_prices_to_pure_latency_or_zero() {
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::ScatterAllgather, 4, 0, 0)
            .unwrap();
        assert!(rounds.iter().all(Vec::is_empty), "no transfers for n = 0");
        assert_eq!(price(4, &rounds, 8.0, &TCP, LinkSharing::Parallel), 0.0);
    }

    #[test]
    fn ring_allreduce_rounds_pipeline_both_directions() {
        // p = 3, chunked into 3: the backward phase must start before the
        // forward phase has drained (pipelining), and every rank other than
        // the tail must receive every finished chunk.
        let p = 3;
        let n = 6;
        let rounds = schedule(CollectiveKind::Allreduce, CollectiveAlgo::Ring, p, 0, n).unwrap();
        let backward_first = rounds
            .iter()
            .position(|r| r.iter().any(|x| x.dst < x.src))
            .unwrap();
        let forward_last = rounds
            .iter()
            .rposition(|r| r.iter().any(|x| x.dst > x.src))
            .unwrap();
        assert!(
            backward_first <= forward_last,
            "backward starts at {backward_first}, forward ends at {forward_last}"
        );
        for r in 0..p - 1 {
            let got: usize = rounds
                .iter()
                .flatten()
                .filter(|x| x.dst == r && x.src == r + 1)
                .map(Xfer::elems)
                .sum();
            assert_eq!(got, n, "rank {r} must receive all finished chunks");
        }
    }

    #[test]
    fn fault_impact_is_empty_without_faults() {
        for kind in [
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
        ] {
            for p in [2, 4, 5] {
                for algo in algos_for(kind, p) {
                    let rounds = schedule(kind, algo, p, 0, 16).unwrap();
                    assert_eq!(fault_impact(&rounds, p, &[]), vec![None; p]);
                }
            }
        }
    }

    #[test]
    fn fault_impact_linear_bcast_root_death_reaches_everyone() {
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, 4, 0, 8).unwrap();
        assert_eq!(
            fault_impact(&rounds, 4, &[0]),
            vec![Some(0), Some(0), Some(0), Some(0)]
        );
    }

    #[test]
    fn fault_impact_linear_bcast_leaf_death_is_contained() {
        // A dead leaf aborts only the root (its send to the leaf fails);
        // the root sends to ranks 1 and 2 first, so they still get data.
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Linear, 4, 0, 8).unwrap();
        assert_eq!(
            fault_impact(&rounds, 4, &[3]),
            vec![Some(3), None, None, Some(3)]
        );
    }

    #[test]
    fn fault_impact_binomial_bcast_blames_along_tree_edges() {
        // Binomial bcast over 8 ranks rooted at 0. Rank 1 is the root's
        // round-1 child, so the root aborts at its very first send and
        // every later tree edge carries poison: the whole tree blames the
        // dead rank. Kill a late leaf (rank 7, fed by 3 in the last round)
        // instead and everyone else finishes.
        let p = 8;
        let rounds = schedule(CollectiveKind::Bcast, CollectiveAlgo::Binomial, p, 0, 8).unwrap();
        assert_eq!(fault_impact(&rounds, p, &[1]), vec![Some(1); p]);
        let impact = fault_impact(&rounds, p, &[7]);
        assert_eq!(impact[7], Some(7));
        assert_eq!(impact[3], Some(7), "rank 7's parent aborts at its send");
        for r in [0, 1, 2, 4, 5, 6] {
            assert_eq!(impact[r], None, "rank {r} is off the failed path");
        }
    }

    #[test]
    fn fault_impact_ring_allreduce_poison_reaches_all_survivors() {
        // The ring's data dependencies pass through every rank, so one
        // death eventually aborts every survivor with the same blame.
        let p = 5;
        let rounds = schedule(CollectiveKind::Allreduce, CollectiveAlgo::Ring, p, 0, 10).unwrap();
        let impact = fault_impact(&rounds, p, &[2]);
        assert_eq!(impact, vec![Some(2); p]);
    }
}

