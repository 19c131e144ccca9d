//! The collective algorithm engine: every `Comm` collective, schedule-driven,
//! with cost-model selection where there is a choice of algorithm.
//!
//! Every collective here executes a [`perfmodel::collective`] *schedule* —
//! an ordered list of rounds of point-to-point transfers — through one
//! executor (`run_schedule`) over the same eager transport
//! ([`Comm::post_bytes`] / [`Comm::recv_bytes`]) the rest of mpisim uses, on
//! the communicator's collective plane. The [`CollectiveKind`]s choose an
//! algorithm per call; the [`FixedKind`]s (barrier, the `Vec` broadcast,
//! gather, scatter, alltoall, scan, exscan) have exactly one schedule, whose
//! block counts a receiver may learn from the message. That buys three
//! properties for free:
//!
//! * **a fault contract** — under fail-stop faults every surviving member
//!   returns either the *complete, correct* result or a typed
//!   [`MpiError::NodeFailed`]; never a torn buffer and never a hang.
//!   Faults propagate *along schedule edges*: a receive aborts only when
//!   its specific scheduled sender is dead, and a
//!   rank that aborts mid-schedule first *poisons* every scheduled transfer
//!   it has not yet sent (a [`TAG_POISON`] message naming the failed world
//!   rank), so downstream ranks fail fast with the same root cause instead
//!   of blocking on a live-but-aborted peer. The whole error surface is a
//!   deterministic function of the fault plan — same seed, same survivor
//!   set — and is predicted offline by [`perfmodel::collective::fault_impact`];
//! * **tracing** — the inner sends/receives appear in the virtual-time
//!   trace, and the engine wraps each call in a [`TraceKind::Collective`]
//!   span named after the algorithm that ran;
//! * **prediction parity** — [`perfmodel::collective::price`] replays the
//!   identical schedule against the cluster's link table, so `timeof`-style
//!   predictions see exactly the communication the network will execute
//!   (bit-exact under every contention model — the replay mirrors the
//!   transport's endpoint-causal grant/settle arbitration; see DESIGN.md
//!   §10 and §14).
//!
//! Selection ([`CollectivePolicy::Auto`], the default) prices every eligible
//! algorithm per call from the message size, communicator size and the
//! hetsim link table, and runs the predicted-cheapest. All selection inputs
//! are rank-independent, so every member picks the same algorithm without
//! any agreement traffic. The fixed kinds ignore the policy: a universe
//! pinned to, say, [`CollectiveAlgo::Ring`] still synchronises with the
//! barrier's binomial schedule.
//!
//! Reduction collectives preserve a **fixed deterministic fold order**
//! regardless of algorithm: the result element `i` is always the
//! identity-seeded left fold of contribution element `i` over ranks in
//! ascending communicator-rank order. Schedules therefore move raw
//! contributions (or ascending-prefix partial folds), never tree-shaped
//! partials, and switching algorithms never changes a single result bit.

use crate::comm::Comm;
use crate::datatype::{decode, decode_into, encode, MpiType};
use crate::error::{MpiError, MpiResult};
use crate::op::ReduceOp;
use std::cell::Cell;
use std::collections::BTreeMap;
use hetsim::trace::{TraceEvent, TraceKind};
use hetsim::{ContentionModel, NodeId, PairTable, SimTime};
use perfmodel::collective::{
    chunk_bounds, eligible, price, schedule, select, CollectiveAlgo, CollectiveKind, FixedKind,
    LinkSharing, Xfer,
};
use perfmodel::{hier_plan, GatherXfer, HierPlan, PairCost, RankTopology};

/// Tag used by every engine-scheduled transfer. A single tag suffices:
/// transfers ride the communicator's collective plane, where the per-pair
/// FIFO (non-overtaking) guarantee plus the schedules' fixed per-pair send
/// order make matching unambiguous.
pub(crate) const TAG_COLL: i32 = 9;

/// Tag of a *poison* message: a rank aborting out of a schedule posts one of
/// these in place of every scheduled transfer it will no longer send. The
/// payload is the world rank of the failed node being blamed (one `i64`).
/// Because each scheduled edge carries exactly one message — data or poison
/// — the collective plane stays balanced and per-pair FIFO keeps matching
/// unambiguous.
pub(crate) const TAG_POISON: i32 = 10;

/// The world rank an engine collective should propagate blame for, if the
/// error is a fail-stop fault. Non-fault errors (count mismatches, link
/// drops) are not poisoned: their stuck peers are resolved by the
/// quiescence detector instead.
fn fault_blame(e: &MpiError) -> Option<usize> {
    match *e {
        MpiError::NodeFailed { world_rank } | MpiError::PeerTerminated { world_rank } => {
            Some(world_rank)
        }
        _ => None,
    }
}

/// What a [`FixedKind`] collective's state holds, for its trace span:
/// `(elements, wire bytes per element)`.
trait Held {
    fn held(&self) -> (usize, usize);
}

impl Held for () {
    fn held(&self) -> (usize, usize) {
        (0, 0)
    }
}

impl<T: MpiType> Held for Vec<T> {
    fn held(&self) -> (usize, usize) {
        (self.len(), T::WIRE_SIZE)
    }
}

impl<T: MpiType> Held for Vec<Vec<T>> {
    fn held(&self) -> (usize, usize) {
        (self.iter().map(Vec::len).sum(), T::WIRE_SIZE)
    }
}

/// A scheduled transfer the executor can run: a flat schedule's [`Xfer`]
/// or a hierarchical plan's contribution-gather [`GatherXfer`].
trait Edge {
    fn src(&self) -> usize;
    fn dst(&self) -> usize;
}

impl Edge for Xfer {
    fn src(&self) -> usize {
        self.src
    }
    fn dst(&self) -> usize {
        self.dst
    }
}

impl Edge for GatherXfer {
    fn src(&self) -> usize {
        self.src
    }
    fn dst(&self) -> usize {
        self.dst
    }
}

/// Decodes one scheduled reduction payload and checks its element count.
fn decode_contribs<T: MpiType>(bytes: &[u8], want: usize) -> MpiResult<Vec<T>> {
    let v: Vec<T> = decode(bytes)?;
    if v.len() != want {
        return Err(MpiError::InvalidCounts(format!(
            "scheduled reduction transfer carried {} elements, expected {want} \
             (mismatched contribution lengths across ranks?)",
            v.len()
        )));
    }
    Ok(v)
}

/// The origins a raw-gather transfer of a flat reduce or allreduce schedule
/// carries, as absolute ranks: the block of `x.elems() / n` relative ranks
/// (relative to `root`) that starts at the sender's relative rank rounded
/// down to a multiple of the block's power-of-two span. Linear and binomial
/// senders are already aligned; a recursive-doubling sender ships its
/// aligned block.
fn block_origins(x: &Xfer, n: usize, p: usize, root: usize) -> Vec<usize> {
    let cnt = x.elems() / n;
    let start = ((x.src + p - root) % p) & !(cnt.next_power_of_two() - 1);
    (start..start + cnt).map(|r| (r + root) % p).collect()
}

/// The identity-seeded fold of every held contribution in ascending origin
/// order — the one reduction order every algorithm reproduces.
fn fold_contribs<T: MpiType>(
    held: &[Option<Vec<T>>],
    n: usize,
    identity: T,
    fold: impl Fn(&mut [T], &[T]),
) -> Vec<T> {
    let mut acc = vec![identity; n];
    for c in held {
        fold(&mut acc, c.as_deref().expect("gathered every contribution"));
    }
    acc
}

/// How the engine picks an algorithm for each collective call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CollectivePolicy {
    /// Price every eligible flat algorithm *and* the hierarchical plan for
    /// the communicator's topology (declared on the cluster, or inferred
    /// from the latency scale), and run the predicted-cheapest (the
    /// default). On a flat topology this degenerates to [`Self::FlatAuto`]
    /// exactly — no hierarchical plan exists, so selection and virtual
    /// times are bit-identical.
    #[default]
    Auto,
    /// Price only the flat algorithms, ignoring any topology — the
    /// pre-hierarchy selector, kept addressable so benches can measure what
    /// hierarchy awareness buys.
    FlatAuto,
    /// Always run the given algorithm; calls for which it is ineligible
    /// fail with [`MpiError::InvalidCounts`].
    Fixed(CollectiveAlgo),
}

/// How one collective call will execute: a flat schedule of the given
/// algorithm, or a hierarchical multi-level plan.
enum Execution {
    Flat(CollectiveAlgo),
    Hier(Box<HierPlan>),
}

/// The engine's [`PairCost`] view of a communicator: pairwise link costs by
/// communicator rank, uniform unit speeds (collective pricing involves no
/// computation).
struct CostView {
    table: PairTable,
    /// `nodes[comm_rank]` = hosting cluster node, so the pricer's per-node
    /// contention resources (NIC, memory bus) group co-located ranks.
    nodes: Vec<NodeId>,
}

impl PairCost for CostView {
    fn speed(&self, _proc: usize) -> f64 {
        1.0
    }
    fn latency(&self, src: usize, dst: usize) -> f64 {
        self.table.latency(src, dst)
    }
    fn bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.table.bandwidth(src, dst)
    }
    fn node_of(&self, proc: usize) -> usize {
        self.nodes[proc].index()
    }
}

fn sharing_of(c: ContentionModel) -> LinkSharing {
    match c {
        ContentionModel::ParallelLinks => LinkSharing::Parallel,
        ContentionModel::SerializedNic => LinkSharing::PerEndpoint,
        ContentionModel::SharedBus => LinkSharing::Shared,
    }
}

impl Comm {
    /// The link-cost view the engine selects against: healthy base latency
    /// and bandwidth for every pair of member ranks, plus the cluster's
    /// contention model.
    fn coll_cost(&self) -> (CostView, LinkSharing) {
        let nodes: Vec<NodeId> = (0..self.size()).map(|r| self.node_of(r)).collect();
        (
            CostView {
                table: self.shared.cluster.pair_table(&nodes),
                nodes,
            },
            sharing_of(self.shared.cluster.contention()),
        )
    }

    /// The communicator's per-rank hierarchy coordinates: read off the
    /// cluster's declared [`hetsim::TopologyInfo`] when one exists,
    /// otherwise inferred from the pair table's latency scale
    /// ([`RankTopology::infer`]). A flat cluster yields flat coordinates
    /// either way, and [`hier_plan`] then declines to plan.
    fn rank_topology(&self, cost: &CostView) -> RankTopology {
        match self.shared.cluster.topology() {
            Some(info) => RankTopology::new(
                cost.nodes.iter().map(|&n| info.site_of(n)).collect(),
                cost.nodes.iter().map(|&n| info.switch_of(n)).collect(),
                cost.nodes.iter().map(|n| n.index()).collect(),
            ),
            None => RankTopology::infer(self.size(), cost),
        }
    }

    /// The hierarchical candidate for one call, with its predicted time —
    /// `None` when the topology offers nothing over a flat schedule.
    fn hier_candidate(
        &self,
        kind: CollectiveKind,
        root: usize,
        elems: usize,
        elem_bytes: usize,
        cost: &CostView,
        sharing: LinkSharing,
    ) -> Option<(Box<HierPlan>, f64)> {
        let topo = self.rank_topology(cost);
        let plan = hier_plan(
            kind,
            self.size(),
            root,
            elems,
            elem_bytes as f64,
            &topo,
            cost,
            sharing,
        )?;
        let t = price(
            self.size(),
            &plan.xfer_rounds(elems),
            elem_bytes as f64,
            cost,
            sharing,
        );
        Some((Box::new(plan), t))
    }

    /// Resolves how a call executes: an explicit request or the universe's
    /// [`CollectivePolicy`], with eligibility checking. Under
    /// [`CollectivePolicy::Auto`] the flat winner competes against the
    /// hierarchical plan; hierarchy is adopted only when *strictly*
    /// cheaper, so flat topologies (where no plan exists) and ties keep the
    /// pre-hierarchy choice bit-for-bit.
    fn resolve_exec(
        &self,
        kind: CollectiveKind,
        explicit: Option<CollectiveAlgo>,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<Execution> {
        // Validated before Auto pricing: perfmodel::collective::select has
        // no schedule for an out-of-range root.
        self.check_rank(root)?;
        let p = self.size();
        let requested = explicit.or(match self.shared.coll_policy {
            CollectivePolicy::Auto | CollectivePolicy::FlatAuto => None,
            CollectivePolicy::Fixed(a) => Some(a),
        });
        match requested {
            Some(a) => {
                if eligible(kind, a, p) {
                    Ok(Execution::Flat(a))
                } else {
                    Err(MpiError::InvalidCounts(format!(
                        "algorithm {} is not eligible for {} over {p} rank(s)",
                        a.name(),
                        kind.name(),
                    )))
                }
            }
            None => {
                let (cost, sharing) = self.coll_cost();
                let (flat, flat_t) =
                    select(kind, p, root, elems, elem_bytes as f64, &cost, sharing);
                if self.shared.coll_policy != CollectivePolicy::FlatAuto {
                    if let Some((plan, t)) =
                        self.hier_candidate(kind, root, elems, elem_bytes, &cost, sharing)
                    {
                        if t < flat_t {
                            return Ok(Execution::Hier(plan));
                        }
                    }
                }
                Ok(Execution::Flat(flat))
            }
        }
    }

    /// Predicts the cheapest algorithm (and its virtual time in seconds) for
    /// a collective of `elems` elements of `elem_bytes` each, exactly as
    /// auto-selecting dispatch would choose it under the universe's policy:
    /// [`CollectiveAlgo::Hierarchical`] when the hierarchical plan strictly
    /// beats the flat winner (and the policy is not
    /// [`CollectivePolicy::FlatAuto`]), the flat winner otherwise. `root`
    /// is the communicator rank the operation is rooted at (pass 0 for
    /// rootless collectives).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator.
    pub fn predict_collective(
        &self,
        kind: CollectiveKind,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<(CollectiveAlgo, f64)> {
        self.check_rank(root)?;
        let p = self.size();
        let (cost, sharing) = self.coll_cost();
        let (flat, flat_t) = select(kind, p, root, elems, elem_bytes as f64, &cost, sharing);
        if self.shared.coll_policy != CollectivePolicy::FlatAuto {
            if let Some((_, t)) =
                self.hier_candidate(kind, root, elems, elem_bytes, &cost, sharing)
            {
                if t < flat_t {
                    return Ok((CollectiveAlgo::Hierarchical, t));
                }
            }
        }
        Ok((flat, flat_t))
    }

    /// Predicts the virtual time of one specific algorithm for a collective.
    /// [`CollectiveAlgo::Hierarchical`] prices the topology's hierarchical
    /// plan (an error when the topology is flat — no plan exists).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator;
    /// [`MpiError::InvalidCounts`] if the algorithm is not eligible on this
    /// communicator.
    pub fn predict_collective_with(
        &self,
        kind: CollectiveKind,
        algo: CollectiveAlgo,
        root: usize,
        elems: usize,
        elem_bytes: usize,
    ) -> MpiResult<f64> {
        self.check_rank(root)?;
        let p = self.size();
        if algo == CollectiveAlgo::Hierarchical {
            let (cost, sharing) = self.coll_cost();
            return self
                .hier_candidate(kind, root, elems, elem_bytes, &cost, sharing)
                .map(|(_, t)| t)
                .ok_or_else(|| {
                    MpiError::InvalidCounts(format!(
                        "no hierarchical plan exists for {} over {p} rank(s) \
                         (flat topology?)",
                        kind.name(),
                    ))
                });
        }
        let rounds = self.flat_schedule(kind, algo, root, elems)?;
        let (cost, sharing) = self.coll_cost();
        Ok(price(p, &rounds, elem_bytes as f64, &cost, sharing))
    }

    /// The flat schedule of `algo` running `kind` on this communicator.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if `algo` is not eligible here.
    fn flat_schedule(
        &self,
        kind: CollectiveKind,
        algo: CollectiveAlgo,
        root: usize,
        n: usize,
    ) -> MpiResult<Vec<Vec<Xfer>>> {
        let p = self.size();
        schedule(kind, algo, p, root, n).ok_or_else(|| {
            MpiError::InvalidCounts(format!(
                "algorithm {} is not eligible for {} over {p} rank(s)",
                algo.name(),
                kind.name(),
            ))
        })
    }

    /// Predicts the virtual time of a [`FixedKind`] collective for the
    /// given block counts (see [`FixedKind::schedule`]; pass equal counts
    /// of [`FixedKind::blocks`] length for `MPI_Gather`-style calls).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `root` is outside the communicator;
    /// [`MpiError::InvalidCounts`] if `counts` has the wrong length.
    pub fn predict_fixed(
        &self,
        kind: FixedKind,
        root: usize,
        counts: &[usize],
        elem_bytes: usize,
    ) -> MpiResult<f64> {
        self.check_rank(root)?;
        let p = self.size();
        let rounds = kind.schedule(p, root, counts).ok_or_else(|| {
            MpiError::InvalidCounts(format!(
                "{} over {p} rank(s) takes {} block count(s), got {}",
                kind.name(),
                kind.blocks(p),
                counts.len()
            ))
        })?;
        let (cost, sharing) = self.coll_cost();
        Ok(price(p, &rounds, elem_bytes as f64, &cost, sharing))
    }

    /// Records a [`TraceKind::Collective`] span covering one engine call
    /// of the collective named `kind`.
    fn trace_collective(
        &self,
        kind: &str,
        algo: CollectiveAlgo,
        elems: usize,
        elem_bytes: usize,
        start: SimTime,
    ) {
        if let Some(tracer) = &self.shared.tracer {
            let mut ev =
                TraceEvent::new(self.my_world_rank(), TraceKind::Collective, algo.name(), start);
            ev.dur = self.clock.now().max(start) - start;
            ev.collective = true;
            ev.bytes = (elems * elem_bytes) as u64;
            ev.info = Some(format!("{kind} p={} elems={elems}", self.size()));
            tracer.record(ev);
        }
    }

    /// Posts one scheduled data transfer and counts it, so an abort knows
    /// exactly which scheduled sends remain to be poisoned.
    fn post_sched(&self, bytes: Vec<u8>, dst: usize, sent: &Cell<usize>) -> MpiResult<()> {
        self.post_bytes(self.coll_plane(), bytes, dst, TAG_COLL)?;
        sent.set(sent.get() + 1);
        Ok(())
    }

    /// Completes one scheduled receive from comm rank `src`: the data
    /// payload, or the failure the sender propagated in its place.
    ///
    /// Only `src`'s own death aborts the wait, so the failure surface
    /// follows schedule edges deterministically instead of racing a
    /// real-time failure detector. A [`TAG_POISON`] message decodes to
    /// [`MpiError::NodeFailed`] blaming the world rank it carries; a
    /// terminated peer is normalised to [`MpiError::NodeFailed`] too, so the
    /// engine's fault contract exposes a single error type.
    fn recv_sched(&self, src: usize) -> MpiResult<Vec<u8>> {
        match self.recv_bytes(self.coll_plane(), Some(src), None) {
            Ok((bytes, st)) if st.tag == TAG_POISON => {
                let v: Vec<i64> = decode(&bytes)?;
                let world_rank = v
                    .first()
                    .map(|&w| w as usize)
                    .unwrap_or_else(|| self.world_rank_of(src));
                Err(MpiError::NodeFailed { world_rank })
            }
            Ok((bytes, _)) => Ok(bytes.into_vec()),
            Err(MpiError::PeerTerminated { world_rank }) => {
                Err(MpiError::NodeFailed { world_rank })
            }
            Err(e) => Err(e),
        }
    }

    /// Posts a poison message for every scheduled send of this rank that was
    /// never issued (`sent` were). Posts to already-dead destinations fail
    /// and are dropped — those ranks need no notification.
    fn poison_rest(&self, rounds: &[Vec<Xfer>], sent: usize, blame: usize) {
        let me = self.rank();
        for (i, x) in rounds
            .iter()
            .flatten()
            .filter(|x| x.src == me)
            .enumerate()
        {
            if i >= sent {
                let _ = self.post_bytes(
                    self.coll_plane(),
                    encode(&[blame as i64]),
                    x.dst,
                    TAG_POISON,
                );
            }
        }
    }

    /// Runs one engine collective under the fault contract: `body` threads
    /// the issued-send counter through the algorithm, and on a fail-stop
    /// error the un-issued remainder of this rank's schedule is poisoned so
    /// every downstream rank aborts with the same blamed world rank.
    fn with_fault_contract<R>(
        &self,
        rounds: &[Vec<Xfer>],
        body: impl FnOnce(&Cell<usize>) -> MpiResult<R>,
    ) -> MpiResult<R> {
        let sent = Cell::new(0usize);
        let out = body(&sent);
        if let Err(e) = &out {
            if let Some(blame) = fault_blame(e) {
                self.poison_rest(rounds, sent.get(), blame);
            }
        }
        out
    }

    /// The executor: runs this rank's part of a schedule. Within each round
    /// the rank issues all its sends in schedule order, each payload built
    /// by `send` from `state`, then completes all its receives in schedule
    /// order, each handed to `recv` to fold into `state`. The schedule
    /// itself is the fault contract's poison reference, so every
    /// collective that runs through here sends exactly its scheduled edges.
    fn run_schedule<E: Edge, S>(
        &self,
        rounds: &[Vec<E>],
        state: &mut S,
        sent: &Cell<usize>,
        mut send: impl FnMut(&mut S, &E) -> Vec<u8>,
        mut recv: impl FnMut(&mut S, &E, Vec<u8>) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let me = self.rank();
        for round in rounds {
            for x in round.iter().filter(|x| x.src() == me) {
                self.post_sched(send(state, x), x.dst(), sent)?;
            }
            for x in round.iter().filter(|x| x.dst() == me) {
                let bytes = self.recv_sched(x.src())?;
                recv(state, x, bytes)?;
            }
        }
        Ok(())
    }

    /// Runs a raw-contribution gather: every transfer carries the
    /// contributions of `origins(edge)` (absolute ranks, ascending),
    /// concatenated, so no partial result is ever folded in flight.
    /// Returns the contributions this rank holds afterwards, by origin.
    fn gather_contribs<E: Edge, T: MpiType>(
        &self,
        rounds: &[Vec<E>],
        contrib: &[T],
        origins: impl Fn(&E) -> Vec<usize>,
        sent: &Cell<usize>,
    ) -> MpiResult<Vec<Option<Vec<T>>>> {
        let n = contrib.len();
        // Empty contributions are never scheduled: every rank already
        // holds every (empty) contribution.
        let mut held = vec![(n == 0).then(Vec::new); self.size()];
        held[self.rank()] = Some(contrib.to_vec());
        self.run_schedule(
            rounds,
            &mut held,
            sent,
            |held, e| {
                let from = origins(e);
                let mut payload = Vec::with_capacity(from.len() * n);
                for o in from {
                    payload.extend_from_slice(held[o].as_deref().expect("sends only held ones"));
                }
                encode(&payload)
            },
            |held, e, bytes| {
                let from = origins(e);
                let v: Vec<T> = decode_contribs(&bytes, from.len() * n)?;
                if let [o] = from[..] {
                    held[o] = Some(v);
                } else {
                    for (o, c) in from.into_iter().zip(v.chunks(n)) {
                        held[o] = Some(c.to_vec());
                    }
                }
                Ok(())
            },
        )?;
        Ok(held)
    }

    /// Executes a data-movement schedule over `buf`: every transfer carries
    /// its scheduled range of the buffer. A received payload whose size
    /// disagrees with the scheduled range is [`MpiError::InvalidCounts`] —
    /// the hallmark of ranks calling the collective with different buffer
    /// lengths.
    ///
    /// All receives land in a scratch copy that is committed to `buf` only
    /// when the whole schedule has run: an abort part-way through leaves
    /// `buf` exactly as the caller passed it (no torn results).
    fn run_movement<T: MpiType>(
        &self,
        rounds: &[Vec<Xfer>],
        buf: &mut [T],
        sent: &Cell<usize>,
    ) -> MpiResult<()> {
        let mut scratch: Vec<T> = buf.to_vec();
        self.run_schedule(
            rounds,
            &mut scratch,
            sent,
            |s, x| encode(&s[x.lo..x.hi]),
            |s, x, bytes| {
                let want = x.elems() * T::WIRE_SIZE;
                if bytes.len() != want {
                    return Err(MpiError::InvalidCounts(format!(
                        "scheduled transfer carried {} bytes, expected {want} \
                         (mismatched buffer lengths across ranks?)",
                        bytes.len()
                    )));
                }
                decode_into(&bytes, &mut s[x.lo..x.hi]).map(drop)
            },
        )?;
        buf.copy_from_slice(&scratch);
        Ok(())
    }

    /// Runs a [`FixedKind`] collective under the fault contract and traces
    /// it. `counts` are the block counts as this rank knows them; a rank
    /// that is not told a count passes 0 in its place, which leaves the
    /// schedule's edges unchanged, and its `recv` takes the length from
    /// the message. The span records what `state` holds at the end.
    fn run_fixed<S: Held>(
        &self,
        kind: FixedKind,
        root: usize,
        counts: &[usize],
        state: &mut S,
        send: impl FnMut(&mut S, &Xfer) -> Vec<u8>,
        recv: impl FnMut(&mut S, &Xfer, Vec<u8>) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let rounds = kind
            .schedule(self.size(), root, counts)
            .expect("callers check the root and size the counts");
        let start = self.clock.now();
        self.with_fault_contract(&rounds, |sent| {
            self.run_schedule(&rounds, state, sent, send, recv)
        })?;
        let (elems, elem_bytes) = state.held();
        self.trace_collective(kind.name(), kind.algo(), elems, elem_bytes, start);
        Ok(())
    }

    /// Engine broadcast: replaces every rank's `buf` with the root's. All
    /// ranks must pass equal-length buffers (unlike [`Comm::bcast`],
    /// non-roots size their buffer up front, which is what lets every rank
    /// price and select the algorithm locally). The
    /// algorithm is chosen by the universe's [`CollectivePolicy`].
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::InvalidCounts`]
    /// for mismatched buffer lengths or an ineligible pinned algorithm;
    /// [`MpiError::NodeFailed`] if this rank's data path depends on a
    /// fail-stopped member — the fault contract guarantees every survivor
    /// returns the complete result or this error, never a torn buffer.
    pub fn bcast_into<T: MpiType>(&self, buf: &mut [T], root: usize) -> MpiResult<()> {
        match self.resolve_exec(CollectiveKind::Bcast, None, root, buf.len(), T::WIRE_SIZE)? {
            Execution::Flat(algo) => self.bcast_into_with(algo, buf, root),
            Execution::Hier(plan) => {
                // A bcast plan is pure movement; its transfer view is the
                // executed schedule, the pricer's replay and the poison
                // reference all at once.
                let rounds = plan.xfer_rounds(buf.len());
                let start = self.clock.now();
                self.with_fault_contract(&rounds, |sent| self.run_movement(&rounds, buf, sent))?;
                let (kind, algo) = (CollectiveKind::Bcast, CollectiveAlgo::Hierarchical);
                self.trace_collective(kind.name(), algo, buf.len(), T::WIRE_SIZE, start);
                Ok(())
            }
        }
    }

    /// [`Comm::bcast_into`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::bcast_into`]; [`MpiError::InvalidCounts`] if `algo` is not
    /// eligible here.
    pub fn bcast_into_with<T: MpiType>(
        &self,
        algo: CollectiveAlgo,
        buf: &mut [T],
        root: usize,
    ) -> MpiResult<()> {
        self.check_rank(root)?;
        let rounds = self.flat_schedule(CollectiveKind::Bcast, algo, root, buf.len())?;
        let start = self.clock.now();
        self.with_fault_contract(&rounds, |sent| self.run_movement(&rounds, buf, sent))?;
        self.trace_collective(CollectiveKind::Bcast.name(), algo, buf.len(), T::WIRE_SIZE, start);
        Ok(())
    }

    /// Engine allgather for equal contributions: every rank contributes
    /// `contrib` and receives the concatenation in rank order. All ranks
    /// must contribute the same number of elements (use [`Comm::allgather`]
    /// for ragged contributions).
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] for mismatched contribution lengths or an
    /// ineligible pinned algorithm; [`MpiError::NodeFailed`] if this rank's
    /// data path depends on a fail-stopped member (every survivor returns
    /// the complete result or that error, never a torn buffer).
    pub fn allgather_eq<T: MpiType + Copy + Default>(&self, contrib: &[T]) -> MpiResult<Vec<T>> {
        let p = self.size();
        let total = contrib.len() * p;
        match self.resolve_exec(CollectiveKind::Allgather, None, 0, total, T::WIRE_SIZE)? {
            Execution::Flat(algo) => self.allgather_eq_with(algo, contrib),
            Execution::Hier(plan) => {
                // An allgather plan is pure chunk movement over the output
                // buffer: runs gather leaders-up, leaders exchange, full
                // buffer broadcasts back down.
                let rounds = plan.xfer_rounds(total);
                let mut buf = vec![T::default(); total];
                let (lo, hi) = chunk_bounds(total, p, self.rank());
                buf[lo..hi].copy_from_slice(contrib);
                let start = self.clock.now();
                self.with_fault_contract(&rounds, |sent| {
                    self.run_movement(&rounds, &mut buf, sent)
                })?;
                let (kind, algo) = (CollectiveKind::Allgather, CollectiveAlgo::Hierarchical);
                self.trace_collective(kind.name(), algo, total, T::WIRE_SIZE, start);
                Ok(buf)
            }
        }
    }

    /// [`Comm::allgather_eq`] with an explicit algorithm.
    ///
    /// # Errors
    /// As [`Comm::allgather_eq`]; [`MpiError::InvalidCounts`] if `algo` is
    /// not eligible here.
    pub fn allgather_eq_with<T: MpiType + Copy + Default>(
        &self,
        algo: CollectiveAlgo,
        contrib: &[T],
    ) -> MpiResult<Vec<T>> {
        let p = self.size();
        let total = contrib.len() * p;
        let rounds = self.flat_schedule(CollectiveKind::Allgather, algo, 0, total)?;
        let mut buf = vec![T::default(); total];
        let (lo, hi) = chunk_bounds(total, p, self.rank());
        buf[lo..hi].copy_from_slice(contrib);
        let start = self.clock.now();
        self.with_fault_contract(&rounds, |sent| self.run_movement(&rounds, &mut buf, sent))?;
        self.trace_collective(CollectiveKind::Allgather.name(), algo, total, T::WIRE_SIZE, start);
        Ok(buf)
    }

    /// Barrier (`MPI_Barrier`): the [`FixedKind::Barrier`] schedule,
    /// empty messages up a binomial tree to rank 0 and back down. On
    /// return, every rank's clock is at least the time at which the last
    /// rank entered the barrier plus the tree traversal cost.
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] if a member has fail-stopped: every
    /// survivor depends on every member through the tree.
    pub fn barrier(&self) -> MpiResult<()> {
        self.run_fixed(
            FixedKind::Barrier,
            0,
            &[],
            &mut (),
            |_, _| Vec::new(),
            |_, _, _| Ok(()),
        )
    }

    /// Broadcast (`MPI_Bcast`) over the [`FixedKind::Bcastv`] tree:
    /// `data` is the payload at `root` and is replaced with the broadcast
    /// value everywhere else; non-roots learn the length from the message.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::NodeFailed`]
    /// if this rank's tree path depends on a fail-stopped member (`data`
    /// is then left as passed).
    pub fn bcast<T: MpiType>(&self, data: &mut Vec<T>, root: usize) -> MpiResult<()> {
        self.check_rank(root)?;
        let is_root = self.rank() == root;
        let mut buf = if is_root { data.clone() } else { Vec::new() };
        self.run_fixed(
            FixedKind::Bcastv,
            root,
            &[buf.len()],
            &mut buf,
            |buf, _| encode(buf),
            |buf, _, bytes| {
                *buf = decode(&bytes)?;
                Ok(())
            },
        )?;
        *data = buf;
        Ok(())
    }

    /// Broadcasts a single value from `root`.
    ///
    /// # Errors
    /// As [`Comm::bcast`].
    pub fn bcast_one<T: MpiType + Default>(&self, value: T, root: usize) -> MpiResult<T> {
        let mut v = if self.rank() == root {
            vec![value]
        } else {
            Vec::new()
        };
        self.bcast(&mut v, root)?;
        Ok(v[0])
    }

    /// Gather (`MPI_Gatherv`-style, [`FixedKind::Gatherv`]): every rank
    /// contributes a slice (lengths may differ); `root` receives
    /// `Some(vec_of_contributions)` in rank order, everyone else `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::NodeFailed`]
    /// at the root if a contributor has fail-stopped.
    pub fn gather<T: MpiType>(&self, contrib: &[T], root: usize) -> MpiResult<Option<Vec<Vec<T>>>> {
        self.check_rank(root)?;
        let (p, me) = (self.size(), self.rank());
        let mut counts = vec![0; p];
        counts[me] = contrib.len();
        let mut parts = vec![Vec::new(); if me == root { p } else { 0 }];
        if me == root {
            parts[root] = contrib.to_vec();
        }
        self.run_fixed(
            FixedKind::Gatherv,
            root,
            &counts,
            &mut parts,
            |_, _| encode(contrib),
            |parts, x, bytes| {
                parts[x.src] = decode(&bytes)?;
                Ok(())
            },
        )?;
        Ok((me == root).then_some(parts))
    }

    /// Gather with equal contribution lengths, flattened in rank order
    /// (`MPI_Gather`).
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if contributions differ in length.
    pub fn gather_flat<T: MpiType>(
        &self,
        contrib: &[T],
        root: usize,
    ) -> MpiResult<Option<Vec<T>>> {
        let per = contrib.len();
        match self.gather(contrib, root)? {
            None => Ok(None),
            Some(parts) => {
                if parts.iter().any(|p| p.len() != per) {
                    return Err(MpiError::InvalidCounts(
                        "gather_flat requires equal contribution lengths".into(),
                    ));
                }
                Ok(Some(parts.into_iter().flatten().collect()))
            }
        }
    }

    /// Scatter (`MPI_Scatterv`-style, [`FixedKind::Scatterv`]): `root`
    /// supplies one vector per rank (`parts.len() == size`); each rank
    /// receives its part.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if root's `parts` has the wrong arity;
    /// [`MpiError::InvalidRank`] for a bad root; [`MpiError::NodeFailed`]
    /// at a non-root if the root has fail-stopped.
    pub fn scatter<T: MpiType>(
        &self,
        parts: Option<&[Vec<T>]>,
        root: usize,
    ) -> MpiResult<Vec<T>> {
        self.check_rank(root)?;
        let p = self.size();
        let parts = if self.rank() == root {
            let parts = parts.ok_or_else(|| {
                MpiError::InvalidCounts("root must supply scatter parts".into())
            })?;
            if parts.len() != p {
                return Err(MpiError::InvalidCounts(format!(
                    "scatter needs {p} parts, got {}",
                    parts.len()
                )));
            }
            parts
        } else {
            &[]
        };
        let counts: Vec<usize> = match parts {
            [] => vec![0; p],
            _ => parts.iter().map(Vec::len).collect(),
        };
        let mut mine = parts.get(root).cloned().unwrap_or_default();
        self.run_fixed(
            FixedKind::Scatterv,
            root,
            &counts,
            &mut mine,
            |_, x| encode(&parts[x.dst]),
            |mine, _, bytes| {
                *mine = decode(&bytes)?;
                Ok(())
            },
        )?;
        Ok(mine)
    }

    /// Allgather (`MPI_Allgatherv`-style): every rank receives every rank's
    /// contribution, in rank order. Composed of a gather to rank 0 and two
    /// broadcasts (lengths, then the flattened payload).
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] if a member has fail-stopped.
    pub fn allgather<T: MpiType>(&self, contrib: &[T]) -> MpiResult<Vec<Vec<T>>> {
        let gathered = self.gather(contrib, 0)?;
        let (mut lens, mut flat): (Vec<usize>, Vec<T>) = match gathered {
            Some(parts) => (
                parts.iter().map(Vec::len).collect(),
                parts.into_iter().flatten().collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        self.bcast(&mut lens, 0)?;
        self.bcast(&mut flat, 0)?;
        let mut out = Vec::with_capacity(lens.len());
        let mut off = 0;
        for len in lens {
            out.push(flat[off..off + len].to_vec());
            off += len;
        }
        Ok(out)
    }

    /// All-to-all personalised exchange (`MPI_Alltoallv`-style,
    /// [`FixedKind::Alltoallv`]): rank `i`'s `sends[j]` is delivered as
    /// rank `j`'s result `[i]`.
    ///
    /// # Errors
    /// [`MpiError::InvalidCounts`] if `sends.len() != size`;
    /// [`MpiError::NodeFailed`] if a member has fail-stopped.
    pub fn alltoall<T: MpiType>(&self, sends: &[Vec<T>]) -> MpiResult<Vec<Vec<T>>> {
        let (p, me) = (self.size(), self.rank());
        if sends.len() != p {
            return Err(MpiError::InvalidCounts(format!(
                "alltoall needs {p} send vectors, got {}",
                sends.len()
            )));
        }
        let mut counts = vec![0; p * p];
        for (dst, v) in sends.iter().enumerate() {
            counts[me * p + dst] = v.len();
        }
        let mut out = vec![Vec::new(); p];
        out[me] = sends[me].clone();
        self.run_fixed(
            FixedKind::Alltoallv,
            0,
            &counts,
            &mut out,
            |_, x| encode(&sends[x.dst]),
            |out, x, bytes| {
                out[x.src] = decode(&bytes)?;
                Ok(())
            },
        )?;
        Ok(out)
    }

    /// Prefix reduction along the rank chain ([`FixedKind::Scan`] or
    /// [`FixedKind::Exscan`]): each rank receives its predecessor's
    /// prefix, folds, and passes its inclusive prefix on. Returns the
    /// inclusive prefix for a scan, the exclusive one (the identity at rank
    /// 0) for an exscan.
    fn prefix<T: MpiType>(
        &self,
        kind: FixedKind,
        contrib: &[T],
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<Vec<T>> {
        let n = contrib.len();
        let inclusive = kind == FixedKind::Scan;
        let mut acc = if inclusive {
            contrib.to_vec()
        } else {
            vec![identity; n]
        };
        self.run_fixed(
            kind,
            0,
            &[n],
            &mut acc,
            |acc, _| {
                if inclusive {
                    encode(acc)
                } else {
                    let mut inc = acc.clone();
                    fold(&mut inc, contrib);
                    encode(&inc)
                }
            },
            |acc, _, bytes| {
                let mut prefix: Vec<T> = decode(&bytes)?;
                if prefix.len() != n {
                    return Err(MpiError::InvalidCounts(format!(
                        "reduction operand has {} elements, local contribution has {n} \
                         (ranks called the collective with different lengths?)",
                        prefix.len()
                    )));
                }
                if inclusive {
                    fold(&mut prefix, contrib);
                }
                *acc = prefix;
                Ok(())
            },
        )?;
        Ok(acc)
    }

    /// Reduce with an explicit flat algorithm: a raw-contribution gather up
    /// the algorithm's schedule, folded at the root in rank order.
    fn reduce_flat<T: MpiType>(
        &self,
        algo: CollectiveAlgo,
        contrib: &[T],
        root: usize,
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<Option<Vec<T>>> {
        self.check_rank(root)?;
        let (p, n) = (self.size(), contrib.len());
        let rounds = self.flat_schedule(CollectiveKind::Reduce, algo, root, n)?;
        let start = self.clock.now();
        let out = self.with_fault_contract(&rounds, |sent| {
            let origins = |x: &Xfer| block_origins(x, n, p, root);
            let held = self.gather_contribs(&rounds, contrib, origins, sent)?;
            Ok((self.rank() == root).then(|| fold_contribs(&held, n, identity, &fold)))
        })?;
        self.trace_collective(CollectiveKind::Reduce.name(), algo, n, T::WIRE_SIZE, start);
        Ok(out)
    }

    /// Reduce under the universe's policy: the selected flat algorithm, or
    /// the hierarchical plan's contribution gather folded at the root.
    fn reduce_auto<T: MpiType>(
        &self,
        contrib: &[T],
        root: usize,
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<Option<Vec<T>>> {
        let n = contrib.len();
        match self.resolve_exec(CollectiveKind::Reduce, None, root, n, T::WIRE_SIZE)? {
            Execution::Flat(algo) => self.reduce_flat(algo, contrib, root, identity, fold),
            Execution::Hier(plan) => {
                let start = self.clock.now();
                let out = self.with_fault_contract(&plan.xfer_rounds(n), |sent| {
                    let held = self.hier_gather(&plan, contrib, sent)?;
                    Ok((self.rank() == root).then(|| fold_contribs(&held, n, identity, &fold)))
                })?;
                let algo = CollectiveAlgo::Hierarchical;
                self.trace_collective(CollectiveKind::Reduce.name(), algo, n, T::WIRE_SIZE, start);
                Ok(out)
            }
        }
    }

    /// A hierarchical plan's contribution gather: the transfers
    /// [`HierPlan::xfer_rounds`] keeps, each carrying its listed origins.
    fn hier_gather<T: MpiType>(
        &self,
        plan: &HierPlan,
        contrib: &[T],
        sent: &Cell<usize>,
    ) -> MpiResult<Vec<Option<Vec<T>>>> {
        let n = contrib.len();
        let live: Vec<Vec<GatherXfer>> = plan
            .gather
            .iter()
            .map(|round| {
                let live = |g: &&GatherXfer| !g.origins.is_empty() && n > 0 && g.src != g.dst;
                round.iter().filter(live).cloned().collect()
            })
            .collect();
        self.gather_contribs(&live, contrib, |g| g.origins.clone(), sent)
    }

    /// Allreduce with an explicit flat algorithm; every algorithm folds
    /// raw contributions (or ascending-prefix partials) in rank order.
    fn allreduce_flat<T: MpiType + Default>(
        &self,
        algo: CollectiveAlgo,
        contrib: &[T],
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<Vec<T>> {
        let (p, n) = (self.size(), contrib.len());
        let rounds = self.flat_schedule(CollectiveKind::Allreduce, algo, 0, n)?;
        let start = self.clock.now();
        let out = self.with_fault_contract(&rounds, |sent| match algo {
            CollectiveAlgo::Linear | CollectiveAlgo::Binomial => {
                // Reduce to 0, then broadcast from 0, both with `algo`: the
                // allreduce schedule is the two concatenated.
                let split = schedule(CollectiveKind::Reduce, algo, p, 0, n).map_or(0, |r| r.len());
                let (up, down) = rounds.split_at(split);
                let held = self.gather_contribs(up, contrib, |x| block_origins(x, n, p, 0), sent)?;
                let mut buf = if self.rank() == 0 {
                    fold_contribs(&held, n, identity, &fold)
                } else {
                    vec![T::default(); n]
                };
                self.run_movement(down, &mut buf, sent)?;
                Ok(buf)
            }
            CollectiveAlgo::RecursiveDoubling => {
                let held =
                    self.gather_contribs(&rounds, contrib, |x| block_origins(x, n, p, 0), sent)?;
                Ok(fold_contribs(&held, n, identity, &fold))
            }
            CollectiveAlgo::Ring => self.ring_allreduce(&rounds, contrib, identity, &fold, sent),
            CollectiveAlgo::ScatterAllgather => {
                // A direct reduce-scatter of raw chunks (this rank folds
                // every rank's copy of its own chunk), then a direct
                // allgather of the reduced chunks.
                let (lo, hi) = chunk_bounds(n, p, self.rank());
                let mut raw = vec![(hi == lo).then(Vec::new); p];
                raw[self.rank()] = Some(contrib[lo..hi].to_vec());
                self.run_schedule(
                    &rounds[..1],
                    &mut raw,
                    sent,
                    |_, x| encode(&contrib[x.lo..x.hi]),
                    |raw, x, bytes| {
                        raw[x.src] = Some(decode_contribs(&bytes, x.elems())?);
                        Ok(())
                    },
                )?;
                let mut result = contrib.to_vec();
                result[lo..hi].copy_from_slice(&fold_contribs(&raw, hi - lo, identity, &fold));
                self.run_movement(&rounds[1..], &mut result, sent)?;
                Ok(result)
            }
            CollectiveAlgo::Hierarchical => unreachable!("never eligible for a flat schedule"),
        })?;
        self.trace_collective(CollectiveKind::Allreduce.name(), algo, n, T::WIRE_SIZE, start);
        Ok(out)
    }

    /// Pipelined ring allreduce over its schedule: ascending-prefix partial
    /// folds travel the chain forward chunk by chunk (each rank folds its
    /// own chunk into the partial it receives), and finished chunks travel
    /// it backward.
    fn ring_allreduce<T: MpiType>(
        &self,
        rounds: &[Vec<Xfer>],
        contrib: &[T],
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
        sent: &Cell<usize>,
    ) -> MpiResult<Vec<T>> {
        let (p, r) = (self.size(), self.rank());
        // (result, forward partials in flight keyed by chunk start).
        let mut state = (contrib.to_vec(), BTreeMap::<usize, Vec<T>>::new());
        self.run_schedule(
            rounds,
            &mut state,
            sent,
            |(result, partial), x| {
                if x.dst < x.src {
                    encode(&result[x.lo..x.hi])
                } else if r == 0 {
                    let mut acc = vec![identity; x.elems()];
                    fold(&mut acc, &contrib[x.lo..x.hi]);
                    encode(&acc)
                } else {
                    encode(&partial.remove(&x.lo).expect("folded in an earlier round"))
                }
            },
            |(result, partial), x, bytes| {
                let mut v: Vec<T> = decode_contribs(&bytes, x.elems())?;
                if x.src < x.dst {
                    fold(&mut v, &contrib[x.lo..x.hi]);
                    if r == p - 1 {
                        result[x.lo..x.hi].copy_from_slice(&v);
                    } else {
                        partial.insert(x.lo, v);
                    }
                } else {
                    result[x.lo..x.hi].copy_from_slice(&v);
                }
                Ok(())
            },
        )?;
        Ok(state.0)
    }

    /// Allreduce under the universe's policy: the selected flat algorithm,
    /// or the hierarchical plan's gather to rank 0 and broadcast back out
    /// under one fault contract.
    fn allreduce_auto<T: MpiType + Default>(
        &self,
        contrib: &[T],
        identity: T,
        fold: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<Vec<T>> {
        let n = contrib.len();
        match self.resolve_exec(CollectiveKind::Allreduce, None, 0, n, T::WIRE_SIZE)? {
            Execution::Flat(algo) => self.allreduce_flat(algo, contrib, identity, fold),
            Execution::Hier(plan) => {
                let start = self.clock.now();
                let out = self.with_fault_contract(&plan.xfer_rounds(n), |sent| {
                    let held = self.hier_gather(&plan, contrib, sent)?;
                    let mut buf = if self.rank() == 0 {
                        fold_contribs(&held, n, identity, &fold)
                    } else {
                        vec![T::default(); n]
                    };
                    self.run_movement(&plan.movement, &mut buf, sent)?;
                    Ok(buf)
                })?;
                let (kind, algo) = (CollectiveKind::Allreduce, CollectiveAlgo::Hierarchical);
                self.trace_collective(kind.name(), algo, n, T::WIRE_SIZE, start);
                Ok(out)
            }
        }
    }
}

/// Generates the typed reductions for one element type.
macro_rules! impl_reductions {
    ($t:ty, $fold:ident, $identity:ident, $reduce:ident, $reduce_with:ident,
     $allreduce:ident, $allreduce_with:ident, $scan:ident, $exscan:ident,
     $reduce_scatter_block:ident, $reduce_one:ident, $allreduce_one:ident) => {
        impl Comm {
            #[doc = concat!("Engine reduce over equal-length `", stringify!($t), "`")]
            /// contributions; the root receives the result.
            ///
            /// The result is always the identity-seeded fold of the
            /// contributions in ascending communicator-rank order,
            /// bit-identical across every algorithm.
            ///
            /// # Errors
            /// [`MpiError::InvalidRank`] for a bad root;
            /// [`MpiError::InvalidCounts`] for mismatched contribution
            /// lengths or an ineligible pinned algorithm;
            /// [`MpiError::NodeFailed`] if this rank's data path depends on
            /// a fail-stopped member (every survivor returns the complete
            /// result or that error, never a torn result).
            pub fn $reduce(
                &self,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                self.reduce_auto(contrib, root, op.$identity(), |a, b| op.$fold(a, b))
            }

            #[doc = concat!("[`Comm::", stringify!($reduce), "`] with an explicit algorithm.")]
            ///
            /// # Errors
            #[doc = concat!("As [`Comm::", stringify!($reduce), "`].")]
            pub fn $reduce_with(
                &self,
                algo: CollectiveAlgo,
                contrib: &[$t],
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<Vec<$t>>> {
                self.reduce_flat(algo, contrib, root, op.$identity(), |a, b| op.$fold(a, b))
            }

            #[doc = concat!("Engine allreduce over equal-length `", stringify!($t), "`")]
            /// contributions.
            ///
            /// The result is always the identity-seeded fold of the
            /// contributions in ascending communicator-rank order,
            /// bit-identical across every algorithm.
            ///
            /// # Errors
            /// [`MpiError::InvalidCounts`] for mismatched contribution
            /// lengths or an ineligible pinned algorithm;
            /// [`MpiError::NodeFailed`] if this rank's data path depends on
            /// a fail-stopped member (every survivor returns the complete
            /// result or that error, never a torn result).
            pub fn $allreduce(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                self.allreduce_auto(contrib, op.$identity(), |a, b| op.$fold(a, b))
            }

            #[doc = concat!("[`Comm::", stringify!($allreduce), "`] with an explicit algorithm.")]
            ///
            /// # Errors
            #[doc = concat!("As [`Comm::", stringify!($allreduce), "`].")]
            pub fn $allreduce_with(
                &self,
                algo: CollectiveAlgo,
                contrib: &[$t],
                op: ReduceOp,
            ) -> MpiResult<Vec<$t>> {
                self.allreduce_flat(algo, contrib, op.$identity(), |a, b| op.$fold(a, b))
            }

            /// Inclusive prefix reduction (`MPI_Scan`): rank `i` receives the
            /// reduction of contributions from ranks `0..=i`, folded along
            /// the rank chain in rank order.
            ///
            /// # Errors
            /// [`MpiError::InvalidCounts`] if ranks contribute different
            /// lengths; [`MpiError::NodeFailed`] if a predecessor has
            /// fail-stopped.
            pub fn $scan(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                self.prefix(FixedKind::Scan, contrib, op.$identity(), |a, b| op.$fold(a, b))
            }

            /// Exclusive prefix reduction (`MPI_Exscan`): rank `i` receives
            /// the reduction of contributions from ranks `0..i`; rank 0
            /// receives the identity.
            ///
            /// # Errors
            #[doc = concat!("As [`Comm::", stringify!($scan), "`].")]
            pub fn $exscan(&self, contrib: &[$t], op: ReduceOp) -> MpiResult<Vec<$t>> {
                self.prefix(FixedKind::Exscan, contrib, op.$identity(), |a, b| op.$fold(a, b))
            }

            /// Reduce-scatter with equal block sizes
            /// (`MPI_Reduce_scatter_block`): the elementwise reduction of
            /// every rank's `contrib` (length `size * block`) is computed and
            /// rank `i` receives elements `i*block .. (i+1)*block`.
            #[doc = concat!("A [`Comm::", stringify!($reduce), "`] to rank 0, then a")]
            /// [`Comm::scatter`].
            ///
            /// # Errors
            /// [`MpiError::InvalidCounts`] if the contribution length is not
            /// `size * block`.
            pub fn $reduce_scatter_block(
                &self,
                contrib: &[$t],
                block: usize,
                op: ReduceOp,
            ) -> MpiResult<Vec<$t>> {
                if block == 0 {
                    return Err(MpiError::InvalidCounts(
                        "reduce_scatter_block needs a non-zero block size".into(),
                    ));
                }
                if contrib.len() != self.size() * block {
                    return Err(MpiError::InvalidCounts(format!(
                        "reduce_scatter_block needs {} elements, got {}",
                        self.size() * block,
                        contrib.len()
                    )));
                }
                let reduced = self.$reduce(contrib, op, 0)?;
                let parts: Option<Vec<Vec<$t>>> = reduced
                    .map(|full| full.chunks(block).map(<[$t]>::to_vec).collect());
                self.scatter(parts.as_deref(), 0)
            }

            #[doc = concat!("Scalar [`Comm::", stringify!($reduce), "`].")]
            ///
            /// # Errors
            /// As the vector form.
            pub fn $reduce_one(
                &self,
                value: $t,
                op: ReduceOp,
                root: usize,
            ) -> MpiResult<Option<$t>> {
                Ok(self.$reduce(&[value], op, root)?.map(|v| v[0]))
            }

            #[doc = concat!("Scalar [`Comm::", stringify!($allreduce), "`].")]
            ///
            /// # Errors
            /// As the vector form.
            pub fn $allreduce_one(&self, value: $t, op: ReduceOp) -> MpiResult<$t> {
                Ok(self.$allreduce(&[value], op)?[0])
            }
        }
    };
}

impl_reductions!(
    f64, fold_f64, identity_f64, reduce_eq_f64, reduce_eq_f64_with, allreduce_eq_f64,
    allreduce_eq_f64_with, scan_f64, exscan_f64, reduce_scatter_block_f64, reduce_one_f64,
    allreduce_one_f64
);
impl_reductions!(
    i64, fold_i64, identity_i64, reduce_eq_i64, reduce_eq_i64_with, allreduce_eq_i64,
    allreduce_eq_i64_with, scan_i64, exscan_i64, reduce_scatter_block_i64, reduce_one_i64,
    allreduce_one_i64
);
