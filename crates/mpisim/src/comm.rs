//! Communicators.
//!
//! A [`Comm`] binds a [`Group`] to a pair of context ids (one for
//! point-to-point traffic, one for collectives, so a collective can never
//! intercept an application message) and carries the calling rank's virtual
//! clock. Constructors mirror MPI: [`Comm::dup`], [`Comm::split`],
//! [`Comm::create`].

use crate::agree::Agreement;
use crate::datatype::{decode, decode_into, encode_payload, MpiType};
use crate::error::{MpiError, MpiResult, WaitGraph};
use crate::group::Group;
use crate::p2p::{Claim, Envelope, Msg, Pattern, Payload, Status, WAKE_BACKSTOP};
use crate::quiesce::{WaitKind, WaitRecord};
use crate::runtime::{RankState, SharedState};
use crate::vtime::{LocalClock, NetFrontier};
use hetsim::trace::{TraceEvent, TraceKind};
use hetsim::{NodeId, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A communicator: an isolated communication context over a group of ranks.
///
/// `Comm` is rank-local (not `Send`): each rank holds its own handle, all
/// handles of one rank share that rank's clock.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) shared: Arc<SharedState>,
    group: Arc<Group>,
    /// Base context id; `ctx` is the p2p plane, `ctx + 1` the collective one.
    ctx: u64,
    /// Calling process's rank within this communicator.
    rank: usize,
    pub(crate) clock: LocalClock,
    /// This rank's deterministic view of the shared network resources
    /// ([`NetFrontier`]): sender-side grants and receiver-side settlements
    /// both run against it, in the rank's own program order. Like the
    /// clock, shared by every communicator handle of one rank.
    pub(crate) frontier: Rc<RefCell<NetFrontier>>,
    /// Rank-local count of [`Comm::agree`] rounds issued on this
    /// communicator; every member counts its own calls, so the `n`-th call
    /// on each member lands in the same shared agreement slot. Shared
    /// between clones of one handle (cloning a communicator does not fork
    /// its round numbering).
    agree_seq: Rc<Cell<u64>>,
}

impl Comm {
    pub(crate) fn world(world_rank: usize, shared: Arc<SharedState>, clock: LocalClock) -> Comm {
        let n = shared.placement.len();
        let frontier = NetFrontier::new(shared.cluster.contention(), shared.cluster.len());
        Comm {
            shared,
            group: Arc::new(Group::world(n)),
            ctx: 0,
            rank: world_rank,
            clock,
            frontier: Rc::new(RefCell::new(frontier)),
            agree_seq: Rc::new(Cell::new(0)),
        }
    }

    /// This process's rank in the communicator (`MPI_Comm_rank`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator (`MPI_Comm_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The communicator's group (`MPI_Comm_group`).
    #[inline]
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The world rank behind a communicator rank.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn world_rank_of(&self, rank: usize) -> usize {
        self.group.world_rank_of(rank)
    }

    /// The calling process's world rank.
    #[inline]
    pub fn my_world_rank(&self) -> usize {
        self.group.world_rank_of(self.rank)
    }

    /// The cluster node hosting a communicator rank.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.shared.placement[self.world_rank_of(rank)]
    }

    /// This rank's virtual clock.
    #[inline]
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Performs `units` benchmark units of computation on the calling rank's
    /// processor, advancing its clock.
    ///
    /// # Panics
    /// Panics if this rank's node has fail-stopped. Fault-aware programs use
    /// [`Comm::try_compute`].
    pub fn compute(&self, units: f64) {
        let node = self.node_of(self.rank);
        let start = self.clock.now();
        let dt = self.shared.cluster.compute_time(node, units, start);
        self.clock.advance(dt);
        self.trace_compute(start, dt);
    }

    /// Records a compute span when tracing is enabled (one `Option` check
    /// otherwise).
    fn trace_compute(&self, start: SimTime, dur: SimTime) {
        if let Some(tracer) = &self.shared.tracer {
            let mut ev =
                TraceEvent::new(self.my_world_rank(), TraceKind::Compute, "compute", start);
            ev.dur = dur;
            tracer.record(ev);
        }
    }

    /// Failure-aware computation: if this rank's node fail-stops before the
    /// work completes, the clock is clamped to the crash time, the failure is
    /// published, and [`MpiError::NodeFailed`] (with the caller's own world
    /// rank) is returned.
    pub fn try_compute(&self, units: f64) -> MpiResult<()> {
        let me = self.my_world_rank();
        let node = self.shared.placement[me];
        let now = self.clock.now();
        if let Some(tc) = self.shared.cluster.crash_time(node) {
            if now >= tc {
                self.shared.mark_failed(me, tc);
                return Err(MpiError::NodeFailed { world_rank: me });
            }
            let dt = self.shared.cluster.compute_time(node, units, now);
            if now + dt >= tc {
                self.clock.set(tc);
                self.shared.mark_failed(me, tc);
                return Err(MpiError::NodeFailed { world_rank: me });
            }
            self.clock.advance(dt);
            self.trace_compute(now, dt);
            return Ok(());
        }
        self.compute(units);
        Ok(())
    }

    /// True if the failure detector still considers the communicator rank
    /// `rank` alive — neither fail-stopped nor exited. A rank is trivially
    /// alive to itself.
    pub fn rank_alive(&self, rank: usize) -> bool {
        let w = self.world_rank_of(rank);
        w == self.my_world_rank() || self.shared.rank_state(w) == RankState::Alive
    }

    /// Errors with [`MpiError::NodeFailed`] (own world rank) if the calling
    /// rank's node has fail-stopped by its current virtual time, publishing
    /// the failure as a side effect.
    fn check_self_alive(&self) -> MpiResult<()> {
        let me = self.my_world_rank();
        let node = self.shared.placement[me];
        if let Some(tc) = self.shared.cluster.crash_time(node) {
            if self.clock.now() >= tc {
                self.shared.mark_failed(me, tc);
                return Err(MpiError::NodeFailed { world_rank: me });
            }
        }
        Ok(())
    }

    /// The abort condition a blocked receive re-checks: is the awaited
    /// sender dead (`ANY_SOURCE`: is *every* other member)? A live peer
    /// never aborts the wait, so p2p between live ranks keeps working
    /// during recovery, and a collective learns of a failure only along
    /// its schedule's edges (see [`crate::engine`]).
    fn peer_abort(&self, src_world: Option<usize>) -> Option<MpiError> {
        let me = self.my_world_rank();
        match src_world {
            Some(s) => match self.shared.rank_state(s) {
                RankState::Alive => None,
                RankState::Failed(_) => Some(MpiError::NodeFailed { world_rank: s }),
                RankState::Terminated => Some(MpiError::PeerTerminated { world_rank: s }),
            },
            None => {
                let mut verdict = None;
                for &w in self.group.world_ranks() {
                    if w == me {
                        continue;
                    }
                    match self.shared.rank_state(w) {
                        RankState::Alive => return None,
                        RankState::Failed(_) => {
                            verdict = Some(MpiError::NodeFailed { world_rank: w });
                        }
                        RankState::Terminated => {
                            verdict = verdict.or(Some(MpiError::PeerTerminated { world_rank: w }));
                        }
                    }
                }
                verdict
            }
        }
    }

    pub(crate) fn check_rank(&self, rank: usize) -> MpiResult<()> {
        if rank >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: rank as isize,
                comm_size: self.size(),
            });
        }
        Ok(())
    }

    // ----- point-to-point ---------------------------------------------------

    /// Internal transport: posts `bytes` to `dest` (a comm rank) on the given
    /// context plane. Legacy `Vec<u8>` entry point — small payloads are
    /// repacked inline (eager); larger ones ride as heap payloads.
    pub(crate) fn post_bytes(
        &self,
        plane: u64,
        bytes: Vec<u8>,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        let payload = Payload::from_vec(bytes, self.shared.eager_limit);
        self.post_payload(plane, payload, dest, tag)
    }

    /// Internal transport: encodes `data` straight into its protocol
    /// representation — inline (no allocation) under the eager limit, an
    /// arena lease above it — and posts it. The preferred send path.
    pub(crate) fn post_typed<T: MpiType>(
        &self,
        plane: u64,
        data: &[T],
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        let payload = encode_payload(data, self.shared.eager_limit, &self.shared.pool);
        self.post_payload(plane, payload, dest, tag)
    }

    /// Internal transport core: posts a ready payload to `dest` (a comm
    /// rank) on the given context plane, advancing the sender clock by the
    /// injection overhead and stamping the envelope with its arrival time.
    /// Delivery goes through the sender's eager lane into the destination
    /// mailbox, so concurrent senders never contend on a shared lock.
    ///
    /// Failure semantics (all judged in deterministic virtual time):
    /// [`MpiError::NodeFailed`] if the sender's own node has crashed (own
    /// world rank) or the destination's node has crashed by the sender's
    /// current time (destination world rank); [`MpiError::LinkDown`] if the
    /// fault plan has dropped the link.
    pub(crate) fn post_payload(
        &self,
        plane: u64,
        payload: Payload,
        dest: usize,
        tag: i32,
    ) -> MpiResult<()> {
        self.check_self_alive()?;
        let src_world = self.my_world_rank();
        let dst_world = self.world_rank_of(dest);
        let src_node = self.shared.placement[src_world];
        let dst_node = self.shared.placement[dst_world];
        let now = self.clock.now();
        if let Some(tc) = self.shared.cluster.crash_time(dst_node) {
            if now >= tc {
                return Err(MpiError::NodeFailed {
                    world_rank: dst_world,
                });
            }
        }
        let (overhead, cost) = if src_world == dst_world {
            // Self-sends stay on the free loopback even when a memory bus
            // is modelled; only distinct co-located ranks fight for it.
            (SimTime::ZERO, SimTime::ZERO)
        } else {
            let link = self.shared.cluster.rank_link(src_node, dst_node);
            let cost = self
                .shared
                .cluster
                .rank_transfer_time_at(src_node, dst_node, payload.len(), now)
                .ok_or(MpiError::LinkDown {
                    from: src_node.index(),
                    to: dst_node.index(),
                })?;
            (SimTime::from_secs(link.latency), cost)
        };
        // Sender-side arbitration against this rank's own frontier; the
        // receiver settles the stamped window at match time (see
        // `crate::vtime` — the two steps make contention deterministic).
        let (arrival, xfer, seq) = {
            let mut f = self.frontier.borrow_mut();
            let (arrival, xfer) = f.grant(src_node, dst_node, now, cost);
            (arrival, xfer, f.take_seq())
        };
        self.clock.advance(overhead);
        if let Some(tracer) = &self.shared.tracer {
            let mut ev = TraceEvent::new(src_world, TraceKind::Send, "send", now);
            ev.dur = overhead;
            ev.bytes = payload.len() as u64;
            ev.protocol = Some(payload.protocol());
            ev.peer = Some(dst_world);
            // Context-id pairs have an even p2p plane and an odd collective
            // plane (the allocator hands out even bases).
            ev.collective = plane & 1 == 1;
            tracer.record(ev);
        }
        self.shared.mailboxes[dst_world].post_lane(Envelope {
            ctx: plane,
            src_world,
            tag,
            payload,
            sent_at: now,
            arrival,
            seq,
            xfer,
        });
        Ok(())
    }

    /// Settles a matched envelope's contended-wire reservation against this
    /// rank's frontier (the receiver-side arbitration step), returning the
    /// final arrival time. Runs on the receiving rank's own thread at the
    /// moment the envelope is consumed; uncontended envelopes pass their
    /// stamped arrival through unchanged.
    fn settle_arrival(&self, env: &Envelope) -> SimTime {
        match env.xfer {
            Some(x) => self.frontier.borrow_mut().settle(x),
            None => env.arrival,
        }
    }

    /// Internal transport: blocking matched receive on a context plane.
    pub(crate) fn recv_bytes(
        &self,
        plane: u64,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Msg, Status)> {
        self.recv_bytes_opts(plane, src, tag, None)
    }

    /// Resolution of a provably-missed receive deadline: a doomed rank dies
    /// (the crash time was the binding deadline); otherwise the clock
    /// advances to the deadline and [`MpiError::Timeout`] is returned.
    fn resolve_timeout(
        &self,
        death_binding: bool,
        own_tc: Option<SimTime>,
        deadline: Option<SimTime>,
    ) -> MpiError {
        let my_world = self.my_world_rank();
        if death_binding {
            // Nothing can reach this rank before its node dies.
            let tc = own_tc.expect("death_binding implies a crash time");
            self.clock.merge(tc);
            self.shared.mark_failed(my_world, tc);
            MpiError::NodeFailed {
                world_rank: my_world,
            }
        } else {
            if let Some(d) = deadline {
                self.clock.merge(d);
            }
            MpiError::Timeout
        }
    }

    /// Internal transport: matched receive with failure detection and an
    /// optional virtual-time deadline.
    ///
    /// * A message already queued from a now-dead sender is still delivered
    ///   (it was sent before the sender died).
    /// * Blocked with the awaited peer dead → [`MpiError::NodeFailed`] /
    ///   [`MpiError::PeerTerminated`] (see [`Comm::peer_abort`]).
    /// * `deadline` exceeded → [`MpiError::Timeout`], with the clock advanced
    ///   to the deadline and any late message left queued. The miss is
    ///   concluded *exactly*: either a provably-late message is queued
    ///   (specific source, non-overtaking), or the quiescence detector
    ///   proves no qualifying message can be sent any more. The deadline
    ///   bounds the *wire* arrival stamped by the sender; a message on the
    ///   wire in time is delivered even if receiver-side contention
    ///   settlement pushes its final arrival past the deadline.
    /// * If the matched message would arrive after this rank's own node
    ///   crashes, the rank dies first: clock clamps to the crash time and
    ///   [`MpiError::NodeFailed`] (own rank) is returned.
    /// * A rank whose own node is doomed never waits past its death: the
    ///   crash time acts as an implicit deadline on every blocking receive
    ///   (a fail-stopped machine cannot sit in `MPI_Recv` forever), so a
    ///   message that will never come resolves as the rank's own failure
    ///   rather than a deadlock.
    ///
    /// While blocked, the rank is registered with the quiescence detector
    /// ([`crate::quiesce`]); if the whole universe is stuck, classification
    /// delivers a typed verdict ([`MpiError::Timeout`],
    /// [`MpiError::NodeFailed`], or [`MpiError::Deadlock`] with the wait
    /// graph) in milliseconds. The universe's wall-clock watchdog remains as
    /// a backstop.
    pub(crate) fn recv_bytes_opts(
        &self,
        plane: u64,
        src: Option<usize>,
        tag: Option<i32>,
        deadline: Option<SimTime>,
    ) -> MpiResult<(Msg, Status)> {
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        let pat = Pattern {
            ctx: plane,
            src_world: src.map(|r| self.world_rank_of(r)),
            tag,
        };
        let own_tc = self.shared.doom[my_world];
        let death_binding = own_tc.is_some_and(|tc| deadline.is_none_or(|d| tc <= d));
        let eff_deadline = if death_binding { own_tc } else { deadline };
        let mb = &self.shared.mailboxes[my_world];
        let reg = &self.shared.quiesce;

        // The registry record: who could unblock us, and whether one death
        // among them (or only all of them) aborts the wait. Must mirror
        // `peer_abort` exactly, or the quiescence stability check diverges
        // from what this loop actually does.
        let (waiting_on, abort_any) = match pat.src_world {
            Some(s) => (vec![s], true),
            None => {
                let others = self.group.world_ranks().iter().copied();
                (others.filter(|&w| w != my_world).collect(), false)
            }
        };

        let env = 'matched: {
            // Read before any check this wait sleeps on (see `Mailbox::rings`).
            let mut seen = mb.rings();
            // Fast path: deliverable (or provably late) message already queued.
            match mb.claim(pat, eff_deadline) {
                Claim::Matched(env) => break 'matched env,
                Claim::DeadlineMissed => {
                    return Err(self.resolve_timeout(death_binding, own_tc, deadline))
                }
                Claim::Nothing => {}
            }
            if let Some(err) = self.peer_abort(pat.src_world) {
                // A sender may have posted its message and *then* died;
                // the queued match wins over the abort.
                match mb.claim(pat, eff_deadline) {
                    Claim::Matched(env) => break 'matched env,
                    Claim::DeadlineMissed => {
                        return Err(self.resolve_timeout(death_binding, own_tc, deadline))
                    }
                    Claim::Nothing => return Err(err),
                }
            }
            let rec = WaitRecord {
                waiting_on: waiting_on.clone(),
                abort_any,
                deadline: eff_deadline,
                kind: WaitKind::Mailbox { pats: vec![pat] },
            };
            let start = Instant::now();
            // Classification triggered by our own block may verdict us
            // immediately (taking the verdict resets us to Active).
            if let Some(v) = reg.block(my_world, rec) {
                return Err(match v {
                    MpiError::Timeout => self.resolve_timeout(death_binding, own_tc, deadline),
                    other => other,
                });
            }
            loop {
                mb.wait_deliverable(
                    std::slice::from_ref(&pat),
                    eff_deadline,
                    seen,
                    WAKE_BACKSTOP,
                );
                seen = mb.rings();
                // Claim atomically with the registry so the classifier can
                // never see us blocked *after* we consumed our message.
                match reg.claim_for(my_world, pat, eff_deadline) {
                    Claim::Matched(env) => break 'matched env,
                    Claim::DeadlineMissed => {
                        return Err(self.resolve_timeout(death_binding, own_tc, deadline));
                    }
                    Claim::Nothing => {}
                }
                if let Some(v) = reg.check(my_world) {
                    return Err(match v {
                        MpiError::Timeout => {
                            self.resolve_timeout(death_binding, own_tc, deadline)
                        }
                        other => other,
                    });
                }
                if let Some(err) = self.peer_abort(pat.src_world) {
                    // A sender may have posted its message and *then* died;
                    // the queued match wins over the abort.
                    match reg.claim_for(my_world, pat, eff_deadline) {
                        Claim::Matched(env) => break 'matched env,
                        Claim::DeadlineMissed => {
                            return Err(self.resolve_timeout(death_binding, own_tc, deadline));
                        }
                        Claim::Nothing => {
                            reg.unblock(my_world);
                            return Err(err);
                        }
                    }
                }
                if start.elapsed() >= self.shared.watchdog {
                    // Belt-and-braces backstop: the quiescence detector
                    // should have classified this state long ago.
                    reg.unblock(my_world);
                    return Err(match eff_deadline {
                        Some(_) => self.resolve_timeout(death_binding, own_tc, deadline),
                        None => MpiError::Deadlock {
                            waiting: my_world,
                            on: waiting_on.clone(),
                            graph: WaitGraph {
                                edges: vec![(my_world, waiting_on)],
                            },
                        },
                    });
                }
            }
        };
        let arrival = self.settle_arrival(&env);
        if let Some(tc) = own_tc {
            if arrival >= tc {
                self.clock.merge(tc);
                self.shared.mark_failed(my_world, tc);
                return Err(MpiError::NodeFailed {
                    world_rank: my_world,
                });
            }
        }
        let before = self.clock.now();
        self.clock.merge(arrival);
        if let Some(tracer) = &self.shared.tracer {
            let dur = arrival.max(before) - before;
            let mut ev = TraceEvent::new(my_world, TraceKind::Recv, "recv", before);
            ev.dur = dur;
            // The idle part of the span: time spent blocked before the
            // sender had even reached its send.
            ev.wait = (env.sent_at.max(before) - before).min(dur);
            ev.bytes = env.len() as u64;
            ev.protocol = Some(env.payload.protocol());
            ev.peer = Some(env.src_world);
            ev.collective = plane & 1 == 1;
            tracer.record(ev);
        }
        let source = self
            .group
            .rank_of_world(env.src_world)
            .expect("sender is in this communicator by construction");
        let status = Status {
            source,
            tag: env.tag,
            bytes: env.len(),
        };
        Ok((env.into_msg(), status))
    }

    /// Standard-mode send (`MPI_Send`; eager/buffered, never blocks).
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] if `dest` is outside the communicator;
    /// [`MpiError::NodeFailed`] if the destination's node (or the caller's
    /// own) has fail-stopped; [`MpiError::LinkDown`] if the link is dropped.
    pub fn send<T: MpiType>(&self, data: &[T], dest: usize, tag: i32) -> MpiResult<()> {
        self.check_rank(dest)?;
        self.post_typed(self.ctx, data, dest, tag)
    }

    /// Blocking receive of a whole message from a specific source and tag.
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad source;
    /// [`MpiError::TypeMismatch`] if the payload is not a whole number of
    /// `T` elements; [`MpiError::NodeFailed`] / [`MpiError::PeerTerminated`]
    /// if the awaited sender is dead and nothing from it is queued.
    pub fn recv<T: MpiType>(&self, src: usize, tag: i32) -> MpiResult<(Vec<T>, Status)> {
        self.check_rank(src)?;
        let (bytes, status) = self.recv_bytes(self.ctx, Some(src), Some(tag))?;
        Ok((decode(&bytes)?, status))
    }

    /// Blocking receive that gives up at a virtual-time `deadline`: if no
    /// matching message has arrival time `<= deadline`, returns
    /// [`MpiError::Timeout`] with the clock advanced to the deadline (a late
    /// message stays queued for a later receive). Peer death is still
    /// reported as [`MpiError::NodeFailed`] / [`MpiError::PeerTerminated`].
    ///
    /// The miss is concluded *exactly* in virtual time: either a queued
    /// later message proves the deadline unreachable (non-overtaking), or
    /// the quiescence detector proves no qualifying message can be sent any
    /// more. Real elapsed time plays no part, so a slow host cannot turn a
    /// would-be delivery into a timeout.
    ///
    /// # Errors
    /// As [`Comm::recv`], plus [`MpiError::Timeout`].
    pub fn recv_deadline<T: MpiType>(
        &self,
        src: usize,
        tag: i32,
        deadline: SimTime,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.check_rank(src)?;
        let (bytes, status) =
            self.recv_bytes_opts(self.ctx, Some(src), Some(tag), Some(deadline))?;
        Ok((decode(&bytes)?, status))
    }

    /// [`Comm::recv_deadline`] with the deadline expressed as a duration from
    /// the caller's current virtual time.
    ///
    /// # Errors
    /// As [`Comm::recv_deadline`].
    pub fn recv_timeout<T: MpiType>(
        &self,
        src: usize,
        tag: i32,
        timeout: SimTime,
    ) -> MpiResult<(Vec<T>, Status)> {
        self.recv_deadline(src, tag, self.clock.now() + timeout)
    }

    /// Blocking receive with optional wildcards (`None` = `MPI_ANY_SOURCE` /
    /// `MPI_ANY_TAG`).
    ///
    /// # Errors
    /// As [`Comm::recv`].
    pub fn recv_any<T: MpiType>(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<(Vec<T>, Status)> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let (bytes, status) = self.recv_bytes(self.ctx, src, tag)?;
        Ok((decode(&bytes)?, status))
    }

    /// Blocking receive into a caller-supplied buffer, with truncation
    /// checking (`MPI_Recv` proper). Returns the element count received.
    ///
    /// # Errors
    /// [`MpiError::Truncated`] if the message exceeds the buffer.
    pub fn recv_into<T: MpiType>(
        &self,
        buf: &mut [T],
        src: usize,
        tag: i32,
    ) -> MpiResult<(usize, Status)> {
        self.check_rank(src)?;
        let (bytes, status) = self.recv_bytes(self.ctx, Some(src), Some(tag))?;
        let n = decode_into(&bytes, buf)?;
        Ok((n, status))
    }

    /// Combined send and receive (`MPI_Sendrecv`). Never deadlocks because
    /// sends are eager.
    ///
    /// # Errors
    /// As [`Comm::send`] / [`Comm::recv`].
    pub fn sendrecv<T: MpiType, U: MpiType>(
        &self,
        send_data: &[T],
        dest: usize,
        send_tag: i32,
        src: usize,
        recv_tag: i32,
    ) -> MpiResult<(Vec<U>, Status)> {
        self.send(send_data, dest, send_tag)?;
        self.recv(src, recv_tag)
    }

    /// Nonblocking send (`MPI_Isend`). Under the eager model the send is
    /// already complete when this returns; the request exists for API parity.
    ///
    /// # Errors
    /// As [`Comm::send`].
    pub fn isend<T: MpiType>(&self, data: &[T], dest: usize, tag: i32) -> MpiResult<SendRequest> {
        self.send(data, dest, tag)?;
        Ok(SendRequest { _priv: () })
    }

    /// Nonblocking receive (`MPI_Irecv`): returns a request to be completed
    /// with [`RecvRequest::wait`] or polled with [`RecvRequest::test`].
    ///
    /// # Errors
    /// [`MpiError::InvalidRank`] for a bad explicit source.
    pub fn irecv(&self, src: Option<usize>, tag: Option<i32>) -> MpiResult<RecvRequest> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        Ok(RecvRequest {
            src,
            tag,
            done: None,
        })
    }

    /// Blocking probe (`MPI_Probe`): metadata of the next matching message
    /// without receiving it. Advances the clock to the message's *wire*
    /// arrival; receiver-side contention settlement is charged only when
    /// the message is actually received (a probe consumes nothing, so it
    /// must not advance the frontier).
    ///
    /// Failure-aware like [`Comm::recv`]: a dead awaited peer (or, for a
    /// doomed caller, its own crash) resolves the wait with a typed error
    /// instead of hanging, and the wait is registered with the quiescence
    /// detector.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> MpiResult<Status> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        let pat = Pattern {
            ctx: self.ctx,
            src_world: src.map(|r| self.world_rank_of(r)),
            tag,
        };
        let own_tc = self.shared.doom[my_world];
        let mb = &self.shared.mailboxes[my_world];
        let reg = &self.shared.quiesce;
        let (waiting_on, abort_any) = match pat.src_world {
            Some(s) => (vec![s], true),
            None => (
                self.group
                    .world_ranks()
                    .iter()
                    .copied()
                    .filter(|&w| w != my_world)
                    .collect(),
                false,
            ),
        };
        let hit = 'found: {
            let mut seen = mb.rings();
            if let Some(hit) = mb.try_probe(pat) {
                break 'found hit;
            }
            if let Some(err) = self.peer_abort(pat.src_world) {
                match mb.try_probe(pat) {
                    Some(hit) => break 'found hit,
                    None => return Err(err),
                }
            }
            let rec = WaitRecord {
                waiting_on: waiting_on.clone(),
                abort_any,
                deadline: own_tc,
                kind: WaitKind::Mailbox { pats: vec![pat] },
            };
            let start = Instant::now();
            let mut verdict = reg.block(my_world, rec);
            loop {
                if let Some(v) = verdict.take() {
                    return Err(match v {
                        MpiError::Timeout => self.resolve_timeout(true, own_tc, None),
                        other => other,
                    });
                }
                if let Some(hit) = mb.wait_or_peek(pat, seen, WAKE_BACKSTOP) {
                    reg.unblock(my_world);
                    break 'found hit;
                }
                seen = mb.rings();
                if let Some(err) = self.peer_abort(pat.src_world) {
                    let late = mb.try_probe(pat);
                    reg.unblock(my_world);
                    match late {
                        Some(hit) => break 'found hit,
                        None => return Err(err),
                    }
                }
                if start.elapsed() >= self.shared.watchdog {
                    reg.unblock(my_world);
                    return Err(MpiError::Deadlock {
                        waiting: my_world,
                        on: waiting_on.clone(),
                        graph: WaitGraph {
                            edges: vec![(my_world, waiting_on)],
                        },
                    });
                }
                verdict = reg.check(my_world);
            }
        };
        let (src_world, tag, bytes, arrival) = hit;
        if let Some(tc) = own_tc {
            if arrival >= tc {
                self.clock.merge(tc);
                self.shared.mark_failed(my_world, tc);
                return Err(MpiError::NodeFailed {
                    world_rank: my_world,
                });
            }
        }
        self.clock.merge(arrival);
        Ok(Status {
            source: self
                .group
                .rank_of_world(src_world)
                .expect("sender is a member"),
            tag,
            bytes,
        })
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, src: Option<usize>, tag: Option<i32>) -> MpiResult<Option<Status>> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let my_world = self.my_world_rank();
        let pat = Pattern {
            ctx: self.ctx,
            src_world: src.map(|r| self.world_rank_of(r)),
            tag,
        };
        Ok(self.shared.mailboxes[my_world].try_probe(pat).map(
            |(src_world, tag, bytes, _)| Status {
                source: self
                    .group
                    .rank_of_world(src_world)
                    .expect("sender is a member"),
                tag,
                bytes,
            },
        ))
    }

    // ----- communicator constructors ---------------------------------------

    /// The collective context plane.
    #[inline]
    pub(crate) fn coll_plane(&self) -> u64 {
        self.ctx + 1
    }

    /// Duplicates the communicator with a fresh context (`MPI_Comm_dup`).
    /// Collective over all members.
    ///
    /// # Errors
    /// Propagates transport errors from the internal broadcast.
    pub fn dup(&self) -> MpiResult<Comm> {
        let ctx = self.agree_ctx()?;
        Ok(Comm {
            shared: self.shared.clone(),
            group: self.group.clone(),
            ctx,
            rank: self.rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        })
    }

    /// Duplicates the communicator **without communicating**: context
    /// agreement goes through the universe's shared context registry, so
    /// the call cannot block or fail even while nodes are crashing — a
    /// collective [`Comm::dup`] would abort on the first dead relay in
    /// its broadcast tree. Intended for control planes set up at init
    /// time, before any failure can be tolerated.
    ///
    /// Every member must call it with the same `seq`; calls with equal
    /// `(parent, seq)` yield the *same* communicator, distinct `seq`s
    /// yield distinct ones. (Real MPI has no equivalent; this leans on
    /// the simulator's shared memory the way `MPI_Comm_idup` leans on
    /// deferred agreement.)
    pub fn dup_local(&self, seq: u64) -> Comm {
        let ctx = self.shared.ctx_for_local_dup(self.ctx, seq);
        Comm {
            shared: self.shared.clone(),
            group: self.group.clone(),
            ctx,
            rank: self.rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Rank 0 allocates a context-id pair and broadcasts it.
    fn agree_ctx(&self) -> MpiResult<u64> {
        let mut v = if self.rank == 0 {
            vec![self.shared.alloc_ctx_pair() as i64]
        } else {
            Vec::new()
        };
        self.bcast(&mut v, 0)?;
        Ok(v[0] as u64)
    }

    /// Creates a communicator over a subgroup (`MPI_Comm_create`).
    /// Collective over **all** members of `self`; members of `group` receive
    /// `Some(comm)`, others `None`.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] if `group` is not a subset of this
    /// communicator's group.
    pub fn create(&self, group: &Group) -> MpiResult<Option<Comm>> {
        for &w in group.world_ranks() {
            if !self.group.contains_world(w) {
                return Err(MpiError::InvalidGroup(format!(
                    "world rank {w} is not in the parent communicator"
                )));
            }
        }
        let ctx = self.agree_ctx()?;
        Ok(group.rank_of_world(self.my_world_rank()).map(|rank| Comm {
            shared: self.shared.clone(),
            group: Arc::new(group.clone()),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
    }

    /// Allocates a fresh context-id pair from the universe's allocator
    /// *without* any communication. Building block for runtimes layered on
    /// mpisim (HMPI's group-create protocol has one coordinator allocate the
    /// context and distribute it point-to-point).
    pub fn alloc_ctx(&self) -> u64 {
        self.shared.alloc_ctx_pair()
    }

    /// Constructs a communicator over `group` with an externally agreed
    /// context id (from [`Comm::alloc_ctx`] on some coordinator), without
    /// collective communication. Returns `None` if the caller is not in
    /// `group`. All members must use the same `ctx` or their messages will
    /// never match — that agreement is the caller's protocol's business.
    ///
    /// # Errors
    /// [`MpiError::InvalidGroup`] if `group` is not a subset of this
    /// communicator's group.
    pub fn subset_with_ctx(&self, group: &Group, ctx: u64) -> MpiResult<Option<Comm>> {
        for &w in group.world_ranks() {
            if !self.group.contains_world(w) {
                return Err(MpiError::InvalidGroup(format!(
                    "world rank {w} is not in the parent communicator"
                )));
            }
        }
        Ok(group.rank_of_world(self.my_world_rank()).map(|rank| Comm {
            shared: self.shared.clone(),
            group: Arc::new(group.clone()),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
    }

    /// Partitions the communicator by color (`MPI_Comm_split`). `None` color
    /// (`MPI_UNDEFINED`) yields `Ok(None)`. Within a color, ranks are ordered
    /// by `(key, rank in parent)`.
    ///
    /// # Errors
    /// Propagates transport errors from the internal gather/scatter.
    pub fn split(&self, color: Option<i32>, key: i32) -> MpiResult<Option<Comm>> {
        const UNDEF: i64 = i64::MIN;
        let contrib = [
            color.map_or(UNDEF, |c| c as i64),
            key as i64,
        ];
        let gathered = self.gather(&contrib, 0)?;

        // Root computes each color's member list (world ranks, ordered by
        // (key, parent rank)) and allocates a context pair per color.
        let mut parts: Vec<Vec<i64>> = vec![Vec::new(); self.size()];
        if let Some(rows) = gathered {
            let mut colors: Vec<i32> = rows
                .iter()
                .filter(|r| r[0] != UNDEF)
                .map(|r| r[0] as i32)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            for color in colors {
                let mut members: Vec<(i64, usize)> = rows
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r[0] != UNDEF && r[0] as i32 == color)
                    .map(|(parent_rank, r)| (r[1], parent_rank))
                    .collect();
                members.sort_unstable();
                let ctx = self.shared.alloc_ctx_pair() as i64;
                let world_members: Vec<i64> = members
                    .iter()
                    .map(|&(_, pr)| self.world_rank_of(pr) as i64)
                    .collect();
                for &(_, parent_rank) in &members {
                    let mut msg = vec![ctx];
                    msg.extend_from_slice(&world_members);
                    parts[parent_rank] = msg;
                }
            }
        }

        let mine = self.scatter(if self.rank == 0 { Some(&parts) } else { None }, 0)?;
        if mine.is_empty() {
            return Ok(None);
        }
        let ctx = mine[0] as u64;
        let members: Vec<usize> = mine[1..].iter().map(|&w| w as usize).collect();
        let group = Group::from_world_ranks(members)?;
        let rank = group
            .rank_of_world(self.my_world_rank())
            .expect("split member lists include the contributing rank");
        Ok(Some(Comm {
            shared: self.shared.clone(),
            group: Arc::new(group),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        }))
    }

    // ----- fault-tolerant agreement -----------------------------------------

    /// ULFM-style agreement (`MPIX_Comm_agree`): every *live* member
    /// contributes a boolean; the call returns the AND-fold of the
    /// contributions plus the exact set of members that died without
    /// contributing. Unlike the data collectives, agreement **tolerates
    /// failures mid-flight**: dead members are excluded rather than
    /// aborting the round, so it is the primitive survivors use to reach a
    /// consistent verdict after a failed collective.
    ///
    /// Guarantees:
    /// * every survivor returns the *same* [`Agreement`] — the outcome is
    ///   computed from one shared round slot, so unanimity is structural;
    /// * a member that deposited and died afterwards still counts as agreed
    ///   (its contribution was made); `failed` lists only members that died
    ///   *without* contributing;
    /// * the round is a virtual-time synchronisation point among survivors:
    ///   the caller's clock advances to the latest deposit time;
    /// * deterministic: whether a member deposits or dies first is decided
    ///   by the fault plan in virtual time, so the same seed yields the
    ///   same verdict and failed set.
    ///
    /// Every member must call `agree` the same number of times on a given
    /// communicator (the `n`-th calls form one round).
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] (own rank) if the caller's node crashes
    /// before the round completes.
    pub fn agree(&self, flag: bool) -> MpiResult<Agreement> {
        self.agree_inner(flag).map(|(a, _)| a)
    }

    fn agree_inner(&self, flag: bool) -> MpiResult<(Agreement, u64)> {
        self.check_self_alive()?;
        let my_world = self.my_world_rank();
        let seq = self.agree_seq.get();
        self.agree_seq.set(seq + 1);
        let key = (self.coll_plane(), seq);
        let members = self.group.world_ranks();
        let table = &self.shared.agreements;
        let reg = &self.shared.quiesce;
        let mb = &self.shared.mailboxes[my_world];
        let own_tc = self.shared.doom[my_world];
        table.deposit(key, members, my_world, flag, self.clock.now(), || {
            self.shared.alloc_ctx_pair()
        });
        // Members blocked in their own poll sleep on their mailboxes.
        for &w in members {
            self.shared.mailboxes[w].wake_all();
        }
        let is_dead =
            |w: usize| w != my_world && self.shared.rank_state(w) != RankState::Alive;
        let finish = |a: Agreement, ctx: u64| -> MpiResult<(Agreement, u64)> {
            if let Some(tc) = own_tc {
                if a.at >= tc {
                    // The round completed after this rank's own death.
                    self.clock.merge(tc);
                    self.shared.mark_failed(my_world, tc);
                    return Err(MpiError::NodeFailed {
                        world_rank: my_world,
                    });
                }
            }
            self.clock.merge(a.at);
            Ok((a, ctx))
        };
        let mut seen = mb.rings();
        if let Some((a, ctx)) = table.try_outcome(key, is_dead) {
            return finish(a, ctx);
        }
        let start = Instant::now();
        let mut verdict = None;
        loop {
            let rec = WaitRecord {
                waiting_on: table.pending_live(key, is_dead),
                abort_any: false,
                deadline: own_tc,
                kind: WaitKind::Agreement { key },
            };
            if verdict.is_none() {
                verdict = reg.block(my_world, rec);
            }
            if let Some(v) = verdict.take() {
                return Err(match v {
                    MpiError::Timeout => self.resolve_timeout(true, own_tc, None),
                    other => other,
                });
            }
            mb.wait_deliverable(&[], None, seen, WAKE_BACKSTOP);
            seen = mb.rings();
            verdict = reg.check(my_world);
            if let Some((a, ctx)) = table.try_outcome(key, is_dead) {
                reg.unblock(my_world);
                return finish(a, ctx);
            }
            if start.elapsed() >= self.shared.watchdog {
                let on = table.pending_live(key, is_dead);
                reg.unblock(my_world);
                return Err(MpiError::Deadlock {
                    waiting: my_world,
                    on: on.clone(),
                    graph: WaitGraph {
                        edges: vec![(my_world, on)],
                    },
                });
            }
        }
    }

    /// Shrinks the communicator to its survivors (`MPIX_Comm_shrink`): runs
    /// an agreement round and builds a new communicator over exactly the
    /// members that completed it. Every survivor gets a handle over the
    /// *same* group with the *same* (pre-reserved) context, so the result
    /// is immediately usable for collectives — the recovery step after a
    /// failed collective.
    ///
    /// # Errors
    /// [`MpiError::NodeFailed`] (own rank) if the caller dies during the
    /// round.
    pub fn shrink(&self) -> MpiResult<Comm> {
        let (agreement, ctx) = self.agree_inner(true)?;
        let survivors: Vec<usize> = self
            .group
            .world_ranks()
            .iter()
            .copied()
            .filter(|w| !agreement.failed.contains(w))
            .collect();
        let group = Group::from_world_ranks(survivors)?;
        let rank = group
            .rank_of_world(self.my_world_rank())
            .expect("a completed agreement includes the caller among survivors");
        Ok(Comm {
            shared: self.shared.clone(),
            group: Arc::new(group),
            ctx,
            rank,
            clock: self.clock.clone(),
            frontier: self.frontier.clone(),
            agree_seq: Rc::new(Cell::new(0)),
        })
    }
}

/// Completes a set of outstanding receives in order (`MPI_Waitall`).
///
/// # Errors
/// Propagates the first decode error.
pub fn wait_all<T: MpiType>(
    reqs: Vec<RecvRequest>,
    comm: &Comm,
) -> MpiResult<Vec<(Vec<T>, Status)>> {
    reqs.into_iter().map(|r| r.wait(comm)).collect()
}

/// Completes exactly one of the outstanding receives (`MPI_Waitany`),
/// returning its index, payload and status plus the still-pending requests.
/// Polls fairly across the requests.
///
/// Failure-aware: if *every* request is dead-ended (its awaited sender —
/// or, for `ANY_SOURCE`, every other member — is dead with nothing queued),
/// the first request's abort error is returned instead of spinning forever.
/// While blocked, the rank is registered with the quiescence detector, so a
/// universe-wide stuck state resolves with a typed verdict in milliseconds.
///
/// # Errors
/// Propagates decode errors and failure-detector errors.
///
/// # Panics
/// Panics if `reqs` is empty.
pub fn wait_any<T: MpiType>(
    mut reqs: Vec<RecvRequest>,
    comm: &Comm,
) -> MpiResult<(usize, Vec<T>, Status, Vec<RecvRequest>)> {
    assert!(!reqs.is_empty(), "wait_any needs at least one request");
    let my_world = comm.my_world_rank();
    let mb = &comm.shared.mailboxes[my_world];
    let reg = &comm.shared.quiesce;
    let own_tc = comm.shared.doom[my_world];
    let pats: Vec<Pattern> = reqs
        .iter()
        .map(|r| Pattern {
            ctx: comm.ctx,
            src_world: r.src.map(|s| comm.world_rank_of(s)),
            tag: r.tag,
        })
        .collect();
    // Union of every request's awaited set; the wait dead-ends only when
    // all of them are gone, so `abort_any` is false.
    let mut waiting_on: Vec<usize> = Vec::new();
    for p in &pats {
        match p.src_world {
            Some(s) => {
                if s != my_world && !waiting_on.contains(&s) {
                    waiting_on.push(s);
                }
            }
            None => {
                for &w in comm.group.world_ranks() {
                    if w != my_world && !waiting_on.contains(&w) {
                        waiting_on.push(w);
                    }
                }
            }
        }
    }
    waiting_on.sort_unstable();
    let start = Instant::now();
    loop {
        let seen = mb.rings();
        // The sweep runs while registered Active, so the classifier never
        // misreads a consumed message as a stuck wait.
        comm.check_self_alive()?;
        for i in 0..reqs.len() {
            if reqs[i].done.is_some() {
                let req = reqs.remove(i);
                let (data, status) = req.wait(comm)?;
                return Ok((i, data, status, reqs));
            }
            match mb.claim(pats[i], own_tc) {
                Claim::Matched(env) => {
                    let arrival = comm.settle_arrival(&env);
                    if let Some(tc) = own_tc {
                        if arrival >= tc {
                            comm.clock.merge(tc);
                            comm.shared.mark_failed(my_world, tc);
                            return Err(MpiError::NodeFailed {
                                world_rank: my_world,
                            });
                        }
                    }
                    let before = comm.clock.now();
                    comm.clock.merge(arrival);
                    if let Some(tracer) = &comm.shared.tracer {
                        let dur = arrival.max(before) - before;
                        let mut ev =
                            TraceEvent::new(my_world, TraceKind::Recv, "recv", before);
                        ev.dur = dur;
                        ev.wait = (env.sent_at.max(before) - before).min(dur);
                        ev.bytes = env.len() as u64;
                        ev.protocol = Some(env.payload.protocol());
                        ev.peer = Some(env.src_world);
                        tracer.record(ev);
                    }
                    let source = comm
                        .group
                        .rank_of_world(env.src_world)
                        .expect("sender is a member");
                    let status = Status {
                        source,
                        tag: env.tag,
                        bytes: env.len(),
                    };
                    reqs.remove(i);
                    return Ok((i, decode(&env.into_msg())?, status, reqs));
                }
                Claim::DeadlineMissed => {
                    // The awaited message arrives only after our own node's
                    // crash: the rank dies first.
                    return Err(comm.resolve_timeout(true, own_tc, None));
                }
                Claim::Nothing => {}
            }
        }
        // Dead-ended: every request's awaited sender (or, for ANY_SOURCE,
        // every other member) is dead with nothing queued.
        let mut dead_end = None;
        let mut all_dead = true;
        for r in &reqs {
            let src_world = r.src.map(|s| comm.world_rank_of(s));
            match comm.peer_abort(src_world) {
                Some(err) => dead_end = dead_end.or(Some(err)),
                None => {
                    all_dead = false;
                    break;
                }
            }
        }
        if all_dead {
            if let Some(err) = dead_end {
                return Err(err);
            }
        }
        let rec = WaitRecord {
            waiting_on: waiting_on.clone(),
            abort_any: false,
            deadline: own_tc,
            kind: WaitKind::Mailbox { pats: pats.clone() },
        };
        if let Some(v) = reg.block(my_world, rec) {
            return Err(match v {
                MpiError::Timeout => comm.resolve_timeout(true, own_tc, None),
                other => other,
            });
        }
        mb.wait_deliverable(&pats, own_tc, seen, WAKE_BACKSTOP);
        if let Some(v) = reg.check(my_world) {
            return Err(match v {
                MpiError::Timeout => comm.resolve_timeout(true, own_tc, None),
                other => other,
            });
        }
        // Back to Active for the next sweep.
        reg.unblock(my_world);
        if start.elapsed() >= comm.shared.watchdog {
            return Err(MpiError::Deadlock {
                waiting: my_world,
                on: waiting_on.clone(),
                graph: WaitGraph {
                    edges: vec![(my_world, waiting_on)],
                },
            });
        }
    }
}

/// Completed-at-creation send request (eager model). Exists for API parity
/// with `MPI_Isend`.
#[derive(Debug)]
pub struct SendRequest {
    _priv: (),
}

impl SendRequest {
    /// Completes immediately.
    pub fn wait(self) {}

    /// Always true.
    pub fn test(&self) -> bool {
        true
    }
}

/// An outstanding nonblocking receive.
#[derive(Debug)]
pub struct RecvRequest {
    src: Option<usize>,
    tag: Option<i32>,
    done: Option<(Msg, Status)>,
}

impl RecvRequest {
    /// Completes the receive, blocking if necessary.
    ///
    /// # Errors
    /// [`MpiError::TypeMismatch`] if the payload is not whole elements of `T`.
    pub fn wait<T: MpiType>(mut self, comm: &Comm) -> MpiResult<(Vec<T>, Status)> {
        if let Some((msg, status)) = self.done.take() {
            return Ok((decode(&msg)?, status));
        }
        let (msg, status) = comm.recv_bytes(comm.ctx, self.src, self.tag)?;
        Ok((decode(&msg)?, status))
    }

    /// Polls for completion without blocking; after `test` returns true,
    /// `wait` returns instantly.
    ///
    /// A doomed rank never completes a receive whose message arrives at or
    /// after its own node's crash time — such a message is left queued (or
    /// dropped) and `test` stays false; the blocking paths then report the
    /// rank's own failure.
    pub fn test(&mut self, comm: &Comm) -> bool {
        if self.done.is_some() {
            return true;
        }
        let my_world = comm.my_world_rank();
        let own_tc = comm.shared.doom[my_world];
        if own_tc.is_some_and(|tc| comm.clock.now() >= tc) {
            return false;
        }
        let pat = Pattern {
            ctx: comm.ctx,
            src_world: self.src.map(|r| comm.world_rank_of(r)),
            tag: self.tag,
        };
        let claimed = match comm.shared.mailboxes[my_world].claim(pat, own_tc) {
            Claim::Matched(env) => {
                let arrival = comm.settle_arrival(&env);
                own_tc.is_none_or(|tc| arrival < tc).then_some((env, arrival))
            }
            _ => None,
        };
        if let Some((env, arrival)) = claimed {
            let before = comm.clock.now();
            comm.clock.merge(arrival);
            if let Some(tracer) = &comm.shared.tracer {
                let dur = arrival.max(before) - before;
                let mut ev = TraceEvent::new(my_world, TraceKind::Recv, "recv", before);
                ev.dur = dur;
                ev.wait = (env.sent_at.max(before) - before).min(dur);
                ev.bytes = env.len() as u64;
                ev.protocol = Some(env.payload.protocol());
                ev.peer = Some(env.src_world);
                tracer.record(ev);
            }
            let source = comm
                .group
                .rank_of_world(env.src_world)
                .expect("sender is a member");
            let status = Status {
                source,
                tag: env.tag,
                bytes: env.len(),
            };
            self.done = Some((env.into_msg(), status));
            true
        } else {
            false
        }
    }
}
