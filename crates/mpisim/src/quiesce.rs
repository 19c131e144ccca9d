//! Exact virtual-time quiescence detection.
//!
//! The old no-hang story was a 60 s wall-clock watchdog: if a blocked
//! receive made no progress for a minute of real time, the program was
//! declared deadlocked. Slow, and inexact — a slow-but-live sender and a
//! true deadlock looked the same until the timer ran out.
//!
//! This module replaces it with a *quiescence detector*. Every rank
//! registers its state with a shared [`Registry`]: `Active` while running,
//! `Blocked` (with a [`WaitRecord`] describing exactly what could unblock
//! it) while waiting, `Done` when its thread exits. Whenever the last
//! active rank blocks or exits, the registry classifies the global state
//! under one lock:
//!
//! 1. **Stability.** If any blocked rank can still make progress on its own
//!    — a matching message is queued for it, its awaited peer is already
//!    dead (so its failure-detector abort will fire), or its agreement
//!    round is completable — the system is *not* quiescent: no verdict is
//!    issued, and that rank resolves organically within one poll interval.
//!    Fault chains therefore unravel link-by-link in virtual-time order,
//!    which keeps the error surface deterministic.
//! 2. **Timeout round.** Otherwise, if any stuck rank has a virtual-time
//!    deadline, the ranks holding the *minimum* deadline receive
//!    [`MpiError::Timeout`] verdicts — in virtual time nothing can reach
//!    them before their deadline, because every rank that could send is
//!    itself stuck. Ranks with later deadlines keep waiting: the resumed
//!    ranks may yet send to them. A rank whose "deadline" is its own node's
//!    crash time converts the verdict into its own fail-stop, so doomed
//!    ranks die in milliseconds of real time instead of dragging out a
//!    real-time grace period.
//! 3. **Terminal round.** No deadlines anywhere: the state can never
//!    change. The registry builds the exact wait graph over the stuck
//!    ranks and classifies each one — a rank that transitively waits on a
//!    dead rank is a *fault-induced orphan* and gets
//!    [`MpiError::NodeFailed`] naming the dead root cause; a rank stuck in
//!    a cycle of live ranks is *truly deadlocked* and gets
//!    [`MpiError::Deadlock`] carrying the wait graph. The one exception is
//!    an agreement waiter whose round waits on a rank released here from a
//!    mailbox wait: it gets no verdict, because the released rank may
//!    still deposit.
//!
//! Detection is exact (no false verdicts: a verdict is only issued when no
//! message is queued and no rank is running) and fast (classification runs
//! at the moment of quiescence, so wall time is milliseconds). The
//! wall-clock watchdog survives only as a configurable belt-and-braces
//! backstop behind this detector.

use crate::agree::{AgreeKey, AgreeTable};
use crate::error::{MpiError, WaitGraph};
use crate::p2p::{Claim, Mailbox, Pattern};
use hetsim::SimTime;
use parking_lot::Mutex;
use std::sync::Arc;

/// What a blocked rank is waiting for.
#[derive(Debug, Clone)]
pub(crate) enum WaitKind {
    /// Blocked in a mailbox receive/probe: unblocked by a deliverable
    /// envelope matching one of the patterns.
    Mailbox {
        /// Acceptable matches (several for `wait_any`).
        pats: Vec<Pattern>,
    },
    /// Blocked in an agreement round: unblocked by slot completion.
    Agreement {
        /// The round being waited on.
        key: AgreeKey,
    },
}

/// A blocked rank's registration: exactly what could unblock it.
#[derive(Debug, Clone)]
pub(crate) struct WaitRecord {
    /// World ranks whose action could unblock this rank.
    pub waiting_on: Vec<usize>,
    /// `true`: any one dead member of `waiting_on` aborts the wait via the
    /// failure detector (specific-source receive, collective-plane
    /// receive). `false`: the wait aborts only once *all* of `waiting_on`
    /// are dead (`ANY_SOURCE`, `wait_any`, agreement).
    pub abort_any: bool,
    /// Virtual-time deadline bounding the wait, if any. A doomed rank's own
    /// crash time is registered here, making death an implicit deadline.
    pub deadline: Option<SimTime>,
    /// The unblocking condition proper.
    pub kind: WaitKind,
}

#[derive(Debug)]
enum Phase {
    Active,
    Blocked(WaitRecord),
    Done,
}

#[derive(Debug)]
struct Inner {
    phase: Vec<Phase>,
    /// World ranks observed fail-stopped *or* terminated — either way they
    /// will never send again.
    dead: Vec<bool>,
    /// Per-rank wait epoch, bumped on every transition to `Blocked`. A
    /// verdict is stamped with the epoch it was issued for and is never
    /// delivered across epochs: a verdict that outlives the wait it judged
    /// (the rank resolved organically and blocked again) is stale by
    /// construction and must be dropped, not delivered to the new wait.
    epoch: Vec<u64>,
    /// Verdicts issued by classification — `(wait epoch, error)` — consumed
    /// once by their rank after epoch and re-validation checks.
    verdicts: Vec<Option<(u64, MpiError)>>,
}

/// The universe-wide quiescence registry.
#[derive(Debug)]
pub(crate) struct Registry {
    mailboxes: Vec<Arc<Mailbox>>,
    agreements: Arc<AgreeTable>,
    inner: Mutex<Inner>,
}

impl Registry {
    pub(crate) fn new(mailboxes: Vec<Arc<Mailbox>>, agreements: Arc<AgreeTable>) -> Self {
        let n = mailboxes.len();
        Registry {
            mailboxes,
            agreements,
            inner: Mutex::new(Inner {
                phase: (0..n).map(|_| Phase::Active).collect(),
                dead: vec![false; n],
                epoch: vec![0; n],
                verdicts: vec![None; n],
            }),
        }
    }

    /// Marks `world_rank` as dead (fail-stopped or terminated): it will
    /// never send again. Classification is *not* triggered here — the rank's
    /// own thread is still unwinding (it counts as active until
    /// [`Registry::done`]).
    pub(crate) fn mark_dead(&self, world_rank: usize) {
        self.inner.lock().dead[world_rank] = true;
    }

    /// Registers `me` as blocked. May trigger classification (if `me` was
    /// the last active rank); returns a verdict immediately if one lands on
    /// `me`, in which case `me` is back to `Active` and must not wait.
    ///
    /// Must be called while holding **no** mailbox lock: classification
    /// takes mailbox locks under the registry lock.
    pub(crate) fn block(&self, me: usize, rec: WaitRecord) -> Option<MpiError> {
        let mut inner = self.inner.lock();
        // Every transition to Blocked opens a new wait epoch, fencing off
        // any verdict issued for an earlier wait of this rank.
        inner.epoch[me] = inner.epoch[me].wrapping_add(1);
        inner.phase[me] = Phase::Blocked(rec);
        if inner.verdicts[me].is_none() {
            self.classify(&mut inner);
        }
        self.take_verdict(&mut inner, me)
    }

    /// Takes a pending verdict for `me`, if classification issued one while
    /// it was waiting. Consuming the verdict returns `me` to `Active`.
    pub(crate) fn check(&self, me: usize) -> Option<MpiError> {
        let mut inner = self.inner.lock();
        self.take_verdict(&mut inner, me)
    }

    /// Delivers `me`'s pending verdict only if it was issued for `me`'s
    /// *current* wait (epoch match) and that wait, re-validated under the
    /// registry lock, still cannot resolve *productively* (a deliverable
    /// envelope, a completable agreement). A verdict failing either check
    /// is dropped and classification re-runs from the current state — a
    /// fresh verdict issued by that re-run is delivered on the second pass
    /// (it is valid by construction). Consuming a verdict returns `me` to
    /// `Active`.
    ///
    /// The re-validation deliberately ignores the abort path (waited-on
    /// peers dying *after* the verdict was issued): a peer consuming its
    /// own verdict from the same classification round and terminating must
    /// not flip the survivors' verdicts to `PeerTerminated` — which rank
    /// wins that race is wall-clock scheduling, and every member of a
    /// judged cycle must report the same `Deadlock`.
    fn take_verdict(&self, inner: &mut Inner, me: usize) -> Option<MpiError> {
        for _ in 0..2 {
            let Some((epoch, _)) = &inner.verdicts[me] else {
                return None;
            };
            let shared: &Inner = inner;
            let valid = *epoch == shared.epoch[me]
                && match &shared.phase[me] {
                    Phase::Blocked(rec) => !self.can_deliver(shared, me, rec),
                    _ => false,
                };
            if valid {
                let (_, v) = inner.verdicts[me].take().expect("checked above");
                inner.phase[me] = Phase::Active;
                return Some(v);
            }
            inner.verdicts[me] = None;
            self.classify(inner);
        }
        None
    }

    /// Deregisters `me` (its wait resolved organically: a match was
    /// delivered, its abort fired, or its deadline was observed missed). A
    /// verdict racing with organic resolution is dropped — classification
    /// only issues verdicts consistent with organic outcomes.
    pub(crate) fn unblock(&self, me: usize) {
        let mut inner = self.inner.lock();
        inner.phase[me] = Phase::Active;
        inner.verdicts[me] = None;
    }

    /// Atomic claim-and-unblock: removes a qualifying envelope from `me`'s
    /// mailbox and, if the scan resolves the wait (match or provably-missed
    /// deadline), flips `me` back to `Active` — all under the registry
    /// lock, so the classifier can never observe a rank that has consumed
    /// its message but still looks blocked (which would fabricate deadlock
    /// verdicts for its peers).
    pub(crate) fn claim_for(
        &self,
        me: usize,
        pat: Pattern,
        deadline: Option<SimTime>,
    ) -> Claim {
        let mut inner = self.inner.lock();
        let c = self.mailboxes[me].claim(pat, deadline);
        if !matches!(c, Claim::Nothing) {
            inner.phase[me] = Phase::Active;
            inner.verdicts[me] = None;
        }
        c
    }

    /// Records that `me`'s thread exited; may trigger classification.
    pub(crate) fn done(&self, me: usize) {
        let mut inner = self.inner.lock();
        inner.phase[me] = Phase::Done;
        inner.verdicts[me] = None;
        self.classify(&mut inner);
    }

    /// True if the blocked rank `r` can resolve without anyone else acting:
    /// a deliverable (or provably-late) envelope is queued, its
    /// failure-detector abort would fire, or its agreement round is
    /// completable.
    fn can_resolve(&self, inner: &Inner, r: usize, rec: &WaitRecord) -> bool {
        let aborts = if rec.abort_any {
            rec.waiting_on.iter().any(|&w| inner.dead[w])
        } else {
            !rec.waiting_on.is_empty() && rec.waiting_on.iter().all(|&w| inner.dead[w])
        };
        aborts || self.can_deliver(inner, r, rec)
    }

    /// True if the blocked rank `r` can resolve *productively*: a
    /// deliverable (or provably-late) envelope is queued, or its agreement
    /// round is completable. Excludes the dead-peer abort path — used by
    /// [`Registry::take_verdict`], where a peer death after verdict issue
    /// must not invalidate the verdict.
    fn can_deliver(&self, inner: &Inner, r: usize, rec: &WaitRecord) -> bool {
        match &rec.kind {
            WaitKind::Mailbox { pats } => self.mailboxes[r].can_progress(pats, rec.deadline),
            WaitKind::Agreement { key } => self
                .agreements
                .try_outcome(*key, |w| inner.dead[w])
                .is_some(),
        }
    }

    /// The classifier. Runs under the registry lock whenever the system
    /// *may* have quiesced; issues verdicts only when it provably has.
    fn classify(&self, inner: &mut Inner) {
        if inner.phase.iter().any(|p| matches!(p, Phase::Active)) {
            return;
        }
        let blocked: Vec<usize> = inner
            .phase
            .iter()
            .enumerate()
            .filter_map(|(r, p)| matches!(p, Phase::Blocked(_)).then_some(r))
            .collect();
        if blocked.is_empty() {
            return;
        }
        // Stability: every blocked rank must be truly stuck, or the state
        // is still evolving and any verdict could be wrong.
        for &r in &blocked {
            let Phase::Blocked(rec) = &inner.phase[r] else {
                unreachable!()
            };
            if self.can_resolve(inner, r, rec) {
                return;
            }
        }
        // Timeout round: the minimum deadline is unreachable — nothing can
        // be sent before it, because every possible sender is stuck.
        let dmin = blocked
            .iter()
            .filter_map(|&r| match &inner.phase[r] {
                Phase::Blocked(rec) => rec.deadline,
                _ => None,
            })
            .min();
        if let Some(dmin) = dmin {
            for &r in &blocked {
                let Phase::Blocked(rec) = &inner.phase[r] else {
                    unreachable!()
                };
                if rec.deadline == Some(dmin) {
                    inner.verdicts[r] = Some((inner.epoch[r], MpiError::Timeout));
                    self.mailboxes[r].wake_all();
                }
            }
            return;
        }
        // Terminal round: no deadline anywhere, so the state can never
        // change. Build the exact wait graph and classify every rank.
        let edges: Vec<(usize, Vec<usize>)> = blocked
            .iter()
            .map(|&r| {
                let Phase::Blocked(rec) = &inner.phase[r] else {
                    unreachable!()
                };
                let on = match &rec.kind {
                    WaitKind::Mailbox { .. } => rec.waiting_on.clone(),
                    // Agreement waits are re-derived fresh: only live
                    // members that have not deposited actually block the
                    // round.
                    WaitKind::Agreement { key } => {
                        self.agreements.pending_live(*key, |w| inner.dead[w])
                    }
                };
                (r, on)
            })
            .collect();
        // Fault-orphan fixpoint: a rank waiting (transitively) on a dead
        // rank is an orphan of that fault; blame the smallest reachable
        // dead rank for a deterministic error surface.
        let n = inner.phase.len();
        let mut cause: Vec<Option<usize>> = vec![None; n];
        loop {
            let mut changed = false;
            for (r, on) in &edges {
                let blame = on
                    .iter()
                    .filter_map(|&w| {
                        if inner.dead[w] {
                            Some(w)
                        } else {
                            cause[w]
                        }
                    })
                    .min();
                if blame.is_some() && (cause[*r].is_none() || blame < cause[*r]) {
                    cause[*r] = blame;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let graph = WaitGraph {
            edges: edges.clone(),
        };
        let in_mailbox = |w: usize| match &inner.phase[w] {
            Phase::Blocked(rec) => matches!(rec.kind, WaitKind::Mailbox { .. }),
            _ => false,
        };
        for (r, on) in edges {
            // An agreement waiter whose round waits on a rank this round
            // releases from a mailbox wait gets no verdict: the released
            // rank may still deposit, and whether it does so before the
            // waiter looks is host scheduling, which must not decide the
            // waiter's outcome or its clock.
            let Phase::Blocked(rec) = &inner.phase[r] else {
                unreachable!()
            };
            if matches!(rec.kind, WaitKind::Agreement { .. }) && on.iter().any(|&w| in_mailbox(w))
            {
                continue;
            }
            let v = match cause[r] {
                Some(w) => MpiError::NodeFailed { world_rank: w },
                None => MpiError::Deadlock {
                    waiting: r,
                    on,
                    graph: graph.clone(),
                },
            };
            inner.verdicts[r] = Some((inner.epoch[r], v));
            self.mailboxes[r].wake_all();
        }
    }
}
