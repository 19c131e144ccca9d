//! Recover-and-retry policies over HMPI groups (DESIGN.md §12).
//!
//! A [`RecoveryPolicy`] turns the raw fault-tolerance primitives — the
//! engine's survivor contract, [`mpisim::Comm::agree`] and
//! [`crate::Hmpi::rebuild_group`] — into a one-call loop:
//!
//! 1. run one *attempt* of the application kernel on the current group;
//! 2. hold a ULFM-style agreement round so every member reaches the **same**
//!    verdict on whether the attempt committed everywhere (the round doubles
//!    as a virtual-time synchronisation point among the survivors);
//! 3. on a failure verdict, advance every survivor's clock by a
//!    deterministic backoff, shrink the group over the survivors with
//!    `rebuild_group`, and retry — up to a bounded number of rebuilds.
//!
//! Determinism: the verdict of each round is a pure function of the fault
//! plan (agreement unanimity is structural, see [`mpisim::Agreement`]), the
//! backoff is a fixed virtual-time schedule, and the rebuild roll call runs
//! on clocks the agreement just synchronised — so the same seed always
//! yields the same sequence of groups and the same final outcome.

use crate::group::HmpiGroup;
use crate::runtime::{Hmpi, HmpiError, HmpiResult};
use hetsim::SimTime;
use mpisim::{MpiError, MpiResult};

/// Bounded-retry recovery schedule: how many times a failed attempt may be
/// answered with a shrink-and-retry, and how much virtual time the
/// survivors wait before each rebuild.
///
/// The backoff grows geometrically: rebuild *i* (0-based) is preceded by an
/// advance of `backoff * backoff_factor^i`. Because the agreement round
/// that precedes it has already merged every survivor's clock to the same
/// instant, a uniform advance keeps the survivors aligned for the rebuild
/// roll call — backoff never widens the clock skew the roll-call window
/// has to absorb.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    max_rebuilds: usize,
    backoff: SimTime,
    backoff_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::new()
    }
}

impl RecoveryPolicy {
    /// The default policy: up to 3 rebuilds, 0.1 s initial backoff,
    /// doubling before each further rebuild.
    pub fn new() -> Self {
        RecoveryPolicy {
            max_rebuilds: 3,
            backoff: SimTime::from_secs(0.1),
            backoff_factor: 2.0,
        }
    }

    /// Caps the number of shrink-and-retry rounds (0 = fail on the first
    /// bad verdict).
    pub fn with_max_rebuilds(mut self, n: usize) -> Self {
        self.max_rebuilds = n;
        self
    }

    /// Sets the virtual-time backoff before the first rebuild.
    pub fn with_backoff(mut self, d: SimTime) -> Self {
        self.backoff = d;
        self
    }

    /// Sets the geometric growth factor of the backoff schedule.
    ///
    /// # Panics
    /// Panics unless `f` is finite and `>= 1.0` (a shrinking backoff would
    /// let retries race the failure detector).
    pub fn with_backoff_factor(mut self, f: f64) -> Self {
        assert!(f.is_finite() && f >= 1.0, "backoff factor must be >= 1");
        self.backoff_factor = f;
        self
    }

    /// The retry cap.
    pub fn max_rebuilds(&self) -> usize {
        self.max_rebuilds
    }

    /// The virtual-time pause before rebuild number `rebuild` (0-based):
    /// `backoff * factor^rebuild`.
    pub fn backoff_before(&self, rebuild: usize) -> SimTime {
        SimTime::from_secs(self.backoff.as_secs() * self.backoff_factor.powi(rebuild as i32))
    }

    /// The recover-and-retry loop. Collective over the *members* of
    /// `group`; processes the selection left out stand by exactly as they
    /// would for a plain run (callers keep their `is_member()` guard).
    ///
    /// Per round, every member runs `attempt(&group, round)`, then agrees
    /// on `attempt.is_ok()`. The round succeeds only if **every** member
    /// contributed `Ok` and none died before contributing — so a success
    /// verdict means the result committed on the whole group. On a failure
    /// verdict the group is rebuilt over the survivors via `model_for` and
    /// the attempt re-runs from scratch on the shrunk group.
    ///
    /// Consumes the group either way: on success the (possibly rebuilt)
    /// group comes back inside [`Recovered`] for the caller to free; on
    /// failure every still-held handle has been consumed by
    /// `rebuild_group` or dropped.
    ///
    /// # Errors
    /// [`RecoveryError`] — the underlying cause plus how many rebuilds were
    /// performed before giving up. Unrecoverable causes: the caller's own
    /// node fail-stopped ([`MpiError::NodeFailed`] with its own rank), the
    /// rebuild found no feasible shrunk group, the retry budget ran out, or
    /// the rebuilt selection dropped the caller ([`HmpiError::NotMember`];
    /// the caller's process is free again and may stand by).
    pub fn run<T, M, FM, FA>(
        &self,
        h: &Hmpi,
        mut group: HmpiGroup,
        mut model_for: FM,
        mut attempt: FA,
    ) -> Result<Recovered<T>, RecoveryError>
    where
        M: perfmodel::PerformanceModel,
        FM: FnMut(&[usize]) -> HmpiResult<M>,
        FA: FnMut(&HmpiGroup, usize) -> MpiResult<T>,
    {
        let me = h.rank();
        let mut rebuilds = 0usize;
        if !group.is_member() {
            return Err(RecoveryError {
                cause: HmpiError::NotMember,
                rebuilds,
            });
        }
        loop {
            let comm = group.comm().expect("member has a comm").clone();
            let out = attempt(&group, rebuilds);
            if let Err(MpiError::NodeFailed { world_rank }) = &out {
                if *world_rank == me {
                    // Our own node fail-stopped: we cannot take part in the
                    // agreement, let alone a rebuild. Unwind.
                    return Err(RecoveryError {
                        cause: HmpiError::Mpi(MpiError::NodeFailed { world_rank: me }),
                        rebuilds,
                    });
                }
            }
            // Post-attempt agreement: every live member deposits its local
            // verdict; the AND-fold plus the died-without-depositing set is
            // identical on every survivor. Members that finished cleanly
            // learn here that a peer did not.
            let verdict = match comm.agree(out.is_ok()) {
                Ok(a) => a.flag && a.failed.is_empty(),
                // A Deadlock verdict on an agreement waiter means the round
                // wedged on live members that will never deposit (members
                // still stuck inside the failed attempt are released by the
                // quiescence classifier instead, and the round waits for
                // them). The round's outcome is a foregone failure, and
                // treating it as one keeps every member on the rebuild path.
                Err(MpiError::Deadlock { .. }) => false,
                Err(e) => {
                    // Own death mid-round, or the watchdog backstop.
                    return Err(RecoveryError {
                        cause: HmpiError::Mpi(e),
                        rebuilds,
                    });
                }
            };
            if verdict {
                let result = out.expect("unanimous success verdict implies local success");
                return Ok(Recovered {
                    result,
                    group,
                    rebuilds,
                });
            }
            if rebuilds >= self.max_rebuilds {
                return Err(RecoveryError {
                    cause: match out {
                        Ok(_) => HmpiError::Aborted, // a peer failed, not us
                        Err(e) => HmpiError::Mpi(e),
                    },
                    rebuilds,
                });
            }
            // Deterministic virtual-time backoff. The agreement above merged
            // every survivor's clock to the round's completion time, so this
            // uniform advance keeps them aligned for the roll call.
            h.process().clock().advance(self.backoff_before(rebuilds));
            rebuilds += 1;
            group = match h.rebuild_group(group, &mut model_for) {
                Ok(g) => g,
                Err(cause) => return Err(RecoveryError { cause, rebuilds }),
            };
            if !group.is_member() {
                // The shrunk selection left us out; our process is free
                // again and stands by like any non-member.
                return Err(RecoveryError {
                    cause: HmpiError::NotMember,
                    rebuilds,
                });
            }
        }
    }
}

/// A successful recover-and-retry run.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The attempt's result on the final group.
    pub result: T,
    /// The group the successful attempt ran on (== the initial group when
    /// nothing failed). The caller frees it.
    pub group: HmpiGroup,
    /// How many times the group was shrunk before succeeding.
    pub rebuilds: usize,
}

/// Why a recover-and-retry run gave up, and how far it got.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryError {
    /// The final, unrecoverable cause.
    pub cause: HmpiError,
    /// How many rebuilds were performed before giving up.
    pub rebuilds: usize,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "recovery failed after {} rebuild(s): {}", self.rebuilds, self.cause)
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_geometric() {
        let p = RecoveryPolicy::new()
            .with_backoff(SimTime::from_secs(0.5))
            .with_backoff_factor(3.0);
        assert_eq!(p.backoff_before(0), SimTime::from_secs(0.5));
        assert_eq!(p.backoff_before(1), SimTime::from_secs(1.5));
        assert_eq!(p.backoff_before(2), SimTime::from_secs(4.5));
    }

    #[test]
    fn default_policy_is_bounded() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.max_rebuilds(), 3);
        assert!(p.backoff_before(0) > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "backoff factor")]
    fn shrinking_backoff_is_rejected() {
        let _ = RecoveryPolicy::new().with_backoff_factor(0.5);
    }
}
