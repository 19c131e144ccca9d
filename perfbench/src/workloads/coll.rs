//! `coll-hier`: seeded sequences of collective calls on the 3-site × 5-node
//! serialized-NIC testbed, each priced with `predict_collective` first.
//!
//! A job is one universe run executing one sequence: every kind
//! (bcast, reduce, allreduce, allgather) once at 1 KiB and once at a
//! seed-drawn 64–256 KiB, in seed-drawn order with seed-drawn roots. The
//! benchmark itself is the program here, so the untraced and traced jobs
//! run the same code.

use super::{coll_span, payload, same_bits, serial_reference, Counts, Outcome, Rng, Workload};
use crate::spans::Lane;
use hmpi_bench::hierarchy::multi_site_testbed;
use mpisim::{CollectiveKind, Comm, MpiResult, ReduceOp, Universe, UniverseConfig};

/// Distinct sequences per pass.
const SEQUENCES: usize = 16;

/// Sequences of the smoke-test scale.
const SMALL_SEQUENCES: usize = 2;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Bcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Allgather,
];

/// Small calls: 1 KiB of f64.
const SMALL_ELEMS: usize = 128;

/// Large calls: 64–256 KiB of f64.
const LARGE_ELEMS: (usize, usize) = (8 * 1024, 32 * 1024);

#[derive(Debug, Clone)]
struct Call {
    kind: CollectiveKind,
    root: usize,
    /// Elements each rank contributes (allgather: per rank).
    contrib: usize,
    /// Elements the predictor prices (allgather: the gathered total).
    priced: usize,
    /// The value every rank that gets an output must hold.
    expected: Vec<f64>,
}

/// The workload.
pub struct CollHier {
    ranks: usize,
    sequences: Vec<Vec<Call>>,
}

/// Executes one call on `world`; `None` on ranks that get no output.
fn execute(world: &Comm, me: usize, c: &Call) -> MpiResult<Option<Vec<f64>>> {
    let mine = payload(me, c.contrib);
    Ok(match c.kind {
        CollectiveKind::Bcast => {
            let mut buf = if me == c.root {
                mine
            } else {
                vec![0.0; c.contrib]
            };
            world.bcast_into(&mut buf, c.root)?;
            Some(buf)
        }
        CollectiveKind::Reduce => world.reduce_eq_f64(&mine, ReduceOp::Sum, c.root)?,
        CollectiveKind::Allreduce => Some(world.allreduce_eq_f64(&mine, ReduceOp::Sum)?),
        CollectiveKind::Allgather => Some(world.allgather_eq(&mine)?),
    })
}

impl CollHier {
    /// Sequences for `seed`, with their serial references.
    pub fn new(seed: u64, small: bool) -> Self {
        let ranks = multi_site_testbed().ranks();
        let mut rng = Rng::new(seed, 0xc011);
        let count = if small { SMALL_SEQUENCES } else { SEQUENCES };
        let sequences = (0..count)
            .map(|_| {
                let mut calls: Vec<Call> = KINDS
                    .iter()
                    .flat_map(|&kind| {
                        let (lo, hi) = LARGE_ELEMS;
                        let large =
                            (lo as f64 * ((hi as f64 / lo as f64).powf(rng.unit()))) as usize;
                        [SMALL_ELEMS, large].map(|elems| {
                            let root = match kind {
                                CollectiveKind::Bcast | CollectiveKind::Reduce => rng.below(ranks),
                                _ => 0,
                            };
                            let (contrib, priced) = match kind {
                                CollectiveKind::Allgather => {
                                    (elems / ranks, (elems / ranks) * ranks)
                                }
                                _ => (elems, elems),
                            };
                            let expected = serial_reference(kind, root, ranks, contrib);
                            Call {
                                kind,
                                root,
                                contrib,
                                priced,
                                expected,
                            }
                        })
                    })
                    .collect();
                rng.shuffle(&mut calls);
                calls
            })
            .collect();
        CollHier { ranks, sequences }
    }

    /// One job: a universe on a freshly built testbed running sequence
    /// `i`, every call priced then executed and checked.
    fn job(&self, i: usize, lane: &mut Lane, counting: bool) -> Result<(Outcome, Counts), String> {
        let calls = &self.sequences[i];
        let topology = lane.time("hetsim.build", multi_site_testbed);
        let run = lane.run_start();
        let universe = Universe::from_topology(topology, UniverseConfig::new().tracing(counting));
        type RankOut = Result<(Vec<f64>, Vec<u64>), String>;
        let report = universe.run(|proc| -> (RankOut, (u64, u64)) {
            let mut rl = run.rank(proc.world_rank());
            let l = &mut rl.lane;
            let world = proc.world();
            let me = world.rank();
            let mut out = || -> RankOut {
                let mut predicted = Vec::with_capacity(calls.len());
                let mut clocks = Vec::with_capacity(calls.len());
                for (k, c) in calls.iter().enumerate() {
                    let (_, t) = l
                        .time("mpisim.predict", || {
                            world.predict_collective(c.kind, c.root, c.priced, 8)
                        })
                        .map_err(|e| format!("call {k}: predict: {e:?}"))?;
                    predicted.push(t);
                    let got = l
                        .time(coll_span(c.kind), || execute(&world, me, c))
                        .map_err(|e| format!("call {k}: {}: {e:?}", c.kind.name()))?;
                    clocks.push(world.clock().now().as_secs().to_bits());
                    let should = c.kind != CollectiveKind::Reduce || me == c.root;
                    match got {
                        Some(v) if should => same_bits(
                            &format!("call {k} {} on rank {me}", c.kind.name()),
                            &v,
                            &c.expected,
                        )?,
                        None if !should => {}
                        _ => return Err(format!("call {k}: output presence wrong on rank {me}")),
                    }
                }
                Ok((predicted, clocks))
            };
            let r = out();
            (r, rl.finish())
        });
        lane.run_end(run, report.results.iter().map(|r| r.1));
        if report.pool.outstanding != 0 {
            return Err(format!(
                "{} pool leases outstanding after the run",
                report.pool.outstanding
            ));
        }
        let mut counts = Counts::default();
        counts.add_run(report.trace.as_ref(), self.ranks, &report.pool);
        let mut vtime = vec![report.makespan.as_secs().to_bits()];
        let mut first_end = 0.0f64;
        let mut first_pred = 0.0;
        for (rank, (r, _)) in report.results.into_iter().enumerate() {
            let (predicted, clocks) = r.map_err(|e| format!("rank {rank}: {e}"))?;
            // Every rank prices the same schedules.
            if rank == 0 {
                vtime.extend(predicted.iter().map(|t| t.to_bits()));
                first_pred = predicted[0];
            }
            first_end = first_end.max(f64::from_bits(clocks[0]));
            vtime.extend(clocks);
        }
        // Every clock starts at zero, so the first call's measured time is
        // its latest finish; later calls start skewed and are not priced
        // against that.
        let outcome = Outcome {
            vtime,
            timeof: vec![(first_pred, first_end)],
            speedup: None,
        };
        Ok((outcome, counts))
    }
}

impl Workload for CollHier {
    fn inputs(&self) -> usize {
        self.sequences.len()
    }

    fn pass_seconds(&self) -> f64 {
        0.6
    }

    fn run(&self, i: usize) -> Result<Outcome, String> {
        self.job(i, &mut Lane::job(None, 0), false).map(|r| r.0)
    }

    fn traced(&self, i: usize, lane: &mut Lane) -> Result<Outcome, String> {
        self.job(i, lane, false).map(|r| r.0)
    }

    fn count(&self, i: usize) -> Result<Counts, String> {
        self.job(i, &mut Lane::job(None, 0), true).map(|r| r.1)
    }
}
