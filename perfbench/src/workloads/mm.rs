//! `paper-mm`: the paper's Figure 8 HMPI matrix multiplication, with its
//! `HMPI_Timeof` sweep over the generalised block size `l`, against the
//! homogeneous MPI baseline on the paper's 9-workstation LAN.
//!
//! A job is one Figure 11 point: both programs at one matrix size `n`.
//! Every `n` of the Figure 11 range runs once per pass, in the pass order
//! the seed draws. `n` is the only input the drivers take, and each step
//! of it moves the job's cost by 10-20 %, so a seed-drawn subset of sizes
//! would make the time statistics depend on the seed.

use super::{same_bits, Counts, Outcome, RunInfo, Workload};
use crate::spans::Lane;
use hetsim::Cluster;
use hmpi::{Hmpi, HmpiRuntime, MappingAlgorithm, Recon, RuntimeConfig};
use hmpi_apps::matmul::block::serial_matmul;
use hmpi_apps::matmul::driver::{SEED_A, SEED_B};
use hmpi_apps::matmul::model::matmul_compiled;
use hmpi_apps::matmul::{
    matmul_params, run_hmpi, run_mpi, BlockMatrix, DistributedMatmul, GeneralizedBlockDist,
    MatmulRun,
};
use hmpi_bench::fig11::{M, R};
use mpisim::{Universe, UniverseConfig};
use perfmodel::{ModelInstance, PerformanceModel};
use std::sync::Arc;

/// The Figure 11 range of matrix sizes, in `r`-blocks.
const SIZES: std::ops::RangeInclusive<usize> = 9..=24;

/// Sizes of the smoke-test scale.
const SMALL_SIZES: std::ops::RangeInclusive<usize> = 3..=4;

struct Input {
    n: usize,
    c: BlockMatrix,
}

/// The workload.
pub struct Mm {
    inputs: Vec<Input>,
}

struct Prog {
    time: f64,
    members: Vec<usize>,
    c: Option<BlockMatrix>,
    predicted: Option<f64>,
    l: usize,
    /// The host's selection and pricing counts (counting runs only).
    counts: Counts,
}

impl From<MatmulRun> for Prog {
    fn from(r: MatmulRun) -> Self {
        Prog {
            time: r.time,
            members: r.members,
            c: r.c,
            predicted: r.predicted,
            l: r.l,
            counts: Counts::default(),
        }
    }
}

impl Mm {
    /// Inputs, smallest first, with their serial products.
    pub fn new(small: bool) -> Self {
        let sizes = if small { SMALL_SIZES } else { SIZES };
        let inputs = sizes
            .map(|n| Input {
                n,
                c: serial_matmul(
                    &BlockMatrix::deterministic(n, R, SEED_A),
                    &BlockMatrix::deterministic(n, R, SEED_B),
                ),
            })
            .collect();
        Mm { inputs }
    }

    fn judge(&self, i: usize, mpi: &Prog, hmpi: &Prog) -> Result<Outcome, String> {
        let want = self.inputs[i].c.data();
        for (what, prog) in [("MPI", mpi), ("HMPI", hmpi)] {
            let c = prog.c.as_ref().ok_or(format!("{what}: no gathered C"))?;
            same_bits(&format!("{what} C"), c.data(), want)?;
        }
        let predicted = hmpi.predicted.ok_or("HMPI run carries no prediction")?;
        let mut vtime = vec![
            mpi.time.to_bits(),
            hmpi.time.to_bits(),
            predicted.to_bits(),
            hmpi.l as u64,
        ];
        vtime.extend(hmpi.members.iter().map(|&m| m as u64));
        Ok(Outcome {
            vtime,
            // The Figure 7 model prices the whole multiplication.
            timeof: vec![(predicted, hmpi.time)],
            speedup: Some(mpi.time / hmpi.time),
        })
    }

    /// The homogeneous baseline, call for call as `matmul::run_mpi` with
    /// the fully cyclic `l = m`.
    fn mpi(&self, i: usize, lane: &mut Lane, counting: bool) -> (Prog, RunInfo) {
        let n = self.inputs[i].n;
        let cluster = lane.time("hetsim.build", || Arc::new(Cluster::paper_lan_matmul()));
        let run = lane.run_start();
        let universe = Universe::with_config(cluster, UniverseConfig::new().tracing(counting));
        let report = universe.run(|proc| {
            let mut rl = run.rank(proc.world_rank());
            let l = &mut rl.lane;
            let world = proc.world();
            let me = world.rank();
            let grid = l
                .time("mpisim.split", || world.split((me < M * M).then_some(1), 1))
                .expect("split cannot fail");
            let out = grid.map(|grid| {
                let dist = GeneralizedBlockDist::homogeneous(M, M);
                let t0 = grid.clock().now();
                let mm = l.time("apps.mm.kernel", || {
                    let mut mm = DistributedMatmul::new(dist, n, R, grid.rank(), SEED_A, SEED_B);
                    mm.run(&grid).expect("MM kernel");
                    mm
                });
                l.time("mpisim.barrier", || grid.barrier())
                    .expect("closing barrier");
                let dur = (grid.clock().now() - t0).as_secs();
                let c = l
                    .time("apps.mm.gather", || mm.gather_c(&grid))
                    .expect("gather C");
                (dur, c)
            });
            (out, rl.finish())
        });
        lane.run_end(run, report.results.iter().map(|r| r.1));
        let (results, info) = RunInfo::split(report);
        let mut time = 0.0f64;
        let mut c = None;
        for (dur, cm) in results.into_iter().filter_map(|r| r.0) {
            time = time.max(dur);
            c = c.or(cm);
        }
        let prog = Prog {
            time,
            members: (0..M * M).collect(),
            c,
            predicted: None,
            l: M,
            counts: Counts::default(),
        };
        (prog, info)
    }

    /// The Figure 8 program, call for call as `matmul::run_hmpi` with the
    /// `HMPI_Timeof` sweep choosing `l`. A counting run traces virtual time,
    /// and its host also tallies the sweep's search counters and records
    /// the cost programs of every model it priced.
    fn hmpi(&self, i: usize, lane: &mut Lane, counting: bool) -> (Prog, RunInfo) {
        let n = self.inputs[i].n;
        let cluster = lane.time("hetsim.build", || Arc::new(Cluster::paper_lan_matmul()));
        let run = lane.run_start();
        let runtime = HmpiRuntime::with_config(
            cluster,
            RuntimeConfig::new()
                .mapping_algorithm(MappingAlgorithm::default())
                .tracing(counting),
        );
        let report = runtime.run(|h| {
            let mut rl = run.rank(h.rank());
            let l = &mut rl.lane;
            l.time("hmpi.recon", || {
                h.recon_opts(Recon::new(1.0).bench(|hh: &Hmpi| hh.compute(1.0)))
            })
            .expect("recon");
            let mut msg = vec![0.0f64; 1 + M * M];
            let mut models = Vec::new();
            let mut counts = Counts::default();
            if h.is_host() {
                let placement = h.process().placement();
                let est = h.estimates();
                let mut others: Vec<f64> = (1..h.size())
                    .map(|rank| est.speed(placement[rank]))
                    .collect();
                others.sort_by(|a, b| b.total_cmp(a));
                let mut grid_speeds = Vec::with_capacity(M * M);
                grid_speeds.push(est.speed(placement[0]));
                grid_speeds.extend(others.into_iter().take(M * M - 1));
                models = (M..=n)
                    .map(|cand| {
                        let dist = GeneralizedBlockDist::heterogeneous(M, cand, &grid_speeds);
                        model(l, &dist, n)
                    })
                    .collect::<Vec<_>>();
                let (idx, _) = l
                    .time("hmpi.timeof_sweep", || {
                        h.timeof_sweep(models.iter().map(|mo| mo as &dyn PerformanceModel))
                    })
                    .expect("timeof sweep")
                    .expect("bsize sweep is non-empty");
                if counting {
                    for mo in &models {
                        let stats = h.timeof_mapping(mo).expect("the sweep priced it").stats;
                        counts.evals += stats.evals;
                        counts.probes += stats.probes;
                    }
                }
                msg[0] = (M + idx) as f64;
                msg[1..].copy_from_slice(&grid_speeds);
            }
            l.time("mpisim.coll.bcast", || h.world().bcast_into(&mut msg, 0))
                .expect("bcast l + speeds");
            let bsize = msg[0] as usize;
            let dist = GeneralizedBlockDist::heterogeneous(M, bsize, &msg[1..]);
            let model = model(l, &dist, n);
            let group = l
                .time("hmpi.group_create", || h.group_create(&model))
                .expect("group_create");
            let meta = h.is_host().then(|| {
                if counting {
                    models.push(model);
                    counts.add_models(models.iter().map(|m| m as &dyn PerformanceModel));
                }
                (
                    group.members().to_vec(),
                    group.predicted_time(),
                    bsize,
                    counts,
                )
            });
            let out = group.comm().map(|comm| {
                let t0 = comm.clock().now();
                let mm = l.time("apps.mm.kernel", || {
                    let mut mm = DistributedMatmul::new(dist, n, R, comm.rank(), SEED_A, SEED_B);
                    mm.run(comm).expect("MM kernel");
                    mm
                });
                l.time("mpisim.barrier", || comm.barrier())
                    .expect("closing barrier");
                let dur = (comm.clock().now() - t0).as_secs();
                let c = l
                    .time("apps.mm.gather", || mm.gather_c(comm))
                    .expect("gather C");
                (dur, c)
            });
            if group.is_member() {
                l.time("hmpi.group_free", || h.group_free(group))
                    .expect("group_free");
            }
            l.time("hmpi.finalize", || h.finalize()).expect("finalize");
            ((out, meta), rl.finish())
        });
        lane.run_end(run, report.results.iter().map(|r| r.1));
        let mut time = 0.0f64;
        let mut c = None;
        let mut meta = None;
        let (results, info) = RunInfo::split(report);
        for ((out, m), _) in results {
            if let Some((dur, cm)) = out {
                time = time.max(dur);
                c = c.or(cm);
            }
            meta = meta.or(m);
        }
        let (members, predicted, l, counts) = meta.expect("host reported the selection");
        let prog = Prog {
            time,
            members,
            c,
            predicted: Some(predicted),
            l,
            counts,
        };
        (prog, info)
    }
}

/// `matmul_model`, with its compile and instantiate steps timed apart.
fn model(l: &mut Lane, dist: &GeneralizedBlockDist, n: usize) -> ModelInstance {
    let compiled = l
        .time("perfmodel.compile", matmul_compiled)
        .expect("Figure 7 source is valid");
    l.time("perfmodel.instantiate", || {
        compiled.instantiate(&matmul_params(dist, R, n))
    })
    .expect("Figure 7 model")
}

impl Workload for Mm {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn pass_seconds(&self) -> f64 {
        1.6
    }

    fn run(&self, i: usize) -> Result<Outcome, String> {
        let n = self.inputs[i].n;
        let mpi = run_mpi(Arc::new(Cluster::paper_lan_matmul()), M, n, R, Some(M));
        let hmpi = run_hmpi(Arc::new(Cluster::paper_lan_matmul()), M, n, R, None);
        self.judge(i, &mpi.into(), &hmpi.into())
    }

    fn traced(&self, i: usize, lane: &mut Lane) -> Result<Outcome, String> {
        let (mpi, mi) = self.mpi(i, lane, false);
        let (hmpi, hi) = self.hmpi(i, lane, false);
        mi.drained("MPI")?;
        hi.drained("HMPI")?;
        self.judge(i, &mpi, &hmpi)
    }

    fn count(&self, i: usize) -> Result<Counts, String> {
        let mut lane = Lane::job(None, 0);
        let (_, mi) = self.mpi(i, &mut lane, true);
        let (hmpi, hi) = self.hmpi(i, &mut lane, true);
        let mut c = hmpi.counts;
        for info in [&mi, &hi] {
            info.drained("counted run")?;
            c.add_run(info.trace.as_ref(), info.ranks, &info.pool);
        }
        Ok(c)
    }
}
