//! `paper-em3d`: the paper's Figure 3 (MPI) and Figure 5 (HMPI) EM3D
//! programs on its 9-workstation LAN.
//!
//! A job is one Figure 9 point: both programs on one generated system.
//! The sizes are a fixed ladder over the Figure 9 range; the seed draws
//! each system's irregular graph. Drawing the sizes too would make the
//! job mix, and so every time statistic, depend on the seed more than on
//! the code.

use super::{same_bits, Counts, Outcome, Rng, RunInfo, Workload};
use crate::spans::Lane;
use hetsim::Cluster;
use hmpi::{HmpiRuntime, MappingAlgorithm, Recon, RuntimeConfig};
use hmpi_apps::em3d::model::em3d_compiled;
use hmpi_apps::em3d::{
    em3d_model, em3d_params, run_hmpi, run_mpi, serial_run, Em3dConfig, Em3dSystem, ParallelBody,
};
use hmpi_bench::fig9::{K, NITER, P, SPREAD};
use mpisim::{Universe, UniverseConfig};
use std::sync::Arc;

/// Smallest sub-body node counts: the Figure 9 sweep (50..800) and the
/// midpoints between its points.
const BASES: [usize; 9] = [50, 71, 100, 141, 200, 283, 400, 566, 800];

/// Bases of the smoke-test scale.
const SMALL_BASES: [usize; 2] = [8, 12];

type Fields = Vec<(Vec<f64>, Vec<f64>)>;

struct Input {
    cfg: Em3dConfig,
    serial: Fields,
}

/// The workload.
pub struct Em3d {
    inputs: Vec<Input>,
}

/// One program's outcome: virtual time, selected members, fields,
/// prediction.
struct Prog {
    time: f64,
    members: Vec<usize>,
    fields: Fields,
    predicted: Option<f64>,
}

impl Em3d {
    /// Inputs for `seed`, with their serial references.
    pub fn new(seed: u64, small: bool) -> Self {
        let mut rng = Rng::new(seed, 0xe3d);
        let bases: &[usize] = if small { &SMALL_BASES } else { &BASES };
        let inputs = bases
            .iter()
            .map(|&base| {
                let cfg = Em3dConfig::ramp(P, base, SPREAD, rng.next_u64());
                let serial = serial_run(Em3dSystem::generate(&cfg), NITER);
                Input { cfg, serial }
            })
            .collect();
        Em3d { inputs }
    }

    fn judge(&self, i: usize, mpi: &Prog, hmpi: &Prog) -> Result<Outcome, String> {
        let serial = &self.inputs[i].serial;
        for (what, prog) in [("MPI", mpi), ("HMPI", hmpi)] {
            if prog.fields.len() != serial.len() {
                return Err(format!(
                    "{what}: {} bodies, reference has {}",
                    prog.fields.len(),
                    serial.len()
                ));
            }
            for (body, ((e, h), (se, sh))) in prog.fields.iter().zip(serial).enumerate() {
                same_bits(&format!("{what} body {body} E"), e, se)?;
                same_bits(&format!("{what} body {body} H"), h, sh)?;
            }
        }
        let predicted = hmpi.predicted.ok_or("HMPI run carries no prediction")?;
        let mut vtime = vec![mpi.time.to_bits(), hmpi.time.to_bits(), predicted.to_bits()];
        vtime.extend(hmpi.members.iter().map(|&m| m as u64));
        Ok(Outcome {
            vtime,
            // The Figure 4 model prices one iteration.
            timeof: vec![(predicted * NITER as f64, hmpi.time)],
            speedup: Some(mpi.time / hmpi.time),
        })
    }

    /// The Figure 3 program, call for call as `em3d::run_mpi`.
    fn mpi(&self, i: usize, lane: &mut Lane, counting: bool) -> (Prog, RunInfo) {
        let cfg = &self.inputs[i].cfg;
        let cluster = lane.time("hetsim.build", || Arc::new(Cluster::paper_lan_em3d()));
        let run = lane.run_start();
        let universe = Universe::with_config(cluster, UniverseConfig::new().tracing(counting));
        let report = universe.run(|proc| {
            let mut rl = run.rank(proc.world_rank());
            let l = &mut rl.lane;
            let world = proc.world();
            let me = world.rank();
            let comm = l
                .time("mpisim.split", || world.split((me < P).then_some(1), 1))
                .expect("split cannot fail");
            let out = comm.map(|comm| {
                let system = l.time("apps.em3d.generate", || Em3dSystem::generate(cfg));
                let t0 = comm.clock().now();
                let pb = l.time("apps.em3d.kernel", || {
                    let mut pb = ParallelBody::new(&system, comm.rank());
                    pb.run(&comm, NITER).expect("EM3D kernel");
                    pb
                });
                l.time("mpisim.barrier", || comm.barrier())
                    .expect("closing barrier");
                (
                    (comm.clock().now() - t0).as_secs(),
                    pb.body.e_values,
                    pb.body.h_values,
                )
            });
            (out, rl.finish())
        });
        lane.run_end(run, report.results.iter().map(|r| r.1));
        let (results, info) = RunInfo::split(report);
        let outcomes: Vec<_> = results.into_iter().map(|r| r.0).collect();
        (assemble(outcomes, (0..P).collect(), None), info)
    }

    /// The Figure 5 program, call for call as `em3d::run_hmpi`.
    fn hmpi(&self, i: usize, lane: &mut Lane, counting: bool) -> (Prog, RunInfo) {
        let cfg = &self.inputs[i].cfg;
        let cluster = lane.time("hetsim.build", || Arc::new(Cluster::paper_lan_em3d()));
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
                h.recon_opts(Recon::new(1.0).work_units(K as f64))
            })
            .expect("recon");
            let system = l.time("apps.em3d.generate", || Em3dSystem::generate(cfg));
            let compiled = l
                .time("perfmodel.compile", em3d_compiled)
                .expect("Figure 4 source is valid");
            let model = l
                .time("perfmodel.instantiate", || {
                    compiled.instantiate(&em3d_params(&system, K))
                })
                .expect("Figure 4 instantiation");
            let group = l
                .time("hmpi.group_create", || h.group_create(&model))
                .expect("group_create");
            let meta = h
                .is_host()
                .then(|| (group.members().to_vec(), group.predicted_time()));
            let out = group.comm().map(|comm| {
                let t0 = comm.clock().now();
                let pb = l.time("apps.em3d.kernel", || {
                    let mut pb = ParallelBody::new(&system, comm.rank());
                    pb.run(comm, NITER).expect("EM3D kernel");
                    pb
                });
                l.time("mpisim.barrier", || comm.barrier())
                    .expect("closing barrier");
                (
                    (comm.clock().now() - t0).as_secs(),
                    pb.body.e_values,
                    pb.body.h_values,
                )
            });
            if group.is_member() {
                l.time("hmpi.group_free", || h.group_free(group))
                    .expect("group_free");
            }
            l.time("hmpi.finalize", || h.finalize()).expect("finalize");
            ((out, meta), rl.finish())
        });
        lane.run_end(run, report.results.iter().map(|r| r.1));
        let (results, info) = RunInfo::split(report);
        let mut outcomes = Vec::with_capacity(info.ranks);
        let mut meta = None;
        for ((o, m), _) in results {
            outcomes.push(o);
            meta = meta.or(m);
        }
        let (members, predicted) = meta.expect("host reported the selection");
        (assemble(outcomes, members, Some(predicted)), info)
    }
}

type RankOutcome = Option<(f64, Vec<f64>, Vec<f64>)>;

/// The drivers' result assembly: max time over the executing ranks, fields
/// in body order.
fn assemble(outcomes: Vec<RankOutcome>, members: Vec<usize>, predicted: Option<f64>) -> Prog {
    let mut time = 0.0f64;
    let mut fields = vec![(Vec::new(), Vec::new()); members.len()];
    for (body, &world) in members.iter().enumerate() {
        let (dur, e, h) = outcomes[world]
            .clone()
            .expect("every member produced an outcome");
        time = time.max(dur);
        fields[body] = (e, h);
    }
    Prog {
        time,
        members,
        fields,
        predicted,
    }
}

impl Workload for Em3d {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn pass_seconds(&self) -> f64 {
        0.23
    }

    fn run(&self, i: usize) -> Result<Outcome, String> {
        let cfg = &self.inputs[i].cfg;
        let mpi = run_mpi(Arc::new(Cluster::paper_lan_em3d()), cfg, NITER);
        let hmpi = run_hmpi(Arc::new(Cluster::paper_lan_em3d()), cfg, NITER, K);
        let prog = |r: hmpi_apps::em3d::Em3dRun| Prog {
            time: r.time,
            members: r.members,
            fields: r.fields,
            predicted: r.predicted,
        };
        self.judge(i, &prog(mpi), &prog(hmpi))
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
        let (_, hi) = self.hmpi(i, &mut lane, true);
        let mut c = Counts::default();
        for info in [&mi, &hi] {
            info.drained("counted run")?;
            c.add_run(info.trace.as_ref(), info.ranks, &info.pool);
        }
        let model = em3d_model(&Em3dSystem::generate(&self.inputs[i].cfg), K)
            .map_err(|e| format!("Figure 4 instantiation: {e}"))?;
        c.add_models([&model as &dyn perfmodel::PerformanceModel]);
        Ok(c)
    }
}
