//! `simcheck-crashy`: crashy-collective scenarios through `simcheck::check`
//! — the one workload that reaches crash poisoning, `agree`, quiescence,
//! and trace export with its JSON validation.
//!
//! The batch is fixed: [`BATCH`] generator seeds from [`FIRST_SEED`] (the
//! range the README's profile was taken on), each once per pass, in the
//! pass order the run seed draws. Scenario cost is heavy-tailed (p50 ≈ 14 ms, p90 ≈ 0.46 s,
//! max 8 s over 600 generator seeds on 2 cores), so a seed-drawn batch
//! spreads its median by 40 % and its p90 by 50 % between seeds; even a
//! batch stratified by rank count and kind spreads them by 12 % and 19 %
//! at 128 scenarios — wider than any usable bound.
//!
//! `check` exposes verdicts only, so the traced job re-executes its
//! collective path for these scenarios through the public API: build the
//! cluster, run every eligible algorithm with tracing, export and parse the
//! trace, replay for determinism, then price the `Auto` pick.

use super::{coll_span, payload, same_bits, serial_reference, Counts, Outcome, Workload};
use crate::spans::Lane;
use hetsim::json::{parse, JsonValue};
use hetsim::Trace;
use mpisim::{CollectiveAlgo, CollectiveKind, Comm, MpiError, ReduceOp, Universe, UniverseConfig};
use perfmodel::collective::algos_for;
use simcheck::{build_cluster, check, generate_crashy_collective, placement, Scenario};

/// First generator seed of the batch.
const FIRST_SEED: u64 = 100;

/// Scenarios per pass.
const BATCH: u64 = 32;

/// Scenarios of the smoke-test scale: the cheapest of the batch.
const SMALL_SEEDS: [u64; 2] = [104, 106];

/// The workload.
pub struct Crashy {
    seeds: Vec<u64>,
}

/// One rank's record, as simcheck keeps it: the algorithm's price, the
/// collective's typed error, and the agreement verdict.
type Record = (
    f64,
    Option<String>,
    Option<Result<(bool, Vec<usize>), String>>,
);

/// A rank failure: `true` for a value bug, `false` for a typed error.
type RankFail = (bool, String);

fn fault_shaped(msg: &str) -> bool {
    [
        "NodeFailed",
        "PeerTerminated",
        "LinkDown",
        "Timeout",
        "Deadlock",
    ]
    .iter()
    .any(|p| msg.starts_with(p))
}

fn execute(
    world: &Comm,
    me: usize,
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    root: usize,
    contrib: usize,
) -> Result<Option<Vec<f64>>, MpiError> {
    let mine = payload(me, contrib);
    Ok(match kind {
        CollectiveKind::Bcast => {
            let mut buf = mine;
            world.bcast_into_with(algo, &mut buf, root)?;
            Some(buf)
        }
        CollectiveKind::Reduce => world.reduce_eq_f64_with(algo, &mine, ReduceOp::Sum, root)?,
        CollectiveKind::Allreduce => {
            Some(world.allreduce_eq_f64_with(algo, &mine, ReduceOp::Sum)?)
        }
        CollectiveKind::Allgather => Some(world.allgather_eq_with(algo, &mine)?),
    })
}

impl Crashy {
    /// The batch.
    pub fn new(small: bool) -> Self {
        let seeds = if small {
            SMALL_SEEDS.to_vec()
        } else {
            (FIRST_SEED..FIRST_SEED + BATCH).collect()
        };
        Crashy { seeds }
    }

    fn scenario(&self, i: usize, lane: &mut Lane) -> Scenario {
        lane.time("simcheck.generate", || {
            generate_crashy_collective(self.seeds[i])
        })
    }

    /// `check`'s collective path for a fault-bearing scenario, with spans.
    /// Fills `counts` from the runs when given one.
    fn replay(
        &self,
        sc: &Scenario,
        lane: &mut Lane,
        mut counts: Option<&mut Counts>,
    ) -> Result<Outcome, String> {
        let simcheck::Workload::Collective { kind, elems, root } = sc.workload else {
            return Err(format!("not a collective scenario: {sc}"));
        };
        if sc.faults.is_empty() {
            return Err(format!("not a crashy scenario: {sc}"));
        }
        let n = sc.ranks();
        let root = root % n;
        let cluster = lane.time("hetsim.build", || build_cluster(sc));
        let ranks_at = placement(sc);
        let contrib = match kind {
            CollectiveKind::Allgather => (elems / n).max(1),
            _ => elems,
        };
        let priced = match kind {
            CollectiveKind::Allgather => contrib * n,
            _ => elems,
        };
        let expected = serial_reference(kind, root, n, contrib);

        let mut vtime = Vec::new();
        let mut predictions: Vec<(CollectiveAlgo, f64)> = Vec::new();
        let algos = algos_for(kind, n);
        for &algo in &algos {
            let run_once = |lane: &mut Lane| {
                let run = lane.run_start();
                let u = Universe::with_config(
                    cluster.clone(),
                    UniverseConfig::new()
                        .placement(ranks_at.clone())
                        .tracing(true),
                );
                let report = u.run(|proc| {
                    let mut rl = run.rank(proc.world_rank());
                    let l = &mut rl.lane;
                    let world = proc.world();
                    let me = world.rank();
                    let rec = (|| -> Result<Record, RankFail> {
                        let predicted = l
                            .time("mpisim.predict", || {
                                world.predict_collective_with(kind, algo, root, priced, 8)
                            })
                            .map_err(|e| (false, format!("{e:?}")))?;
                        let out = l.time(coll_span(kind), || {
                            execute(&world, me, kind, algo, root, contrib)
                        });
                        let coll_err = match out {
                            Ok(v) => {
                                let should = kind != CollectiveKind::Reduce || me == root;
                                match v {
                                    Some(v) if should => {
                                        same_bits(
                                            &format!("{}/{}", kind.name(), algo.name()),
                                            &v,
                                            &expected,
                                        )
                                        .map_err(|e| (true, e))?;
                                    }
                                    None if !should => {}
                                    _ => {
                                        return Err((
                                            true,
                                            format!("output presence wrong for rank {me}"),
                                        ))
                                    }
                                }
                                None
                            }
                            Err(e) => Some(format!("{e:?}")),
                        };
                        let agreement = l
                            .time("mpisim.agree", || world.agree(coll_err.is_none()))
                            .map(|a| (a.flag, a.failed))
                            .map_err(|e| format!("{e:?}"));
                        Ok((predicted, coll_err, Some(agreement)))
                    })();
                    (rec, rl.finish())
                });
                lane.run_end(run, report.results.iter().map(|r| r.1));
                report
            };
            let report = run_once(lane);
            let results: Vec<Result<Record, RankFail>> =
                report.results.iter().map(|r| r.0.clone()).collect();
            judge(kind, algo, &report.pool, &results)?;
            let trace = report.trace.as_ref().expect("tracing enabled");
            let json = lane.time("hetsim.trace_export", || trace.to_chrome_json());
            let doc = lane
                .time("hetsim.json_parse", || parse(&json))
                .map_err(|e| format!("trace export does not parse: {e}"))?;
            validate_trace(&doc, trace, n)?;
            if let Some(c) = counts.as_deref_mut() {
                c.add_run(Some(trace), n, &report.pool);
            }
            let again = run_once(lane);
            let replayed: Vec<Result<Record, RankFail>> =
                again.results.iter().map(|r| r.0.clone()).collect();
            if again.pool.outstanding != 0 {
                return Err(format!(
                    "replay: {} pool leases outstanding",
                    again.pool.outstanding
                ));
            }
            if replayed != results || again.makespan != report.makespan {
                return Err(format!(
                    "{}/{}: two runs of the same faulty scenario diverged",
                    kind.name(),
                    algo.name()
                ));
            }
            if let Some(c) = counts.as_deref_mut() {
                c.add_run(again.trace.as_ref(), n, &again.pool);
            }
            vtime.push(report.makespan.as_secs().to_bits());
            if let Ok((predicted, _, _)) = &results[0] {
                predictions.push((algo, *predicted));
                vtime.push(predicted.to_bits());
            }
        }

        // The Auto pick must be the cheapest priced algorithm, or a
        // hierarchical plan strictly cheaper than it.
        if predictions.len() == algos.len() {
            let best = predictions
                .iter()
                .copied()
                .reduce(|acc, cand| if cand.1 < acc.1 { cand } else { acc })
                .expect("non-empty");
            let run = lane.run_start();
            let u = Universe::with_config(cluster, UniverseConfig::new().placement(ranks_at));
            let report = u.run(|proc| {
                let mut rl = run.rank(proc.world_rank());
                let pick = rl.lane.time("mpisim.predict", || {
                    proc.world().predict_collective(kind, root, priced, 8)
                });
                (pick, rl.finish())
            });
            lane.run_end(run, report.results.iter().map(|r| r.1));
            if report.pool.outstanding != 0 {
                return Err("auto-selection: pool leases outstanding".into());
            }
            match &report.results[0].0 {
                Ok((CollectiveAlgo::Hierarchical, t)) if *t >= best.1 => {
                    return Err(format!(
                        "Auto picked hierarchical@{t:e}, flat argmin is no worse"
                    ));
                }
                Ok((CollectiveAlgo::Hierarchical, t)) => vtime.push(t.to_bits()),
                Ok((algo, t)) if *algo != best.0 || t.to_bits() != best.1.to_bits() => {
                    return Err(format!(
                        "Auto picked {}@{t:e}, argmin is {}@{:e}",
                        algo.name(),
                        best.0.name(),
                        best.1
                    ));
                }
                Ok((_, t)) => vtime.push(t.to_bits()),
                // A dead rank 0's typed error is legal under faults.
                Err(_) => {}
            }
        }
        Ok(Outcome {
            vtime,
            timeof: Vec::new(),
            speedup: None,
        })
    }
}

/// Pool hygiene, value integrity and the fault-tolerant contract of one run.
fn judge(
    kind: CollectiveKind,
    algo: CollectiveAlgo,
    pool: &mpisim::PoolReport,
    results: &[Result<Record, RankFail>],
) -> Result<(), String> {
    let tag = format!("{}/{}", kind.name(), algo.name());
    if pool.outstanding != 0 {
        return Err(format!(
            "{tag}: {} pool leases outstanding",
            pool.outstanding
        ));
    }
    for (rank, r) in results.iter().enumerate() {
        let msgs: Vec<&String> = match r {
            Err((true, m)) => return Err(format!("{tag}: rank {rank}: {m}")),
            Err((false, m)) => vec![m],
            Ok((_, e, ag)) => e
                .iter()
                .chain(ag.iter().filter_map(|a| a.as_ref().err()))
                .collect(),
        };
        if let Some(m) = msgs.into_iter().find(|m| !fault_shaped(m)) {
            return Err(format!(
                "{tag}: rank {rank} surfaced a non-fault error: {m}"
            ));
        }
    }
    let agreed: Vec<&(bool, Vec<usize>)> = results
        .iter()
        .filter_map(|r| match r {
            Ok((_, _, Some(Ok(a)))) => Some(a),
            _ => None,
        })
        .collect();
    if let Some(first) = agreed.first() {
        if agreed.iter().any(|a| a != first) {
            return Err(format!("{tag}: agreement is not unanimous"));
        }
        let (flag, failed) = first;
        let expected = results.iter().enumerate().all(|(rank, r)| match r {
            Ok((_, err, _)) if !failed.contains(&rank) => err.is_none(),
            _ => true,
        });
        if *flag != expected {
            return Err(format!(
                "{tag}: agreed flag {flag} contradicts the outcomes"
            ));
        }
    }
    Ok(())
}

/// Chrome-export well-formedness and per-rank span nesting, as simcheck
/// validates a trace.
fn validate_trace(doc: &JsonValue, trace: &Trace, ranks: usize) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    if events.len() != trace.events.len() {
        return Err(format!(
            "exported {} events, trace holds {}",
            events.len(),
            trace.events.len()
        ));
    }
    let mut last = 0.0f64;
    for ev in events {
        let field = |k: &str| {
            ev.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("event missing {k:?}"))
        };
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            return Err("event is not a complete span".into());
        }
        let (tid, ts, dur) = (field("tid")?, field("ts")?, field("dur")?);
        if tid.fract() != 0.0 || tid as usize >= ranks || ts < last || dur < 0.0 {
            return Err(format!("bad event tid {tid} ts {ts} dur {dur}"));
        }
        last = ts;
    }
    let eps = 1e-9;
    for rank in 0..ranks {
        let mut spans: Vec<(f64, f64)> = trace
            .events
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| (e.start.as_secs(), (e.start + e.dur).as_secs()))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<f64> = Vec::new();
        for &(s, e) in &spans {
            while open.last().is_some_and(|&oe| s >= oe - eps) {
                open.pop();
            }
            if open.last().is_some_and(|&oe| e > oe + eps) {
                return Err(format!(
                    "rank {rank}: span [{s}, {e}] overlaps its container"
                ));
            }
            open.push(e);
        }
    }
    Ok(())
}

impl Workload for Crashy {
    fn inputs(&self) -> usize {
        self.seeds.len()
    }

    fn pass_seconds(&self) -> f64 {
        4.8
    }

    /// `simcheck::check`, which exposes only its verdict.
    fn run(&self, i: usize) -> Result<Outcome, String> {
        check(&generate_crashy_collective(self.seeds[i]))
            .map(|()| Outcome::default())
            .map_err(|v| v.to_string())
    }

    fn traced(&self, i: usize, lane: &mut Lane) -> Result<Outcome, String> {
        let sc = self.scenario(i, lane);
        lane.open("simcheck.check");
        let out = self.replay(&sc, lane, None);
        lane.close();
        out
    }

    fn count(&self, i: usize) -> Result<Counts, String> {
        let mut lane = Lane::job(None, 0);
        let sc = self.scenario(i, &mut lane);
        let mut c = Counts::default();
        if self.replay(&sc, &mut lane, Some(&mut c)).is_err() {
            c.violations += 1;
        }
        Ok(c)
    }
}
