//! The four workloads. Each is a list of distinct inputs made from the
//! seed; a pass runs every input once, and the run repeats passes.

pub mod coll;
pub mod crashy;
pub mod em3d;
pub mod mm;

use crate::spans::Lane;
use hetsim::Trace;
use mpisim::{CollectiveKind, PoolReport, RunReport};

/// What one job produced, for the checks and the deterministic figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Bits of every virtual time the job exposes, in a fixed order: hashed
    /// into `vtime_digest`, and compared between repeats of the input and
    /// between the traced and untraced paths.
    pub vtime: Vec<u64>,
    /// `(predicted, measured)` virtual seconds, for `timeof_err_pct`.
    pub timeof: Vec<(f64, f64)>,
    /// MPI over HMPI virtual time, for `vtime_speedup`.
    pub speedup: Option<f64>,
}

/// Work counts of one input, from one extra run with virtual-time tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Messages sent (`Trace::message_stats`).
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages sent eagerly.
    pub eager: u64,
    /// Messages sent by rendezvous.
    pub rendezvous: u64,
    /// Rendezvous buffers leased from the pool.
    pub leased: u64,
    /// Leases served from a recycled buffer.
    pub reused: u64,
    /// Largest pool footprint of any run of the job, bytes.
    pub high_water_bytes: u64,
    /// Virtual-time trace events.
    pub trace_events: u64,
    /// Chrome-trace export size, bytes.
    pub trace_bytes: u64,
    /// Selection objective evaluations.
    pub evals: u64,
    /// Selection delta probes.
    pub probes: u64,
    /// Operations of the recorded cost programs (`CostProgram::num_ops`).
    pub cost_ops: u64,
    /// Wall time of `CostProgram::record` over the job's models, ns.
    pub record_ns: u64,
    /// simcheck violations.
    pub violations: u64,
}

impl Counts {
    /// Adds another input's counts; the pool high water is a maximum.
    pub fn add(&mut self, c: &Counts) {
        self.msgs += c.msgs;
        self.bytes += c.bytes;
        self.eager += c.eager;
        self.rendezvous += c.rendezvous;
        self.leased += c.leased;
        self.reused += c.reused;
        self.high_water_bytes = self.high_water_bytes.max(c.high_water_bytes);
        self.trace_events += c.trace_events;
        self.trace_bytes += c.trace_bytes;
        self.evals += c.evals;
        self.probes += c.probes;
        self.cost_ops += c.cost_ops;
        self.record_ns += c.record_ns;
        self.violations += c.violations;
    }

    /// Adds a finished run's message statistics, trace size and pool ledger.
    pub fn add_run(&mut self, trace: Option<&Trace>, ranks: usize, pool: &PoolReport) {
        if let Some(trace) = trace {
            for s in trace.message_stats(ranks) {
                self.msgs += s.sent as u64;
                self.bytes += s.bytes_sent;
                self.eager += s.eager_sent as u64;
                self.rendezvous += s.rendezvous_sent as u64;
            }
            self.trace_events += trace.events.len() as u64;
            self.trace_bytes += trace.to_chrome_json().len() as u64;
            // Selection spans carry the search's counters.
            for ev in &trace.events {
                let Some(info) = ev.info.as_deref() else {
                    continue;
                };
                for tok in info.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("evals=") {
                        self.evals += v.parse::<u64>().unwrap_or(0);
                    } else if let Some(v) = tok.strip_prefix("probes=") {
                        self.probes += v.parse::<u64>().unwrap_or(0);
                    }
                }
            }
        }
        self.leased += pool.leased;
        self.reused += pool.reused;
        self.high_water_bytes = self.high_water_bytes.max(pool.high_water_bytes as u64);
    }

    /// Records the cost programs of `models`, timing the recording.
    pub fn add_models<'m>(
        &mut self,
        models: impl IntoIterator<Item = &'m dyn perfmodel::PerformanceModel>,
    ) {
        for m in models {
            let t = std::time::Instant::now();
            let prog = perfmodel::CostProgram::record(m).expect("a model the job priced records");
            self.record_ns += t.elapsed().as_nanos() as u64;
            self.cost_ops += prog.num_ops() as u64;
        }
    }
}

/// What a finished universe run leaves besides its per-rank results.
pub struct RunInfo {
    /// The virtual-time trace, on counting runs.
    pub trace: Option<Trace>,
    /// Ranks in the run.
    pub ranks: usize,
    /// The buffer pool's ledger.
    pub pool: PoolReport,
}

impl RunInfo {
    /// Splits a report into its per-rank results and the rest.
    pub fn split<R>(report: RunReport<R>) -> (Vec<R>, RunInfo) {
        let info = RunInfo {
            trace: report.trace,
            ranks: report.results.len(),
            pool: report.pool,
        };
        (report.results, info)
    }

    /// Errors unless every pool lease came back after the run.
    pub fn drained(&self, what: &str) -> Result<(), String> {
        match self.pool.outstanding {
            0 => Ok(()),
            n => Err(format!("{what}: {n} pool leases outstanding after the run")),
        }
    }
}

/// A workload: distinct inputs, the program's entry point for each, and
/// the same call sequence re-executed with spans.
pub trait Workload {
    /// Number of distinct inputs in one pass.
    fn inputs(&self) -> usize;

    /// Wall time of one untraced pass over the inputs on the reference
    /// host (2 vCPUs), seconds: fixes how many passes a run makes.
    fn pass_seconds(&self) -> f64;

    /// The untraced job: the program's own entry point on input `i`.
    ///
    /// # Errors
    /// A description of the first failed check.
    fn run(&self, i: usize) -> Result<Outcome, String>;

    /// The traced job: the same calls through the public API, each wrapped
    /// in a span on `lane`. Its virtual times must equal [`Workload::run`]'s.
    ///
    /// # Errors
    /// As [`Workload::run`].
    fn traced(&self, i: usize, lane: &mut Lane) -> Result<Outcome, String>;

    /// One extra run of input `i` with virtual-time tracing on, for the
    /// work counts.
    ///
    /// # Errors
    /// As [`Workload::run`].
    fn count(&self, i: usize) -> Result<Counts, String>;
}

/// Builds workload `name` from `seed`, scaled down by `small` for the
/// smoke tests. Input 0 also serves as the warm-up job.
pub fn build(name: &str, seed: u64, small: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper-em3d" => Box::new(em3d::Em3d::new(seed, small)),
        "paper-mm" => Box::new(mm::Mm::new(small)),
        "coll-hier" => Box::new(coll::CollHier::new(seed, small)),
        "simcheck-crashy" => Box::new(crashy::Crashy::new(small)),
        _ => return None,
    })
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-em3d", "paper-mm", "coll-hier", "simcheck-crashy"];

/// SplitMix64: the seed expander for every input the benchmark makes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so streams are independent.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Bitwise equality of two `f64` slices, described on mismatch.
pub fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {} but the reference is {}",
            got[i], want[i]
        )),
    }
}

/// Rank `rank`'s contribution to a collective, as simcheck makes it.
pub fn payload(rank: usize, elems: usize) -> Vec<f64> {
    (0..elems)
        .map(|i| ((rank * 31 + i) % 97) as f64 * 0.5 + 1.0)
        .collect()
}

/// The serial reference of a `kind` collective over `ranks` ranks that
/// each contribute `contrib` elements: the root's payload, the
/// contributions folded in ascending rank order, or their concatenation.
pub fn serial_reference(
    kind: CollectiveKind,
    root: usize,
    ranks: usize,
    contrib: usize,
) -> Vec<f64> {
    match kind {
        CollectiveKind::Bcast => payload(root, contrib),
        CollectiveKind::Reduce | CollectiveKind::Allreduce => {
            let mut acc = payload(0, contrib);
            for r in 1..ranks {
                for (a, b) in acc.iter_mut().zip(payload(r, contrib)) {
                    *a += b;
                }
            }
            acc
        }
        CollectiveKind::Allgather => (0..ranks).flat_map(|r| payload(r, contrib)).collect(),
    }
}

/// The span around one collective call of `kind`.
pub fn coll_span(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::Bcast => "mpisim.coll.bcast",
        CollectiveKind::Reduce => "mpisim.coll.reduce",
        CollectiveKind::Allreduce => "mpisim.coll.allreduce",
        CollectiveKind::Allgather => "mpisim.coll.allgather",
    }
}
