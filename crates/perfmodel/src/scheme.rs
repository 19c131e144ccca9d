//! Scheme activity streams and the sinks that consume them.
//!
//! A scheme describes "how exactly the processes interact during the
//! execution of the algorithm". Running it
//! ([`crate::model::PerformanceModel::run_scheme`]) produces a stream of
//! *activities* — `e %% [i]` computations and `e %% [i] -> [j]` transfers —
//! structured by `par` blocks whose activities overlap in time. The stream
//! is delivered to a [`SchemeSink`]:
//!
//! * [`TimelineSink`] turns it into a predicted execution time against a
//!   [`CostModel`] (per-processor speeds plus pairwise link costs). This is
//!   the core of `HMPI_Timeof` and of the group-selection search.
//! * [`RecordingSink`] captures the raw event stream for tests and tools.
//!
//! `par` semantics: variable bindings evolve *sequentially* across the
//! iterations (Figure 7 even increments its loop variable inside the body),
//! but every iteration's activities start from the clock state at the `par`
//! entry, and the block completes at the elementwise maximum over
//! iterations — "data transfer between different pairs of processors is
//! carried out in parallel".

/// Safety cap on total loop iterations while running one scheme.
pub const ITERATION_LIMIT: u64 = 200_000_000;

/// Receives the activity stream of a scheme.
pub trait SchemeSink {
    /// The processor with the given linear index performs `percent` percent
    /// of its total computation volume.
    fn compute(&mut self, proc: usize, percent: f64);
    /// `percent` percent of the total `src → dst` communication volume is
    /// transferred.
    fn transfer(&mut self, src: usize, dst: usize, percent: f64);
    /// A `par` block begins.
    fn par_begin(&mut self) {}
    /// One `par` iteration's activities are complete.
    fn par_branch(&mut self) {}
    /// The `par` block ends (join).
    fn par_end(&mut self) {}
}

/// One recorded scheme event.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeEvent {
    /// Computation activity.
    Compute {
        /// Linear processor index.
        proc: usize,
        /// Percentage of the processor's total volume.
        percent: f64,
    },
    /// Transfer activity.
    Transfer {
        /// Linear source index.
        src: usize,
        /// Linear destination index.
        dst: usize,
        /// Percentage of the pair's total volume.
        percent: f64,
    },
    /// `par` entry.
    ParBegin,
    /// `par` branch boundary.
    ParBranch,
    /// `par` join.
    ParEnd,
}

/// A sink that records every event (for tests and model debugging).
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// The recorded stream.
    pub events: Vec<SchemeEvent>,
}

impl SchemeSink for RecordingSink {
    fn compute(&mut self, proc: usize, percent: f64) {
        self.events.push(SchemeEvent::Compute { proc, percent });
    }
    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        self.events.push(SchemeEvent::Transfer { src, dst, percent });
    }
    fn par_begin(&mut self) {
        self.events.push(SchemeEvent::ParBegin);
    }
    fn par_branch(&mut self) {
        self.events.push(SchemeEvent::ParBranch);
    }
    fn par_end(&mut self) {
        self.events.push(SchemeEvent::ParEnd);
    }
}

/// Per-pair and per-processor costs the timeline is computed against.
///
/// Index space: *abstract* processors (the model's linear indices); the
/// caller maps them to physical machines before building the `CostModel`.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Estimated speed of each abstract processor's host, in benchmark units
    /// per second.
    pub speeds: Vec<f64>,
    /// One-way latency between hosts of each pair, seconds.
    pub latency: Vec<Vec<f64>>,
    /// Bandwidth between hosts of each pair, bytes/second.
    pub bandwidth: Vec<Vec<f64>>,
}

impl CostModel {
    /// A homogeneous cost model (testing convenience): `n` processors of
    /// equal `speed`, all pairs with the same `latency`/`bandwidth`.
    pub fn homogeneous(n: usize, speed: f64, latency: f64, bandwidth: f64) -> Self {
        CostModel {
            speeds: vec![speed; n],
            latency: vec![vec![latency; n]; n],
            bandwidth: vec![vec![bandwidth; n]; n],
        }
    }
}

/// Sink computing the predicted execution timeline.
#[derive(Debug, Clone)]
pub struct TimelineSink {
    cost: CostModel,
    /// Total computation volume of each abstract processor (benchmark units).
    volumes: Vec<f64>,
    /// Total bytes between each pair.
    comm: Vec<Vec<f64>>,
    clocks: Vec<f64>,
    stack: Vec<ParFrame>,
}

#[derive(Debug, Clone)]
struct ParFrame {
    snapshot: Vec<f64>,
    merged: Vec<f64>,
}

impl TimelineSink {
    /// A sink over the given cost model, per-processor volumes and pairwise
    /// communication volumes.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn new(cost: CostModel, volumes: Vec<f64>, comm: Vec<Vec<f64>>) -> Self {
        let n = volumes.len();
        assert_eq!(cost.speeds.len(), n, "cost model covers every processor");
        assert_eq!(comm.len(), n, "comm matrix is n x n");
        TimelineSink {
            cost,
            volumes,
            comm,
            clocks: vec![0.0; n],
            stack: Vec::new(),
        }
    }

    /// The predicted execution time so far: the maximum processor clock.
    pub fn total_time(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Per-processor clocks.
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }
}

impl SchemeSink for TimelineSink {
    fn compute(&mut self, proc: usize, percent: f64) {
        let units = self.volumes[proc] * percent / 100.0;
        self.clocks[proc] += units / self.cost.speeds[proc];
    }

    fn transfer(&mut self, src: usize, dst: usize, percent: f64) {
        if src == dst {
            return;
        }
        let bytes = self.comm[src][dst] * percent / 100.0;
        if bytes <= 0.0 {
            return;
        }
        let lat = self.cost.latency[src][dst];
        let cost = lat + bytes / self.cost.bandwidth[src][dst];
        let start = self.clocks[src];
        // Sender pays the injection overhead; receiver waits for arrival
        // (mirrors mpisim's eager-send timing model).
        self.clocks[src] = start + lat;
        self.clocks[dst] = self.clocks[dst].max(start + cost);
    }

    fn par_begin(&mut self) {
        self.stack.push(ParFrame {
            snapshot: self.clocks.clone(),
            merged: self.clocks.clone(),
        });
    }

    fn par_branch(&mut self) {
        let frame = self.stack.last_mut().expect("par_branch inside par_begin");
        for (m, c) in frame.merged.iter_mut().zip(&self.clocks) {
            *m = m.max(*c);
        }
        self.clocks.clone_from(&frame.snapshot);
    }

    fn par_end(&mut self) {
        let frame = self.stack.pop().expect("par_end matches par_begin");
        self.clocks = frame.merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalError;
    use crate::model::{CompiledModel, ParamValue, PerformanceModel};

    /// Runs the scheme of `src` with scalar parameters `params`.
    fn run(src: &str, params: &[i64]) -> Result<RecordingSink, EvalError> {
        let params: Vec<ParamValue> = params.iter().map(|&v| ParamValue::Int(v)).collect();
        let inst = CompiledModel::compile(src).unwrap().instantiate(&params)?;
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink)?;
        Ok(sink)
    }

    #[test]
    fn par_emits_fork_join_structure() {
        let src = r"
            algorithm T(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int i;
                    par (i = 0; i < p; i++) 100%%[i];
                };
            }
        ";
        let sink = run(src, &[3]).unwrap();
        assert_eq!(
            sink.events,
            vec![
                SchemeEvent::ParBegin,
                SchemeEvent::Compute {
                    proc: 0,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::Compute {
                    proc: 1,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::Compute {
                    proc: 2,
                    percent: 100.0
                },
                SchemeEvent::ParBranch,
                SchemeEvent::ParEnd,
            ]
        );
    }

    #[test]
    fn two_dim_coordinates_linearise_row_major() {
        let src = r"
            algorithm T(int m) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    (100)%%[1, 2];
                };
            }
        ";
        let sink = run(src, &[3]).unwrap();
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 5,
                percent: 100.0
            }]
        );
    }

    #[test]
    fn out_of_range_coordinate_rejected() {
        let src = r"
            algorithm T(int p) {
                coord I=p;
                node {I>=0: bench*(1);};
                parent[0];
                scheme { 100%%[p]; };
            }
        ";
        let err = run(src, &[2]).unwrap_err();
        assert!(matches!(err, EvalError::BadProcessor(_)));
    }

    #[test]
    fn percent_expressions_use_true_division() {
        let src = r"
            algorithm T(int n) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme { (100/n)%%[0]; };
            }
        ";
        let sink = run(src, &[400]).unwrap();
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 0,
                percent: 0.25
            }]
        );
    }

    #[test]
    fn loop_variable_mutation_inside_par_body() {
        // The Figure 7 pattern: par with an empty step, stepping inside.
        let src = r"
            algorithm T(int l) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int Arow, count;
                    count = 0;
                    par (Arow = 0; Arow < l; ) {
                        count++;
                        Arow += 2;
                    }
                };
            }
        ";
        // l = 7, step 2 -> iterations at 0,2,4,6 -> 4 branches.
        let sink = run(src, &[7]).unwrap();
        let branches = sink
            .events
            .iter()
            .filter(|e| **e == SchemeEvent::ParBranch)
            .count();
        assert_eq!(branches, 4);
    }

    #[test]
    fn struct_vars_and_getprocessor() {
        let src = r"
            typedef struct {int I; int J;} Processor;
            algorithm T(int m, int w[m], int h[m][m][m][m]) {
                coord I=m, J=m;
                node {I>=0 && J>=0: bench*(1);};
                parent[0,0];
                scheme {
                    Processor Root;
                    GetProcessor(0, 1, m, h, w, &Root);
                    100%%[Root.I, Root.J];
                };
            }
        ";
        let mut h = vec![0i64; 16];
        let at = |i: usize, j: usize, k: usize, l: usize| ((i * 2 + j) * 2 + k) * 2 + l;
        h[at(0, 0, 0, 0)] = 1;
        h[at(1, 0, 1, 0)] = 1;
        h[at(0, 1, 0, 1)] = 1;
        h[at(1, 1, 1, 1)] = 1;
        let inst = CompiledModel::compile(src)
            .unwrap()
            .instantiate(&[
                ParamValue::Int(2),
                ParamValue::Array(vec![1, 1]),
                ParamValue::Array(h),
            ])
            .unwrap();
        let mut sink = RecordingSink::default();
        inst.run_scheme(&mut sink).unwrap();
        // Block (0,1) belongs to grid processor (0,1) -> linear index 1.
        assert_eq!(
            sink.events,
            vec![SchemeEvent::Compute {
                proc: 1,
                percent: 100.0
            }]
        );
    }

    #[test]
    fn timeline_par_overlaps_and_seq_chains() {
        // Two computations in a par overlap; in sequence they chain.
        let cost = CostModel::homogeneous(2, 1.0, 0.0, 1e9);
        let volumes = vec![10.0, 20.0];
        let comm = vec![vec![0.0; 2]; 2];

        let mut sink = TimelineSink::new(cost.clone(), volumes.clone(), comm.clone());
        sink.par_begin();
        sink.compute(0, 100.0);
        sink.par_branch();
        sink.compute(1, 100.0);
        sink.par_branch();
        sink.par_end();
        assert_eq!(sink.total_time(), 20.0);

        let mut sink = TimelineSink::new(cost, volumes, comm);
        sink.compute(0, 100.0);
        sink.compute(0, 100.0);
        assert_eq!(sink.total_time(), 20.0); // same proc twice: serial
    }

    #[test]
    fn timeline_transfer_couples_clocks() {
        let cost = CostModel::homogeneous(2, 1.0, 0.5, 100.0);
        let volumes = vec![0.0, 0.0];
        let mut comm = vec![vec![0.0; 2]; 2];
        comm[0][1] = 200.0; // bytes
        let mut sink = TimelineSink::new(cost, volumes, comm);
        sink.transfer(0, 1, 50.0); // 100 bytes: 0.5 + 1.0 = 1.5 s
        assert!((sink.clocks()[1] - 1.5).abs() < 1e-12);
        assert!((sink.clocks()[0] - 0.5).abs() < 1e-12); // sender overhead
    }

    #[test]
    fn for_loop_without_condition_is_rejected() {
        // `for (;;)` would never terminate; the scheme is refused
        // instead of hitting the iteration cap.
        let src = r"
            algorithm T(int p) {
                coord I=1;
                node {I>=0: bench*(1);};
                parent[0];
                scheme {
                    int i;
                    for (i = 0; ; i++) { ; }
                };
            }
        ";
        let err = run(src, &[1]).unwrap_err();
        assert!(matches!(err, EvalError::TypeError(_)));
    }

    #[test]
    fn nested_par_timeline() {
        // Outer par of two branches; each branch computes on a different
        // processor; inner activities overlap globally.
        let cost = CostModel::homogeneous(3, 1.0, 0.0, 1e9);
        let volumes = vec![5.0, 7.0, 9.0];
        let comm = vec![vec![0.0; 3]; 3];
        let mut sink = TimelineSink::new(cost, volumes, comm);
        sink.par_begin();
        {
            sink.par_begin();
            sink.compute(0, 100.0);
            sink.par_branch();
            sink.compute(1, 100.0);
            sink.par_branch();
            sink.par_end();
        }
        sink.par_branch();
        sink.compute(2, 100.0);
        sink.par_branch();
        sink.par_end();
        assert_eq!(sink.total_time(), 9.0);
    }
}
