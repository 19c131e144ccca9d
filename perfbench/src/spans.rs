//! Wall-clock spans recorded around the benchmark's own calls into each
//! layer's public functions, and the self-time attribution over them.
//!
//! Spans are kept in memory while the run lasts and written out when it
//! ends. The program under test is not instrumented: a span covers one
//! public call made by this benchmark, on the thread that made it — the
//! driver thread for the job itself, a rank thread inside a universe run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Names starting with this prefix belong to the benchmark, not to a layer
/// of the program: their self time is the unattributed remainder.
pub const BENCH_PREFIX: &str = "bench.";

/// The driver thread's span while it is blocked inside a universe run,
/// between the last rank entering its closure and the last one leaving.
/// It takes no share of the wall clock: the rank threads do the work.
pub const WAIT: &str = "bench.wait";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `hmpi.group_create`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Unique id within the recorder.
    pub id: u32,
    /// The span that caused this one (`None` for a job's root).
    pub parent: Option<u32>,
    /// The job the span belongs to.
    pub job: u32,
    /// Thread within the job: 0 is the driver, `1 + r` is rank `r`.
    pub thread: u32,
}

/// Thread-safe in-memory span store shared by the driver and rank threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn extend(&self, buf: &mut Vec<Span>) {
        if !buf.is_empty() {
            self.spans
                .lock()
                .expect("a rank thread panicked while flushing spans")
                .append(buf);
        }
    }

    /// Every span recorded so far, in flush order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// One thread's view of the recorder during one job. With no recorder every
/// method is a no-op apart from running the wrapped call, so the untraced
/// and traced paths share their code.
#[derive(Debug)]
pub struct Lane<'r> {
    rec: Option<&'r Recorder>,
    job: u32,
    thread: u32,
    stack: Vec<(u32, &'static str, u64)>,
    buf: Vec<Span>,
}

impl<'r> Lane<'r> {
    /// The driver thread's lane for job `job`, with its root span
    /// `bench.job` opened.
    pub fn job(rec: Option<&'r Recorder>, job: u32) -> Self {
        let mut lane = Lane {
            rec,
            job,
            thread: 0,
            stack: Vec::new(),
            buf: Vec::new(),
        };
        lane.open("bench.job");
        lane
    }

    /// Opens a span on this lane; it nests inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if let Some(rec) = self.rec {
            self.stack.push((rec.alloc_id(), name, rec.now()));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(rec) = self.rec {
            let (id, name, start) = self.stack.pop().expect("close without open");
            let parent = self.stack.last().map(|s| s.0);
            self.buf.push(Span {
                name,
                start,
                end: rec.now(),
                id,
                parent,
                job: self.job,
                thread: self.thread,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Starts timing a universe run made from this (driver) lane. Rank
    /// lanes created from the returned handle hang under it.
    pub fn run_start(&self) -> RunHandle<'r> {
        RunHandle {
            rec: self.rec,
            job: self.job,
            id: self.rec.map_or(0, Recorder::alloc_id),
            call: self.rec.map_or(0, Recorder::now),
        }
    }

    /// Ends a universe run: records `mpisim.spawn` from the call to the last
    /// rank entering its closure, [`WAIT`] until the last rank left, and
    /// `mpisim.join` from there to now. `bounds` are the ranks'
    /// `(enter, exit)` times from [`RankLane::finish`].
    pub fn run_end(&mut self, run: RunHandle<'_>, bounds: impl IntoIterator<Item = (u64, u64)>) {
        let Some(rec) = self.rec else { return };
        let ret = rec.now();
        let (mut enter, mut exit) = (run.call, run.call);
        for (e, x) in bounds {
            enter = enter.max(e);
            exit = exit.max(x);
        }
        let parent = self.stack.last().map(|s| s.0);
        for (id, name, start, end) in [
            (run.id, "mpisim.spawn", run.call, enter),
            (rec.alloc_id(), WAIT, enter, exit),
            (rec.alloc_id(), "mpisim.join", exit, ret),
        ] {
            self.buf.push(Span {
                name,
                start,
                end,
                id,
                parent,
                job: self.job,
                thread: 0,
            });
        }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
        if let Some(rec) = self.rec {
            rec.extend(&mut self.buf);
        }
    }
}

/// A universe run in flight, as seen from the driver lane.
#[derive(Debug, Clone, Copy)]
pub struct RunHandle<'r> {
    rec: Option<&'r Recorder>,
    job: u32,
    id: u32,
    call: u64,
}

impl<'r> RunHandle<'r> {
    /// Rank `rank`'s lane, with its root span `bench.rank` opened under the
    /// run. Create it first thing in the rank closure.
    pub fn rank(&self, rank: usize) -> RankLane<'r> {
        let mut lane = Lane {
            rec: self.rec,
            job: self.job,
            thread: 1 + rank as u32,
            stack: Vec::new(),
            buf: Vec::new(),
        };
        if let Some(rec) = self.rec {
            lane.stack.push((rec.alloc_id(), "bench.rank", rec.now()));
            lane.buf.reserve(16);
        }
        // Parent the rank root on the run's spawn span.
        RankLane { lane, run: self.id }
    }
}

/// A rank thread's lane within one universe run.
#[derive(Debug)]
pub struct RankLane<'r> {
    /// The lane itself; wrap calls with [`Lane::time`].
    pub lane: Lane<'r>,
    run: u32,
}

impl RankLane<'_> {
    /// Closes the rank's root span, hands its spans to the recorder and
    /// returns the `(enter, exit)` times the driver needs for
    /// [`Lane::run_end`]. Call it last thing in the rank closure.
    pub fn finish(mut self) -> (u64, u64) {
        let Some(rec) = self.lane.rec else {
            return (0, 0);
        };
        while self.lane.stack.len() > 1 {
            self.lane.close();
        }
        let (id, name, start) = self.lane.stack.pop().expect("rank root is open");
        let end = rec.now();
        self.lane.buf.push(Span {
            name,
            start,
            end,
            id,
            parent: Some(self.run),
            job: self.lane.job,
            thread: self.lane.thread,
        });
        (start, end)
    }
}

/// Self time per span name over one job, plus the job's wall time.
///
/// A span's self time is its duration minus the part of that interval its
/// child spans cover. Rank threads run concurrently and mostly wait on one
/// another, so the wall clock is read along one line of threads: the
/// driver, and while it waits inside a universe run ([`WAIT`]), the
/// lowest-ranked thread still in the run — rank 0, the HMPI host, first.
/// Each instant belongs to the innermost open span on that line; instants
/// no span covers are the job root's own. The self times of a job thus add
/// up to its wall time exactly, and a span another rank waits on (the
/// host's `HMPI_Timeof` sweep while the others sit in a broadcast) keeps
/// its full length.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// Job wall time, ns.
    pub wall: f64,
    /// Self time by span name, ns.
    pub self_ns: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Attributes the spans of one job (all with the same `job`; exactly
    /// one of them is the root `bench.job` on thread 0).
    pub fn of_job(spans: &[Span]) -> Attribution {
        let root = spans
            .iter()
            .find(|s| s.parent.is_none() && s.thread == 0)
            .expect("job has a root span");
        // Boundaries: closes sort before opens at equal times so a span
        // ending where its sibling starts never looks nested, and of spans
        // opening together the longer (outer) one opens first.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
        for (i, s) in spans.iter().enumerate() {
            if s.id == root.id {
                continue;
            }
            let start = s.start.clamp(root.start, root.end);
            events.push((start, true, i));
            events.push((s.end.clamp(start, root.end), false, i));
        }
        events.sort_by_key(|&(t, open, i)| {
            let outer_first = if open { u64::MAX - spans[i].end } else { 0 };
            (t, open, outer_first, spans[i].id)
        });
        let threads = spans.iter().map(|s| s.thread).max().unwrap_or(0) as usize + 1;
        let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); threads];
        let mut out = Attribution {
            wall: (root.end - root.start) as f64,
            self_ns: BTreeMap::new(),
        };
        let mut covered = 0.0f64;
        let mut t = root.start;
        for (at, open, i) in events {
            if at > t {
                let dt = (at - t) as f64;
                // The driver's innermost span, unless it is waiting on the
                // ranks; else the first rank thread with an open span.
                let owner = stacks
                    .iter()
                    .filter_map(|st| st.last().copied())
                    .find(|&j| spans[j].name != WAIT);
                if let Some(j) = owner {
                    *out.self_ns.entry(spans[j].name).or_insert(0.0) += dt;
                    covered += dt;
                }
                t = at;
            }
            let st = &mut stacks[spans[i].thread as usize];
            if open {
                st.push(i);
            } else if let Some(pos) = st.iter().rposition(|&j| j == i) {
                st.remove(pos);
            }
        }
        *out.self_ns.entry(root.name).or_insert(0.0) += out.wall - covered;
        out
    }

    /// The part of the job's wall time spent in benchmark spans rather
    /// than in a layer of the program, ns.
    pub fn unattributed(&self) -> f64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| n.starts_with(BENCH_PREFIX))
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        id: u32,
        parent: Option<u32>,
        thread: u32,
    ) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            job: 0,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_one_thread() {
        // job [0,100): a [10,60) holding b [20,30) and c [40,55); d [70,90).
        let spans = [
            span("bench.job", 0, 100, 1, None, 0),
            span("a", 10, 60, 2, Some(1), 0),
            span("b", 20, 30, 3, Some(2), 0),
            span("c", 40, 55, 4, Some(2), 0),
            span("d", 70, 90, 5, Some(1), 0),
        ];
        let at = Attribution::of_job(&spans);
        assert_eq!(at.wall, 100.0);
        assert_eq!(at.self_ns["a"], 25.0);
        assert_eq!(at.self_ns["b"], 10.0);
        assert_eq!(at.self_ns["c"], 15.0);
        assert_eq!(at.self_ns["d"], 20.0);
        assert_eq!(at.self_ns["bench.job"], 30.0);
        assert_eq!(at.unattributed(), 30.0);
    }

    #[test]
    fn adjacent_spans_do_not_nest() {
        let spans = [
            span("bench.job", 0, 30, 1, None, 0),
            span("a", 0, 10, 2, Some(1), 0),
            span("b", 10, 30, 3, Some(1), 0),
        ];
        let at = Attribution::of_job(&spans);
        assert_eq!(at.self_ns["a"], 10.0);
        assert_eq!(at.self_ns["b"], 20.0);
        assert_eq!(at.self_ns["bench.job"], 0.0);
    }

    #[test]
    fn concurrent_ranks_are_read_host_first() {
        // Driver: spawn [0,10), wait [10,50), join [50,60). Rank 0 runs
        // x [5,30) then idles in its root until 40; rank 1 runs y [10,50).
        let spans = [
            span("bench.job", 0, 60, 1, None, 0),
            span("mpisim.spawn", 0, 10, 2, Some(1), 0),
            span(WAIT, 10, 50, 3, Some(1), 0),
            span("mpisim.join", 50, 60, 4, Some(1), 0),
            span("bench.rank", 5, 40, 5, Some(2), 1),
            span("x", 5, 30, 6, Some(5), 1),
            span("bench.rank", 8, 50, 7, Some(2), 2),
            span("y", 10, 50, 8, Some(7), 2),
        ];
        let at = Attribution::of_job(&spans);
        // [0,10): spawn; [10,30): x; [30,40): rank 0's root; [40,50): y
        // once rank 0 has left; [50,60): join.
        assert_eq!(at.self_ns["mpisim.spawn"], 10.0);
        assert_eq!(at.self_ns["x"], 20.0);
        assert_eq!(at.self_ns["bench.rank"], 10.0);
        assert_eq!(at.self_ns["y"], 10.0);
        assert_eq!(at.self_ns["mpisim.join"], 10.0);
        assert!(!at.self_ns.contains_key(WAIT));
        assert_eq!(at.unattributed(), 10.0);
        let total: f64 = at.self_ns.values().sum();
        assert_eq!(total, at.wall, "self times tile the job's wall clock");
    }

    #[test]
    fn lanes_record_nesting_and_runs() {
        let rec = Recorder::new();
        {
            let mut lane = Lane::job(Some(&rec), 7);
            lane.time("hetsim.build", || ());
            let run = lane.run_start();
            let bounds: Vec<(u64, u64)> = (0..2)
                .map(|r| {
                    let mut rl = run.rank(r);
                    rl.lane.time("mpisim.barrier", || ());
                    rl.finish()
                })
                .collect();
            lane.run_end(run, bounds);
        }
        let spans = rec.take();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for want in [
            "bench.job",
            "hetsim.build",
            "mpisim.spawn",
            WAIT,
            "mpisim.join",
            "bench.rank",
            "mpisim.barrier",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        assert!(spans.iter().all(|s| s.job == 7 && s.start <= s.end));
        let root = spans.iter().find(|s| s.name == "bench.job").unwrap();
        let spawn = spans.iter().find(|s| s.name == "mpisim.spawn").unwrap();
        assert_eq!(spawn.parent, Some(root.id));
        assert!(spans
            .iter()
            .filter(|s| s.name == "bench.rank")
            .all(|s| s.parent == Some(spawn.id)));
        let at = Attribution::of_job(&spans);
        let total: f64 = at.self_ns.values().sum();
        assert!((total - at.wall).abs() < 1e-6);
    }

    #[test]
    fn untraced_lanes_record_nothing() {
        let mut lane = Lane::job(None, 0);
        assert_eq!(lane.time("a", || 5), 5);
        let run = lane.run_start();
        let rl = run.rank(0);
        assert_eq!(rl.finish(), (0, 0));
        lane.run_end(run, [(0, 0)]);
        assert!(lane.buf.is_empty() && lane.stack.is_empty());
    }
}
