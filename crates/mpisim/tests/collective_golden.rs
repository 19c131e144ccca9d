//! Golden virtual times of every `Comm` collective without an algorithm
//! choice: barrier, the `Vec` broadcast, gather, scatter, allgather,
//! alltoall, the prefix reductions, reduce-scatter and the scalar
//! reductions.
//!
//! Each digest is FNV-1a over the bits of every rank's clock and result
//! after every call of one operation, for 1–9 ranks, every root, and both
//! equal and ragged counts (where the operation takes counts). Ranks enter
//! each call at staggered virtual times (a rank-dependent compute step), so
//! a change in any rank's send/receive order, tree shape or payload size
//! shows up in the digest. Every operation runs on four networks: a flat
//! heterogeneous cluster under each contention model, and the three-site
//! serialized-NIC testbed of `hmpi_bench::hierarchy::multi_site_testbed`.

use hetsim::{Cluster, ClusterBuilder, ContentionModel, Link, NodeId, Protocol, TopologyBuilder};
use mpisim::{Comm, ReduceOp, Universe, UniverseConfig};
use std::sync::Arc;

const MAX_RANKS: usize = 9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Nine nodes with distinct speeds and pairwise-distinct links, so every
/// tree edge has its own cost.
fn flat(contention: ContentionModel) -> Cluster {
    let mut b = ClusterBuilder::new();
    for i in 0..MAX_RANKS {
        b = b.node(format!("h{i}"), 40.0 + 17.0 * i as f64);
    }
    b = b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp));
    for i in 0..MAX_RANKS {
        for j in i + 1..MAX_RANKS {
            let k = (i * MAX_RANKS + j) as f64;
            b = b.link_between(
                i,
                j,
                Link::new(5e-5 + 3e-6 * k, 2e6 + 4e5 * k, Protocol::Tcp),
            );
        }
    }
    b.contention(contention).build()
}

/// Three sites of five workstations: ~100 MB/s LAN within a site, a
/// ~1 MB/s 50 ms WAN between sites, serialized NICs.
fn multi_site_testbed() -> Cluster {
    let lan = Link::new(1e-4, 100e6, Protocol::Tcp);
    let wan = Link::new(50e-3, 1e6, Protocol::Tcp);
    let mut b = TopologyBuilder::new()
        .intra_switch(lan)
        .inter_site(wan)
        .contention(ContentionModel::SerializedNic);
    for site in 0..3 {
        b = b.site();
        for i in 0..5 {
            b = b.node(format!("s{site}w{i}"), 80.0 + 15.0 * i as f64);
        }
    }
    b.build().into_parts().0
}

fn networks() -> [(&'static str, Arc<Cluster>); 4] {
    [
        (
            "parallel-links",
            Arc::new(flat(ContentionModel::ParallelLinks)),
        ),
        (
            "serialized-nic",
            Arc::new(flat(ContentionModel::SerializedNic)),
        ),
        ("shared-bus", Arc::new(flat(ContentionModel::SharedBus))),
        ("multi-site", Arc::new(multi_site_testbed())),
    ]
}

/// Rank `i` of an `n`-rank world: the first `n` nodes of a flat network,
/// round-robin over the three sites of the testbed (so WAN edges appear
/// from two ranks on).
fn placement(name: &str, n: usize) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            if name == "multi-site" {
                NodeId((i % 3) * 5 + i / 3)
            } else {
                NodeId(i)
            }
        })
        .collect()
}

/// Per-rank record of one run: clock and result bits after every call.
#[derive(Default)]
struct Rec(Vec<u64>);

impl Rec {
    fn f64s(&mut self, v: &[f64]) {
        self.0.push(v.len() as u64);
        self.0.extend(v.iter().map(|x| x.to_bits()));
    }

    fn i64s(&mut self, v: &[i64]) {
        self.0.push(v.len() as u64);
        self.0.extend(v.iter().map(|&x| x as u64));
    }

    fn none(&mut self) {
        self.0.push(u64::MAX);
    }
}

/// Staggers this rank's entry into the next call and returns a value that
/// differs per rank and call, so results are not trivially equal.
fn stagger(c: &Comm, call: usize) -> f64 {
    let r = c.rank();
    c.compute(((r * 7 + call * 3) % 5) as f64 + 0.5);
    1.0 + r as f64 * 0.37 + call as f64 * 1e-3
}

/// The `i`-th element of a rank's contribution: mixed magnitudes, so any
/// re-association of a floating-point fold changes low bits.
fn val(rank: usize, call: usize, i: usize) -> f64 {
    let base = [1e-3, 7.0, 3e9][(rank + i) % 3];
    base * (1.0 + 0.1 * rank as f64 + 0.01 * i as f64 + 1e-4 * call as f64)
}

fn ival(rank: usize, call: usize, i: usize) -> i64 {
    (rank as i64 * 31 + call as i64 * 7 + i as i64 * 3) % 11 - 5
}

/// Element counts exercised by every counted operation: a scalar, an
/// eager payload, and one above the default 256-byte eager limit.
const LENS: [usize; 3] = [1, 5, 40];

/// Ragged count of rank `r` in call `call`.
fn ragged(r: usize, call: usize) -> usize {
    (r * 5 + call * 3) % 7 + if r % 4 == 1 { 36 } else { 0 }
}

fn digest(body: impl Fn(&Comm, &mut Rec) + Send + Sync + Copy + 'static) -> [u64; 4] {
    networks().map(|(name, cluster)| {
        let mut h = Fnv::new();
        for n in 1..=MAX_RANKS {
            let config = UniverseConfig::new().placement(placement(name, n));
            let u = Universe::with_config(cluster.clone(), config);
            let report = u.run(move |p| {
                let world = p.world();
                let mut rec = Rec::default();
                body(&world, &mut rec);
                rec.0.push(world.clock().now().as_secs().to_bits());
                rec.0
            });
            h.word(n as u64);
            for words in &report.results {
                h.word(words.len() as u64);
                for &w in words {
                    h.word(w);
                }
            }
        }
        h.0
    })
}

/// Records the rank's clock after a call.
fn tick(c: &Comm, rec: &mut Rec) {
    rec.0.push(c.clock().now().as_secs().to_bits());
}

fn check(
    name: &str,
    body: impl Fn(&Comm, &mut Rec) + Send + Sync + Copy + 'static,
    want: [u64; 4],
) {
    let got = digest(body);
    assert_eq!(
        got, want,
        "{name}: golden digests moved (parallel-links, serialized-nic, shared-bus, multi-site); \
         got {got:#018x?}"
    );
}

#[test]
fn barrier() {
    check(
        "barrier",
        |c, rec| {
            for call in 0..3 {
                stagger(c, call);
                c.barrier().unwrap();
                tick(c, rec);
            }
        },
        [
            0xa9fbf646e6e3496d,
            0x9fb35f3351b4718b,
            0x9fb35f3351b4718b,
            0x5941028dabaec1d5,
        ],
    );
}

#[test]
fn bcast() {
    check(
        "bcast",
        |c, rec| {
            let mut call = 0;
            for root in 0..c.size() {
                for len in LENS.into_iter().chain([ragged(root, call)]) {
                    let x = stagger(c, call);
                    let mut v: Vec<f64> = if c.rank() == root {
                        (0..len).map(|i| val(root, call, i) * x).collect()
                    } else {
                        Vec::new()
                    };
                    c.bcast(&mut v, root).unwrap();
                    tick(c, rec);
                    rec.f64s(&v);
                    call += 1;
                }
            }
        },
        [
            0xe7affa1fc6b282d9,
            0x530d17443f379d4c,
            0x530d17443f379d4c,
            0x5301ff94928c4d65,
        ],
    );
}

#[test]
fn bcast_one() {
    check(
        "bcast_one",
        |c, rec| {
            for root in 0..c.size() {
                stagger(c, root);
                let v = c.bcast_one(ival(c.rank(), root, 0), root).unwrap();
                tick(c, rec);
                rec.i64s(&[v]);
            }
        },
        [
            0x42e558f2497b4b85,
            0xf248ab5f09f9dee4,
            0xf248ab5f09f9dee4,
            0xe7a705160ef55061,
        ],
    );
}

#[test]
fn gather() {
    check(
        "gather",
        |c, rec| {
            let mut call = 0;
            for root in 0..c.size() {
                for len in LENS.map(Some).into_iter().chain([None]) {
                    let x = stagger(c, call);
                    let me = c.rank();
                    let n = len.unwrap_or_else(|| ragged(me, call));
                    let mine: Vec<f64> = (0..n).map(|i| val(me, call, i) * x).collect();
                    match c.gather(&mine, root).unwrap() {
                        Some(parts) => {
                            tick(c, rec);
                            for part in &parts {
                                rec.f64s(part);
                            }
                        }
                        None => {
                            tick(c, rec);
                            rec.none();
                        }
                    }
                    call += 1;
                }
            }
        },
        [
            0x6704de2415fbec5b,
            0xd1234a0d92356d77,
            0xd1234a0d92356d77,
            0x9af9f3267da3c66f,
        ],
    );
}

#[test]
fn gather_flat() {
    check(
        "gather_flat",
        |c, rec| {
            let mut call = 0;
            for root in 0..c.size() {
                for len in LENS {
                    stagger(c, call);
                    let mine: Vec<i64> = (0..len).map(|i| ival(c.rank(), call, i)).collect();
                    let out = c.gather_flat(&mine, root).unwrap();
                    tick(c, rec);
                    match out {
                        Some(flat) => rec.i64s(&flat),
                        None => rec.none(),
                    }
                    call += 1;
                }
            }
        },
        [
            0x71da737f5f377b33,
            0x7cc3302b2ac106e5,
            0x7cc3302b2ac106e5,
            0x4d94029bc1a768b9,
        ],
    );
}

#[test]
fn scatter() {
    check(
        "scatter",
        |c, rec| {
            let mut call = 0;
            for root in 0..c.size() {
                for len in LENS.map(Some).into_iter().chain([None]) {
                    let x = stagger(c, call);
                    let parts: Vec<Vec<f64>> = (0..c.size())
                        .map(|dst| {
                            let n = len.unwrap_or_else(|| ragged(dst, call));
                            (0..n).map(|i| val(dst, call, i) * x).collect()
                        })
                        .collect();
                    let mine = c
                        .scatter((c.rank() == root).then_some(&parts[..]), root)
                        .unwrap();
                    tick(c, rec);
                    rec.f64s(&mine);
                    call += 1;
                }
            }
        },
        [
            0xbb5dde9fa71366cc,
            0x014e8c7bbdbec2b6,
            0x014e8c7bbdbec2b6,
            0xe563da5d2da3de27,
        ],
    );
}

#[test]
fn allgather() {
    check(
        "allgather",
        |c, rec| {
            for (call, len) in LENS.map(Some).into_iter().chain([None, None]).enumerate() {
                let x = stagger(c, call);
                let me = c.rank();
                let n = len.unwrap_or_else(|| ragged(me, call));
                let mine: Vec<f64> = (0..n).map(|i| val(me, call, i) * x).collect();
                let all = c.allgather(&mine).unwrap();
                tick(c, rec);
                for part in &all {
                    rec.f64s(part);
                }
            }
        },
        [
            0x5525f22d649ef7b0,
            0x7ab51c0c97af86b5,
            0x7ab51c0c97af86b5,
            0x68e27137180d2f12,
        ],
    );
}

#[test]
fn alltoall() {
    check(
        "alltoall",
        |c, rec| {
            for (call, len) in LENS.map(Some).into_iter().chain([None, None]).enumerate() {
                stagger(c, call);
                let me = c.rank();
                let sends: Vec<Vec<i64>> = (0..c.size())
                    .map(|dst| {
                        let n = len.unwrap_or_else(|| ragged(me + dst, call));
                        (0..n).map(|i| ival(me, call + dst, i)).collect()
                    })
                    .collect();
                let got = c.alltoall(&sends).unwrap();
                tick(c, rec);
                for part in &got {
                    rec.i64s(part);
                }
            }
        },
        [
            0xf920c9d099a89ca2,
            0x4f35dd4e9c3ce07e,
            0x4f35dd4e9c3ce07e,
            0x466d328e96e199e1,
        ],
    );
}

/// Runs a prefix reduction under every op and length.
macro_rules! prefix_case {
    ($name:ident, $val:ident, $rec:ident, $t:ty, $want:expr) => {
        #[test]
        fn $name() {
            check(
                stringify!($name),
                |c, rec| {
                    let mut call = 0;
                    for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
                        for len in LENS {
                            stagger(c, call);
                            let mine: Vec<$t> =
                                (0..len).map(|i| $val(c.rank(), call, i) as $t).collect();
                            let out = c.$name(&mine, op).unwrap();
                            tick(c, rec);
                            rec.$rec(&out);
                            call += 1;
                        }
                    }
                },
                $want,
            );
        }
    };
}

prefix_case!(
    scan_f64,
    val,
    f64s,
    f64,
    [
        0xf83994a245cc56eb,
        0xf83994a245cc56eb,
        0xf83994a245cc56eb,
        0xfdeaaa3d02353e22
    ]
);
prefix_case!(
    scan_i64,
    ival,
    i64s,
    i64,
    [
        0x8226ba853edcf648,
        0x8226ba853edcf648,
        0x8226ba853edcf648,
        0x75e6fa02740fa2c5
    ]
);
prefix_case!(
    exscan_f64,
    val,
    f64s,
    f64,
    [
        0x38e273b449060ba8,
        0x38e273b449060ba8,
        0x38e273b449060ba8,
        0xbfc505eb2cdf668d
    ]
);
prefix_case!(
    exscan_i64,
    ival,
    i64s,
    i64,
    [
        0xf5a8c79703999395,
        0xf5a8c79703999395,
        0xf5a8c79703999395,
        0xcda9cad921318be0
    ]
);

/// Runs a reduce-scatter under every op and block size.
macro_rules! rsb_case {
    ($name:ident, $val:ident, $rec:ident, $t:ty, $want:expr) => {
        #[test]
        fn $name() {
            check(
                stringify!($name),
                |c, rec| {
                    let mut call = 0;
                    for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
                        for block in LENS {
                            stagger(c, call);
                            let mine: Vec<$t> = (0..block * c.size())
                                .map(|i| $val(c.rank(), call, i) as $t)
                                .collect();
                            let out = c.$name(&mine, block, op).unwrap();
                            tick(c, rec);
                            rec.$rec(&out);
                            call += 1;
                        }
                    }
                },
                $want,
            );
        }
    };
}

// The reduce-scatter and scalar-reduction families run the engine's
// `reduce_eq_*`/`allreduce_eq_*`, so these digests pin its rank-ordered
// fold and its algorithm choice (EXPERIMENTS.md, "One collective path").
rsb_case!(
    reduce_scatter_block_f64,
    val,
    f64s,
    f64,
    [
        0xaf35e5d8b4bf64d1,
        0xba0187f4e9c79078,
        0xba0187f4e9c79078,
        0x1519017be6ed64f9
    ]
);
rsb_case!(
    reduce_scatter_block_i64,
    ival,
    i64s,
    i64,
    [
        0xcb2009b17c8acd2a,
        0x86244af0c9daed57,
        0x86244af0c9daed57,
        0xea305d89f24ae7ae
    ]
);

/// Runs a scalar reduction under every op and (for rooted ones) root.
macro_rules! one_case {
    ($name:ident, $val:ident, $rec:ident, rooted, $want:expr) => {
        #[test]
        fn $name() {
            check(
                stringify!($name),
                |c, rec| {
                    let mut call = 0;
                    for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
                        for root in 0..c.size() {
                            stagger(c, call);
                            let out = c.$name($val(c.rank(), call, 0) as _, op, root).unwrap();
                            tick(c, rec);
                            match out {
                                Some(v) => rec.$rec(&[v]),
                                None => rec.none(),
                            }
                            call += 1;
                        }
                    }
                },
                $want,
            );
        }
    };
    ($name:ident, $val:ident, $rec:ident, $want:expr) => {
        #[test]
        fn $name() {
            check(
                stringify!($name),
                |c, rec| {
                    for (call, op) in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min]
                        .into_iter()
                        .enumerate()
                    {
                        stagger(c, call);
                        let out = c.$name($val(c.rank(), call, 0) as _, op).unwrap();
                        tick(c, rec);
                        rec.$rec(&[out]);
                    }
                },
                $want,
            );
        }
    };
}

one_case!(
    reduce_one_f64,
    val,
    f64s,
    rooted,
    [
        0x1038e2ca580cd648,
        0x7179cfcbb09a66b2,
        0x7179cfcbb09a66b2,
        0xd19f7ea26af8fe5c
    ]
);
one_case!(
    reduce_one_i64,
    ival,
    i64s,
    rooted,
    [
        0x0e161cafdab751dd,
        0x0c60de87c64e74d7,
        0x0c60de87c64e74d7,
        0x4a2d4db4128f8c6d
    ]
);
one_case!(
    allreduce_one_f64,
    val,
    f64s,
    [
        0x45c207642d29fc77,
        0xd02bc44327232907,
        0xd02bc44327232907,
        0x9d3478c702d055f7
    ]
);
one_case!(
    allreduce_one_i64,
    ival,
    i64s,
    [
        0x5e7ae5ec13f8a33c,
        0xed896c59196623d8,
        0xed896c59196623d8,
        0x104ff89ae7f9f394
    ]
);
