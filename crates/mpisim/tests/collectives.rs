//! Collective semantics across real rank threads.

use hetsim::{Cluster, ClusterBuilder, Link, Protocol};
use mpisim::{ReduceOp, Universe};
use proptest::prelude::*;
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Cluster> {
    let mut b = ClusterBuilder::new();
    for i in 0..n {
        b = b.node(format!("h{i}"), 100.0);
    }
    Arc::new(b.all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp)).build())
}

#[test]
fn bcast_from_every_root() {
    for n in [1, 2, 3, 5, 8, 9] {
        for root in [0, n - 1, n / 2] {
            let u = Universe::new(cluster(n));
            let report = u.run(move |p| {
                let world = p.world();
                let mut data = if world.rank() == root {
                    vec![3.5f64, -1.0, root as f64]
                } else {
                    Vec::new()
                };
                world.bcast(&mut data, root).unwrap();
                data
            });
            for r in report.results {
                assert_eq!(r, vec![3.5, -1.0, root as f64], "n={n} root={root}");
            }
        }
    }
}

#[test]
fn bcast_one_scalar() {
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        world.bcast_one(world.rank() as i64 + 100, 2).unwrap()
    });
    assert_eq!(report.results, vec![102; 4]);
}

#[test]
fn gather_collects_in_rank_order_with_ragged_sizes() {
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank();
        let contrib: Vec<i64> = (0..=me as i64).collect(); // rank r sends r+1 elems
        world.gather(&contrib, 1).unwrap()
    });
    assert!(report.results[0].is_none());
    let at_root = report.results[1].as_ref().unwrap();
    assert_eq!(at_root.len(), 4);
    for (r, part) in at_root.iter().enumerate() {
        assert_eq!(part, &(0..=r as i64).collect::<Vec<_>>());
    }
}

#[test]
fn gather_flat_requires_equal_counts() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        let contrib = [world.rank() as f64; 2];
        world.gather_flat(&contrib, 0).unwrap()
    });
    assert_eq!(
        report.results[0].as_ref().unwrap(),
        &vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
    );
}

#[test]
fn scatter_distributes_parts() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        let parts: Option<Vec<Vec<i64>>> = if world.rank() == 0 {
            Some(vec![vec![0], vec![10, 11], vec![20, 21, 22]])
        } else {
            None
        };
        world.scatter(parts.as_deref(), 0).unwrap()
    });
    assert_eq!(report.results[0], vec![0]);
    assert_eq!(report.results[1], vec![10, 11]);
    assert_eq!(report.results[2], vec![20, 21, 22]);
}

#[test]
fn allgather_everyone_sees_everything() {
    let u = Universe::new(cluster(5));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64;
        world.allgather(&[me, me * me]).unwrap()
    });
    for r in report.results {
        for (src, part) in r.iter().enumerate() {
            assert_eq!(part, &vec![src as i64, (src * src) as i64]);
        }
    }
}

#[test]
fn alltoall_transposes() {
    let n = 4;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank() as i64;
        let sends: Vec<Vec<i64>> = (0..n as i64).map(|dst| vec![me * 100 + dst]).collect();
        world.alltoall(&sends).unwrap()
    });
    for (me, recvd) in report.results.iter().enumerate() {
        for (src, part) in recvd.iter().enumerate() {
            assert_eq!(part, &vec![(src * 100 + me) as i64]);
        }
    }
}

#[test]
fn reduce_sum_and_max_at_root() {
    let n = 7;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        let me = world.rank() as f64;
        let sum = world.reduce_eq_f64(&[me, 1.0], ReduceOp::Sum, 3).unwrap();
        let max = world.reduce_one_f64(me, ReduceOp::Max, 3).unwrap();
        (sum, max)
    });
    for (r, (sum, max)) in report.results.iter().enumerate() {
        if r == 3 {
            let expect: f64 = (0..n as i64).map(|x| x as f64).sum();
            assert_eq!(sum.as_ref().unwrap(), &vec![expect, n as f64]);
            assert_eq!(max.unwrap(), (n - 1) as f64);
        } else {
            assert!(sum.is_none());
            assert!(max.is_none());
        }
    }
}

#[test]
fn allreduce_min_prod() {
    let u = Universe::new(cluster(5));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64 + 1;
        let min = world.allreduce_one_i64(me, ReduceOp::Min).unwrap();
        let prod = world.allreduce_one_i64(me, ReduceOp::Prod).unwrap();
        (min, prod)
    });
    for (min, prod) in report.results {
        assert_eq!(min, 1);
        assert_eq!(prod, 120); // 5!
    }
}

#[test]
fn scan_inclusive_prefix() {
    let n = 6;
    let u = Universe::new(cluster(n));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64;
        world.scan_i64(&[me], ReduceOp::Sum).unwrap()[0]
    });
    let mut prefix = 0;
    for (r, got) in report.results.iter().enumerate() {
        prefix += r as i64;
        assert_eq!(*got, prefix);
    }
}

#[test]
fn barrier_synchronises_clocks() {
    let cluster = Arc::new(
        ClusterBuilder::new()
            .node("fast", 100.0)
            .node("slow", 10.0)
            .all_to_all(Link::new(1e-4, 1e7, Protocol::Tcp))
            .build(),
    );
    let u = Universe::new(cluster);
    let report = u.run(|p| {
        p.compute(100.0); // fast: 1 s, slow: 10 s
        let world = p.world();
        world.barrier().unwrap();
        world.clock().now().as_secs()
    });
    // After the barrier, nobody can be earlier than the slow rank's entry.
    assert!(report.results[0] >= 10.0);
    assert!(report.results[1] >= 10.0);
    // And the barrier itself costs only microseconds.
    assert!(report.results[0] < 10.01);
}

#[test]
fn collectives_compose_back_to_back() {
    // Two identical collectives in a row must pair up correctly.
    let u = Universe::new(cluster(4));
    let report = u.run(|p| {
        let world = p.world();
        let a = world.allreduce_one_i64(1, ReduceOp::Sum).unwrap();
        let b = world.allreduce_one_i64(10, ReduceOp::Sum).unwrap();
        let mut v = vec![world.rank() as i64];
        world.bcast(&mut v, 0).unwrap();
        (a, b, v[0])
    });
    for r in report.results {
        assert_eq!(r, (4, 40, 0));
    }
}

#[test]
fn single_rank_collectives_are_identity() {
    let u = Universe::new(cluster(1));
    let report = u.run(|p| {
        let world = p.world();
        world.barrier().unwrap();
        let mut v = vec![1.5f64];
        world.bcast(&mut v, 0).unwrap();
        let g = world.gather(&v, 0).unwrap().unwrap();
        let ar = world.allreduce_one_f64(2.0, ReduceOp::Sum).unwrap();
        (v[0], g.len(), ar)
    });
    assert_eq!(report.results[0], (1.5, 1, 2.0));
}

#[test]
fn exscan_exclusive_prefix() {
    let n = 5;
    let u = Universe::new(cluster(n));
    let report = u.run(|p| {
        let world = p.world();
        let me = world.rank() as i64;
        world.exscan_i64(&[me + 1], ReduceOp::Sum).unwrap()[0]
    });
    // Rank i gets sum of (1..=i) (exclusive of its own i+1).
    let mut acc = 0;
    for (r, got) in report.results.iter().enumerate() {
        assert_eq!(*got, acc, "rank {r}");
        acc += r as i64 + 1;
    }
}

#[test]
fn exscan_rank_zero_gets_identity() {
    let u = Universe::new(cluster(3));
    let report = u.run(|p| {
        let world = p.world();
        let prod = world.exscan_f64(&[2.0], ReduceOp::Prod).unwrap()[0];
        let min = world
            .exscan_f64(&[world.rank() as f64], ReduceOp::Min)
            .unwrap()[0];
        (prod, min)
    });
    assert_eq!(report.results[0].0, 1.0); // Prod identity
    assert_eq!(report.results[0].1, f64::INFINITY); // Min identity
    assert_eq!(report.results[2].0, 4.0); // 2*2 from ranks 0,1
}

#[test]
fn reduce_scatter_block_distributes_reduction() {
    let n = 4;
    let block = 2;
    let u = Universe::new(cluster(n));
    let report = u.run(move |p| {
        let world = p.world();
        // Every rank contributes [rank; 8]; the sum is [0+1+2+3; 8] = [6; 8];
        // rank i receives elements [2i, 2i+1].
        let contrib = vec![world.rank() as i64; n * block];
        world
            .reduce_scatter_block_i64(&contrib, block, ReduceOp::Sum)
            .unwrap()
    });
    for r in report.results {
        assert_eq!(r, vec![6, 6]);
    }
}

#[test]
fn reduce_scatter_block_rejects_wrong_length() {
    let u = Universe::new(cluster(2));
    u.run(|p| {
        let world = p.world();
        let err = world
            .reduce_scatter_block_f64(&[1.0; 3], 2, ReduceOp::Sum)
            .unwrap_err();
        assert!(matches!(err, mpisim::MpiError::InvalidCounts(_)));
    });
}

// ----- prefix and reduce-scatter reductions against serial references ----

fn op_strategy() -> BoxedStrategy<ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Sum),
        Just(ReduceOp::Prod),
        Just(ReduceOp::Max),
        Just(ReduceOp::Min),
    ]
}

// Mixed magnitudes so that f64 rounding exposes any re-association:
// (a + b) + c and a + (b + c) differ in the low bits for these ranges.
fn value_strategy() -> BoxedStrategy<f64> {
    prop_oneof![-1e3..1e3f64, 1e9..1e12f64, -1e-6..1e-6f64]
}

/// The serial reference for `scan`: the left fold in strict rank order
/// that the linear chain performs. Returned per rank; bit-exact.
fn serial_inclusive_prefixes(contribs: &[Vec<f64>], op: ReduceOp) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(contribs.len());
    for (i, c) in contribs.iter().enumerate() {
        let acc = if i == 0 {
            c.clone()
        } else {
            let mut merged = out[i - 1].clone();
            op.fold_f64(&mut merged, c);
            merged
        };
        out.push(acc);
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn chunked(flat: &[f64], len: usize) -> Vec<Vec<f64>> {
    if len == 0 {
        // Zero-length contributions: one empty vector per rank.
        return vec![Vec::new(); flat.len().max(1)];
    }
    flat.chunks(len).map(<[f64]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // `scan` must reproduce the serial left fold *bit for bit*: the
    // chain is ordered, and floating-point addition is not associative,
    // so any re-association inside the implementation shows up here.
    #[test]
    fn scan_matches_serial_left_fold_bitwise(
        n in 1usize..7,
        len in 1usize..4,
        op in op_strategy(),
        flat in proptest::collection::vec(value_strategy(), 18),
    ) {
        let contribs: Vec<Vec<f64>> = chunked(&flat[..n * len], len);
        let expect = serial_inclusive_prefixes(&contribs, op);
        let u = Universe::new(cluster(n));
        let per_rank = contribs.clone();
        let report = u.run(move |p| {
            let world = p.world();
            world.scan_f64(&per_rank[world.rank()], op).unwrap()
        });
        for (rank, got) in report.results.iter().enumerate() {
            prop_assert_eq!(bits(got), bits(&expect[rank]), "rank {}", rank);
        }
    }

    // `exscan` is the scan shifted by one rank: rank 0 receives the
    // operation's identity, rank i > 0 receives the inclusive prefix of
    // ranks 0..i — again bit-exact against the serial left fold.
    #[test]
    fn exscan_is_scan_shifted_by_one_rank(
        n in 1usize..7,
        len in 1usize..4,
        op in op_strategy(),
        flat in proptest::collection::vec(value_strategy(), 18),
    ) {
        let contribs: Vec<Vec<f64>> = chunked(&flat[..n * len], len);
        let expect = serial_inclusive_prefixes(&contribs, op);
        let u = Universe::new(cluster(n));
        let per_rank = contribs.clone();
        let report = u.run(move |p| {
            let world = p.world();
            world.exscan_f64(&per_rank[world.rank()], op).unwrap()
        });
        for (rank, got) in report.results.iter().enumerate() {
            if rank == 0 {
                prop_assert_eq!(got.len(), len);
                for x in got {
                    prop_assert_eq!(x.to_bits(), op.identity_f64().to_bits());
                }
            } else {
                prop_assert_eq!(bits(got), bits(&expect[rank - 1]), "rank {}", rank);
            }
        }
    }

    // `reduce_scatter_block` over i64, where every op is exact: the
    // concatenation of the per-rank blocks must equal the elementwise
    // reduction of all contributions, regardless of the tree order the
    // binomial reduce uses. Values stay small so Prod cannot overflow.
    #[test]
    fn reduce_scatter_block_matches_serial_reduction(
        n in 1usize..7,
        block in 1usize..4,
        op in op_strategy(),
        flat in proptest::collection::vec(-4i64..5, 108),
    ) {
        let contribs: Vec<Vec<i64>> = flat[..n * n * block]
            .chunks(n * block)
            .map(<[i64]>::to_vec)
            .collect();
        let mut expect = contribs[0].clone();
        for c in &contribs[1..] {
            op.fold_i64(&mut expect, c);
        }
        let u = Universe::new(cluster(n));
        let per_rank = contribs.clone();
        let report = u.run(move |p| {
            let world = p.world();
            world
                .reduce_scatter_block_i64(&per_rank[world.rank()], block, op)
                .unwrap()
        });
        let mut rejoined = Vec::new();
        for got in &report.results {
            prop_assert_eq!(got.len(), block);
            rejoined.extend_from_slice(got);
        }
        prop_assert_eq!(rejoined, expect);
    }

    // A single-rank communicator must make every prefix/reduce-scatter
    // collective the identity operation on the local contribution.
    #[test]
    fn single_rank_collectives_are_local_identities(
        len in 0usize..5,
        op in op_strategy(),
        flat in proptest::collection::vec(value_strategy(), 4),
    ) {
        let contrib = flat[..len].to_vec();
        let u = Universe::new(cluster(1));
        let c = contrib.clone();
        let report = u.run(move |p| {
            let world = p.world();
            let scan = world.scan_f64(&c, op).unwrap();
            let exscan = world.exscan_f64(&c, op).unwrap();
            let rsb = world.reduce_scatter_block_f64(&c, c.len(), op);
            (scan, exscan, rsb)
        });
        let (scan, exscan, rsb) = &report.results[0];
        prop_assert_eq!(bits(scan), bits(&contrib));
        for x in exscan {
            prop_assert_eq!(x.to_bits(), op.identity_f64().to_bits());
        }
        if len > 0 {
            prop_assert_eq!(bits(rsb.as_ref().unwrap()), bits(&contrib));
        } else {
            // A zero block size is a caller error, not a panic.
            prop_assert!(matches!(rsb, Err(mpisim::MpiError::InvalidCounts(_))));
        }
    }
}
