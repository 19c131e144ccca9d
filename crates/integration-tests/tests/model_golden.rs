//! Golden bit-identity of the paper models' generated functions.
//!
//! Each digest is FNV-1a over the bits of everything a model instance
//! produces: the `RecordingSink` event stream of its scheme, its
//! `volumes()`, `comm_bytes()` and parent, the recorded cost program's op
//! count, and the predicted time under a fixed heterogeneous cost model
//! both through `predict_time` and through `CostProgram::price`. The
//! expected values were computed with the original AST interpreter; any
//! change to evaluation order, int/num context or floating-point operation
//! order shows up here.

use hmpi_apps::em3d::{em3d_model, Em3dConfig, Em3dSystem};
use hmpi_apps::matmul::model::matmul_compiled;
use hmpi_apps::matmul::{matmul_model, matmul_params, GeneralizedBlockDist};
use hmpi_apps::nbody::{nbody_model, NbodyConfig};
use perfmodel::eval::{get_processor, Externs};
use perfmodel::{
    CostModel, CostProgram, PerformanceModel, PriceScratch, RecordingSink, SchemeEvent,
};
use std::sync::Arc;

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

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Deterministic heterogeneous costs over `n` processors.
fn cost(n: usize) -> CostModel {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    CostModel {
        speeds: (0..n).map(|_| 1.0 + 200.0 * next()).collect(),
        latency: (0..n)
            .map(|_| (0..n).map(|_| 1e-4 * next()).collect())
            .collect(),
        bandwidth: (0..n)
            .map(|_| (0..n).map(|_| 1e5 + 1e7 * next()).collect())
            .collect(),
    }
}

fn digest_model(h: &mut Fnv, model: &dyn PerformanceModel) {
    let n = model.num_processors();
    h.word(n as u64);
    h.word(model.parent() as u64);
    for &v in model.volumes() {
        h.f(v);
    }
    for row in model.comm_bytes() {
        for &b in row {
            h.f(b);
        }
    }
    let mut sink = RecordingSink::default();
    model.run_scheme(&mut sink).expect("paper models evaluate");
    h.word(sink.events.len() as u64);
    for e in &sink.events {
        match *e {
            SchemeEvent::Compute { proc, percent } => {
                h.word(1);
                h.word(proc as u64);
                h.f(percent);
            }
            SchemeEvent::Transfer { src, dst, percent } => {
                h.word(2);
                h.word(src as u64);
                h.word(dst as u64);
                h.f(percent);
            }
            SchemeEvent::ParBegin => h.word(3),
            SchemeEvent::ParBranch => h.word(4),
            SchemeEvent::ParEnd => h.word(5),
        }
    }
    let cost = cost(n);
    h.f(model.predict_time(&cost).expect("paper models evaluate"));
    let prog = CostProgram::record(model).expect("paper models record");
    h.word(prog.num_ops() as u64);
    h.f(prog.price(&cost, &mut PriceScratch::new(n)));
}

fn paper_speeds() -> Vec<f64> {
    vec![46.0, 46.0, 46.0, 46.0, 46.0, 46.0, 176.0, 106.0, 9.0]
}

#[test]
fn figure4_em3d_model_is_bit_identical() {
    let mut h = Fnv::new();
    for (p, base, spread, seed, k) in [
        (4, 40, 3.0, 17, 10),
        (6, 60, 3.0, 11, 10),
        (9, 50, 1.6, 1, 10),
        (9, 800, 1.6, 7, 25),
    ] {
        let system = Em3dSystem::generate(&Em3dConfig::ramp(p, base, spread, seed));
        digest_model(&mut h, &em3d_model(&system, k).unwrap());
    }
    assert_eq!(h.0, 0xb312_3a68_877a_8bfa, "Figure 4 digest {:#018x}", h.0);
}

#[test]
fn figure7_matmul_model_is_bit_identical_over_n_and_l() {
    let speeds = paper_speeds();
    let mut h = Fnv::new();
    for n in [9usize, 13, 18, 24] {
        for l in [3usize, 4, 5, 7, 9, 12, 18, 24] {
            if l > n {
                continue;
            }
            let dist = GeneralizedBlockDist::heterogeneous(3, l, &speeds);
            digest_model(&mut h, &matmul_model(&dist, 9, n).unwrap());
        }
    }
    let dist = GeneralizedBlockDist::heterogeneous(2, 4, &[46.0, 176.0, 106.0, 9.0]);
    digest_model(&mut h, &matmul_model(&dist, 4, 8).unwrap());
    assert_eq!(h.0, 0xdf3a_1d3f_ccea_c526, "Figure 7 digest {:#018x}", h.0);
}

#[test]
fn nbody_model_is_bit_identical() {
    let mut h = Fnv::new();
    for (p, base, spread, seed, k) in [(4, 10, 3.0, 1, 10), (9, 20, 2.0, 5, 7), (3, 1, 1.0, 2, 3)] {
        digest_model(
            &mut h,
            &nbody_model(&NbodyConfig::ramp(p, base, spread, seed), k).unwrap(),
        );
    }
    assert_eq!(h.0, 0x4313_c96e_016c_eb45, "N-body digest {:#018x}", h.0);
}

#[test]
fn registered_get_processor_matches_the_native_builtin() {
    // The builtin runs natively on the Figure 7 operand shape; the same
    // function registered by hand goes through the generic extern path.
    let mut externs = Externs::new();
    externs.register("GetProcessor", Arc::new(get_processor));
    let generic = matmul_compiled().unwrap().with_externs(externs);
    let speeds = paper_speeds();
    for (n, l) in [(9usize, 3usize), (13, 5), (24, 24)] {
        let dist = GeneralizedBlockDist::heterogeneous(3, l, &speeds);
        let (mut native, mut registered) = (Fnv::new(), Fnv::new());
        digest_model(&mut native, &matmul_model(&dist, 9, n).unwrap());
        digest_model(
            &mut registered,
            &generic.instantiate(&matmul_params(&dist, 9, n)).unwrap(),
        );
        assert_eq!(native.0, registered.0, "n = {n}, l = {l}");
    }
}
