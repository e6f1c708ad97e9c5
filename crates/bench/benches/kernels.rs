//! Micro-benchmarks of the computational kernels every experiment rests
//! on: expression evaluation, least-squares weight learning, nondominated
//! sorting, device evaluation, and a full OTA simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use caffeine_circuit::mos::MosProcess;
use caffeine_circuit::ota::{OtaDesign, OtaTestbench};
use caffeine_core::expr::{eval_basis_all, EvalContext};
use caffeine_core::grammar::RandomExprGen;
use caffeine_core::{nsga2, GrammarConfig};
use caffeine_linalg::{lstsq, Matrix};

fn bench_expr_eval(c: &mut Criterion) {
    let grammar = GrammarConfig::paper_full(13);
    let gen = RandomExprGen::new(&grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let bases: Vec<_> = (0..15).map(|_| gen.gen_basis(&mut rng)).collect();
    let points: Vec<Vec<f64>> = (0..243)
        .map(|i| {
            (0..13)
                .map(|j| 1.0 + ((i * 13 + j) % 17) as f64 * 0.05)
                .collect()
        })
        .collect();
    let ctx = EvalContext::default();
    c.bench_function("expr_eval_15bases_243pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for basis in &bases {
                let col = eval_basis_all(basis, &points, &ctx);
                acc += col.iter().filter(|v| v.is_finite()).sum::<f64>();
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_lstsq(c: &mut Criterion) {
    let a = Matrix::from_fn(243, 16, |i, j| {
        1.0 + ((i * 31 + j * 7) % 23) as f64 * 0.1 + if j == 0 { 1.0 } else { 0.0 }
    });
    let y: Vec<f64> = (0..243).map(|i| (i % 13) as f64).collect();
    c.bench_function("lstsq_243x16", |b| {
        b.iter(|| std::hint::black_box(lstsq(&a, &y).unwrap()))
    });
}

fn bench_nondominated_sort(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    use rand::Rng;
    let objs: Vec<[f64; 2]> = (0..400)
        .map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..200.0)])
        .collect();
    c.bench_function("nsga2_sort_400", |b| {
        b.iter(|| std::hint::black_box(nsga2::fast_nondominated_sort(&objs)))
    });
}

fn bench_mos_evaluate(c: &mut Criterion) {
    let inst = MosProcess::nmos_07um()
        .size_for(10e-6, 0.3, 1.0, 1e-6)
        .unwrap();
    c.bench_function("mos_evaluate", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..100 {
                let vgs = 0.8 + i as f64 * 0.005;
                acc += inst.evaluate(vgs, 1.5).id;
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_ota_simulate(c: &mut Criterion) {
    let tb = OtaTestbench::default_07um();
    c.bench_function("ota_simulate_full", |b| {
        b.iter_batched(
            OtaDesign::nominal,
            |d| std::hint::black_box(tb.simulate(&d).unwrap()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_expr_eval, bench_lstsq, bench_nondominated_sort,
              bench_mos_evaluate, bench_ota_simulate
}
criterion_main!(benches);
