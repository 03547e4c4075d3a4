//! Criterion wrapper around the throughput workload: the same three
//! rates `experiments -- throughput` measures, under criterion's
//! statistics, plus the fast-vs-reference training pair that exposes
//! the GEMM-lowering speedup directly.
//!
//! The regression *gate* lives in `m2ai_bench::throughput::check` (run
//! via `experiments -- throughput --check`); this target exists for
//! interactive profiling of the same code paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use m2ai_bench::throughput;
use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai_core::network::{build_model, Architecture};
use m2ai_kernels::{Backend, KernelScratch};
use m2ai_nn::Parameterized;
use m2ai_rfsim::geometry::Point2;
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use m2ai_rfsim::room::Room;
use m2ai_rfsim::scene::SceneSnapshot;
use std::hint::black_box;

fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput");
    g.sample_size(10);

    let mut reader = Reader::new(
        Room::laboratory(),
        ReaderConfig {
            n_antennas: 4,
            seed: 11,
            ..ReaderConfig::default()
        },
        6,
    );
    let scene = SceneSnapshot::with_tags(vec![
        Point2::new(5.5, 4.0),
        Point2::new(5.7, 4.2),
        Point2::new(5.9, 4.1),
        Point2::new(8.0, 4.3),
        Point2::new(8.2, 4.5),
        Point2::new(8.4, 4.2),
    ]);
    let readings = reader.run(|_| scene.clone(), 5.0);
    let layout = FrameLayout::new(6, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(6, 4), 0.4);
    let frames = builder.build_sample(&readings, 0.0, 12);
    let model = build_model(&layout, 12, Architecture::CnnLstm, 1);

    g.bench_function("extract_sample_12frames", |b| {
        b.iter(|| builder.build_sample(black_box(&readings), 0.0, 12))
    });
    g.bench_function("predict_sample", |b| {
        b.iter(|| model.predict(black_box(&frames)))
    });
    for (label, backend) in [
        ("train_step_fast", Backend::Fast),
        ("train_step_reference", Backend::Reference),
    ] {
        g.bench_function(label, |b| {
            let mut scratch = KernelScratch::with_backend(backend);
            b.iter_batched(
                || model.clone(),
                |mut m| {
                    m.zero_grad();
                    black_box(m.loss_and_backprop_with(&frames, 3, &mut scratch))
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // One full gate-style measurement so `cargo bench --bench
    // throughput` also prints the summary rates next to the stats.
    throughput::run();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
