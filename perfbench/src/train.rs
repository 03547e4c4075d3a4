//! `train`: the offline reproduction at the paper-default condition —
//! dataset generation (rfsim, motion, the batch frame builder) as
//! set-up, then CNN+LSTM training and per-sample classification in
//! training shapes. Runs the same public steps `train_m2ai` composes,
//! so spans can wrap `fit` and `evaluate` separately.

use crate::inputs;
use crate::live;
use crate::prom::Snapshot;
use crate::report::{self, Report};
use crate::stats::{self, Tail};
use crate::tracer::Tracer;
use crate::Args;
use m2ai_core::dataset::{generate_dataset, ExperimentConfig, N_CLASSES};
use m2ai_core::network::build_model;
use m2ai_core::pipeline::TrainOptions;
use m2ai_motion::activity::catalog;
use m2ai_motion::scene::ActivityScene;
use m2ai_motion::volunteer::Volunteer;
use m2ai_nn::train::{evaluate, fit, train_test_split, TrainConfig};
use m2ai_rfsim::geometry::{Point2, Vec2};
use m2ai_rfsim::reader::{Reader, ReaderConfig};
use std::time::Instant;

/// Training epochs per fit.
pub const EPOCHS: usize = 20;
/// Share of `--seconds` spent fitting; classification gets the rest.
const FIT_SHARE: f64 = 0.7;
/// Times each sample is classified; its latency is the median.
const EVAL_REPEATS: usize = 5;

/// Worker threads: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the `train` workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut r = Report::default();
    let trace_run = tracer.is_on();
    let mut config = ExperimentConfig::paper_default();
    config.seed = args.seed;
    config.n_threads = nproc();

    let before_gen = Snapshot::take();
    let (bundle, setup_s) =
        live::timed_setup(|| tracer.call("generate_dataset", || generate_dataset(&config)));
    let gen_delta = Snapshot::take().delta(&before_gen);
    r.set("setup_s", setup_s);

    let opts = TrainOptions {
        epochs: EPOCHS,
        n_threads: nproc(),
        seed: args.seed,
        ..TrainOptions::paper_default()
    };
    let cfg = TrainConfig {
        epochs: opts.epochs,
        lr: opts.lr,
        momentum: opts.momentum,
        clip_norm: opts.clip_norm,
        batch_size: opts.batch_size,
        n_threads: opts.n_threads,
        lr_decay: opts.lr_decay,
        weight_decay: opts.weight_decay,
        seed: opts.seed,
        log_every: 0,
    };
    let (train, test) = train_test_split(bundle.samples.clone(), opts.test_fraction, opts.seed);

    // Fits from the same initial weights until the fit budget is spent
    // (at least two). In the traced run every second fit is traced.
    let span_mark = tracer.spans().len();
    let mut traced_delta = Snapshot::default();
    let (mut fit_s, mut traced_fit, mut untraced_fit) = (Vec::new(), Vec::new(), Vec::new());
    let mut fit_cpu_s = Vec::new();
    let phase = Instant::now();
    let mut model = None;
    let mut losses = Vec::new();
    let mut skipped = 0;
    while fit_s.len() < 2 || phase.elapsed().as_secs_f64() < args.seconds * FIT_SHARE {
        let trace_fit = trace_run && fit_s.len() % 2 == 1;
        tracer.set_on(trace_fit);
        let before = trace_fit.then(Snapshot::take);
        let root = tracer.begin(report::PASS);
        let sw = crate::sys::Stopwatch::start();
        let mut m = build_model(&bundle.layout, N_CLASSES, opts.architecture, opts.seed);
        let rep = tracer.call("fit", || fit(&mut m, &train, &cfg));
        let (wall, cpu) = (sw.wall_s(), sw.cpu_s());
        tracer.end(root);
        if let Some(before) = before {
            traced_delta.accumulate(&Snapshot::take().delta(&before));
            traced_fit.push(wall);
        } else {
            untraced_fit.push(wall);
        }
        fit_s.push(wall);
        fit_cpu_s.push(cpu);
        losses = rep.epoch_losses;
        skipped = rep.skipped_batches;
        model = Some(m);
    }
    let model = model.expect("at least one fit");

    // Per-sample classification of every sample, repeated.
    tracer.set_on(trace_run);
    let before = trace_run.then(Snapshot::take);
    let root = tracer.begin(report::PASS);
    let eval_sw = crate::sys::Stopwatch::start();
    let samples: Vec<_> = test.iter().chain(&train).collect();
    let mut per_sample_ms = vec![Vec::with_capacity(EVAL_REPEATS); samples.len()];
    let mut test_correct = 0.0;
    for rep in 0..EVAL_REPEATS {
        for (i, sample) in samples.iter().enumerate() {
            // Thread CPU time: time off the CPU is not the program's.
            let t0 = crate::sys::thread_cpu_s();
            let acc = tracer.call("evaluate", || {
                evaluate(&model, std::slice::from_ref(*sample))
            });
            per_sample_ms[i].push((crate::sys::thread_cpu_s() - t0) * 1e3);
            if rep == 0 && i < test.len() {
                test_correct += acc;
            }
        }
    }
    let eval_cpu = eval_sw.cpu_s();
    let latency_ms: Vec<f64> = per_sample_ms.iter().map(|v| stats::median(v)).collect();
    tracer.end(root);
    if let Some(before) = before {
        traced_delta.accumulate(&Snapshot::take().delta(&before));
    }
    let test_accuracy = test_correct / test.len() as f64;

    let batches_per_epoch = train.len().div_ceil(cfg.batch_size) as u64;
    r.attempted = batches_per_epoch * EPOCHS as u64 * fit_s.len() as u64;
    r.failed = skipped as u64 * fit_s.len() as u64;
    let (first, last) = (
        losses.first().copied().unwrap_or(f32::NAN),
        losses.last().copied().unwrap_or(f32::NAN),
    );
    r.check(
        "loss_decreases",
        last < first,
        format!("(epoch 1 loss {first:.4}, epoch {EPOCHS} loss {last:.4})"),
    );
    r.check(
        "test_accuracy",
        test_accuracy >= 2.0 / 12.0,
        format!(
            "({test_accuracy:.3} on {} held-out samples, floor 2/12)",
            test.len()
        ),
    );
    r.note(format!(
        "train: {} samples ({} train / {} test), {EPOCHS} epochs × {} fits, {} threads",
        bundle.samples.len(),
        train.len(),
        test.len(),
        fit_s.len(),
        nproc()
    ));

    if trace_run {
        let spans = tracer.by_name(0);
        let reads_per_round = probe_build_sample(&config, tracer);
        r.set("rfsim.reads_per_round", reads_per_round);
        let probe = tracer.by_name(0);
        if let Some(s) = probe.get("FrameBuilder::build_sample") {
            r.set("frames.build_sample_ms", s.total_s / s.count as f64 * 1e3);
        }
        live::set_rfsim_layer(&mut r, tracer);
        r.set("dataset.generate_s", setup_s);
        r.set_exported(
            "par.tasks",
            gen_delta
                .counter("m2ai_par_tasks_total", None)
                .map(|t| t / live::SETUP_REPEATS as f64),
        );
        let gen_wall = spans.get("generate_dataset").map_or(0.0, |s| s.total_s);
        // Extraction runs inside dataset generation: report its stage
        // shares against generation wall time.
        report::set_common_layers(&mut r, &gen_delta, gen_wall, &probe);
        // Training and classification are where the kernels work.
        report::set_kernel_layers(&mut r, &traced_delta);
        let traced = stats::median(&traced_fit);
        r.set("nn.fit_s", traced);
        r.set("nn.epoch_ms", traced / EPOCHS as f64 * 1e3);
        r.set(
            "nn.evaluate_s",
            spans.get("evaluate").map_or(0.0, |s| s.total_s),
        );
        r.set("nn.skipped_batches", skipped as f64);
        let coverage = tracer.coverage(report::PASS, span_mark).unwrap_or(0.0);
        r.set("trace.coverage", coverage);
        r.set(
            "trace.overhead_pct",
            (traced / stats::median(&untraced_fit) - 1.0) * 100.0,
        );
        r.check(
            "trace_coverage",
            coverage >= 0.9,
            format!("({coverage:.3} of timed wall time in layer spans)"),
        );
    } else {
        let rates: Vec<f64> = fit_cpu_s
            .iter()
            .map(|c| (train.len() * EPOCHS) as f64 / c)
            .collect();
        r.set("throughput_per_cpu_s", stats::sustained_rate(&rates));
        r.note(format!(
            "throughput_per_cpu_s: training samples × epochs per CPU-second (all {} threads), \
             sustained over {} fits",
            nproc(),
            fit_s.len()
        ));
        r.set(
            "preds_per_cpu_s",
            (samples.len() * EVAL_REPEATS) as f64 / eval_cpu,
        );
        r.note(format!(
            "latency: classifying one recording, median of {EVAL_REPEATS} repeats per recording"
        ));
        r.set_tail("latency_p50_ms", "latency_p99_ms", Tail::of(&latency_ms));
        r.set("peak_rss_mb", crate::sys::peak_rss_mb());
    }
    r
}

/// Traced runs only: builds one sample per activity class with
/// `FrameBuilder::build_sample` on freshly simulated recordings (the
/// step `generate_dataset` runs internally), for
/// `frames.build_sample_ms` and `rfsim.round_us`.
fn probe_build_sample(config: &ExperimentConfig, tracer: &mut Tracer) -> f64 {
    let cond = inputs::condition(config.seed);
    let room = config.room.build();
    let reader_cfg = ReaderConfig {
        n_antennas: config.n_antennas,
        array_center: Point2::new(room.width / 2.0, 0.3),
        array_axis: Vec2::new(1.0, 0.0),
        seed: config.seed,
        ..ReaderConfig::default()
    };
    let spot = room.clamp_inside(Point2::new(room.width / 2.0, 0.3 + config.distance_m), 0.8);
    let volunteers: Vec<Volunteer> = (0..3).map(Volunteer::preset).collect();
    let duration = config.frames_per_sample as f64 * config.frame_duration_s + 0.2;
    let (mut n_reads, mut n_rounds) = (0, 0);
    for (c, scenario) in catalog(config.n_persons).iter().enumerate() {
        let scene = ActivityScene::with_placement(
            scenario,
            &volunteers,
            config.tags_per_person,
            c as u64,
            spot,
        );
        let mut reader = Reader::new(room.clone(), reader_cfg.clone(), config.n_tags());
        let round = reader_cfg.round_duration_s();
        let mut reads = Vec::new();
        let mut t = 0.0;
        while t < duration {
            let snap = scene.snapshot(t);
            reads.extend(tracer.call("Reader::inventory_round", || {
                reader.inventory_round(&snap, t)
            }));
            t += round;
            n_rounds += 1;
        }
        n_reads += reads.len();
        let frames = tracer.call("FrameBuilder::build_sample", || {
            cond.builder
                .build_sample(&reads, 0.0, config.frames_per_sample)
        });
        assert_eq!(
            frames.len(),
            config.frames_per_sample,
            "one frame per window"
        );
    }
    n_reads as f64 / n_rounds as f64
}
