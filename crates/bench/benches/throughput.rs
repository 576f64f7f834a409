//! Criterion: full-architecture throughput (experiment E14).
//!
//! The paper's claim is *hardware* throughput parity — both architectures
//! consume one pixel per clock (verified by cycle counts in the test
//! suite). This bench reports the *simulation* cost side by side: the
//! compressed model does the real compression work per pixel, so its
//! software slowdown factor is also a proxy for the paper's LUT overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sw_core::compressed::CompressedSlidingWindow;
use sw_core::config::ArchConfig;
use sw_core::kernels::{BoxFilter, Tap};
use sw_core::shard::ShardedFrameRunner;
use sw_core::traditional::TraditionalSlidingWindow;
use sw_image::ScenePreset;
use sw_pool::ThreadPool;
use sw_telemetry::TelemetryHandle;

fn bench_architectures(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_throughput");
    group.sample_size(20);
    let img = ScenePreset::ALL[0].render(256, 256);
    for n in [8usize, 32] {
        let cfg = ArchConfig::builder(n, img.width()).build().unwrap();
        group.throughput(Throughput::Elements((img.width() * img.height()) as u64));
        group.bench_with_input(BenchmarkId::new("traditional", n), &img, |b, img| {
            let kernel = Tap::top_left(n);
            let mut arch = TraditionalSlidingWindow::new(cfg);
            b.iter(|| arch.process_frame(img, &kernel).unwrap().stats.cycles)
        });
        group.bench_with_input(
            BenchmarkId::new("compressed_lossless", n),
            &img,
            |b, img| {
                let kernel = Tap::top_left(n);
                let mut arch = CompressedSlidingWindow::new(cfg);
                b.iter(|| arch.process_frame(img, &kernel).unwrap().stats.cycles)
            },
        );
        group.bench_with_input(BenchmarkId::new("compressed_t4", n), &img, |b, img| {
            let kernel = Tap::top_left(n);
            let mut arch = CompressedSlidingWindow::new(cfg.with_threshold(4));
            b.iter(|| arch.process_frame(img, &kernel).unwrap().stats.cycles)
        });
    }
    group.finish();
}

fn bench_kernel_cost(c: &mut Criterion) {
    // Kernel cost is identical across architectures; measure it separately
    // so the architecture numbers above can be read as pure buffering cost.
    let mut group = c.benchmark_group("kernel_cost");
    group.sample_size(20);
    let img = ScenePreset::ALL[0].render(256, 256);
    let cfg = ArchConfig::builder(8, img.width()).build().unwrap();
    group.throughput(Throughput::Elements((img.width() * img.height()) as u64));
    group.bench_function("box_8_traditional", |b| {
        let kernel = BoxFilter::new(8);
        let mut arch = TraditionalSlidingWindow::new(cfg);
        b.iter(|| arch.process_frame(&img, &kernel).unwrap().stats.cycles)
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // Acceptance check for the observability layer: with telemetry disabled
    // (the default — every instrument is a no-op) the datapath must run
    // within ~2 % of a build that never heard of telemetry; the three cases
    // below make the cost visible. "unbound" is the plain constructor,
    // "disabled" binds instruments from a disabled handle, "enabled" pays
    // the price the daemon always pays: local tallies per column group,
    // published once per row (one atomic per series, one trace-ring lock,
    // one clock pair), plus one timed encode and decode group in 64.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    let img = ScenePreset::ALL[0].render(256, 256);
    let cfg = ArchConfig::builder(8, img.width())
        .threshold(4)
        .build()
        .unwrap();
    group.throughput(Throughput::Elements((img.width() * img.height()) as u64));
    group.bench_function("unbound", |b| {
        let kernel = Tap::top_left(8);
        let mut arch = CompressedSlidingWindow::new(cfg);
        b.iter(|| arch.process_frame(&img, &kernel).unwrap().stats.cycles)
    });
    group.bench_function("disabled_handle", |b| {
        let kernel = Tap::top_left(8);
        let mut arch =
            CompressedSlidingWindow::new(cfg).with_telemetry(&TelemetryHandle::disabled());
        b.iter(|| arch.process_frame(&img, &kernel).unwrap().stats.cycles)
    });
    group.bench_function("enabled_handle", |b| {
        let kernel = Tap::top_left(8);
        let tele = TelemetryHandle::new();
        let mut arch = CompressedSlidingWindow::new(cfg).with_telemetry(&tele);
        b.iter(|| arch.process_frame(&img, &kernel).unwrap().stats.cycles)
    });
    group.finish();
}

fn bench_sharded_vs_sequential(c: &mut Criterion) {
    // Scaling of the halo-sharded frame runner vs the plain sequential
    // architecture. The strip count is fixed (so output is identical in
    // every row of this table); only the pool size varies. jobs=1 exposes
    // the pure sharding overhead (halo rows are recomputed per strip),
    // jobs>1 the parallel speedup available on multi-core hosts.
    let mut group = c.benchmark_group("sharded_vs_sequential");
    group.sample_size(10);
    for size in [512usize, 2048] {
        let img = ScenePreset::ALL[0].render(size, size);
        let cfg = ArchConfig::builder(8, img.width())
            .threshold(4)
            .build()
            .unwrap();
        let kernel = Tap::top_left(8);
        group.throughput(Throughput::Elements((size * size) as u64));
        group.bench_with_input(BenchmarkId::new("sequential", size), &img, |b, img| {
            let mut arch = CompressedSlidingWindow::new(cfg);
            b.iter(|| arch.process_frame(img, &kernel).unwrap().stats.cycles)
        });
        for jobs in [1usize, 2, 4] {
            let pool = ThreadPool::new(jobs);
            let runner = ShardedFrameRunner::new(cfg);
            group.bench_with_input(
                BenchmarkId::new(format!("sharded_jobs{jobs}"), size),
                &img,
                |b, img| b.iter(|| runner.run(img, &kernel, &pool).unwrap().cycles),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_architectures,
    bench_kernel_cost,
    bench_telemetry_overhead,
    bench_sharded_vs_sequential
);
criterion_main!(benches);
