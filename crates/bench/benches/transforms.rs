//! Per-chunk transform throughput — the paper's motivation for doing
//! this work at the edge is exactly that these are too expensive for
//! phones; the edge must sustain ~100 concurrent streams.

use criterion::{criterion_group, criterion_main, Criterion};
use lpvs_bench::genre_corpus;
use lpvs_display::quality::QualityBudget;
use lpvs_display::spec::{DisplaySpec, Resolution};
use lpvs_display::transform::{BacklightScaling, ColorTransform, SubpixelShutoff, Transform};
use lpvs_media::chunk::{Chunk, ChunkId};
use lpvs_media::encoder::TransformEncoder;
use std::hint::black_box;

fn bench_transforms(c: &mut Criterion) {
    let corpus = genre_corpus();
    let budget = QualityBudget::default();
    let lcd = DisplaySpec::lcd_phone(Resolution::FHD);
    let oled = DisplaySpec::oled_phone(Resolution::FHD);

    let mut group = c.benchmark_group("transform_corpus");
    group.bench_function("backlight_scaling", |b| {
        let t = BacklightScaling::new(budget);
        b.iter(|| {
            for frame in &corpus {
                black_box(t.apply(black_box(frame), &lcd));
            }
        });
    });
    group.bench_function("color_transform", |b| {
        let t = ColorTransform::new(budget);
        b.iter(|| {
            for frame in &corpus {
                black_box(t.apply(black_box(frame), &oled));
            }
        });
    });
    group.bench_function("subpixel_shutoff", |b| {
        let t = SubpixelShutoff::new(budget);
        b.iter(|| {
            for frame in &corpus {
                black_box(t.apply(black_box(frame), &oled));
            }
        });
    });
    group.finish();
}

/// The whole per-chunk path the emulator's playback pays — transform,
/// power model, reduction ratio — on each panel kind.
fn bench_encode_chunk(c: &mut Criterion) {
    let chunks: Vec<Chunk> = genre_corpus()
        .into_iter()
        .enumerate()
        .map(|(i, stats)| Chunk::new(ChunkId(i as u32), 10.0, stats, 3000.0))
        .collect();
    let encoder = TransformEncoder::default();
    let panels = [
        ("lcd", DisplaySpec::lcd_phone(Resolution::FHD)),
        ("oled", DisplaySpec::oled_phone(Resolution::FHD)),
    ];

    let mut group = c.benchmark_group("encode_chunk_corpus");
    for (name, spec) in &panels {
        group.bench_function(*name, |b| {
            b.iter(|| {
                for chunk in &chunks {
                    black_box(encoder.encode_chunk(black_box(chunk), spec));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transforms, bench_encode_chunk);
criterion_main!(benches);
