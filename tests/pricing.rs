//! An emulated chunk is priced once. The emulator synthesizes a chunk as
//! its luma bin and three linear means, prices it from a per-bin table
//! of the content kernel built once, and drains a battery at a display
//! power it computed when the window was made; all of it is held here,
//! bit for bit, to the `FrameStats` paths it replaced.

use lpvs::display::quality::QualityBudget;
use lpvs::display::spec::{DisplayKind, DisplaySpec, Resolution};
use lpvs::display::stats::{bin_center, bin_of, CompactStats, FrameStats, GAMMA, LUMA_BINS};
use lpvs::display::transform::BacklightScaling;
use lpvs::edge::battery::Battery;
use lpvs::edge::device::{Device, DeviceId};
use lpvs::media::content::{ContentModel, Genre};
use lpvs::media::encoder::{KernelEncoder, TransformEncoder};

/// The spread every synthesized chunk's kernel has had.
const CONTENT_SPREAD: usize = 6;

/// `FrameStats::from_encoded_rgb` as it stood: the triangular kernel
/// laid over all 64 bins, then normalized by `FrameStats::new`.
fn oracle_from_encoded_rgb(rgb: [f64; 3], spread: usize) -> FrameStats {
    let luma = 0.2126 * rgb[0] + 0.7152 * rgb[1] + 0.0722 * rgb[2];
    let center = bin_of(luma);
    let mut hist = [0.0; LUMA_BINS];
    if spread == 0 {
        hist[center] = 1.0;
    } else {
        let s = spread as i64;
        for d in -s..=s {
            let idx = center as i64 + d;
            if (0..LUMA_BINS as i64).contains(&idx) {
                hist[idx as usize] += (s + 1 - d.abs()) as f64;
            }
        }
    }
    let linear = [rgb[0].powf(GAMMA), rgb[1].powf(GAMMA), rgb[2].powf(GAMMA)];
    FrameStats::new(hist, linear)
}

/// Every bin and channel mean as bits: `-0.0 != 0.0` here.
fn bits(stats: &FrameStats) -> Vec<u64> {
    stats.luma_hist().iter().chain(&stats.linear_mean()).map(|x| x.to_bits()).collect()
}

#[test]
fn synthesis_fills_only_its_bins_and_matches_the_full_grid() {
    for center in [0, 1, 31, 62, LUMA_BINS - 1] {
        let v = bin_center(center);
        for rgb in [[v; 3], [v, v, v * 0.5]] {
            let luma = 0.2126 * rgb[0] + 0.7152 * rgb[1] + 0.0722 * rgb[2];
            if bin_of(luma) != center {
                continue; // the dimmed-blue colour may leave the bin
            }
            for spread in 0..=8 {
                let fast = FrameStats::from_encoded_rgb(rgb, spread);
                let full = oracle_from_encoded_rgb(rgb, spread);
                assert_eq!(bits(&fast), bits(&full), "centre {center}, spread {spread}");
                let occupied = fast.luma_hist().iter().filter(|&&p| p > 0.0).count();
                assert!(occupied <= 2 * spread + 1, "centre {center}, spread {spread}");
            }
        }
    }
}

fn device(fraction: f64, giveup: u8) -> Device {
    Device::new(
        DeviceId(3),
        DisplaySpec::oled_phone(Resolution::HD),
        Battery::phone_at(fraction),
        giveup,
    )
}

/// `play_with` prices the frame and drains; `play_at` drains at a
/// display power the caller already has. Same battery, same watch time,
/// same give-up, bit for bit — including a chunk the threshold cuts
/// short and a battery played to empty.
#[test]
fn play_with_is_play_at_its_display_power() {
    let frames = [FrameStats::uniform_gray(0.6), FrameStats::from_encoded_rgb([0.9, 0.3, 0.5], 6)];
    // (battery fraction, give-up percent, seconds): a chunk that fits,
    // one the threshold cuts mid-chunk, one that empties the battery.
    let cases = [(0.5, 1, 600.0), (0.21, 20, 100_000.0), (0.02, 0, 1e9)];
    let mut cut_short = 0;
    for frame in &frames {
        for (fraction, giveup, seconds) in cases {
            for include_floor in [true, false] {
                for scale in [1.0, 0.65] {
                    let mut priced = device(fraction, giveup);
                    let mut at = priced.clone();
                    let watts = at.spec().power_watts(frame);
                    let what = format!("{fraction} {giveup} {seconds} {include_floor} {scale}");
                    // Twice: the second play starts from the first's state.
                    for _ in 0..2 {
                        let a = priced.play_with(frame, seconds, scale, include_floor);
                        let b = at.play_at(watts, seconds, scale, include_floor);
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                        assert_eq!(
                            priced.battery().remaining_joules().to_bits(),
                            at.battery().remaining_joules().to_bits(),
                            "{what}"
                        );
                        assert_eq!(priced.watched_secs().to_bits(), at.watched_secs().to_bits());
                        assert_eq!(priced.has_given_up(), at.has_given_up(), "{what}");
                        if a > 0.0 && a < seconds {
                            cut_short += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(cut_short > 0, "no case crossed the give-up threshold mid-chunk");
}

/// Colours whose luma lands in `bin`: its gray, and tinted versions
/// where they stay in the bin.
fn colours_in(bin: usize) -> Vec<[f64; 3]> {
    let v = bin_center(bin);
    [[v; 3], [v * 1.1, v * 0.97, v * 0.9], [v * 0.9, v * 1.02, v * 1.2]]
        .into_iter()
        .map(|rgb| rgb.map(|c: f64| c.min(1.0)))
        .filter(|rgb| bin_of(0.2126 * rgb[0] + 0.7152 * rgb[1] + 0.0722 * rgb[2]) == bin)
        .collect()
}

/// One chunk per colour of every bin, then the genre corpus
/// `table1_strategies` measures, compact.
fn compact_corpus() -> Vec<CompactStats> {
    let per_bin = (0..LUMA_BINS).flat_map(colours_in).map(CompactStats::from_encoded_rgb);
    let genres =
        Genre::ALL.iter().flat_map(|&g| ContentModel::new(g, 0xbe9c).compact_chunks().take(40));
    per_bin.chain(genres).collect()
}

/// The ladder at three brightness settings, on one panel kind.
fn specs(kind: DisplayKind) -> Vec<DisplaySpec> {
    let phone = match kind {
        DisplayKind::Lcd => DisplaySpec::lcd_phone,
        DisplayKind::Oled => DisplaySpec::oled_phone,
    };
    Resolution::LADDER
        .into_iter()
        .flat_map(|res| [0.5, 0.7, 0.9].map(|b| phone(res).with_brightness(b)))
        .collect()
}

#[test]
fn the_kernel_is_from_encoded_rgb_in_every_bin() {
    for bin in 0..LUMA_BINS {
        let colours = colours_in(bin);
        assert!(!colours.is_empty(), "no colour lands in bin {bin}");
        for rgb in colours {
            let chunk = CompactStats::from_encoded_rgb(rgb);
            assert_eq!(chunk.bin(), bin, "{rgb:?}");
            let expanded = chunk.expand();
            let what = format!("bin {bin}, {rgb:?}");
            assert_eq!(
                bits(&expanded),
                bits(&FrameStats::from_encoded_rgb(rgb, CONTENT_SPREAD)),
                "{what}"
            );
            assert_eq!(bits(&expanded), bits(&oracle_from_encoded_rgb(rgb, CONTENT_SPREAD)));
            assert_eq!(chunk.linear_mean(), expanded.linear_mean(), "{what}");
            assert_eq!(chunk.mean_luma().to_bits(), expanded.mean_luma().to_bits(), "{what}");
        }
    }
}

/// An LCD prices a synthetic chunk from its bin alone: the untransformed
/// power from the kernel's mean luma, the transformed one from the
/// backlight decision made once per bin. Each equals what the
/// `FrameStats` path computes of the expanded chunk.
#[test]
fn lcd_power_and_ratio_read_from_the_table_match_the_expanded_chunk() {
    let chunks = compact_corpus();
    let mut dimmed = 0;
    for budget in [QualityBudget::default(), QualityBudget::aggressive()] {
        let encoder = KernelEncoder::new(budget);
        let full = TransformEncoder::new(budget);
        let table = BacklightScaling::new(budget).kernel_table();
        for spec in specs(DisplayKind::Lcd) {
            let on_spec = encoder.on(&spec);
            let powers: Vec<f64> = spec.compact_power_watts_each(&chunks).collect();
            for (n, (chunk, &watts)) in chunks.iter().zip(&powers).enumerate() {
                let what = format!("chunk {n} (bin {}), {spec}, {budget:?}", chunk.bin());
                let stats = chunk.expand();
                assert_eq!(watts.to_bits(), spec.power_watts(&stats).to_bits(), "{what}");
                let after = table.transformed_watts(chunk, &spec);
                let oracle = BacklightScaling::new(budget).transformed_watts(&stats, &spec);
                assert_eq!(after.to_bits(), oracle.to_bits(), "{what}");
                let ratio = on_spec.reduction_ratio(chunk, watts);
                let oracle = full.reduction_ratio(&stats, &spec, watts);
                assert_eq!(ratio.to_bits(), oracle.to_bits(), "{what}");
                dimmed += usize::from(ratio > 0.0);
            }
        }
    }
    assert!(dimmed > chunks.len(), "the backlight dimmed too few chunks to test");
}

/// An OLED prices a synthetic chunk from its linear means, the
/// allocation solved per chunk and the shutoff decided once a display.
#[test]
fn oled_compact_ratio_matches_the_frame_stats_path() {
    let chunks = compact_corpus();
    let budgets = [
        QualityBudget::strict(),
        QualityBudget::default(),
        QualityBudget::aggressive(),
        QualityBudget { max_color_shift: 0.0, ..QualityBudget::default() },
        QualityBudget { max_resolution_loss: 0.0, ..QualityBudget::default() },
    ];
    for budget in budgets {
        let encoder = KernelEncoder::new(budget);
        let full = TransformEncoder::new(budget);
        for spec in specs(DisplayKind::Oled) {
            let on_spec = encoder.on(&spec);
            let powers: Vec<f64> = spec.compact_power_watts_each(&chunks).collect();
            for (n, (chunk, &watts)) in chunks.iter().zip(&powers).enumerate() {
                let what = format!("chunk {n}, {spec}, {budget:?}");
                let stats = chunk.expand();
                assert_eq!(watts.to_bits(), spec.power_watts(&stats).to_bits(), "{what}");
                let ratio = on_spec.reduction_ratio(chunk, watts);
                let oracle = full.reduction_ratio(&stats, &spec, watts);
                assert_eq!(ratio.to_bits(), oracle.to_bits(), "{what}");
            }
        }
    }
}

/// `chunk_stats(n)` is the first `n` compact chunks expanded, and every
/// stream is a prefix of a longer one from the same model.
#[test]
fn chunk_stats_is_the_expanded_compact_synthesis() {
    for genre in Genre::ALL {
        for seed in [0, 7, 0xbe9c] {
            let model = ContentModel::new(genre, seed);
            let longest: Vec<CompactStats> = model.compact_chunks().take(400).collect();
            for n in [0, 1, 30, 400] {
                let stats = model.chunk_stats(n);
                assert_eq!(stats.len(), n);
                for (i, (s, c)) in stats.iter().zip(&longest).enumerate() {
                    assert_eq!(bits(s), bits(&c.expand()), "{genre} seed {seed}, chunk {i} of {n}");
                }
            }
        }
    }
}
