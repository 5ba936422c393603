//! An emulated chunk is priced once. The emulator synthesizes a chunk's
//! histogram writing only the bins its kernel reaches, and drains a
//! battery at a display power it computed when the window was made;
//! both are held here, bit for bit, to the paths they replaced.

use lpvs::display::spec::{DisplaySpec, Resolution};
use lpvs::display::stats::{bin_center, bin_of, FrameStats, GAMMA, LUMA_BINS};
use lpvs::edge::battery::Battery;
use lpvs::edge::device::{Device, DeviceId};

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
