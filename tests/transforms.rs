//! The per-chunk transform solves against the searches they replaced.
//!
//! `BacklightScaling` scans only the occupied tail of the histogram and
//! `ColorTransform` solves its KKT system by Newton; the full 64 × 64
//! scan and the bisection over a fixed-point sweep they replaced live
//! on here, verbatim, as oracles. The LCD half is held **bit for bit**
//! on the whole outcome; the OLED half is held to the oracle's own
//! accuracy and, more tightly, to the KKT conditions themselves.

use lpvs::display::oled::CHANNEL_WEIGHTS;
use lpvs::display::quality::{Distortion, QualityBudget};
use lpvs::display::spec::{DisplayKind, DisplaySpec, Resolution};
use lpvs::display::stats::{bin_center, FrameStats, GAMMA, LUMA_BINS};
use lpvs::display::strategy::TABLE_I;
use lpvs::display::transform::{
    BacklightScaling, ColorTransform, SubpixelShutoff, Transform, TransformOutcome,
};
use lpvs::media::chunk::{Chunk, ChunkId};
use lpvs::media::content::{ContentModel, Genre};
use lpvs::media::encoder::TransformEncoder;

const MIN_SCALE: f64 = 0.15;
const MAX_ATTENUATION: f64 = 0.45;

/// `per_genre` seeds × 100 chunks from every genre.
fn corpus(per_genre: u64) -> Vec<FrameStats> {
    Genre::ALL
        .iter()
        .flat_map(|&g| (0..per_genre).map(move |seed| ContentModel::new(g, 0x7e57 + seed)))
        .flat_map(|model| model.chunk_stats(100))
        .collect()
}

/// The corpus `table1_strategies` and the transform benches measure
/// (`lpvs_bench::genre_corpus`).
fn genre_corpus() -> Vec<FrameStats> {
    Genre::ALL.iter().flat_map(|&g| ContentModel::new(g, 0xbe9c).chunk_stats(40)).collect()
}

fn budgets() -> [QualityBudget; 3] {
    [QualityBudget::strict(), QualityBudget::default(), QualityBudget::aggressive()]
}

fn anything_fits() -> QualityBudget {
    QualityBudget { max_clipped_fraction: 1.0, max_luminance_loss: 1.0, ..QualityBudget::default() }
}

fn histogram(spikes: &[(usize, f64)]) -> FrameStats {
    let mut hist = [0.0; LUMA_BINS];
    for &(bin, mass) in spikes {
        hist[bin] = mass;
    }
    FrameStats::new(hist, [0.3, 0.3, 0.3])
}

/// Every float of an outcome, as bits: `-0.0 != 0.0` here.
fn bits(o: &TransformOutcome) -> Vec<u64> {
    let d = &o.distortion;
    o.stats
        .luma_hist()
        .iter()
        .chain(&o.stats.linear_mean())
        .chain(&[o.brightness_scale, o.enabled_fraction])
        .chain(&[d.clipped_fraction, d.luminance_loss, d.color_shift, d.resolution_loss])
        .map(|x| x.to_bits())
        .collect()
}

// --- (a) LCD: the full scan, verbatim -----------------------------------

/// `BacklightScaling::choose_scale` as it stood before the occupied-tail
/// scan: every bin a candidate, every sum over all 64 bins.
fn oracle_choose_scale(budget: &QualityBudget, frame: &FrameStats) -> (f64, Distortion) {
    let mean = frame.mean_luma().max(1e-9);
    let mut best: Option<(f64, Distortion)> = None;
    for i in (0..LUMA_BINS).rev() {
        let s = bin_center(i).max(MIN_SCALE);
        let clipped = frame.fraction_above(s);
        let lost: f64 = frame
            .luma_hist()
            .iter()
            .enumerate()
            .map(|(j, &p)| p * (bin_center(j) - s).max(0.0))
            .sum::<f64>()
            / mean;
        let distortion = Distortion {
            clipped_fraction: clipped,
            luminance_loss: lost,
            ..Distortion::none()
        };
        if distortion.within(budget) {
            best = Some((s, distortion));
        } else {
            break;
        }
    }
    best.unwrap_or((1.0, Distortion::none()))
}

fn oracle_backlight(budget: &QualityBudget, frame: &FrameStats) -> TransformOutcome {
    let (scale, distortion) = oracle_choose_scale(budget, frame);
    if scale >= 1.0 - 1e-12 {
        return TransformOutcome::identity(frame);
    }
    TransformOutcome {
        stats: frame.compensate(scale),
        brightness_scale: scale,
        enabled_fraction: 1.0,
        distortion,
    }
}

fn assert_backlight_matches(budget: &QualityBudget, frame: &FrameStats, what: &str) {
    let spec = DisplaySpec::lcd_phone(Resolution::FHD);
    let new = BacklightScaling::new(*budget).apply(frame, &spec);
    let old = oracle_backlight(budget, frame);
    assert_eq!(bits(&new), bits(&old), "{what}: {new:?} vs oracle {old:?}");
}

#[test]
fn backlight_scan_is_bit_identical_on_content() {
    let corpus = corpus(40);
    assert!(corpus.len() >= 20_000);
    // Under the real budgets the scan stops a few bins below the
    // brightest content; a budget nothing exceeds walks it through the
    // whole histogram, putting the order of every long tail sum on the
    // line.
    for budget in budgets().into_iter().chain([anything_fits()]) {
        for (n, frame) in corpus.iter().enumerate() {
            assert_backlight_matches(&budget, frame, &format!("chunk {n}"));
        }
    }
}

#[test]
fn backlight_scan_is_bit_identical_on_edge_histograms() {
    let floor_bin = (0..LUMA_BINS).rfind(|&i| bin_center(i) < MIN_SCALE).unwrap();
    let mut frames = vec![
        ("all mass in bin 0", histogram(&[(0, 1.0)])),
        ("all mass in bin 63", histogram(&[(LUMA_BINS - 1, 1.0)])),
        ("all mass in bin 62", histogram(&[(LUMA_BINS - 2, 1.0)])),
        ("mass below MIN_SCALE", histogram(&[(2, 1.0), (5, 2.0), (floor_bin, 1.0)])),
        ("mass at the clamp bin", histogram(&[(floor_bin, 1.0)])),
        ("mass just above the clamp bin", histogram(&[(floor_bin + 1, 1.0)])),
        ("mass straddling the clamp", histogram(&[(floor_bin - 1, 1.0), (floor_bin + 2, 1.0)])),
        ("flat histogram", FrameStats::new([1.0; LUMA_BINS], [0.5; 3])),
    ];
    // Two distant spikes, the bright one from negligible to dominant:
    // below the clipping budget the scan must walk through it.
    for bright in [1e-6, 1e-3, 0.004, 0.0099, 0.0101, 0.03, 0.2, 1.0, 50.0] {
        frames.push(("two distant spikes", histogram(&[(5, 1.0), (60, bright)])));
        frames.push(("two distant spikes", histogram(&[(20, 1.0), (LUMA_BINS - 1, bright)])));
        frames.push(("three spikes", histogram(&[(1, 1.0), (30, bright), (50, bright / 7.0)])));
    }
    for v in 0..=20 {
        frames.push(("uniform gray", FrameStats::uniform_gray(f64::from(v) / 20.0)));
    }
    let no_clipping = QualityBudget {
        max_clipped_fraction: 0.0,
        max_luminance_loss: 0.0,
        ..QualityBudget::default()
    };
    let nothing_fits = QualityBudget { max_clipped_fraction: -1.0, ..QualityBudget::default() };
    for budget in budgets().into_iter().chain([no_clipping, nothing_fits, anything_fits()]) {
        for (what, frame) in &frames {
            assert_backlight_matches(&budget, frame, what);
        }
    }
    // The zero-clipping budget still dims down to the brightest content.
    let spec = DisplaySpec::lcd_phone(Resolution::FHD);
    let out = BacklightScaling::new(no_clipping).apply(&histogram(&[(5, 1.0), (40, 1.0)]), &spec);
    assert_eq!(out.brightness_scale, bin_center(40));
    assert_eq!(out.distortion.clipped_fraction, 0.0);
}

// --- (b) OLED: the bisection, verbatim ----------------------------------

/// `ColorTransform::allocate` as it stood before the Newton solve:
/// bisection on `k` over a ten-sweep fixed point per evaluation.
fn oracle_allocate(budget: &QualityBudget, frame: &FrameStats) -> [f64; 3] {
    let g = frame.linear_mean();
    let shift_budget = budget.max_color_shift;
    if shift_budget <= 0.0 {
        return [0.0; 3];
    }
    let value = [
        CHANNEL_WEIGHTS[0] * g[0],
        CHANNEL_WEIGHTS[1] * g[1],
        CHANNEL_WEIGHTS[2] * g[2],
    ];
    if value.iter().all(|&v| v <= 1e-12) {
        return [0.0; 3];
    }
    let target_ss = 3.0 * shift_budget * shift_budget;
    let d_for = |k: f64| -> [f64; 3] {
        let mut d = [0.0f64; 3];
        for _ in 0..10 {
            let mut moved = 0.0f64;
            for i in 0..3 {
                let next = (k * value[i] * (1.0 - d[i]).max(0.0).powf(GAMMA - 1.0))
                    .min(MAX_ATTENUATION);
                moved = moved.max((next - d[i]).abs());
                d[i] = next;
            }
            if moved < 1e-9 {
                break;
            }
        }
        d
    };
    let ss = |d: &[f64; 3]| d.iter().map(|x| x * x).sum::<f64>();

    let mut lo = 0.0;
    let mut hi = 1.0;
    while ss(&d_for(hi)) < target_ss && hi < 1e6 {
        let capped = d_for(hi).iter().all(|&x| x >= MAX_ATTENUATION - 1e-12);
        if capped {
            return d_for(hi);
        }
        hi *= 2.0;
    }
    for _ in 0..28 {
        let mid = 0.5 * (lo + hi);
        if ss(&d_for(mid)) < target_ss {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-6 * hi.max(1.0) {
            break;
        }
    }
    d_for(lo)
}

fn sum_sq(d: &[f64; 3]) -> f64 {
    d.iter().map(|x| x * x).sum()
}

fn marginal_values(frame: &FrameStats) -> [f64; 3] {
    let g = frame.linear_mean();
    [0, 1, 2].map(|i| CHANNEL_WEIGHTS[i] * g[i])
}

#[test]
fn color_allocation_matches_the_bisection_and_the_kkt_system() {
    let corpus = corpus(40);
    for budget in budgets() {
        let target_ss = 3.0 * budget.max_color_shift * budget.max_color_shift;
        let transform = ColorTransform::new(budget);
        // The oracle's ten fixed-point sweeps contract by 1.2·d/(1 − d)
        // each: to ≈ 1e-6 at the strict and default budgets (measured:
        // 1.0e-6 and 1.7e-6), but blue reaches d ≈ 0.4 at the aggressive
        // one, where ten sweeps leave the *oracle* ≈ 3.6e-3 off its own
        // fixed point.
        let drift = if budget.max_color_shift <= 0.15 { 1e-5 } else { 5e-3 };
        for (n, frame) in corpus.iter().enumerate() {
            let d = transform.allocate(frame);
            let old = oracle_allocate(&budget, frame);
            let what =
                format!("chunk {n}, D = {}: {d:?} vs oracle {old:?}", budget.max_color_shift);

            for i in 0..3 {
                assert!((d[i] - old[i]).abs() <= drift, "channel {i} drifted — {what}");
                assert!((0.0..=MAX_ATTENUATION).contains(&d[i]), "cap broken — {what}");
            }
            // The problem is concave, so the KKT point is the optimum:
            // whatever the oracle found inside the budget saves no more.
            let value = marginal_values(frame);
            let saved = |d: &[f64; 3]| -> f64 {
                (0..3).map(|i| value[i] * (1.0 - (1.0 - d[i]).powf(GAMMA))).sum()
            };
            assert!(saved(&d) >= saved(&old) * (1.0 - 1e-12), "saves less than the oracle: {what}");

            // The budget is never exceeded — not by an ulp — and never
            // left unspent unless the cap took every channel.
            let ss = sum_sq(&d);
            assert!(ss <= target_ss, "over budget by {:e} — {what}", ss - target_ss);
            let all_capped = d.iter().all(|&x| x == MAX_ATTENUATION);
            assert!(
                all_capped || ss >= target_ss * (1.0 - 1e-9),
                "budget unspent: {:e} — {what}",
                1.0 - ss / target_ss
            );

            // KKT: one multiplier k reproduces every uncapped channel,
            // and a capped channel wanted at least the cap.
            let gain = |i: usize| value[i] * (1.0 - d[i]).powf(GAMMA - 1.0);
            let free: Vec<usize> = (0..3).filter(|&i| d[i] < MAX_ATTENUATION).collect();
            let Some(&lead) = free.iter().max_by(|&&a, &&b| d[a].total_cmp(&d[b])) else {
                continue;
            };
            let k = d[lead] / gain(lead);
            for (i, &di) in d.iter().enumerate() {
                if di < MAX_ATTENUATION {
                    assert!((di - k * gain(i)).abs() <= 1e-9, "KKT residual, channel {i}: {what}");
                } else {
                    assert!(k * gain(i) >= MAX_ATTENUATION - 1e-9, "capped too early — {what}");
                }
            }
        }
    }
}

#[test]
fn color_allocation_edge_cases() {
    let spec = DisplaySpec::oled_phone(Resolution::FHD);
    let bright = FrameStats::uniform_gray(0.9);

    // An absurd budget saturates at the cap, exactly.
    let absurd = QualityBudget { max_color_shift: 0.9, ..QualityBudget::aggressive() };
    assert_eq!(ColorTransform::new(absurd).allocate(&bright), [MAX_ATTENUATION; 3]);
    // …and a channel that emits nothing is left alone while the others cap.
    let no_blue = FrameStats::new([1.0; LUMA_BINS], [0.6, 0.4, 0.0]);
    assert_eq!(
        ColorTransform::new(absurd).allocate(&no_blue),
        [MAX_ATTENUATION, MAX_ATTENUATION, 0.0]
    );
    // One live channel takes the whole budget, up to the cap.
    let only_red = FrameStats::new([1.0; LUMA_BINS], [0.5, 0.0, 0.0]);
    let d = ColorTransform::new(QualityBudget::default()).allocate(&only_red);
    assert!(d[0] <= 0.15 * 3f64.sqrt() && d[0] >= 0.15 * 3f64.sqrt() * (1.0 - 1e-9), "{d:?}");
    assert_eq!(d[1..], [0.0, 0.0]);
    let d = ColorTransform::new(QualityBudget::aggressive()).allocate(&only_red);
    assert_eq!(d, [MAX_ATTENUATION, 0.0, 0.0]);
    // Lopsided content: a nearly dead channel next to a bright one.
    let lopsided = FrameStats::new([1.0; LUMA_BINS], [0.8, 1e-9, 1e-4]);
    for budget in budgets() {
        let target_ss = 3.0 * budget.max_color_shift * budget.max_color_shift;
        let d = ColorTransform::new(budget).allocate(&lopsided);
        let ss = sum_sq(&d);
        assert!(ss <= target_ss, "{d:?}");
        assert!(d.iter().all(|&x| (0.0..=MAX_ATTENUATION).contains(&x)), "{d:?}");
        assert!(ss >= target_ss * (1.0 - 1e-9) || d[0] == MAX_ATTENUATION, "{d:?}");
    }

    // Black frame and zero budget are the identity.
    let black = FrameStats::uniform_gray(0.0);
    for budget in budgets() {
        assert_eq!(ColorTransform::new(budget).allocate(&black), [0.0; 3]);
        let out = ColorTransform::new(budget).apply(&black, &spec);
        assert_eq!(out, TransformOutcome::identity(&black));
    }
    let zero = QualityBudget { max_color_shift: 0.0, ..QualityBudget::default() };
    assert_eq!(ColorTransform::new(zero).allocate(&bright), [0.0; 3]);
    let out = ColorTransform::new(zero).apply(&bright, &spec);
    assert_eq!(out, TransformOutcome::identity(&bright));
}

#[test]
fn color_saving_is_monotone_in_the_budget() {
    let spec = DisplaySpec::oled_phone(Resolution::FHD);
    for frame in genre_corpus().iter().step_by(10) {
        let mut previous = 0.0;
        for step in 1..=60 {
            let shift = 0.01 * f64::from(step);
            let budget = QualityBudget { max_color_shift: shift, ..QualityBudget::default() };
            let out = ColorTransform::new(budget).apply(frame, &spec);
            let saving = out.reduction_ratio(frame, &spec);
            assert!(saving >= previous, "saving fell from {previous} to {saving} at D = {shift}");
            previous = saving;
        }
        assert!(previous > 0.0);
    }
}

// --- (c) the encoder's ratio-only entry point ---------------------------

/// Budgets the priced ratio must follow: the three presets, and one
/// each that turns the colour transform and the subpixel shutoff off.
fn pricing_budgets() -> Vec<QualityBudget> {
    let mut budgets = budgets().to_vec();
    budgets.push(QualityBudget { max_color_shift: 0.0, ..QualityBudget::default() });
    budgets.push(QualityBudget { max_resolution_loss: 0.0, ..QualityBudget::default() });
    budgets
}

/// White, black and single spikes at both ends of the grid: the frames
/// whose transforms fall back to (or next to) the identity.
fn identity_frames() -> Vec<FrameStats> {
    vec![
        FrameStats::uniform_gray(1.0),
        FrameStats::uniform_gray(0.0),
        histogram(&[(0, 1.0)]),
        histogram(&[(LUMA_BINS - 1, 1.0)]),
    ]
}

/// `TransformEncoder::reduction_ratio`, given the chunk's untransformed
/// power, computes only the transformed one from what the panel's model
/// reads; it must equal the full outcome's ratio — the one
/// `encode_chunk` stores — bit for bit, as must each figure it reads.
#[test]
fn reduction_ratio_is_encode_chunk_without_the_chunk() {
    let frames: Vec<FrameStats> = corpus(2).into_iter().chain(identity_frames()).collect();
    for resolution in Resolution::LADDER {
        let specs = [DisplaySpec::lcd_phone(resolution), DisplaySpec::oled_phone(resolution)];
        for budget in pricing_budgets() {
            let encoder = TransformEncoder::new(budget);
            for (n, stats) in frames.iter().enumerate() {
                let chunk = Chunk::new(ChunkId(n as u32), 10.0, stats.clone(), 3000.0);
                for spec in &specs {
                    let what = format!("chunk {n}, {spec}, {budget:?}");
                    let encoded = encoder.encode_chunk(&chunk, spec);
                    let before = spec.power_watts(stats);
                    let ratio = encoder.reduction_ratio(stats, spec, before);
                    assert_eq!(ratio.to_bits(), encoded.reduction_ratio.to_bits(), "{what}");
                    assert_eq!(
                        encoded.reduction_ratio.to_bits(),
                        encoded.outcome.reduction_ratio(stats, spec).to_bits(),
                        "{what}"
                    );
                    assert_eq!(encoded.original, chunk);
                    assert_priced_figures_match(&budget, stats, spec, &what);
                }
            }
        }
    }
}

/// The figures the priced ratio reads, each against the outcome `apply`
/// builds — the clamp in γ would hide a wrong one near zero.
fn assert_priced_figures_match(
    budget: &QualityBudget,
    stats: &FrameStats,
    spec: &DisplaySpec,
    what: &str,
) {
    match spec.kind {
        DisplayKind::Lcd => {
            let t = BacklightScaling::new(*budget);
            let outcome = t.apply(stats, spec);
            let watts = t.transformed_watts(stats, spec);
            assert_eq!(watts.to_bits(), outcome.power_watts(spec).to_bits(), "{what}");
            if outcome.brightness_scale < 1.0 {
                let mean = stats.compensated_mean_luma(outcome.brightness_scale);
                assert_eq!(mean.to_bits(), outcome.stats.mean_luma().to_bits(), "{what}");
            }
        }
        DisplayKind::Oled => {
            let color = ColorTransform::new(*budget);
            let linear = color.transformed_linear_mean(stats.linear_mean());
            let applied = color.apply(stats, spec).stats.linear_mean();
            assert_eq!(linear.map(f64::to_bits), applied.map(f64::to_bits), "{what}");
            let shutoff = SubpixelShutoff::new(*budget);
            let enabled = shutoff.apply(stats, spec).enabled_fraction;
            assert_eq!(shutoff.enabled_fraction(spec).to_bits(), enabled.to_bits(), "{what}");
        }
    }
}

// --- (d) Table I anchors ------------------------------------------------

/// EXPERIMENTS.md quotes the savings `table1_strategies` prints, row by
/// row of the registry; a numerics change that moves one by half a
/// point must say so there.
#[test]
fn table1_measured_savings_are_pinned() {
    const PRINTED: [f64; 11] =
        [33.91, 33.91, 34.77, 33.91, 33.91, 41.79, 35.82, 35.82, 3.68, 29.29, 3.68];
    let corpus = genre_corpus();
    let lcd = DisplaySpec::lcd_phone(Resolution::FHD);
    let oled = DisplaySpec::oled_phone(Resolution::FHD);
    assert_eq!(TABLE_I.len(), PRINTED.len());
    for (strategy, pinned) in TABLE_I.iter().zip(PRINTED) {
        let spec = match strategy.kind {
            DisplayKind::Lcd => &lcd,
            DisplayKind::Oled => &oled,
        };
        let measured = 100.0 * strategy.measured_saving(&corpus, spec);
        assert!(
            (measured - pinned).abs() <= 0.5,
            "{} {}: {measured:.2} % measured, {pinned:.2} % pinned",
            strategy.name,
            strategy.reference
        );
    }
}
