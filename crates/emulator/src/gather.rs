//! Information gathering (paper Fig. 6, §VI-B.1).
//!
//! At each scheduling point the devices report display specs and
//! energy status; the server estimates per-chunk power rates with the
//! display power models and prices each transform with the cost
//! functions `g(·)`, `h(·)`. The output is the [`SlotProblem`] the
//! scheduler consumes.

use lpvs_core::problem::{DeviceRequest, SlotProblem};
use lpvs_edge::device::Device;
use lpvs_media::cost::{storage_gb, transform_compute_units};
use lpvs_survey::curve::AnxietyCurve;
use std::borrow::Borrow;

/// Builds the slot problem for one scheduling point.
///
/// `priced_windows[n]` holds the untransformed display powers
/// ([`DisplaySpec::compact_power_watts_each`]) of the chunks device `n`
/// will play this slot (all of equal `chunk_secs` duration) — owned
/// windows or borrowed prefixes of them, as devices may be owned or
/// borrowed from the cluster;
/// `gammas[n]` is the current truncated-posterior estimate of device
/// `n`'s *whole-device* power-reduction ratio.
///
/// [`DisplaySpec::compact_power_watts_each`]: lpvs_display::spec::DisplaySpec::compact_power_watts_each
///
/// # Panics
///
/// Panics if the slices disagree in length or a window is empty.
#[allow(clippy::too_many_arguments)] // mirrors the §VI-B.1 report fields
pub fn gather_problem<D: Borrow<Device>, W: AsRef<[f64]>>(
    devices: &[D],
    priced_windows: &[W],
    gammas: &[f64],
    chunk_secs: f64,
    bitrate_kbps: f64,
    compute_capacity: f64,
    storage_capacity_gb: f64,
    lambda: f64,
    curve: &AnxietyCurve,
) -> SlotProblem {
    assert_eq!(devices.len(), priced_windows.len(), "one chunk window per device");
    assert_eq!(devices.len(), gammas.len(), "one gamma per device");

    let mut problem =
        SlotProblem::new(compute_capacity, storage_capacity_gb, lambda, curve.clone());
    for ((device, window), &gamma) in devices.iter().zip(priced_windows).zip(gammas) {
        let (device, window) = (device.borrow(), window.as_ref());
        assert!(!window.is_empty(), "chunk window must be non-empty");
        let rates: Vec<f64> =
            window.iter().map(|&watts| device.power_rate_at(watts, 1.0)).collect();
        let slot_secs = chunk_secs * window.len() as f64;
        // A healthy report gets the usual γ < 1 nudge; a corrupt one
        // (NaN, negative, above one) is carried through raw so the
        // resilient scheduler's sanitizer — not an assertion deep in
        // the constructor — decides what to do with it. `clamp` would
        // let NaN through anyway and panic in `DeviceRequest::new`.
        let gamma = if gamma.is_finite() && (0.0..=1.0).contains(&gamma) {
            gamma.min(1.0 - f64::EPSILON)
        } else {
            gamma
        };
        problem.push(DeviceRequest::from_telemetry(
            rates,
            chunk_secs,
            device.energy_status_joules(),
            device.battery().capacity_joules(),
            gamma,
            transform_compute_units(device.spec().resolution, 30.0),
            storage_gb(bitrate_kbps, slot_secs),
        ));
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_core::fleet::DeviceFleet;
    use lpvs_display::spec::{DisplaySpec, Resolution};
    use lpvs_display::stats::FrameStats;
    use lpvs_edge::battery::Battery;
    use lpvs_edge::device::DeviceId;

    fn device(fraction: f64, resolution: Resolution) -> Device {
        Device::new(
            DeviceId(0),
            DisplaySpec::oled_phone(resolution),
            Battery::phone_at(fraction),
            10,
        )
    }

    /// `n` flat-gray chunks, priced on the panel every device here
    /// shares (HD and FHD are both 16:9 on the same diagonal).
    fn window(n: usize, luma: f64) -> Vec<f64> {
        let gray = FrameStats::uniform_gray(luma);
        vec![DisplaySpec::oled_phone(Resolution::HD).power_watts(&gray); n]
    }

    #[test]
    fn problem_mirrors_cluster_state() {
        let devices = vec![device(0.4, Resolution::HD), device(0.8, Resolution::FHD)];
        let windows = vec![window(30, 0.5), window(30, 0.7)];
        let p = gather_problem(
            &devices,
            &windows,
            &[0.3, 0.4],
            10.0,
            3000.0,
            100.0,
            50.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        assert_eq!(p.len(), 2);
        assert!((p.requests[0].battery_fraction() - 0.4).abs() < 1e-9);
        assert_eq!(p.requests[0].num_chunks(), 30);
        // FHD transform costs more compute than HD.
        assert!(p.requests[1].compute_cost > p.requests[0].compute_cost);
        // Brighter content → larger OLED power rate.
        assert!(p.requests[1].power_rates_w[0] > p.requests[0].power_rates_w[0]);
    }

    #[test]
    fn power_rates_include_non_display_floor() {
        let d = device(0.5, Resolution::HD);
        let p = gather_problem(
            std::slice::from_ref(&d),
            &[window(5, 0.5)],
            &[0.3],
            10.0,
            3000.0,
            10.0,
            10.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        assert!(p.requests[0].power_rates_w[0] > d.non_display_watts());
    }

    #[test]
    fn gamma_is_clamped_below_one() {
        let p = gather_problem(
            &[device(0.5, Resolution::HD)],
            &[window(5, 0.5)],
            &[1.0],
            10.0,
            3000.0,
            10.0,
            10.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        assert!(p.requests[0].gamma < 1.0);
    }

    #[test]
    fn corrupt_gamma_passes_through_for_the_sanitizer() {
        let p = gather_problem(
            &[device(0.5, Resolution::HD), device(0.5, Resolution::HD)],
            &[window(5, 0.5), window(5, 0.5)],
            &[f64::NAN, -0.4],
            10.0,
            3000.0,
            10.0,
            10.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        assert!(p.requests[0].gamma.is_nan());
        assert_eq!(p.requests[1].gamma, -0.4);
        let (clean, valid) = p.sanitize();
        assert_eq!(valid, vec![false, false]);
        assert!(clean.requests.iter().all(|r| r.is_valid()));
    }

    #[test]
    fn recycled_fleet_matches_a_fresh_build() {
        let devices = vec![device(0.4, Resolution::HD), device(0.8, Resolution::FHD)];
        let windows = vec![window(30, 0.5), window(30, 0.7)];
        let p = gather_problem(
            &devices,
            &windows,
            &[0.3, f64::NAN],
            10.0,
            3000.0,
            100.0,
            50.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        let fresh = DeviceFleet::from_problem(&p);
        // Recycle a buffer previously filled with *different* content,
        // the way the driver refills the runtime's double buffer.
        let other = gather_problem(
            &devices,
            &vec![window(7, 0.2); 2],
            &[0.1, 0.1],
            10.0,
            3000.0,
            9.0,
            9.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
        let mut recycled = DeviceFleet::from_problem(&other);
        recycled.rebuild_from_problem(&p);
        assert_eq!(fresh, recycled);
        // The corrupt row keeps its index but is disconnected — and
        // stored as the inert row `sanitize` substitutes, though the
        // loader never ran it.
        assert!(!recycled.connected(1));
        assert!(recycled.connected(0));
        let (clean, _) = p.sanitize();
        assert_eq!(recycled.device_request(1), clean.requests[1]);
        assert_eq!(recycled.device_request(0), p.requests[0]);
    }

    #[test]
    #[should_panic(expected = "one gamma per device")]
    fn mismatched_gammas_rejected() {
        let _ = gather_problem(
            &[device(0.5, Resolution::HD)],
            &[window(5, 0.5)],
            &[],
            10.0,
            3000.0,
            10.0,
            10.0,
            1.0,
            &AnxietyCurve::paper_shape(),
        );
    }
}
