//! Virtual clusters and their population generator.
//!
//! All devices under one base station form a *virtual cluster* sharing
//! one edge server (paper §IV-A). The paper's emulation assigns device
//! display specs by "randomly choosing from available display
//! resolutions under the supported bitrates" and initial battery levels
//! from a Gaussian distribution (§VI-B); [`ClusterGenerator`]
//! reproduces that setup.

use crate::battery::Battery;
use crate::device::{Device, DeviceId};
use crate::server::EdgeServer;
use lpvs_display::spec::{DisplayKind, DisplaySpec, Resolution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A virtual cluster: devices plus their shared edge server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualCluster {
    devices: Vec<Device>,
    server: EdgeServer,
}

impl VirtualCluster {
    /// Creates a cluster.
    pub fn new(devices: Vec<Device>, server: EdgeServer) -> Self {
        Self { devices, server }
    }

    /// Member devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable member devices (the emulator drains batteries through
    /// this).
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// The shared edge server.
    pub fn server(&self) -> &EdgeServer {
        &self.server
    }

    /// Devices still actively watching.
    pub fn watching_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_watching()).count()
    }

    /// Mean battery fraction across members.
    pub fn mean_battery_fraction(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.devices.iter().map(|d| d.battery().fraction()).sum::<f64>()
            / self.devices.len() as f64
    }
}

/// Seeded generator of calibrated cluster populations.
///
/// # Example
///
/// ```
/// use lpvs_edge::cluster::ClusterGenerator;
///
/// let vc = ClusterGenerator::paper_setup(100, 3).generate();
/// let oled = vc
///     .devices()
///     .iter()
///     .filter(|d| d.spec().kind == lpvs_display::spec::DisplayKind::Oled)
///     .count();
/// assert!(oled > 40 && oled < 80); // ≈ 60 % OLED mix
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterGenerator {
    size: usize,
    seed: u64,
    /// Share of OLED devices (the 2019-era flagship mix).
    oled_share: f64,
    /// Mean of the Gaussian initial battery fraction.
    battery_mean: f64,
    /// Std-dev of the Gaussian initial battery fraction.
    battery_std: f64,
    /// Edge server sizing in concurrent 720p streams.
    server_streams: usize,
    /// Battery capacity in Wh.
    battery_capacity_wh: f64,
    /// Give-up thresholds to draw from (battery percent). Empty ⇒ the
    /// built-in survey-shaped mixture.
    giveup_pool: Vec<u8>,
}

impl ClusterGenerator {
    /// The paper's emulation setup: Gaussian battery `N(0.5, 0.2²)`
    /// clamped to `[2 %, 100 %]`, 60 % OLED, AirFrame-class server.
    pub fn paper_setup(size: usize, seed: u64) -> Self {
        assert!(size > 0, "cluster size must be positive");
        Self {
            size,
            seed,
            oled_share: 0.6,
            battery_mean: 0.5,
            battery_std: 0.2,
            server_streams: 100,
            battery_capacity_wh: Battery::PHONE_CAPACITY_WH,
            giveup_pool: Vec::new(),
        }
    }

    /// Overrides the edge server sizing (concurrent 720p streams).
    pub fn with_server_streams(mut self, streams: usize) -> Self {
        self.server_streams = streams;
        self
    }

    /// Overrides the battery capacity (Wh). The paper's emulation never
    /// pins absolute capacities; a smaller effective video-energy
    /// budget reproduces its tens-of-minutes TPV scale (Fig. 9).
    pub fn with_battery_capacity(mut self, wh: f64) -> Self {
        assert!(wh > 0.0, "battery capacity must be positive");
        self.battery_capacity_wh = wh;
        self
    }

    /// Supplies survey-derived give-up thresholds to draw from.
    pub fn with_giveup_pool(mut self, pool: Vec<u8>) -> Self {
        self.giveup_pool = pool;
        self
    }

    /// Number of devices generated.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Generates the cluster (deterministic in the seed).
    pub fn generate(&self) -> VirtualCluster {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc105_7e12u64.rotate_left(1));
        let devices = (0..self.size)
            .map(|i| {
                let kind = if rng.gen_bool(self.oled_share) {
                    DisplayKind::Oled
                } else {
                    DisplayKind::Lcd
                };
                let resolution = sample_resolution(&mut rng);
                let spec = match kind {
                    DisplayKind::Oled => DisplaySpec::oled_phone(resolution),
                    DisplayKind::Lcd => DisplaySpec::lcd_phone(resolution),
                }
                .with_brightness(rng.gen_range(0.5..0.9));
                let fraction = sample_battery(self.battery_mean, self.battery_std, &mut rng);
                let giveup = self.sample_giveup(&mut rng);
                Device::new(
                    DeviceId(i as u32),
                    spec,
                    Battery::new(self.battery_capacity_wh, fraction),
                    giveup,
                )
            })
            .collect();
        VirtualCluster::new(devices, EdgeServer::for_streams(self.server_streams))
    }

    fn sample_giveup<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        if !self.giveup_pool.is_empty() {
            return self.giveup_pool[rng.gen_range(0..self.giveup_pool.len())];
        }
        // Survey-shaped mixture: ~50 % below 10, ~30 % in 10–19,
        // ~15 % in 20–34, ~5 % above.
        let t: f64 = rng.gen_range(0.0..1.0);
        if t < 0.50 {
            rng.gen_range(1..=9)
        } else if t < 0.80 {
            rng.gen_range(10..=19)
        } else if t < 0.95 {
            rng.gen_range(20..=34)
        } else {
            rng.gen_range(35..=60)
        }
    }
}

/// 2019-era phone resolution mix: 720p-class panels still common,
/// 1080p dominant among video watchers, QHD flagships a minority.
fn sample_resolution<R: Rng + ?Sized>(rng: &mut R) -> Resolution {
    let t: f64 = rng.gen_range(0.0..1.0);
    if t < 0.05 {
        Resolution::SD
    } else if t < 0.50 {
        Resolution::HD
    } else if t < 0.88 {
        Resolution::FHD
    } else {
        Resolution::QHD
    }
}

/// Gaussian battery fraction clamped to `[0.02, 1.0]` (Box–Muller).
fn sample_battery<R: Rng + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + std * z).clamp(0.02, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ClusterGenerator::paper_setup(50, 3).generate();
        let b = ClusterGenerator::paper_setup(50, 3).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn battery_distribution_is_gaussian_around_half() {
        let vc = ClusterGenerator::paper_setup(4000, 9).generate();
        let mean = vc.mean_battery_fraction();
        assert!((mean - 0.5).abs() < 0.03, "mean battery {mean}");
        // Clamping keeps everything physical.
        assert!(vc.devices().iter().all(|d| {
            let f = d.battery().fraction();
            (0.02..=1.0).contains(&f)
        }));
    }

    #[test]
    fn giveup_pool_is_used_verbatim() {
        let vc = ClusterGenerator::paper_setup(200, 5)
            .with_giveup_pool(vec![7, 13])
            .generate();
        assert!(vc.devices().iter().all(|d| [7u8, 13].contains(&d.giveup_percent())));
    }

    #[test]
    fn battery_capacity_override() {
        let vc = ClusterGenerator::paper_setup(5, 1).with_battery_capacity(4.0).generate();
        for d in vc.devices() {
            assert!((d.battery().capacity_joules() - 4.0 * 3600.0).abs() < 1e-9);
        }
    }

    #[test]
    fn server_sizing_follows_streams() {
        let vc = ClusterGenerator::paper_setup(10, 1).with_server_streams(25).generate();
        assert!((vc.server().compute_capacity() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn watching_count_starts_full() {
        let vc = ClusterGenerator::paper_setup(60, 2).generate();
        // Devices whose battery already sits at/below their give-up
        // threshold may abandon immediately once played; at t = 0 all
        // still count as watching.
        assert_eq!(vc.watching_count(), 60);
    }

    #[test]
    fn resolution_mix_is_video_heavy() {
        let vc = ClusterGenerator::paper_setup(3000, 8).generate();
        let fhd = vc
            .devices()
            .iter()
            .filter(|d| d.spec().resolution == Resolution::FHD)
            .count() as f64
            / 3000.0;
        assert!((fhd - 0.38).abs() < 0.05, "FHD share {fhd}");
    }
}
