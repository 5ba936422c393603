//! Mobile devices: what a VC member reports to the scheduler.

use crate::battery::Battery;
use lpvs_display::component::{ComponentBudget, PhoneComponent};
use lpvs_display::spec::DisplaySpec;
use lpvs_display::stats::FrameStats;
use serde::{Deserialize, Serialize};

/// Identifier of a device within its virtual cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DeviceId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A mobile device watching video in a virtual cluster.
///
/// At each scheduling point the device reports its display spec and
/// energy status (paper §VI-B "information gathering"); during playback
/// it drains its battery at the display rate plus the non-display floor
/// of the Fig. 1 component budget.
///
/// # Example
///
/// ```
/// use lpvs_edge::device::{Device, DeviceId};
/// use lpvs_edge::battery::Battery;
/// use lpvs_display::spec::{DisplaySpec, Resolution};
/// use lpvs_display::stats::FrameStats;
///
/// let mut d = Device::new(
///     DeviceId(0),
///     DisplaySpec::oled_phone(Resolution::HD),
///     Battery::phone_at(0.3),
///     15,
/// );
/// let frame = FrameStats::uniform_gray(0.5);
/// d.play(&frame, 300.0, 1.0); // five untransformed minutes
/// assert!(d.battery().fraction() < 0.3);
/// assert!(!d.has_given_up());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    id: DeviceId,
    spec: DisplaySpec,
    battery: Battery,
    /// Battery percent at which this user abandons the video (from the
    /// survey's give-up question).
    giveup_percent: u8,
    /// Non-display power draw in watts (CPU, radio, …).
    non_display_w: f64,
    /// Accumulated watch time in seconds.
    watched_secs: f64,
    /// Set once the user abandons (battery at/below the threshold).
    given_up: bool,
    /// Whether the device is currently reachable. Disconnected devices
    /// neither report telemetry nor play; reconnecting restores them
    /// (their battery state is unchanged while away).
    connected: bool,
}

impl Device {
    /// Creates a device. The non-display draw is taken from the Fig. 1
    /// component budget for the display kind.
    pub fn new(id: DeviceId, spec: DisplaySpec, battery: Battery, giveup_percent: u8) -> Self {
        let budget = ComponentBudget::video_playback(spec.kind);
        let non_display_mw: f64 =
            budget.total_mw() - budget.milliwatts(PhoneComponent::Display);
        Self {
            id,
            spec,
            battery,
            giveup_percent,
            non_display_w: non_display_mw / 1000.0,
            watched_secs: 0.0,
            given_up: false,
            connected: true,
        }
    }

    /// Device identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Display specification.
    pub fn spec(&self) -> &DisplaySpec {
        &self.spec
    }

    /// Battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Give-up threshold in battery percent.
    pub fn giveup_percent(&self) -> u8 {
        self.giveup_percent
    }

    /// Non-display power draw (W).
    pub fn non_display_watts(&self) -> f64 {
        self.non_display_w
    }

    /// Total accumulated watch time in seconds.
    pub fn watched_secs(&self) -> f64 {
        self.watched_secs
    }

    /// Whether the user has abandoned watching.
    pub fn has_given_up(&self) -> bool {
        self.given_up
    }

    /// Whether the device is currently reachable.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Drops the device off the network (mid-session disconnect fault).
    /// Idempotent; playback and telemetry stop until reconnected.
    pub fn disconnect(&mut self) {
        self.connected = false;
    }

    /// Restores connectivity after a disconnect. Idempotent.
    pub fn reconnect(&mut self) {
        self.connected = true;
    }

    /// Whether the device can keep watching: connected, battery above
    /// the give-up threshold, and not already abandoned.
    pub fn is_watching(&self) -> bool {
        self.connected && !self.given_up && !self.battery.is_empty()
    }

    /// Whole-device power rate (W) when showing `frame` with the
    /// display power scaled by `display_scale` (1.0 = untransformed;
    /// `1 − γ` when transformed).
    pub fn power_rate_watts(&self, frame: &FrameStats, display_scale: f64) -> f64 {
        self.power_rate_at(self.spec.power_watts(frame), display_scale)
    }

    /// [`power_rate_watts`](Self::power_rate_watts) for content whose
    /// untransformed display power `display_watts` is already known.
    pub fn power_rate_at(&self, display_watts: f64, display_scale: f64) -> f64 {
        display_watts * display_scale + self.non_display_w
    }

    /// Plays `seconds` of content with the given display scale,
    /// draining the battery and advancing watch time. Marks the user
    /// as given-up once the battery falls to their threshold. Returns
    /// the seconds actually watched (shorter if the threshold or empty
    /// battery is hit mid-play).
    pub fn play(&mut self, frame: &FrameStats, seconds: f64, display_scale: f64) -> f64 {
        self.play_with(frame, seconds, display_scale, true)
    }

    /// Like [`Device::play`], but optionally charging only the display
    /// (`include_floor = false`) — the paper's implicit energy model,
    /// where the power rate `p` *is* the display rate and γ applies to
    /// all of it. Kept for paper-faithful comparisons.
    pub fn play_with(
        &mut self,
        frame: &FrameStats,
        seconds: f64,
        display_scale: f64,
        include_floor: bool,
    ) -> f64 {
        let display_watts = self.spec.power_watts(frame);
        self.play_at(display_watts, seconds, display_scale, include_floor)
    }

    /// [`play_with`](Self::play_with) for content whose untransformed
    /// display power `display_watts` is already known — the one drain
    /// implementation.
    pub fn play_at(
        &mut self,
        display_watts: f64,
        seconds: f64,
        display_scale: f64,
        include_floor: bool,
    ) -> f64 {
        if !self.is_watching() || seconds <= 0.0 {
            return 0.0;
        }
        let watts = if include_floor {
            self.power_rate_at(display_watts, display_scale)
        } else {
            display_watts * display_scale
        };
        // Seconds until the give-up threshold is crossed.
        let threshold_j =
            self.battery.capacity_joules() * f64::from(self.giveup_percent) / 100.0;
        let headroom_j = (self.battery.remaining_joules() - threshold_j).max(0.0);
        let playable = (headroom_j / watts).min(seconds);
        self.battery.drain_joules(watts * playable);
        self.watched_secs += playable;
        if playable < seconds {
            self.given_up = true;
        }
        playable
    }

    /// Energy status snapshot in joules (the `e_{n,m}(1)` report).
    pub fn energy_status_joules(&self) -> f64 {
        self.battery.remaining_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpvs_display::spec::Resolution;

    fn device(fraction: f64, giveup: u8) -> Device {
        Device::new(
            DeviceId(1),
            DisplaySpec::oled_phone(Resolution::HD),
            Battery::phone_at(fraction),
            giveup,
        )
    }

    #[test]
    fn non_display_floor_is_realistic() {
        let d = device(1.0, 10);
        // Fig. 1 non-display components: ≈ 0.56 W.
        assert!((0.4..0.8).contains(&d.non_display_watts()));
    }

    #[test]
    fn transformed_playback_drains_less() {
        let frame = FrameStats::uniform_gray(0.6);
        let mut plain = device(0.5, 1);
        let mut saved = device(0.5, 1);
        plain.play(&frame, 600.0, 1.0);
        saved.play(&frame, 600.0, 0.65); // γ = 0.35
        assert!(saved.battery().remaining_joules() > plain.battery().remaining_joules());
    }

    #[test]
    fn gives_up_exactly_at_threshold() {
        let frame = FrameStats::uniform_gray(0.6);
        let mut d = device(0.21, 20);
        // Play far longer than the 1 % headroom allows.
        let watched = d.play(&frame, 100_000.0, 1.0);
        assert!(d.has_given_up());
        assert!(!d.is_watching());
        assert!((d.battery().fraction() - 0.20).abs() < 1e-9);
        assert!(watched > 0.0 && watched < 100_000.0);
        // Further play is refused.
        assert_eq!(d.play(&frame, 100.0, 1.0), 0.0);
    }

    #[test]
    fn watch_time_accumulates_across_slots() {
        let frame = FrameStats::uniform_gray(0.4);
        let mut d = device(0.9, 5);
        d.play(&frame, 300.0, 1.0);
        d.play(&frame, 300.0, 1.0);
        assert!((d.watched_secs() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn display_only_drain_is_slower() {
        let frame = FrameStats::uniform_gray(0.6);
        let mut full = device(0.5, 1);
        let mut display_only = device(0.5, 1);
        full.play_with(&frame, 600.0, 1.0, true);
        display_only.play_with(&frame, 600.0, 1.0, false);
        assert!(
            display_only.battery().remaining_joules() > full.battery().remaining_joules()
        );
    }

    #[test]
    fn zero_threshold_watches_to_empty() {
        let frame = FrameStats::uniform_gray(0.8);
        let mut d = device(0.02, 0);
        let watched = d.play(&frame, 1e9, 1.0);
        assert!(watched > 0.0);
        assert!(d.battery().is_empty());
    }

    #[test]
    fn disconnect_pauses_playback_and_reconnect_resumes() {
        let frame = FrameStats::uniform_gray(0.6);
        let mut d = device(0.8, 5);
        assert!(d.is_connected());
        d.disconnect();
        assert!(!d.is_connected());
        assert!(!d.is_watching());
        // Offline play drains nothing and advances no watch time.
        assert_eq!(d.play(&frame, 300.0, 1.0), 0.0);
        assert!((d.battery().fraction() - 0.8).abs() < 1e-12);
        d.reconnect();
        assert!(d.is_watching());
        assert!(d.play(&frame, 300.0, 1.0) > 0.0);
    }

    #[test]
    fn power_rate_includes_both_parts() {
        let d = device(1.0, 10);
        let frame = FrameStats::uniform_gray(0.6);
        let display = d.spec().power_watts(&frame);
        assert!(
            (d.power_rate_watts(&frame, 1.0) - display - d.non_display_watts()).abs() < 1e-12
        );
        // Scaling only touches the display share.
        let scaled = d.power_rate_watts(&frame, 0.5);
        assert!((scaled - 0.5 * display - d.non_display_watts()).abs() < 1e-12);
    }
}
