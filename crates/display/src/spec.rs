//! Display specifications: panel kind, resolution, physical size, and
//! the user's brightness setting.
//!
//! A [`DisplaySpec`] is what a device reports to the LPVS scheduler at
//! each scheduling point (paper §VI-B "information gathering"): the
//! transform family and the power model are both chosen from it.

use crate::lcd::LcdPowerModel;
use crate::oled::OledPowerModel;
use crate::stats::{CompactStats, FrameStats};
use serde::{Deserialize, Serialize};

/// Panel technology of a display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DisplayKind {
    /// Liquid-crystal display: a backlight illuminates the panel, so
    /// power tracks brightness, not content color.
    Lcd,
    /// Organic LED: every subpixel emits its own light, so power tracks
    /// the displayed colors (blue ≈ 2× green, red in between).
    Oled,
}

impl std::fmt::Display for DisplayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DisplayKind::Lcd => "LCD",
            DisplayKind::Oled => "OLED",
        })
    }
}

/// Display resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Resolution {
    /// Horizontal pixel count.
    pub width: u32,
    /// Vertical pixel count.
    pub height: u32,
}

impl Resolution {
    /// 854 × 480 ("480p").
    pub const SD: Resolution = Resolution { width: 854, height: 480 };
    /// 1280 × 720 ("720p").
    pub const HD: Resolution = Resolution { width: 1280, height: 720 };
    /// 1920 × 1080 ("1080p").
    pub const FHD: Resolution = Resolution { width: 1920, height: 1080 };
    /// 2560 × 1440 ("1440p").
    pub const QHD: Resolution = Resolution { width: 2560, height: 1440 };
    /// 3840 × 2160 ("4K").
    pub const UHD: Resolution = Resolution { width: 3840, height: 2160 };

    /// The resolution ladder a live-streaming service typically offers,
    /// ascending.
    pub const LADDER: [Resolution; 5] = [
        Resolution::SD,
        Resolution::HD,
        Resolution::FHD,
        Resolution::QHD,
        Resolution::UHD,
    ];

    /// Total pixel count.
    pub fn pixels(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Human-readable short name (`"720p"`, `"4K"`, or `WxH` for
    /// non-standard sizes).
    pub fn short_name(&self) -> String {
        match *self {
            Resolution::SD => "480p".to_owned(),
            Resolution::HD => "720p".to_owned(),
            Resolution::FHD => "1080p".to_owned(),
            Resolution::QHD => "1440p".to_owned(),
            Resolution::UHD => "4K".to_owned(),
            Resolution { width, height } => format!("{width}x{height}"),
        }
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Full description of one device's display, as reported to the
/// scheduler.
///
/// # Example
///
/// ```
/// use lpvs_display::spec::{DisplayKind, DisplaySpec, Resolution};
///
/// let spec = DisplaySpec::lcd_phone(Resolution::HD);
/// assert_eq!(spec.kind, DisplayKind::Lcd);
/// assert!(spec.area_cm2() > 80.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisplaySpec {
    /// Panel technology.
    pub kind: DisplayKind,
    /// Pixel resolution.
    pub resolution: Resolution,
    /// Physical diagonal in inches.
    pub diagonal_inches: f64,
    /// User brightness setting in `[0, 1]`; video is typically watched
    /// near 0.6–0.8.
    pub brightness: f64,
}

impl DisplaySpec {
    /// A typical LCD phone: 6.1-inch panel at 70 % brightness.
    pub fn lcd_phone(resolution: Resolution) -> Self {
        Self { kind: DisplayKind::Lcd, resolution, diagonal_inches: 6.1, brightness: 0.7 }
    }

    /// A typical OLED phone: 6.4-inch panel at 70 % brightness.
    pub fn oled_phone(resolution: Resolution) -> Self {
        Self { kind: DisplayKind::Oled, resolution, diagonal_inches: 6.4, brightness: 0.7 }
    }

    /// Returns a copy with the given brightness setting.
    ///
    /// # Panics
    ///
    /// Panics if `brightness` is outside `[0, 1]`.
    pub fn with_brightness(mut self, brightness: f64) -> Self {
        assert!((0.0..=1.0).contains(&brightness), "brightness must be in [0, 1]");
        self.brightness = brightness;
        self
    }

    /// Physical panel area in cm², assuming the aspect ratio implied by
    /// the resolution.
    pub fn area_cm2(&self) -> f64 {
        let w = f64::from(self.resolution.width);
        let h = f64::from(self.resolution.height);
        let aspect = w / h;
        // diagonal² = width² + height², width = aspect · height.
        let diag_cm = self.diagonal_inches * 2.54;
        let height_cm = diag_cm / (1.0 + aspect * aspect).sqrt();
        let width_cm = aspect * height_cm;
        width_cm * height_cm
    }

    /// Display power in watts when showing a frame with the given
    /// content statistics, dispatching to the panel's model.
    pub fn power_watts(&self, frame: &FrameStats) -> f64 {
        match self.kind {
            DisplayKind::Lcd => LcdPowerModel::for_spec(self).power_watts(frame),
            DisplayKind::Oled => OledPowerModel::for_spec(self).power_watts(frame),
        }
    }

    /// [`power_watts`](Self::power_watts) of each chunk's
    /// [`expand`](CompactStats::expand)ed statistics, in order, bit for
    /// bit, with the panel's model built once and no histogram built:
    /// the LCD model reads the kernel's mean luma from its table, the
    /// OLED model the chunk's linear means.
    pub fn compact_power_watts_each<'a>(
        &self,
        chunks: &'a [CompactStats],
    ) -> impl Iterator<Item = f64> + 'a {
        let (kind, lcd, oled) =
            (self.kind, LcdPowerModel::for_spec(self), OledPowerModel::for_spec(self));
        chunks.iter().map(move |chunk| match kind {
            DisplayKind::Lcd => lcd.power_at_mean_luma(chunk.mean_luma()),
            DisplayKind::Oled => oled.power_at_linear_mean(chunk.linear_mean()),
        })
    }
}

impl Default for DisplaySpec {
    fn default() -> Self {
        Self::oled_phone(Resolution::FHD)
    }
}

impl std::fmt::Display for DisplaySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {:.1}\" {} @ {:.0}%",
            self.kind,
            self.diagonal_inches,
            self.resolution,
            self.brightness * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ascending() {
        for pair in Resolution::LADDER.windows(2) {
            assert!(pair[0].pixels() < pair[1].pixels());
        }
    }

    #[test]
    fn pixel_counts() {
        assert_eq!(Resolution::FHD.pixels(), 2_073_600);
        assert_eq!(Resolution::UHD.pixels(), 4 * Resolution::FHD.pixels());
    }

    #[test]
    fn short_names() {
        assert_eq!(Resolution::HD.short_name(), "720p");
        assert_eq!(Resolution { width: 640, height: 360 }.short_name(), "640x360");
    }

    #[test]
    fn area_matches_hand_calculation() {
        // 16:9 6.1" panel: height = d/√(1+(16/9)²) ≈ 7.59 cm,
        // width ≈ 13.50 cm, area ≈ 102.5 cm².
        let spec = DisplaySpec::lcd_phone(Resolution::FHD);
        let area = spec.area_cm2();
        assert!((area - 102.5).abs() < 1.0, "area {area}");
    }

    #[test]
    fn brighter_setting_uses_more_lcd_power() {
        let frame = FrameStats::uniform_gray(0.5);
        let dim = DisplaySpec::lcd_phone(Resolution::FHD).with_brightness(0.3);
        let bright = DisplaySpec::lcd_phone(Resolution::FHD).with_brightness(0.9);
        assert!(bright.power_watts(&frame) > dim.power_watts(&frame));
    }

    #[test]
    fn brighter_content_uses_more_oled_power() {
        let spec = DisplaySpec::oled_phone(Resolution::FHD);
        let dark = FrameStats::uniform_gray(0.2);
        let bright = FrameStats::uniform_gray(0.9);
        assert!(spec.power_watts(&bright) > spec.power_watts(&dark));
    }

    #[test]
    #[should_panic(expected = "brightness")]
    fn out_of_range_brightness_rejected() {
        let _ = DisplaySpec::default().with_brightness(1.5);
    }

    #[test]
    fn display_formatting() {
        let s = DisplaySpec::oled_phone(Resolution::FHD).to_string();
        assert!(s.contains("OLED"));
        assert!(s.contains("1080p"));
    }
}
