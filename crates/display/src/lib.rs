//! # lpvs-display — display power models and energy-saving transforms
//!
//! Display power is the lever LPVS pulls: during video playback the
//! screen is the dominant consumer on both LCD and OLED phones
//! (paper Fig. 1), and per-pixel content transforms can cut its draw by
//! 13–49 % on average (paper Table I). This crate provides:
//!
//! * [`spec`] — display specifications: panel kind, resolution,
//!   physical size, brightness setting;
//! * [`stats`] — compact per-frame content statistics (luminance
//!   histogram + RGB channel moments) that every power model and
//!   transform in this workspace consumes, so no actual pixel buffers
//!   ever need to exist — and, for synthetic content, the 32-byte
//!   `CompactStats` (luma bin + linear means) the emulator prices;
//! * [`lcd`] — a DLS-style backlight-dominated LCD power model
//!   (Chang et al., the paper's ref. \[20\]);
//! * [`oled`] — a per-channel OLED power model where blue subpixels
//!   cost about twice green and red sits between (Crayon,
//!   the paper's ref. \[17\]);
//! * [`component`] — the whole-phone component power budget behind
//!   Fig. 1;
//! * [`transform`] — the energy-saving content transforms: backlight
//!   scaling with luminance compensation (LCD), hue-preserving color
//!   darkening (OLED), and subpixel shutoff (OLED);
//! * [`strategy`] — the Table I strategy registry binding published
//!   saving ranges to the transform implementations;
//! * [`quality`] — distortion metrics and budgets shared by the
//!   transforms.
//!
//! # Example
//!
//! ```
//! use lpvs_display::spec::{DisplaySpec, Resolution};
//! use lpvs_display::stats::FrameStats;
//! use lpvs_display::transform::{ColorTransform, Transform};
//! use lpvs_display::quality::QualityBudget;
//!
//! let spec = DisplaySpec::oled_phone(Resolution::FHD);
//! let frame = FrameStats::uniform_gray(0.6);
//! let before = spec.power_watts(&frame);
//!
//! let transform = ColorTransform::new(QualityBudget::default());
//! let out = transform.apply(&frame, &spec);
//! let after = spec.power_watts(&out.stats);
//! assert!(after < before);
//! ```

#![warn(missing_docs)]

pub mod component;
pub mod lcd;
pub mod oled;
pub mod quality;
pub mod spec;
pub mod stats;
pub mod strategy;
pub mod transform;

pub use component::{ComponentBudget, PhoneComponent};
pub use lcd::LcdPowerModel;
pub use oled::OledPowerModel;
pub use quality::{Distortion, QualityBudget};
pub use spec::{DisplayKind, DisplaySpec, Resolution};
pub use stats::FrameStats;
pub use strategy::{Strategy, StrategyFamily, TABLE_I};
pub use transform::{
    BacklightScaling, ColorTransform, SubpixelShutoff, Transform, TransformOutcome,
};
