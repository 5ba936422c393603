//! # lpvs-media — video, content, and encoding substrate
//!
//! LPVS schedules *video chunks*: a complete video is split into short
//! chunks whose content statistics drive per-chunk power rates
//! (paper §IV-A, eq. 1, and Fig. 4). This crate provides everything
//! between the trace and the display models:
//!
//! * [`chunk`] / [`video`] — the chunk/video data model (`VID`,
//!   `CID` identifiers, durations Δ_κ, per-chunk [`FrameStats`]);
//! * [`content`] — a genre-conditioned Markov scene model synthesizing
//!   realistic per-chunk statistics (gaming is dark and saturated,
//!   sports bright, talk shows mid-key, …);
//! * [`ladder`] — the live-streaming bitrate/resolution ladder;
//! * [`cost`] — the transforming resource-cost functions `g(·)` and
//!   `h(·)` of paper §IV-D, calibrated to the Wowza transcoding
//!   benchmarks the paper cites (≈ 100 concurrent 720p streams per
//!   edge server);
//! * [`encoder`] — the server-side transform encoder: applies the
//!   display-appropriate transform to each chunk and reports the
//!   realized power-reduction ratio (the observation Δ_n the Bayesian
//!   estimator consumes).
//!
//! [`FrameStats`]: lpvs_display::stats::FrameStats
//!
//! # Example
//!
//! ```
//! use lpvs_media::content::{ContentModel, Genre};
//! use lpvs_media::encoder::TransformEncoder;
//! use lpvs_display::quality::QualityBudget;
//! use lpvs_display::spec::{DisplaySpec, Resolution};
//!
//! // Synthesize five minutes of gaming content in 10-second chunks…
//! let video = ContentModel::new(Genre::Gaming, 99)
//!     .video(1, Resolution::HD, 300.0, 10.0);
//! assert_eq!(video.chunks().len(), 30);
//!
//! // …and transform it for an OLED phone.
//! let spec = DisplaySpec::oled_phone(Resolution::HD);
//! let encoder = TransformEncoder::new(QualityBudget::default());
//! let encoded = encoder.encode(&video, &spec);
//! assert!(encoded.mean_reduction_ratio() > 0.05);
//! ```

#![warn(missing_docs)]

pub mod chunk;
pub mod content;
pub mod cost;
pub mod encoder;
pub mod ladder;
pub mod video;

pub use chunk::{Chunk, ChunkId};
pub use content::{ContentModel, Genre};
pub use cost::{storage_gb, transform_compute_units, EdgeBudgetCalibration};
pub use encoder::{EncodedChunk, EncodedVideo, KernelEncoder, SpecEncoder, TransformEncoder};
pub use ladder::BitrateLadder;
pub use video::{Video, VideoId};
