//! # lpvs-edge — edge-computing substrate
//!
//! The LPVS scenario (paper §IV-A, Fig. 3) is a 5G mobile-edge
//! platform: base stations with co-located edge servers serve *virtual
//! clusters* (VCs) of mobile devices, prefetching video from CDN PoPs.
//! This crate models that substrate:
//!
//! * [`battery`] — device batteries with joule-level accounting;
//! * [`device`] — mobile devices: display spec, battery, whole-phone
//!   power draw, and the user's video-abandonment threshold;
//! * [`server`] — edge servers with the compute/storage budgets of the
//!   paper's constraints (6)–(7) and per-slot admission;
//! * [`cluster`] — virtual clusters and a calibrated population
//!   generator (LCD/OLED mix, resolution mix, Gaussian initial battery
//!   as in §VI-B);
//! * [`cache`] — the CDN→edge prefetch cache deciding how many chunks
//!   `K_m` of each video are available at a scheduling point;
//! * [`fleet`] — the provider-scale [`FleetScheduler`]: a columnar
//!   device fleet partitioned across N edge shards, each running the
//!   full resilient pipeline, with a bounded cross-shard
//!   anxiety-rebalancing pass;
//! * [`shard`] — the one shard body and executor that the fleet
//!   scheduler and the slot runtime both run their shards through.
//!
//! # Example
//!
//! ```
//! use lpvs_edge::cluster::{ClusterGenerator, VirtualCluster};
//!
//! let vc: VirtualCluster = ClusterGenerator::paper_setup(80, 11).generate();
//! assert_eq!(vc.devices().len(), 80);
//! // The Nokia AirFrame budget admits all 80 devices' 720p transforms.
//! assert!(vc.server().compute_capacity() >= 80.0);
//! ```

#![warn(missing_docs)]

pub mod battery;
pub mod cache;
pub mod cluster;
pub mod device;
pub mod fleet;
pub mod server;
pub mod shard;

pub use battery::Battery;
pub use cache::{PrefetchCache, PrefetchPolicy};
pub use cluster::{ClusterGenerator, VirtualCluster};
pub use device::{Device, DeviceId};
pub use fleet::{FleetConfig, FleetSchedule, FleetScheduler, Partitioner, ShardLoad, ShardReport};
pub use server::EdgeServer;
