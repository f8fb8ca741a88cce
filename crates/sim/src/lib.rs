//! Cycle-level Cache Automaton fabric simulator with calibrated timing,
//! energy, power, area and reachability models.
//!
//! This crate is the hardware half of the reproduction: it models the
//! Xeon-E5 LLC slice geometry of the paper (Figure 2), the 8T cross-point
//! switches (Table 2), the three-stage symbol pipeline with sense-amp
//! cycling (Tables 3–4), the activity-driven energy model (Figure 9) and
//! the area/reachability design space (Figure 10), plus a functional
//! simulator ([`Fabric`]) that executes compiled [`Bitstream`]s exactly as
//! the hardware would.
//!
//! Bitstreams are produced by the `ca-compiler` crate; the match streams
//! the fabric produces are bit-for-bit identical to the `ca-automata` CPU
//! engines (enforced by cross-crate differential tests).
//!
//! # Example: timing a design point
//!
//! ```
//! use ca_sim::{design_timing, DesignKind};
//!
//! let t = design_timing(DesignKind::Performance);
//! assert_eq!(t.operating_freq_ghz(), 2.0);       // the paper's CA_P
//! assert_eq!(t.throughput_gbps(), 16.0);         // 1 symbol/cycle
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod artifact;
pub mod bitstream;
pub mod energy;
pub mod fabric;
pub mod floorplan;
pub mod geometry;
mod local_switch;
pub mod mask;
pub mod pages;
pub mod switch_model;
pub mod system;
pub mod timing;

pub use area::{area_for_stes, design_space, reachability, AreaReport, DesignPoint};
pub use artifact::{fnv1a_64, ArtifactError, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use bitstream::{Bitstream, BitstreamError, PartitionImage, Route, RouteVia};
pub use energy::{
    energy_report, ideal_ap_per_symbol_nj, peak_power_w, EnergyBreakdown, EnergyParams,
    EnergyReport,
};
pub use fabric::{ExecReport, ExecStats, Fabric, OutputEntry, RunError, RunOptions, Snapshot};
pub use floorplan::{Floorplan, Point};
pub use geometry::{
    CacheGeometry, DesignKind, PartitionLocation, PARTITION_BYTES, STES_PER_PARTITION,
};
pub use mask::Mask256;
pub use pages::{emit_pages, load_pages, ConfigImage, ConfigPage, PageError, PageKind};
pub use switch_model::SwitchSpec;
pub use system::{scheduler_hint_w, sharing_report, SharingReport, SystemConfig};
pub use timing::{design_timing, pipeline_timing, PipelineTiming, TimingParams, WireLayer};
