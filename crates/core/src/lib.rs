//! Closed-loop orchestration, experiments and metrics for the EUCON
//! reproduction.
//!
//! This crate wires the `eucon-sim` plant to the `eucon-control`
//! controllers and provides the experimental protocols of the paper's §7:
//!
//! * [`ClosedLoop`] — the distributed feedback loop of §4: sample the
//!   utilization monitors each period, run the controller, apply the rate
//!   modulators.  Transport is a field of the loop: single-process by
//!   default, or with the node split made real — controller node and
//!   per-processor nodes exchanging binary frames over pluggable
//!   transport lanes (`eucon-net`): ideal in-process channels
//!   (bit-identical traces) or loopback TCP.  Delay and loss exist only
//!   there: a [`LaneModel`] per direction on the [`NetConfig`].
//! * [`LoopBuilder`] — the one description of a loop (`Send + Clone`
//!   data): describe the experiment, then finish with `.local()`,
//!   `.distributed(net)` or `.fleet(n)`; service tenants build from it
//!   too.
//! * [`ControllerSpec`] — pick EUCON, OPEN, the PID ablation baseline,
//!   or the decentralized / sharded / supervised teams.
//! * [`Plant`] — the sensing/actuation surface behind every loop: the
//!   simulator ([`SimPlant`], the default), recorded-telemetry replay
//!   ([`ReplayPlant`]), or real OS worker processes (`OsPlant`, behind
//!   the `os-plant` feature); chosen per loop with the `plant(...)`
//!   builder option (see DESIGN.md §18).
//! * [`FleetRunner`] — thousands of independent loops packed onto a
//!   work-stealing thread pool, with per-loop trace digests that are
//!   bit-identical across thread counts (see DESIGN.md §14).
//! * [`ChurnPlan`] / [`AdmissionPolicy`] — runtime membership: scripted
//!   or stochastic task arrivals, departures and mode changes, gated by
//!   the §6.2 utilization-threshold admission test; each change rebuilds
//!   the controller's plant model by its construction path and migrates
//!   the warm state — and load shedding: the same admission controller
//!   suspends tasks when rate adaptation is exhausted and re-admits them
//!   on headroom (see DESIGN.md §15).
//! * [`experiments`] — Experiment I ([`SteadyRun`], constant etf sweeps →
//!   Figures 4 and 5) and Experiment II ([`VaryingRun`], the 0.5 → 0.9 →
//!   0.33 step profile → Figures 6–8).
//! * [`metrics`] — windowed mean/σ, the paper's acceptability criterion
//!   (±0.02 mean, σ < 0.05) and settling times.
//! * [`telemetry`] — the per-period observability layer: a fixed metric
//!   registry (QP solver internals, supervisor transitions, tracking
//!   error, engine counters, phase timings) exported through pluggable
//!   sinks; see [`RunResult::metrics`] for the consolidated view.
//! * [`render`] — CSV / aligned-table / ASCII-plot output for the figure
//!   regeneration binaries; [`svg`] renders the recorded series as
//!   standalone SVG figures.
//!
//! # Example
//!
//! ```
//! use eucon_core::{ControllerSpec, LoopBuilder, metrics};
//! use eucon_sim::SimConfig;
//! use eucon_tasks::workloads;
//!
//! # fn main() -> Result<(), eucon_core::CoreError> {
//! // Figure 3(a): SIMPLE at half the estimated execution times.
//! let mut cl = LoopBuilder::new(workloads::simple())
//!     .sim_config(SimConfig::constant_etf(0.5))
//!     .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::simple()))
//!     .local()?;
//! let result = cl.run(150);
//! let tail = metrics::window(&result.trace.utilization_series(0), 100, 150);
//! assert!((tail.mean - 0.828).abs() < 0.03);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod closed_loop;
mod distributed;
mod error;
pub mod experiments;
mod factory;
mod fleet;
#[cfg(feature = "os-plant")]
pub mod os_plant;
mod plant;
pub mod render;
mod replay;
pub mod service;
mod shardnet;
pub mod svg;
pub mod telemetry;
mod trace;

pub use admission::{
    AdmissionEvent, AdmissionPolicy, ChurnEvent, ChurnPlan, ChurnSummary, RejectReason,
};
pub use closed_loop::{
    ClosedLoop, FaultSummary, LoopBuilder, RunMetrics, RunResult, DEFAULT_SAMPLING_PERIOD,
};
pub use distributed::{LaneModel, NetBackend, NetConfig};
pub use error::CoreError;
pub use experiments::{SteadyRun, SweepPoint, VaryingRun};
pub use factory::ControllerSpec;
pub use fleet::{FleetReport, FleetRunner};
#[cfg(feature = "os-plant")]
pub use os_plant::{OsPlant, OsPlantConfig};
pub use plant::{Plant, PlantFactory, SimPlant, SimPlantFactory};
pub use replay::{ReplayError, ReplayPlant, ReplayTrace, REPLAY_SCHEMA_VERSION};
pub use service::{
    AdminResponse, ControlService, EvictionPolicy, ServiceClient, ServiceHandle, ServiceSummary,
    TenantEvent, TenantHealth, TenantId, TenantReport, TenantSpec,
};
pub use shardnet::{BoundaryMode, NetShardedController, ShardBoundaryNet, ShardNetStats};
pub use trace::{StepAnnotations, Trace, TraceStep};

/// The transport layer of distributed mode, re-exported: the wire
/// [`net::Frame`] format, the [`net::PollEngine`] lane engine with its
/// TCP and in-memory [`net::LaneFabric`]s, and the
/// [`net::DelayLossGate`].
pub use eucon_net as net;

/// Metrics over utilization series: mean/deviation windows, the paper's
/// acceptability criterion (±0.02 mean, σ < 0.05) and settling times.
/// For per-run use, prefer the consolidated view behind
/// [`RunResult::metrics`].
pub use eucon_telemetry::series as metrics;

/// Deprecated name of [`ClosedLoop`]: a distributed loop is a closed
/// loop whose transport field is set.
#[deprecated(since = "0.4.0", note = "use ClosedLoop")]
pub type DistributedLoop = ClosedLoop;

/// Deprecated name of [`LoopBuilder`].
#[deprecated(since = "0.4.0", note = "use LoopBuilder")]
pub type ClosedLoopBuilder = LoopBuilder;

/// Deprecated name of [`LoopBuilder`]: a fleet member is described by
/// the same builder as every other loop.
#[deprecated(since = "0.4.0", note = "use LoopBuilder")]
pub type FleetLoopSpec = LoopBuilder;
