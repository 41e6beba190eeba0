//! # EUCON — End-to-End Utilization Control in Distributed Real-Time Systems
//!
//! A full Rust reproduction of *Lu, Wang & Koutsoukos, "End-to-End
//! Utilization Control in Distributed Real-Time Systems", ICDCS 2004*:
//! the EUCON model-predictive utilization controller, the end-to-end task
//! model, an event-driven distributed real-time system simulator, the
//! linear-algebra and constrained least-squares substrates the controller
//! needs, and the complete evaluation harness of the paper's §7.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`math`] — dense matrices, decompositions, eigenvalues.
//! * [`qp`] — `lsqlin`-style constrained least squares (dual active set).
//! * [`tasks`] — end-to-end tasks, allocation matrix `F`, RMS bounds,
//!   the paper's SIMPLE/MEDIUM workloads and a random generator.
//! * [`sim`] — event-driven simulator: RMS scheduling, release guard,
//!   utilization monitors, rate modulators, execution-time factors.
//! * [`control`] — the EUCON MPC, OPEN and PID baselines, stability
//!   analysis.
//! * [`core`] — the closed feedback loop, experiment protocols, metrics,
//!   the multi-tenant [`ControlService`] daemon, and the telemetry
//!   surface (fixed metric registry, span timers, pluggable sinks).
//! * [`net`] — the feedback-lane transport runtime: versioned binary
//!   frames, the one many-lane poll engine over loopback-TCP or
//!   in-memory links (torn lanes re-dial), the delay/loss gate.
//!
//! [`ControlService`]: prelude::ControlService
//!
//! # Quickstart
//!
//! One builder, three execution modes — pick with the finisher:
//!
//! ```
//! use eucon::prelude::*;
//!
//! # fn main() -> Result<(), eucon::Error> {
//! // Close the loop on the paper's SIMPLE workload with actual execution
//! // times at half their estimates; EUCON still settles on the RMS bound.
//! let mut cl = LoopBuilder::new(workloads::simple())
//!     .sim_config(SimConfig::constant_etf(0.5))
//!     .controller(ControllerSpec::Eucon(MpcConfig::simple()))
//!     .local()?;
//! let result = cl.run(150);
//! let tail = metrics::window(&result.trace.utilization_series(0), 100, 150);
//! assert!((tail.mean - 0.828).abs() < 0.03);
//! # Ok(())
//! # }
//! ```
//!
//! The same experiment runs distributed over real transport lanes with
//! `.distributed(NetConfig::tcp())`, or as `n` replicas on the
//! work-stealing fleet runner with `.fleet(n)` — and a long-running
//! multi-tenant daemon is one [`ControlService::spawn`] away (see the
//! README's "Running as a service").
//!
//! # Migrating from v0.3
//!
//! There is one builder and one loop type (see the README's migration
//! table for every row):
//!
//! * `ClosedLoop::builder(set).build()` → `LoopBuilder::new(set).local()`.
//! * `DistributedLoop::builder(set).tcp(cfg).build()` →
//!   `LoopBuilder::new(set).distributed(NetConfig::tcp())`, which returns
//!   a [`ClosedLoop`](prelude::ClosedLoop) — write `ClosedLoop` wherever
//!   `DistributedLoop` stood in type position.
//! * `DecentralizedController::new(set, b, cfg)` →
//!   [`ShardedController::with_shard_size(set, b, cfg, 1)`](prelude::ShardedController::with_shard_size).
//! * `eucon::qp::QuadProg::new(h, f).ineq(g, hvec).solve()` →
//!   [`PreparedQp::new(h, g)?.solve(&f, &hvec, &[])`](qp::PreparedQp::solve),
//!   and `ConstrainedLsq::new(c, d)` with its builder knobs →
//!   [`PreparedLsq::new(c, g, eps)?.solve_with(&d, &h, &[])`](qp::PreparedLsq::solve_with),
//!   box bounds written as rows of `g`.
//! * Classify failures with [`Error::kind`] (the stable [`ErrorKind`]
//!   taxonomy); the full layer-specific errors remain reachable through
//!   `source()`.
//!
//! [`ControlService::spawn`]: prelude::ControlService::spawn

#![forbid(unsafe_code)]

use std::fmt;

pub use eucon_control as control;
pub use eucon_core as core;
pub use eucon_math as math;
pub use eucon_net as net;
pub use eucon_qp as qp;
pub use eucon_sim as sim;
pub use eucon_tasks as tasks;

/// Top-level error of the facade: everything the builders, loops,
/// services and transports can fail with, behind one opaque type so
/// application code needs a single `?` conversion.
///
/// Classify with [`Error::kind`] — a small, stable taxonomy — instead
/// of matching on layer-specific error enums; the underlying error
/// remains reachable through [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Core(core::CoreError),
    Control(control::ControlError),
    Transport(net::TransportError),
    Sim(sim::SimError),
    Task(tasks::TaskError),
}

/// Stable classification of an [`Error`], independent of which layer
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A builder or service input failed validation.
    Config,
    /// Controller construction or update failed.
    Controller,
    /// The workload definition was invalid.
    Workload,
    /// A feedback-lane transport or admin connection failed.
    Transport,
    /// Simulator-side configuration (fault plans, probabilities) was
    /// rejected.
    Simulation,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorKind::Config => "config",
            ErrorKind::Controller => "controller",
            ErrorKind::Workload => "workload",
            ErrorKind::Transport => "transport",
            ErrorKind::Simulation => "simulation",
        })
    }
}

impl Error {
    /// Which part of the stack rejected the operation.
    pub fn kind(&self) -> ErrorKind {
        match &self.repr {
            Repr::Core(core::CoreError::Control(_)) => ErrorKind::Controller,
            Repr::Core(core::CoreError::Task(_)) => ErrorKind::Workload,
            Repr::Core(core::CoreError::Transport(_)) => ErrorKind::Transport,
            Repr::Core(core::CoreError::Sim(_)) => ErrorKind::Simulation,
            // A replay recording stands in for the workload, so its
            // decode failures classify as workload errors.
            Repr::Core(core::CoreError::Replay(_)) => ErrorKind::Workload,
            Repr::Core(_) => ErrorKind::Config,
            Repr::Control(_) => ErrorKind::Controller,
            Repr::Transport(_) => ErrorKind::Transport,
            Repr::Sim(_) => ErrorKind::Simulation,
            Repr::Task(_) => ErrorKind::Workload,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Core(e) => write!(f, "{e}"),
            Repr::Control(e) => write!(f, "controller failure: {e}"),
            Repr::Transport(e) => write!(f, "transport failure: {e}"),
            Repr::Sim(e) => write!(f, "simulator rejected the configuration: {e}"),
            Repr::Task(e) => write!(f, "invalid workload: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.repr {
            Repr::Core(e) => Some(e),
            Repr::Control(e) => Some(e),
            Repr::Transport(e) => Some(e),
            Repr::Sim(e) => Some(e),
            Repr::Task(e) => Some(e),
        }
    }
}

impl From<core::CoreError> for Error {
    fn from(e: core::CoreError) -> Self {
        Error {
            repr: Repr::Core(e),
        }
    }
}

impl From<control::ControlError> for Error {
    fn from(e: control::ControlError) -> Self {
        Error {
            repr: Repr::Control(e),
        }
    }
}

impl From<net::TransportError> for Error {
    fn from(e: net::TransportError) -> Self {
        Error {
            repr: Repr::Transport(e),
        }
    }
}

impl From<net::FrameError> for Error {
    fn from(e: net::FrameError) -> Self {
        Error {
            repr: Repr::Transport(net::TransportError::Frame(e)),
        }
    }
}

impl From<sim::SimError> for Error {
    fn from(e: sim::SimError) -> Self {
        Error { repr: Repr::Sim(e) }
    }
}

impl From<tasks::TaskError> for Error {
    fn from(e: tasks::TaskError) -> Self {
        Error {
            repr: Repr::Task(e),
        }
    }
}

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use crate::{Error, ErrorKind};
    pub use eucon_control::{
        ControlMode, ControlPenalty, IndependentPid, MpcConfig, MpcController, OpenLoop,
        RateController, ShardedController, Supervised, SupervisorConfig, SupervisorReport,
    };
    pub use eucon_core::{
        metrics, render, telemetry, AdminResponse, ClosedLoop, ControlService, ControllerSpec,
        EvictionPolicy, FaultSummary, FleetReport, FleetRunner, LaneModel, LoopBuilder, NetBackend,
        NetConfig, Plant, PlantFactory, ReplayError, ReplayPlant, ReplayTrace, RunMetrics,
        RunResult, ServiceClient, ServiceHandle, ServiceSummary, SimPlant, SimPlantFactory,
        SteadyRun, TenantEvent, TenantHealth, TenantId, TenantReport, TenantSpec, VaryingRun,
    };
    #[cfg(feature = "os-plant")]
    pub use eucon_core::{OsPlant, OsPlantConfig};
    pub use eucon_math::{Matrix, Vector};
    pub use eucon_net::{TcpConfig, TransportStats};
    pub use eucon_sim::{
        EtfProfile, ExecModel, FaultPlan, RandomCrashes, SensorFaultKind, SimConfig, Simulator,
    };
    pub use eucon_tasks::{
        liu_layland_bound, rms_set_points, workloads, ProcessorId, Task, TaskId, TaskSet,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classifies_every_layer() {
        let e: Error = core::CoreError::Config("bad".into()).into();
        assert_eq!(e.kind(), ErrorKind::Config);
        assert!(std::error::Error::source(&e).is_some());

        let e: Error = core::CoreError::Transport(net::TransportError::Disconnected).into();
        assert_eq!(e.kind(), ErrorKind::Transport);

        let e: Error = net::TransportError::Disconnected.into();
        assert_eq!(e.kind(), ErrorKind::Transport);
        assert!(e.to_string().contains("transport failure"));

        let e: Error = control::ControlError::DimensionMismatch("x".into()).into();
        assert_eq!(e.kind(), ErrorKind::Controller);
        assert!(e.to_string().contains("controller failure"));

        let e: Error = tasks::TaskError::EmptyTaskSet.into();
        assert_eq!(e.kind(), ErrorKind::Workload);

        let e: Error = sim::SimError::InvalidProbability {
            what: "loss",
            value: 2.0,
        }
        .into();
        assert_eq!(e.kind(), ErrorKind::Simulation);

        // A replay recording stands in for the workload.
        let replay = core::ReplayTrace::parse("not json").unwrap_err();
        let e: Error = core::CoreError::from(replay).into();
        assert_eq!(e.kind(), ErrorKind::Workload);
        assert!(e.to_string().contains("invalid replay recording"), "{e}");
    }

    #[test]
    fn source_reaches_the_layer_error() {
        let e: Error =
            core::CoreError::Control(control::ControlError::DimensionMismatch("h".into())).into();
        assert_eq!(e.kind(), ErrorKind::Controller);
        let src = std::error::Error::source(&e).unwrap();
        assert!(src.downcast_ref::<core::CoreError>().is_some());
        // The chain continues one level deeper to the control layer.
        assert!(src
            .source()
            .unwrap()
            .downcast_ref::<control::ControlError>()
            .is_some());
    }

    #[test]
    fn question_mark_converts_from_the_builders() {
        fn build() -> Result<(), Error> {
            use crate::prelude::*;
            let _ = LoopBuilder::new(workloads::simple()).local()?;
            let _ = LoopBuilder::new(workloads::simple()).distributed(NetConfig::channel())?;
            Ok(())
        }
        build().unwrap();
    }
}
