//! The single controller-construction path of [`LoopBuilder`].
//!
//! [`ControllerFactory`] is the one way controllers reach the loop:
//! everything that can produce a controller for a `(task set, set
//! points)` pair — a [`ControllerSpec`] naming one of the built-in
//! controllers, a prebuilt controller, a closure — goes through
//! [`LoopBuilder::controller`].
//!
//! [`LoopBuilder`]: crate::LoopBuilder
//! [`LoopBuilder::controller`]: crate::LoopBuilder::controller

use eucon_control::{
    ControlError, IndependentPid, MpcConfig, MpcController, OpenLoop, RateController,
    ShardedController, Supervised, SupervisorConfig,
};
use eucon_math::Vector;
use eucon_tasks::TaskSet;

use crate::shardnet::{BoundaryMode, NetShardedController};

/// Which controller to close the loop with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControllerSpec {
    /// The EUCON model-predictive controller with the given configuration.
    Eucon(MpcConfig),
    /// The paper's OPEN baseline (fixed design-time rates).
    Open,
    /// The decoupled per-processor PI baseline with gains `(kp, ki)`.
    Pid {
        /// Proportional gain.
        kp: f64,
        /// Integral gain.
        ki: f64,
    },
    /// The decentralized controller team (DEUCON-style): one local MPC
    /// per processor, coordinating by move exchange — the sharded team
    /// under the singleton plan ([`ShardedController::singleton`]).
    Decentralized(MpcConfig),
    /// The cluster-scale sharded team: the processor graph is
    /// partitioned into shards of about `shard_size` processors by
    /// F-matrix coupling (see `ShardPlanner`), each shard runs one local
    /// MPC and shards exchange boundary state per period — in process or
    /// over per-shard `eucon-net` lanes, per [`BoundaryMode`].
    ///
    /// `shard_size = 1` plans the singleton partition, i.e. the team
    /// [`ControllerSpec::Decentralized`] builds.
    Sharded {
        /// Local-controller (MPC) configuration.
        mpc: MpcConfig,
        /// Target processors per shard (the planner's size cap).
        shard_size: usize,
        /// How boundary state travels between shards.
        boundary: BoundaryMode,
    },
    /// The EUCON MPC wrapped in a [`Supervised`] watchdog: sensor
    /// validation, graceful degradation to OPEN's design rates when the
    /// sensors or the optimizer fail, automatic re-engagement.
    SupervisedEucon {
        /// Primary-law (MPC) configuration.
        mpc: MpcConfig,
        /// Watchdog thresholds and safe-mode gains.
        supervisor: SupervisorConfig,
    },
}

impl ControllerSpec {
    /// Instantiates the controller for a task set and set points.
    ///
    /// # Errors
    ///
    /// Propagates controller-construction failures.
    pub fn build(
        &self,
        set: &TaskSet,
        set_points: &Vector,
    ) -> Result<Box<dyn RateController>, ControlError> {
        Ok(match self {
            ControllerSpec::Eucon(cfg) => {
                Box::new(MpcController::new(set, set_points.clone(), cfg.clone())?)
            }
            ControllerSpec::Open => Box::new(OpenLoop::design(set, set_points)?),
            ControllerSpec::Pid { kp, ki } => {
                Box::new(IndependentPid::new(set, set_points.clone(), *kp, *ki)?)
            }
            ControllerSpec::Decentralized(cfg) => Box::new(ShardedController::singleton(
                set,
                set_points.clone(),
                cfg.clone(),
            )?),
            ControllerSpec::Sharded {
                mpc,
                shard_size,
                boundary,
            } => match boundary {
                BoundaryMode::InProcess => Box::new(ShardedController::with_shard_size(
                    set,
                    set_points.clone(),
                    mpc.clone(),
                    *shard_size,
                )?),
                _ => Box::new(NetShardedController::new(
                    set,
                    set_points.clone(),
                    mpc.clone(),
                    *shard_size,
                    boundary,
                )?),
            },
            ControllerSpec::SupervisedEucon { mpc, supervisor } => {
                let inner = MpcController::new(set, set_points.clone(), mpc.clone())?;
                let open = OpenLoop::design(set, set_points)?;
                Box::new(
                    Supervised::new(inner, set, supervisor.clone())?
                        .safe_rates(open.rates().clone()),
                )
            }
        })
    }
}

/// Anything that can instantiate a [`RateController`] for a task set and
/// its utilization set points.
///
/// Implemented by [`ControllerSpec`] (the built-in controllers), by
/// `Box<dyn RateController>` (a prebuilt controller is a factory that
/// ignores its inputs) and by closures via [`factory_fn`].  Construction
/// consumes the factory (`self: Box<Self>`) so prebuilt controllers move
/// into the loop without a clone.
///
/// # Example
///
/// ```
/// use eucon_core::{factory_fn, LoopBuilder};
/// use eucon_control::{MpcConfig, MpcController, RateController};
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// // A closure-backed factory: build whatever controller you like from
/// // the task set and set points the loop settled on.
/// let cl = LoopBuilder::new(workloads::simple())
///     .controller(factory_fn(|set, b| {
///         let mpc = MpcController::new(set, b.clone(), MpcConfig::simple())?;
///         Ok(Box::new(mpc) as Box<dyn RateController>)
///     }))
///     .local()?;
/// assert_eq!(cl.controller_name(), "EUCON");
/// # Ok(())
/// # }
/// ```
pub trait ControllerFactory {
    /// Consumes the factory and builds the controller.
    ///
    /// # Errors
    ///
    /// Propagates controller-construction failures.
    fn build_controller(
        self: Box<Self>,
        set: &TaskSet,
        set_points: &Vector,
    ) -> Result<Box<dyn RateController>, ControlError>;

    /// Short label for builder diagnostics (`Debug` output); not
    /// necessarily the built controller's [`RateController::name`].
    fn label(&self) -> &str {
        "custom"
    }

    /// The [`ControllerSpec`] behind this factory, when it is one.  A
    /// spec is plain `Send + Clone` data, which is what the fleet
    /// finisher ships to its workers; any other factory is consumed by
    /// the one loop it builds.
    fn as_spec(&self) -> Option<&ControllerSpec> {
        None
    }
}

impl ControllerFactory for ControllerSpec {
    fn build_controller(
        self: Box<Self>,
        set: &TaskSet,
        set_points: &Vector,
    ) -> Result<Box<dyn RateController>, ControlError> {
        self.build(set, set_points)
    }

    fn label(&self) -> &str {
        match *self {
            ControllerSpec::Eucon(_) => "EUCON",
            ControllerSpec::Open => "OPEN",
            ControllerSpec::Pid { .. } => "PID",
            ControllerSpec::Decentralized(_) => "DEUCON",
            ControllerSpec::Sharded { .. } => "SHARD-EUCON",
            ControllerSpec::SupervisedEucon { .. } => "SUP-EUCON",
        }
    }

    fn as_spec(&self) -> Option<&ControllerSpec> {
        Some(self)
    }
}

/// A prebuilt controller is a factory that ignores the task set and set
/// points.
impl ControllerFactory for Box<dyn RateController> {
    fn build_controller(
        self: Box<Self>,
        _set: &TaskSet,
        _set_points: &Vector,
    ) -> Result<Box<dyn RateController>, ControlError> {
        Ok(*self)
    }
}

/// Wraps a closure as a [`ControllerFactory`].
///
/// A dedicated adapter (rather than a blanket `impl` for `FnOnce`) keeps
/// the trait implementable for concrete types like [`ControllerSpec`]
/// without coherence conflicts.
pub fn factory_fn<F>(f: F) -> impl ControllerFactory
where
    F: FnOnce(&TaskSet, &Vector) -> Result<Box<dyn RateController>, ControlError>,
{
    FnFactory(f)
}

struct FnFactory<F>(F);

impl<F> ControllerFactory for FnFactory<F>
where
    F: FnOnce(&TaskSet, &Vector) -> Result<Box<dyn RateController>, ControlError>,
{
    fn build_controller(
        self: Box<Self>,
        set: &TaskSet,
        set_points: &Vector,
    ) -> Result<Box<dyn RateController>, ControlError> {
        (self.0)(set, set_points)
    }

    fn label(&self) -> &str {
        "closure"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads};

    #[test]
    fn spec_factory_builds_and_labels() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let spec = ControllerSpec::Eucon(MpcConfig::simple());
        assert_eq!(spec.label(), "EUCON");
        let ctrl = Box::new(spec).build_controller(&set, &b).unwrap();
        assert_eq!(ctrl.name(), "EUCON");
        assert_eq!(ControllerSpec::Open.label(), "OPEN");
        assert_eq!(ControllerSpec::Pid { kp: 1.0, ki: 0.1 }.label(), "PID");
    }

    #[test]
    fn prebuilt_controller_is_a_factory() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let prebuilt: Box<dyn RateController> = Box::new(OpenLoop::design(&set, &b).unwrap());
        assert_eq!(prebuilt.label(), "custom");
        let ctrl = Box::new(prebuilt).build_controller(&set, &b).unwrap();
        assert_eq!(ctrl.name(), "OPEN");
    }

    #[test]
    fn closure_factory_sees_set_and_points() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let f = factory_fn(|set: &TaskSet, b: &Vector| {
            assert_eq!(b.len(), set.num_processors());
            Ok(Box::new(OpenLoop::design(set, b)?) as Box<dyn RateController>)
        });
        assert_eq!(f.label(), "closure");
        let ctrl = Box::new(f).build_controller(&set, &b).unwrap();
        assert_eq!(ctrl.name(), "OPEN");
    }
}
