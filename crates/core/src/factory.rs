//! The single controller-construction path of [`LoopBuilder`]: a
//! [`ControllerSpec`] names one of the built-in controllers as plain
//! data, and the finisher builds it for the loop's task set and set
//! points.  A fleet builds each group's controller here too, once, and
//! hands its members [`RateController::shared_clone`]s of it.
//!
//! [`LoopBuilder`]: crate::LoopBuilder

use eucon_control::{
    ControlError, IndependentPid, MpcConfig, MpcController, OpenLoop, RateController,
    ShardedController, Supervised, SupervisorConfig,
};
use eucon_math::Vector;
use eucon_tasks::TaskSet;

use crate::shardnet::{BoundaryMode, NetShardedController};
use crate::CoreError;

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
    /// The cluster-scale sharded team: the processor graph is
    /// partitioned into shards of about `shard_size` processors by
    /// F-matrix coupling (see `ShardPlanner`), each shard runs one local
    /// MPC and shards exchange boundary state per period — in process or
    /// over per-shard `eucon-net` lanes, per [`BoundaryMode`].
    ///
    /// `shard_size = 1` plans the singleton partition: one local MPC per
    /// processor, the decentralized (DEUCON-style) team.
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
    /// Checks the spec's own parameters for a loop of `num_processors`
    /// processors, so an out-of-domain one fails the finisher with a typed
    /// error rather than panicking inside a constructor: a `Sharded` team
    /// needs `shard_size >= 1`, every MPC configuration must pass
    /// [`MpcConfig::validate`] and a supervisor's
    /// [`SupervisorConfig::validate`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] naming the parameter.
    pub(crate) fn validate(&self, num_processors: usize) -> Result<(), CoreError> {
        let checked = match self {
            ControllerSpec::Sharded { shard_size: 0, .. } => {
                return Err(CoreError::Config(
                    "shard_size must be at least 1 processor per shard, got 0".into(),
                ))
            }
            ControllerSpec::Eucon(mpc) | ControllerSpec::Sharded { mpc, .. } => {
                mpc.validate(num_processors)
            }
            ControllerSpec::SupervisedEucon { mpc, supervisor } => mpc
                .validate(num_processors)
                .and_then(|()| supervisor.validate()),
            ControllerSpec::Open | ControllerSpec::Pid { .. } => Ok(()),
        };
        checked.map_err(|e| match e {
            ControlError::Config(msg) => CoreError::Config(msg),
            other => CoreError::Control(other),
        })
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads};

    #[test]
    fn spec_factory_builds_and_labels() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        for (spec, name) in [
            (ControllerSpec::Eucon(MpcConfig::simple()), "EUCON"),
            (ControllerSpec::Open, "OPEN"),
            (ControllerSpec::Pid { kp: 1.0, ki: 0.1 }, "PID"),
        ] {
            assert_eq!(spec.build(&set, &b).unwrap().name(), name);
        }
    }
}
