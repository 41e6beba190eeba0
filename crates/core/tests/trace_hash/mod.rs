//! Shared golden-trace machinery for the equivalence test suites.
//!
//! One FNV-1a hash over the bit patterns of everything a closed-loop run
//! observes, the four pinned closed-loop scenarios, and assemblers for
//! every finisher — so `engine_equivalence` (single-process engine, the
//! two fault-free scenarios) and `transport_equivalence` (distributed
//! loop over in-memory and TCP lanes, all four) pin the *same* golden
//! constants.

// Each test target compiles this module separately and uses a subset.
#![allow(dead_code)]

use eucon_control::MpcConfig;
use eucon_core::{ChurnPlan, ControllerSpec, LaneModel, LoopBuilder, NetConfig, RunResult};
use eucon_math::Vector;
use eucon_sim::{ExecModel, FaultPlan, SimConfig};
use eucon_tasks::{workloads, TaskSet};

// ---- FNV-1a 64 over the bit patterns of the trace ----

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    pub fn vector(&mut self, v: &Vector) {
        self.u64(v.len() as u64);
        for &x in v.iter() {
            self.f64(x);
        }
    }
}

/// Hashes everything a closed-loop run observes: each step's time, true
/// utilizations, sensed/received report, applied rates and annotations,
/// plus the final deadline statistics.  A zero length stands where a
/// per-step list of dropped commands once was, so the fault-free
/// constants did not move when command loss became a lane effect.
pub fn hash_result(result: &RunResult) -> u64 {
    let mut h = Fnv::new();
    for step in result.trace.steps() {
        h.f64(step.time);
        h.vector(&step.utilization);
        match &step.received {
            None => h.byte(0),
            Some(v) => {
                h.byte(1);
                h.vector(v);
            }
        }
        h.vector(&step.rates);
        let ann = &step.annotations;
        h.u64(ann.crashed.len() as u64);
        for &p in &ann.crashed {
            h.u64(p as u64);
        }
        h.u64(0);
        h.byte(ann.degraded as u8);
        h.byte(ann.control_error as u8);
    }
    h.u64(result.deadlines.met);
    h.u64(result.deadlines.missed);
    h.u64(result.control_errors as u64);
    h.0
}

// ---- the pinned closed-loop scenarios ----

/// The four closed-loop golden scenarios: the paper's two workloads,
/// fault-free, and under a scripted crash with 30 % of the rate commands
/// lost on lossy command lanes (so the faulted two need a finisher with
/// lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    SimpleFaultFree,
    MediumFaultFree,
    SimpleFaulted,
    MediumFaulted,
}

/// Periods every golden scenario runs for.
pub const GOLDEN_PERIODS: usize = 40;

/// Golden hashes captured from the reference engine.
pub const GOLDEN_SIMPLE_FAULT_FREE: u64 = 0xb286_0648_874c_a00f;
pub const GOLDEN_MEDIUM_FAULT_FREE: u64 = 0xae12_aab1_5672_e1a9;
pub const GOLDEN_SIMPLE_FAULTED: u64 = 0x58ce_7813_71b9_04c8;
pub const GOLDEN_MEDIUM_FAULTED: u64 = 0x53e4_044d_d202_be8b;

impl Scenario {
    pub const ALL: [Scenario; 4] = [
        Scenario::SimpleFaultFree,
        Scenario::MediumFaultFree,
        Scenario::SimpleFaulted,
        Scenario::MediumFaulted,
    ];

    /// The scenarios a loop without lanes can run.
    pub const FAULT_FREE: [Scenario; 2] = [Scenario::SimpleFaultFree, Scenario::MediumFaultFree];

    /// The pinned hash of this scenario's trace.
    pub fn golden(self) -> u64 {
        match self {
            Scenario::SimpleFaultFree => GOLDEN_SIMPLE_FAULT_FREE,
            Scenario::MediumFaultFree => GOLDEN_MEDIUM_FAULT_FREE,
            Scenario::SimpleFaulted => GOLDEN_SIMPLE_FAULTED,
            Scenario::MediumFaulted => GOLDEN_MEDIUM_FAULTED,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scenario::SimpleFaultFree => "simple_fault_free",
            Scenario::MediumFaultFree => "medium_fault_free",
            Scenario::SimpleFaulted => "simple_faulted",
            Scenario::MediumFaulted => "medium_faulted",
        }
    }

    fn workload(self) -> TaskSet {
        match self {
            Scenario::SimpleFaultFree | Scenario::SimpleFaulted => workloads::simple(),
            Scenario::MediumFaultFree | Scenario::MediumFaulted => workloads::medium(),
        }
    }

    fn sim_config(self) -> SimConfig {
        match self {
            Scenario::SimpleFaultFree | Scenario::SimpleFaulted => SimConfig::constant_etf(0.5),
            Scenario::MediumFaultFree | Scenario::MediumFaulted => SimConfig::constant_etf(1.0)
                .exec_model(ExecModel::Uniform { half_width: 0.2 })
                .seed(1),
        }
    }

    fn controller(self) -> ControllerSpec {
        let mpc = match self {
            Scenario::SimpleFaultFree | Scenario::SimpleFaulted => MpcConfig::simple(),
            Scenario::MediumFaultFree | Scenario::MediumFaulted => MpcConfig::medium(),
        };
        match self {
            Scenario::SimpleFaultFree | Scenario::MediumFaultFree => ControllerSpec::Eucon(mpc),
            Scenario::SimpleFaulted | Scenario::MediumFaulted => ControllerSpec::SupervisedEucon {
                mpc,
                supervisor: Default::default(),
            },
        }
    }

    fn faults(self) -> FaultPlan {
        match self {
            Scenario::SimpleFaultFree | Scenario::MediumFaultFree => FaultPlan::none(),
            // A crash exercises NaN sensors, supervisor degradation and
            // recovery reschedules; the lossy command lanes freeze rates
            // per processor.
            Scenario::SimpleFaulted | Scenario::MediumFaulted => FaultPlan::none().crash(1, 10, 18),
        }
    }

    /// The scenario's command-lane model: ideal, or 30 % loss.
    fn command_lanes(self) -> LaneModel {
        match self {
            Scenario::SimpleFaultFree | Scenario::MediumFaultFree => LaneModel::ideal(),
            Scenario::SimpleFaulted | Scenario::MediumFaulted => LaneModel::lossy(0.3, 7),
        }
    }

    /// `net` carrying the scenario's command-lane model.
    pub fn lanes(self, net: NetConfig) -> NetConfig {
        net.command_lanes(self.command_lanes())
    }

    /// The scenario as a loop description, ready for a finisher.
    fn builder(self) -> LoopBuilder {
        LoopBuilder::new(self.workload())
            .sim_config(self.sim_config())
            .controller(self.controller())
            .faults(self.faults())
    }

    /// Runs a fault-free scenario through the single-process loop.
    pub fn run_single(self) -> RunResult {
        assert!(
            Scenario::FAULT_FREE.contains(&self),
            "{} needs lanes",
            self.name()
        );
        self.builder()
            .local()
            .expect("closed loop")
            .run(GOLDEN_PERIODS)
    }

    /// Runs a fault-free scenario through the single-process loop with an
    /// explicit **empty** churn plan: the builder must treat it exactly
    /// like no plan at all, so the trace stays bit-identical to
    /// [`Scenario::run_single`] and the golden hashes hold.
    pub fn run_single_zero_churn(self) -> RunResult {
        assert!(
            Scenario::FAULT_FREE.contains(&self),
            "{} needs lanes",
            self.name()
        );
        self.builder()
            .churn(ChurnPlan::none())
            .local()
            .expect("closed loop")
            .run(GOLDEN_PERIODS)
    }

    /// [`Scenario::run_distributed_channel`] with an explicit empty
    /// churn plan — same bit-identity contract as
    /// [`Scenario::run_single_zero_churn`].
    pub fn run_distributed_zero_churn(self) -> RunResult {
        self.builder()
            .churn(ChurnPlan::none())
            .distributed(self.lanes(NetConfig::channel()))
            .expect("distributed loop")
            .run(GOLDEN_PERIODS)
    }

    /// Runs the scenario through the distributed loop over in-memory
    /// lanes — for a fault-free scenario, bit-identical to
    /// [`Scenario::run_single`].
    pub fn run_distributed_channel(self) -> RunResult {
        self.builder()
            .distributed(self.lanes(NetConfig::channel()))
            .expect("distributed loop")
            .run(GOLDEN_PERIODS)
    }

    /// Runs the scenario through the distributed loop over real
    /// loopback-TCP lanes — bit-identical to
    /// [`Scenario::run_distributed_channel`].  The generous receive
    /// window keeps loaded machines deterministic: TCP loses nothing, so
    /// every frame the lane model passes lands within the window and the
    /// trace carries no timing artifacts.
    pub fn run_distributed_poll(self) -> RunResult {
        let tcp = NetConfig::tcp().recv_timeout(std::time::Duration::from_millis(200));
        self.builder()
            .distributed(self.lanes(tcp))
            .expect("distributed poll loop")
            .run(GOLDEN_PERIODS)
    }
}
