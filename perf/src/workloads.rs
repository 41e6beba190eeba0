//! The six loop workloads: what runs, how long a round is, and why each
//! one is in the set.
//!
//! `--seed` reaches the simulator's execution-time draws and the lane
//! loss draws only.  Workload *shapes* (the `RandomWorkload` seeds) are
//! fixed, so problem sizes — and with them every timing — do not move
//! with the seed.

use std::time::Duration;

use eucon::core::BoundaryMode;
use eucon::prelude::*;
use eucon::tasks::workloads::RandomWorkload;

/// No loop may run past this many periods: at the default sampling
/// period the simulator stops making progress near period 16 777
/// (simulated time 2^24; see the README's "Known hazard").
pub const PERIOD_CAP: usize = 8_200;

/// How the loop is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `LoopBuilder::local()`.
    Local,
    /// `LoopBuilder::distributed(..)` over loopback poll lanes, ideal.
    NetIdeal,
    /// The same with 10 % report loss and a one-period command delay.
    NetLossy,
    /// `LoopBuilder::fleet(n)` on one worker thread.
    Fleet,
}

/// Which plant and controller the loop closes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's MEDIUM workload (12 tasks on 4 processors).
    Medium,
    /// 60 random tasks on 20 processors under one centralized MPC, in
    /// overload.
    Central20,
    /// 192 random tasks on 64 processors under 16-processor shards.
    Shard64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub mode: Mode,
    /// Untimed periods at the start of every round.
    pub warm: usize,
    /// Timed periods per round (at least 1000, so ten samples lie beyond
    /// the 99th percentile).
    pub periods: usize,
    /// Wall time of one round on the 2-core sandbox this was written on,
    /// rounded up; the watchdog allows twenty times this.
    pub expected_round_s: f64,
    /// Whether the run fails unless the loop settles within
    /// [`TRACK_GATE`] of every set point (not asked of the overloaded
    /// workload, nor of the short or lossy ones).
    pub gate_tracking: bool,
}

/// Largest tail tracking error a gated workload may show.
pub const TRACK_GATE: f64 = 0.03;

/// Loops per fleet batch and periods per fleet loop.  A batch is short
/// (about 0.1 s) so that a run holds many and its best one is free of
/// the host's interference: batches of 100 loops never were (best-batch
/// throughput spread 9 % over ten seeds, against 2 % at 20).
pub const FLEET_LOOPS: usize = 20;
pub const FLEET_PERIODS: usize = 100;

/// Receive window of `net_lossy`: its period is this timer, by design
/// (the poll engine's default window).
pub const LOSSY_RECV_TIMEOUT: Duration = Duration::from_millis(2);

/// Receive window of `net_ideal`.  Ideal lanes never wait it out, so it
/// is generous: a frame the host delivers late then costs time, not the
/// bit-identity with `local_medium` that the run checks.
pub const IDEAL_RECV_TIMEOUT: Duration = Duration::from_millis(100);

pub const ALL: [Workload; 6] = [
    Workload {
        name: "local_medium",
        why: "paper MEDIUM in one process: the simulator does most of the work, control little",
        shape: Shape::Medium,
        mode: Mode::Local,
        warm: 200,
        periods: 4000,
        expected_round_s: 0.5,
        gate_tracking: true,
    },
    Workload {
        name: "central_20p_over",
        why: "20 processors, one dense MPC, overload: QP and active-set churn dominate, the simulator is small",
        shape: Shape::Central20,
        mode: Mode::Local,
        warm: 50,
        // Which periods churn depends on the seed's execution-time
        // draws: over 1000 periods the ten-seed spread of p99 was 9 %,
        // a quarter of it the host's.
        periods: 2000,
        expected_round_s: 2.0,
        gate_tracking: false,
    },
    Workload {
        name: "shard_64p",
        why: "64 processors in four 16-processor shards: a large event queue, small banded QPs in a Gauss-Seidel sweep",
        shape: Shape::Shard64,
        mode: Mode::Local,
        warm: 50,
        periods: 1000,
        expected_round_s: 1.5,
        gate_tracking: true,
    },
    Workload {
        name: "net_ideal",
        why: "MEDIUM over loopback poll lanes, no loss: frames and the poll engine on an unchanged plant",
        shape: Shape::Medium,
        mode: Mode::NetIdeal,
        warm: 200,
        periods: 4000,
        expected_round_s: 0.8,
        gate_tracking: true,
    },
    Workload {
        name: "net_lossy",
        why: "the same with report loss and command delay: the period is the receive timer, not CPU work",
        shape: Shape::Medium,
        mode: Mode::NetLossy,
        // Long enough that the seed's loss pattern averages out of
        // `setup_s`.
        warm: 50,
        periods: 1000,
        expected_round_s: 4.0,
        gate_tracking: false,
    },
    Workload {
        name: "fleet_medium",
        why: "batches of 20 MEDIUM loops through the fleet runner on one thread: shared models, per-loop build, digests",
        shape: Shape::Medium,
        mode: Mode::Fleet,
        warm: 0,
        periods: FLEET_LOOPS * FLEET_PERIODS,
        expected_round_s: 0.2,
        gate_tracking: false,
    },
];

// No single loop outruns the cap (a fleet round is many short loops),
// and every round leaves ten samples beyond its 99th percentile.
const _: () = {
    let mut i = 0;
    while i < ALL.len() {
        let one_loop = match ALL[i].mode {
            Mode::Fleet => FLEET_PERIODS,
            _ => ALL[i].warm + ALL[i].periods,
        };
        assert!(one_loop <= PERIOD_CAP);
        assert!(ALL[i].periods >= 1000);
        i += 1;
    }
};

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Shape {
    pub fn task_set(self) -> TaskSet {
        match self {
            Shape::Medium => workloads::medium(),
            Shape::Central20 => RandomWorkload::new(20, 60).seed(7).generate(),
            Shape::Shard64 => RandomWorkload::new(64, 192)
                .seed(21)
                .locality(2)
                .max_chain_len(3)
                .generate(),
        }
    }

    /// Execution-time factor: MEDIUM at half its estimates, the
    /// centralized workload 50 % over them (some rates pin at `Rmin`),
    /// the sharded one just under.
    fn etf(self) -> f64 {
        match self {
            Shape::Medium => 0.5,
            Shape::Central20 => 1.5,
            Shape::Shard64 => 0.9,
        }
    }

    pub fn sim_config(self, seed: u64) -> SimConfig {
        SimConfig::constant_etf(self.etf())
            .exec_model(ExecModel::Uniform { half_width: 0.2 })
            .seed(seed)
    }

    pub fn controller(self) -> ControllerSpec {
        match self {
            Shape::Medium | Shape::Central20 => ControllerSpec::Eucon(MpcConfig::medium()),
            Shape::Shard64 => ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 16,
                boundary: BoundaryMode::IdealLanes,
            },
        }
    }

    /// The loop description every mode finishes from.
    pub fn builder(self, seed: u64) -> LoopBuilder {
        LoopBuilder::new(self.task_set())
            .sim_config(self.sim_config(seed))
            .controller(self.controller())
    }
}

impl Workload {
    pub fn net_config(&self, seed: u64) -> NetConfig {
        match self.mode {
            Mode::NetLossy => NetConfig::tcp_poll()
                .recv_timeout(LOSSY_RECV_TIMEOUT)
                .report_lanes(LaneModel::lossy(0.1, seed))
                .command_lanes(LaneModel::delayed(1)),
            _ => NetConfig::tcp_poll().recv_timeout(IDEAL_RECV_TIMEOUT),
        }
    }

    /// Scales the round down for `--quick` smoke runs.
    pub fn quick(mut self) -> Self {
        self.warm = self.warm.div_ceil(10);
        self.periods = (self.periods / 10).max(100);
        self
    }
}

/// Worker threads of the `fleet_medium` workload.  One: with as many
/// workers as a shared host has cores, batch wall time measures the
/// host's scheduler (ten-seed spread 6-9 % on two threads, at any batch
/// size).  More than one thread is the ledger's `core.fleet_scaling`.
pub const FLEET_E2E_THREADS: usize = 1;

/// Worker threads the ledger's fleet-scaling row uses: never more than
/// the host has.
pub fn fleet_threads(cores: usize) -> usize {
    cores.clamp(1, 2)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_found_by_name() {
        for w in ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        let a = Shape::Central20.task_set();
        assert_eq!((a.num_processors(), a.num_tasks()), (20, 60));
        assert_eq!(a, Shape::Central20.task_set());
        let b = Shape::Shard64.task_set();
        assert_eq!((b.num_processors(), b.num_tasks()), (64, 192));
        assert_ne!(
            Shape::Medium.sim_config(1).seed,
            Shape::Medium.sim_config(2).seed
        );
    }

    #[test]
    fn fleet_never_uses_more_threads_than_cores() {
        assert_eq!(fleet_threads(1), 1);
        assert_eq!(fleet_threads(2), 2);
        assert_eq!(fleet_threads(64), 2);
    }
}
