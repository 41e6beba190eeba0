//! Transport-equivalence tests: the distributed loop is the single-process
//! loop, observationally.
//!
//! Two pins:
//!
//! 1. **Golden hashes** — a distributed [`ClosedLoop`] over ideal lanes,
//!    in-memory and loopback TCP, must reproduce the *same* FNV-1a trace
//!    hashes the single-process engine pins in `engine_equivalence`
//!    (shared via `trace_hash/`): splitting the loop into controller and
//!    processor nodes exchanging binary frames may not perturb a single
//!    bit.  The two faulted scenarios lose 30 % of their commands on
//!    lossy command lanes, and the in-memory and TCP links must agree on
//!    them bit for bit too.
//!
//! 2. **Draw-for-draw lane model** — on every report lane of a MEDIUM
//!    loop over lossy, delayed in-memory lanes, what the controller saw
//!    must equal, bit for bit, what a delay line written from the lane
//!    model's spec delivers: lane `p` drawing its losses from `seed + p`,
//!    for arbitrary delay/loss configurations (property-tested).
//!
//! [`ClosedLoop`]: eucon_core::ClosedLoop

mod trace_hash;

use std::collections::VecDeque;

use eucon_control::MpcConfig;
use eucon_core::{ControllerSpec, LaneModel, LoopBuilder, NetConfig};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trace_hash::{hash_result, Scenario};

#[test]
fn distributed_golden_simple_fault_free() {
    let s = Scenario::SimpleFaultFree;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_medium_fault_free() {
    let s = Scenario::MediumFaultFree;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_simple_faulted() {
    let s = Scenario::SimpleFaulted;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn distributed_golden_medium_faulted() {
    let s = Scenario::MediumFaulted;
    assert_eq!(hash_result(&s.run_distributed_channel()), s.golden());
}

#[test]
fn poll_engine_golden_simple_fault_free() {
    let s = Scenario::SimpleFaultFree;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_medium_fault_free() {
    let s = Scenario::MediumFaultFree;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_simple_faulted() {
    let s = Scenario::SimpleFaulted;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

#[test]
fn poll_engine_golden_medium_faulted() {
    let s = Scenario::MediumFaulted;
    assert_eq!(hash_result(&s.run_distributed_poll()), s.golden());
}

proptest! {
    #[test]
    fn report_lanes_match_a_reference_delay_line_draw_for_draw(
        delay in 0usize..4,
        p in 0.0f64..0.9,
        seed in 0u64..1_000_000,
    ) {
        let model = LaneModel { delay, loss_probability: p, seed };
        let result = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(1.0))
            .controller(ControllerSpec::Eucon(MpcConfig::medium()))
            .distributed(NetConfig::channel().report_lanes(model))
            .expect("distributed loop")
            .run(PERIODS);
        let steps = result.trace.steps();
        for lane in 0..steps[0].utilization.len() {
            let mut reference = DelayLine::new(delay, p, seed + lane as u64);
            for (k, step) in steps.iter().enumerate() {
                let want = reference.period(step.utilization[lane]);
                let got = step.seen()[lane];
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "lane {} period {}: the loop saw {} but the delay line delivered {}",
                    lane,
                    k,
                    got,
                    want
                );
            }
        }
    }
}

/// Periods each lane-model case runs.
const PERIODS: usize = 40;

/// One report lane written from the lane model's spec: each report
/// waits `delay` periods in a FIFO, every report that leaves it takes
/// one loss draw from a `StdRng` seeded with the lane's seed, and the
/// receiver holds the last delivered value (zero before the first).
struct DelayLine {
    delay: usize,
    loss: f64,
    rng: StdRng,
    fifo: VecDeque<f64>,
    hold: f64,
}

impl DelayLine {
    fn new(delay: usize, loss: f64, seed: u64) -> Self {
        DelayLine {
            delay,
            loss,
            rng: StdRng::seed_from_u64(seed),
            fifo: VecDeque::new(),
            hold: 0.0,
        }
    }

    /// Sends this period's report; returns what the receiver holds.
    fn period(&mut self, report: f64) -> f64 {
        self.fifo.push_back(report);
        while self.fifo.len() > self.delay {
            let released = self.fifo.pop_front().unwrap();
            if self.rng.gen::<f64>() >= self.loss {
                self.hold = released;
            }
        }
        self.hold
    }
}
