//! Boundary-state exchange over real transport lanes: the networked
//! backend of [`eucon_control::BoundaryBus`].
//!
//! The sharded controller (`eucon-control`) coordinates its per-shard
//! MPCs through a [`BoundaryBus`]; this module routes that coordination
//! over `eucon-net` lanes — **one lane pair per shard** to a hub that
//! keeps the cluster's boundary boards:
//!
//! * **up lane** (shard → hub): per period, a shard sends one
//!   [`Frame::BoundaryExchange`] with its home-processor utilizations
//!   (Phase A) and one with its committed rate moves (after its solve).
//!   The first payload value is a protocol tag (`0.0` = utilizations,
//!   `1.0` = moves); the remainder are the values in the shard's fixed
//!   home/owned order.
//! * **down lane** (hub → shard): on each fetch the hub answers with one
//!   frame holding the shard's boundary view — peer moves for its
//!   boundary tasks, then utilizations for its boundary processors, in
//!   the shard's fixed boundary order.
//!
//! ## Consistency model
//!
//! Over ideal lanes every frame crosses within the publish/fetch call
//! that produced it, so the sweep sees exactly the shared-memory
//! exchange — the equivalence test pins this bit-for-bit.  Under delay
//! or loss ([`DelayLoss`] middleware on every sending endpoint), a shard
//! whose down-frame did not arrive simply keeps its previous boundary
//! view (stale-state hold), and the hub's boards hold each shard's last
//! delivered publish: *eventual consistency between control domains* —
//! the team converges to the same fixed point once frames flow again,
//! and a completely deaf bus degrades to independent per-shard control,
//! never to garbage.
//!
//! The hub's utilization board is seeded with the set points, matching
//! the shard-side view default: a boundary sample that never arrived
//! contributes zero tracking error rather than a phantom disturbance.

use eucon_control::{BoundaryBus, ControlError, ControllerTelemetry, RateController};
use eucon_control::{MpcConfig, ShardPlan, ShardPlanner, ShardedController};
use eucon_math::Vector;
use eucon_net::{channel_pair, DelayLoss, Frame, Transport};
use eucon_tasks::TaskSet;

/// Payload tag of an up-lane frame carrying home utilizations.
const TAG_UTILIZATION: f64 = 0.0;
/// Payload tag of an up-lane frame carrying committed moves.
const TAG_MOVES: f64 = 1.0;

/// Per-shard lane capacity: a period produces at most three frames per
/// shard, so a small bound suffices; drop-oldest backpressure keeps the
/// freshest state flowing when a lossy run backs up.
const LANE_CAPACITY: usize = 8;

/// How shard boundary state travels between control domains.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BoundaryMode {
    /// Shared-memory exchange inside the sweep (no lanes) — the
    /// reference semantics.
    InProcess,
    /// One ideal (lossless, same-period) lane pair per shard;
    /// bit-identical to [`BoundaryMode::InProcess`].
    IdealLanes,
    /// One lane pair per shard behind delay/loss middleware: frames
    /// spend `delay` periods in flight and each crossing frame drops
    /// with probability `loss`.
    LossyLanes {
        /// Whole sampling periods each boundary frame spends in flight.
        delay: usize,
        /// Per-frame drop probability in `[0, 1)`.
        loss: f64,
        /// Seed for the per-lane loss draws.
        seed: u64,
    },
}

/// Cumulative traffic counters of a [`ShardBoundaryNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardNetStats {
    /// Boundary frames accepted for sending (both directions).
    pub frames_sent: u64,
    /// Boundary frames delivered to their receiving endpoint.
    pub frames_delivered: u64,
    /// Boundary frames dropped by loss middleware or backpressure.
    pub frames_dropped: u64,
    /// Fetches answered from the stale held view (no down-frame arrived).
    pub stale_fetches: u64,
}

/// One shard's lane pair plus its fixed frame layouts.
struct ShardLane {
    /// Shard endpoint of the up lane (sends publishes).
    up_tx: Box<dyn Transport>,
    /// Hub endpoint of the up lane (receives publishes).
    up_rx: Box<dyn Transport>,
    /// Hub endpoint of the down lane (sends boundary views).
    down_tx: Box<dyn Transport>,
    /// Shard endpoint of the down lane (receives boundary views).
    down_rx: Box<dyn Transport>,
    /// The shard's home processors — the layout of its utilization
    /// publishes (fixed at construction, like a deployment's config).
    home: Vec<usize>,
    /// Tasks whose head subtask lives in the shard — the layout of its
    /// move publishes.
    owned: Vec<usize>,
}

/// [`BoundaryBus`] over one `eucon-net` lane pair per shard.
///
/// Build with [`ShardBoundaryNet::ideal`] or
/// [`ShardBoundaryNet::lossy`], then drive
/// [`ShardedController::update_with_bus`] — or let
/// [`NetShardedController`] bundle both behind [`RateController`].
pub struct ShardBoundaryNet {
    lanes: Vec<ShardLane>,
    /// Last delivered home utilization per processor (init: set points).
    u_board: Vec<f64>,
    /// Last delivered committed move per task (init: zero — no task has
    /// moved yet, matching the shard-side view default).
    move_board: Vec<f64>,
    seq: u64,
    period: u64,
    fetches: u64,
    stale_fetches: u64,
}

impl std::fmt::Debug for ShardBoundaryNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardBoundaryNet")
            .field("shards", &self.lanes.len())
            .field("period", &self.period)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShardBoundaryNet {
    /// Builds the hub with one ideal lane pair per shard.
    pub fn ideal(set: &TaskSet, plan: &ShardPlan, set_points: &Vector) -> Self {
        Self::build(set, plan, set_points, None)
    }

    /// Builds the hub with delay/loss middleware on every sending
    /// endpoint; lane seeds derive from `seed` so every lane draws an
    /// independent loss sequence.
    ///
    /// # Errors
    ///
    /// [`ControlError::Unsupported`] unless `0 ≤ loss < 1` — through a
    /// loop builder, a controller-construction failure
    /// (`eucon::ErrorKind::Controller`).
    pub fn lossy(
        set: &TaskSet,
        plan: &ShardPlan,
        set_points: &Vector,
        delay: usize,
        loss: f64,
        seed: u64,
    ) -> Result<Self, ControlError> {
        if !(0.0..1.0).contains(&loss) {
            return Err(ControlError::Unsupported(format!(
                "boundary-lane loss probability must be in [0, 1), got {loss}"
            )));
        }
        Ok(Self::build(
            set,
            plan,
            set_points,
            Some((delay, loss, seed)),
        ))
    }

    fn build(
        set: &TaskSet,
        plan: &ShardPlan,
        set_points: &Vector,
        lossy: Option<(usize, f64, u64)>,
    ) -> Self {
        let m = set.num_tasks();
        let mut lanes = Vec::with_capacity(plan.num_shards());
        for (s, home) in plan.shards().iter().enumerate() {
            let owned: Vec<usize> = (0..m)
                .filter(|&j| home.contains(&set.tasks()[j].subtasks()[0].processor.0))
                .collect();
            let (up_tx, up_rx) = channel_pair(LANE_CAPACITY);
            let (down_tx, down_rx) = channel_pair(LANE_CAPACITY);
            let (up_tx, down_tx): (Box<dyn Transport>, Box<dyn Transport>) = match lossy {
                None => (Box::new(up_tx), Box::new(down_tx)),
                Some((delay, loss, seed)) => {
                    // Distinct per-lane seeds: the up and down draws of a
                    // shard, and the draws of different shards, must be
                    // independent loss sequences.
                    let base = seed.wrapping_add(2 * s as u64);
                    (
                        Box::new(DelayLoss::new(up_tx, delay, loss, base)),
                        Box::new(DelayLoss::new(down_tx, delay, loss, base.wrapping_add(1))),
                    )
                }
            };
            lanes.push(ShardLane {
                up_tx,
                up_rx: Box::new(up_rx),
                down_tx,
                down_rx: Box::new(down_rx),
                home: home.clone(),
                owned,
            });
        }
        ShardBoundaryNet {
            lanes,
            u_board: set_points.iter().copied().collect(),
            move_board: vec![0.0; m],
            seq: 0,
            period: 0,
            fetches: 0,
            stale_fetches: 0,
        }
    }

    /// Cumulative traffic counters across every lane.
    pub fn stats(&self) -> ShardNetStats {
        let mut s = ShardNetStats::default();
        for lane in &self.lanes {
            for t in [&lane.up_tx, &lane.down_tx] {
                let ts = t.stats();
                s.frames_sent += ts.sent;
                s.frames_dropped += ts.dropped;
            }
            for t in [&lane.up_rx, &lane.down_rx] {
                s.frames_delivered += t.stats().received;
            }
        }
        s.stale_fetches = self.stale_fetches;
        s
    }

    /// Fetch calls served so far (one per solving shard per period).
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Applies every up-frame pending on shard `s`'s up lane to the hub
    /// boards.  Frames arrive in send order, so later (fresher) frames
    /// overwrite earlier ones.
    fn drain_up(&mut self, s: usize) {
        let lane = &mut self.lanes[s];
        while let Ok(Some(frame)) = lane.up_rx.try_recv() {
            let values = frame.values();
            let Some((&tag, body)) = values.split_first() else {
                continue;
            };
            if tag == TAG_UTILIZATION {
                for (&p, &v) in lane.home.iter().zip(body) {
                    self.u_board[p] = v;
                }
            } else {
                for (&j, &v) in lane.owned.iter().zip(body) {
                    self.move_board[j] = v;
                }
            }
        }
    }

    fn send_up(&mut self, s: usize, tag: f64, body: &[f64]) {
        let mut values = Vec::with_capacity(1 + body.len());
        values.push(tag);
        values.extend_from_slice(body);
        let frame = Frame::BoundaryExchange {
            seq: self.next_seq(),
            period: self.period,
            shard: s as u16,
            values,
        };
        let _ = self.lanes[s].up_tx.send(frame);
        // An ideal lane delivered synchronously; a delayed one will be
        // drained after a later tick.  Draining here keeps the hub boards
        // exactly in step with the sweep on ideal lanes.
        self.drain_up(s);
    }
}

impl BoundaryBus for ShardBoundaryNet {
    fn begin_period(&mut self) {
        self.period += 1;
        // The period tick is the lanes' clock: it releases frames whose
        // delay elapsed, which the next drain then applies.
        for s in 0..self.lanes.len() {
            self.lanes[s].up_tx.tick();
            self.lanes[s].up_rx.tick();
            self.lanes[s].down_tx.tick();
            self.lanes[s].down_rx.tick();
            self.drain_up(s);
        }
    }

    fn publish_utilization(&mut self, shard: usize, _procs: &[usize], u: &[f64]) {
        self.send_up(shard, TAG_UTILIZATION, u);
    }

    fn publish_moves(&mut self, shard: usize, _tasks: &[usize], moves: &[f64]) {
        self.send_up(shard, TAG_MOVES, moves);
    }

    fn fetch(
        &mut self,
        shard: usize,
        move_tasks: &[usize],
        moves: &mut [f64],
        procs: &[usize],
        u: &mut [f64],
    ) {
        self.fetches += 1;
        // Hub side: compose the shard's boundary view from the boards
        // and send it down the shard's lane.
        let mut values = Vec::with_capacity(move_tasks.len() + procs.len());
        values.extend(move_tasks.iter().map(|&j| self.move_board[j]));
        values.extend(procs.iter().map(|&p| self.u_board[p]));
        let frame = Frame::BoundaryExchange {
            seq: self.next_seq(),
            period: self.period,
            shard: shard as u16,
            values,
        };
        let _ = self.lanes[shard].down_tx.send(frame);

        // Shard side: drain the down lane and apply the freshest view
        // that arrived.  Nothing arrived → the caller's held view stands.
        let mut latest: Option<Frame> = None;
        while let Ok(Some(f)) = self.lanes[shard].down_rx.try_recv() {
            latest = Some(f);
        }
        match latest {
            Some(f) => {
                let values = f.values();
                // A down-frame's layout is fixed per shard, so even a
                // frame delayed from an earlier period splits the same way.
                debug_assert_eq!(values.len(), moves.len() + u.len());
                for (dst, &v) in moves.iter_mut().zip(values) {
                    *dst = v;
                }
                for (dst, &v) in u.iter_mut().zip(&values[moves.len()..]) {
                    *dst = v;
                }
            }
            None => self.stale_fetches += 1,
        }
    }
}

/// The sharded controller team with its boundary exchange riding
/// `eucon-net` lanes, bundled behind [`RateController`] so loops and
/// fleets can run cluster-scale sharded control like any other law.
#[derive(Debug)]
pub struct NetShardedController {
    team: ShardedController,
    bus: ShardBoundaryNet,
}

impl NetShardedController {
    /// Plans the partition at `shard_size`, builds the team and wires
    /// the boundary lanes per `mode` ([`BoundaryMode::InProcess`] is
    /// served by [`ShardedController`] itself and rejected here).
    ///
    /// # Errors
    ///
    /// Propagates team-construction failures; rejects
    /// [`BoundaryMode::InProcess`] as a dimension error and an
    /// out-of-domain [`BoundaryMode::LossyLanes`] loss probability as
    /// [`ControlError::Unsupported`].
    pub fn new(
        set: &TaskSet,
        set_points: Vector,
        cfg: MpcConfig,
        shard_size: usize,
        mode: &BoundaryMode,
    ) -> Result<Self, ControlError> {
        let plan = ShardPlanner::new(set).target_size(shard_size).plan();
        let bus = match mode {
            BoundaryMode::InProcess => {
                return Err(ControlError::DimensionMismatch(
                    "in-process boundary mode needs no net-backed controller".into(),
                ))
            }
            BoundaryMode::IdealLanes => ShardBoundaryNet::ideal(set, &plan, &set_points),
            BoundaryMode::LossyLanes { delay, loss, seed } => {
                ShardBoundaryNet::lossy(set, &plan, &set_points, *delay, *loss, *seed)?
            }
        };
        let team = ShardedController::new(set, set_points, cfg, plan)?;
        Ok(NetShardedController { team, bus })
    }

    /// The underlying team (plan, problem sizes, bandwidths).
    pub fn team(&self) -> &ShardedController {
        &self.team
    }

    /// Boundary-lane traffic counters.
    pub fn net_stats(&self) -> ShardNetStats {
        self.bus.stats()
    }
}

impl RateController for NetShardedController {
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        self.team.update_with_bus(u, &mut self.bus)
    }

    fn rates(&self) -> &Vector {
        self.team.rates()
    }

    fn name(&self) -> &'static str {
        "SHARD-EUCON/NET"
    }

    fn telemetry(&self) -> ControllerTelemetry {
        self.team.telemetry()
    }

    fn reset(&mut self, rates: &Vector) {
        self.team.reset(rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads, workloads::RandomWorkload};

    fn bits(v: &Vector) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn ideal_lanes_bit_identical_to_in_process_exchange() {
        let set = RandomWorkload::new(8, 24).seed(7).generate();
        let b = rms_set_points(&set);
        let cfg = MpcConfig::medium();
        let mut direct =
            ShardedController::with_shard_size(&set, b.clone(), cfg.clone(), 4).unwrap();
        let mut net =
            NetShardedController::new(&set, b.clone(), cfg, 4, &BoundaryMode::IdealLanes).unwrap();
        let n = set.num_processors();
        let mut u = Vector::from_iter((0..n).map(|p| 0.9 * b[p]));
        for period in 0..120 {
            direct.update(&u).unwrap();
            net.update(&u).unwrap();
            assert_eq!(
                bits(direct.rates()),
                bits(net.rates()),
                "diverged at period {period}"
            );
            // Crude plant: utilization proportional to commanded rates.
            let f = set.allocation_matrix();
            u = f.mul_vec(direct.rates());
        }
        let stats = net.net_stats();
        assert_eq!(stats.frames_dropped, 0);
        assert_eq!(stats.stale_fetches, 0);
        assert!(stats.frames_sent > 0);
    }

    #[test]
    fn lossy_lanes_hold_stale_views_and_still_converge() {
        let set = RandomWorkload::new(8, 24).seed(11).generate();
        let b = rms_set_points(&set);
        let mut net = NetShardedController::new(
            &set,
            b.clone(),
            MpcConfig::medium(),
            4,
            &BoundaryMode::LossyLanes {
                delay: 1,
                loss: 0.3,
                seed: 5,
            },
        )
        .unwrap();
        let f = set.allocation_matrix();
        let mut u = Vector::from_iter((0..set.num_processors()).map(|p| 0.9 * b[p]));
        for _ in 0..300 {
            net.update(&u).unwrap();
            u = f.mul_vec(net.rates());
        }
        let err = (0..u.len())
            .map(|p| (u[p] - b[p]).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 0.05, "tracking error {err} under 30% boundary loss");
        let stats = net.net_stats();
        assert!(stats.frames_dropped > 0, "loss middleware saw no traffic");
    }

    #[test]
    fn deaf_boundary_degrades_to_independent_shards() {
        // Loss probability near 1: almost no boundary state ever crosses.
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let mut net = NetShardedController::new(
            &set,
            b.clone(),
            MpcConfig::medium(),
            2,
            &BoundaryMode::LossyLanes {
                delay: 0,
                loss: 0.99,
                seed: 3,
            },
        )
        .unwrap();
        let f = set.allocation_matrix();
        let mut u = Vector::from_iter((0..set.num_processors()).map(|p| 0.8 * b[p]));
        for _ in 0..300 {
            net.update(&u).unwrap();
            u = f.mul_vec(net.rates());
        }
        let err = (0..u.len())
            .map(|p| (u[p] - b[p]).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 0.05, "deaf boundary must still track ({err})");
        assert!(net.net_stats().stale_fetches > 0);
    }

    #[test]
    fn in_process_mode_rejected_by_net_controller() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        assert!(NetShardedController::new(
            &set,
            b,
            MpcConfig::medium(),
            2,
            &BoundaryMode::InProcess
        )
        .is_err());
    }
}
