//! Boundary-state exchange over real transport lanes: the networked
//! backend of [`eucon_control::BoundaryBus`].
//!
//! The sharded controller (`eucon-control`) coordinates its per-shard
//! MPCs through a [`BoundaryBus`]; this module routes that coordination
//! over one `eucon-net` lane fabric — **one in-memory lane per shard**
//! to a hub that keeps the cluster's boundary boards, the same topology
//! as the processor lanes of a distributed loop (shard side = the
//! fabric's `proc` engine, hub = `ctrl`) and the same sending code
//! (`distributed::Direction`):
//!
//! * **up** (shard → hub): per period, a shard sends one
//!   [`FrameKind::BoundaryExchange`] frame with its home-processor
//!   utilizations (Phase A) and one with its committed rate moves (after
//!   its solve).  The first payload value is a protocol tag (`0.0` =
//!   utilizations, `1.0` = moves); the remainder are the values in the
//!   shard's fixed home/owned order.
//! * **down** (hub → shard): on each fetch the hub answers with one
//!   frame holding the shard's boundary view — peer moves for its
//!   boundary tasks, then utilizations for its boundary processors, in
//!   the shard's fixed boundary order.
//!
//! ## Consistency model
//!
//! Over ideal lanes every frame crosses within the publish/fetch call
//! that produced it, so the sweep sees exactly what the team's own
//! in-memory board would show it — the equivalence goldens pin this
//! bit-for-bit.  Under delay or loss (an `eucon-net` `DelayLossGate` in
//! front of every sending end), a shard whose down-frame did not arrive
//! simply keeps its previous boundary view (stale-state hold), and the
//! hub's boards hold each shard's last delivered publish: *eventual
//! consistency between control domains* — the team converges to the
//! same fixed point once frames flow again, and a completely deaf bus
//! degrades to independent per-shard control, never to garbage.
//!
//! The hub's utilization board is seeded with the set points, matching
//! the shard-side view default: a boundary sample that never arrived
//! contributes zero tracking error rather than a phantom disturbance.

use eucon_control::{BoundaryBus, ControlError, ControllerTelemetry, RateController};
use eucon_control::{MpcConfig, ShardPlan, ShardPlanner, ShardedController};
use eucon_math::Vector;
use eucon_net::{memory_lane_fabric, FrameKind, LaneFabric};
use eucon_tasks::TaskSet;

use crate::distributed::Direction;
use crate::LaneModel;

/// Payload tag of an up-lane frame carrying home utilizations.
const TAG_UTILIZATION: f64 = 0.0;
/// Payload tag of an up-lane frame carrying committed moves.
const TAG_MOVES: f64 = 1.0;

/// How shard boundary state travels between control domains.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BoundaryMode {
    /// The sweep runs over the team's own in-memory board (no lanes):
    /// [`ShardedController`]'s `RateController::update`, the reference
    /// semantics.
    InProcess,
    /// One ideal (lossless, same-period) lane per shard; bit-identical
    /// to [`BoundaryMode::InProcess`] — and to `LossyLanes(LaneModel::ideal())`.
    IdealLanes,
    /// One lane per shard behind the delay/loss gates the [`LaneModel`]
    /// describes, the model a distributed loop's processor lanes take.
    LossyLanes(LaneModel),
}

/// Cumulative traffic counters of a [`ShardBoundaryNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardNetStats {
    /// Boundary frames accepted for sending (both directions).
    pub frames_sent: u64,
    /// Boundary frames delivered to their receiving endpoint.
    pub frames_delivered: u64,
    /// Boundary frames dropped on a loss draw.
    pub frames_dropped: u64,
    /// Fetches answered from the stale held view (no down-frame arrived).
    pub stale_fetches: u64,
}

/// One shard's fixed frame layouts.
struct ShardLayout {
    /// The shard's home processors — the layout of its utilization
    /// publishes (fixed at construction, like a deployment's config).
    home: Vec<usize>,
    /// Tasks whose head subtask lives in the shard — the layout of its
    /// move publishes.
    owned: Vec<usize>,
}

/// [`BoundaryBus`] over one `eucon-net` lane per shard.
///
/// Build with [`ShardBoundaryNet::new`], then drive
/// [`ShardedController::update_with_bus`] — or let
/// [`NetShardedController`] bundle both behind [`RateController`].
pub struct ShardBoundaryNet {
    /// Lane `s` joins shard `s` (the `proc` end) to the hub (`ctrl`).
    fabric: LaneFabric,
    up: Direction,
    down: Direction,
    shards: Vec<ShardLayout>,
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
            .field("shards", &self.shards.len())
            .field("period", &self.period)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShardBoundaryNet {
    /// Builds the hub with one lane per shard, `model`'s delay/loss gate
    /// in front of every sending end (none for an ideal model); lane
    /// seeds derive from `model.seed` so every lane draws an independent
    /// loss sequence.
    ///
    /// # Errors
    ///
    /// [`ControlError::Unsupported`] when [`LaneModel::validate`] rejects
    /// `model` — through a loop builder, a controller-construction
    /// failure (`eucon::ErrorKind::Controller`).
    pub fn new(
        set: &TaskSet,
        plan: &ShardPlan,
        set_points: &Vector,
        model: &LaneModel,
    ) -> Result<Self, ControlError> {
        model
            .validate("boundary lanes")
            .map_err(|e| ControlError::Unsupported(e.to_string()))?;
        let m = set.num_tasks();
        let shards: Vec<ShardLayout> = plan
            .shards()
            .iter()
            .map(|home| ShardLayout {
                home: home.clone(),
                owned: (0..m)
                    .filter(|&j| home.contains(&set.tasks()[j].subtasks()[0].processor.0))
                    .collect(),
            })
            .collect();
        let k = shards.len();
        let kind = FrameKind::BoundaryExchange;
        // Distinct per-lane seeds: shard `s` draws its up losses from
        // `seed + 2s` and its down losses from `seed + 2s + 1`, so the
        // two directions of a shard, and different shards, see
        // independent loss sequences.
        let down_model = LaneModel {
            seed: model.seed.wrapping_add(1),
            ..model.clone()
        };
        Ok(ShardBoundaryNet {
            fabric: memory_lane_fabric(k),
            up: Direction::new(kind, model, k, 2),
            down: Direction::new(kind, &down_model, k, 2),
            shards,
            u_board: set_points.iter().copied().collect(),
            move_board: vec![0.0; m],
            seq: 0,
            period: 0,
            fetches: 0,
            stale_fetches: 0,
        })
    }

    /// Cumulative traffic counters across every lane.
    pub fn stats(&self) -> ShardNetStats {
        let (mut hub, mut shards) = (self.fabric.ctrl.stats(), self.fabric.proc.stats());
        self.up.mirror_into(&mut shards);
        self.down.mirror_into(&mut hub);
        let total = hub.merge(&shards);
        ShardNetStats {
            frames_sent: total.sent,
            frames_delivered: total.received,
            frames_dropped: total.dropped,
            stale_fetches: self.stale_fetches,
        }
    }

    /// Fetch calls served so far (one per solving shard per period).
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Applies every up-frame pending at the hub end of shard `s`'s lane
    /// to the hub boards.  Frames arrive in send order, so later
    /// (fresher) frames overwrite earlier ones.
    fn drain_up(&mut self, s: usize) {
        let (layout, u_board, move_board) =
            (&self.shards[s], &mut self.u_board, &mut self.move_board);
        let _ = self.fabric.ctrl.drain(s, |view| {
            let mut values = view.values();
            let Some(tag) = values.next() else {
                return;
            };
            if tag == TAG_UTILIZATION {
                for (&p, v) in layout.home.iter().zip(values) {
                    u_board[p] = v;
                }
            } else {
                for (&j, v) in layout.owned.iter().zip(values) {
                    move_board[j] = v;
                }
            }
        });
    }

    fn send_up(&mut self, s: usize, tag: f64, body: &[f64]) {
        self.seq += 1;
        let values = (0..body.len() + 1).map(|i| if i == 0 { tag } else { body[i - 1] });
        self.up.offer(
            &mut self.fabric.proc,
            s,
            self.seq,
            self.period,
            s as u16,
            values,
        );
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
        self.up.tick(&mut self.fabric.proc);
        self.down.tick(&mut self.fabric.ctrl);
        for s in 0..self.shards.len() {
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
        self.seq += 1;
        let (move_board, u_board) = (&self.move_board, &self.u_board);
        let values = (0..move_tasks.len() + procs.len()).map(|i| match move_tasks.get(i) {
            Some(&j) => move_board[j],
            None => u_board[procs[i - move_tasks.len()]],
        });
        self.down.offer(
            &mut self.fabric.ctrl,
            shard,
            self.seq,
            self.period,
            shard as u16,
            values,
        );

        // Shard side: drain the lane and apply what arrived, freshest
        // last.  Nothing arrived → the caller's held view stands.
        let arrived = self.fabric.proc.drain(shard, |view| {
            // A down-frame's layout is fixed per shard, so even a frame
            // delayed from an earlier period splits the same way.
            debug_assert_eq!(view.len(), moves.len() + u.len());
            for (dst, v) in moves.iter_mut().chain(u.iter_mut()).zip(view.values()) {
                *dst = v;
            }
        });
        if !matches!(arrived, Ok(n) if n > 0) {
            self.stale_fetches += 1;
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
    /// out-of-domain [`BoundaryMode::LossyLanes`] model as
    /// [`ControlError::Unsupported`].
    pub fn new(
        set: &TaskSet,
        set_points: Vector,
        cfg: MpcConfig,
        shard_size: usize,
        mode: &BoundaryMode,
    ) -> Result<Self, ControlError> {
        let plan = ShardPlanner::new(set).target_size(shard_size).plan();
        let ideal = LaneModel::ideal();
        let model = match mode {
            BoundaryMode::InProcess => {
                return Err(ControlError::DimensionMismatch(
                    "in-process boundary mode needs no net-backed controller".into(),
                ))
            }
            BoundaryMode::IdealLanes => &ideal,
            BoundaryMode::LossyLanes(model) => model,
        };
        let bus = ShardBoundaryNet::new(set, &plan, &set_points, model)?;
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
        // Forget the peers' moves, as the team's own board does.
        self.bus.move_board.fill(0.0);
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
            &BoundaryMode::LossyLanes(LaneModel {
                delay: 1,
                loss_probability: 0.3,
                seed: 5,
            }),
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
            &BoundaryMode::LossyLanes(LaneModel::lossy(0.99, 3)),
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
    fn a_reset_team_forgets_its_peers_moves_in_process_and_over_lanes() {
        let set = RandomWorkload::new(8, 24).seed(7).generate();
        let b = rms_set_points(&set);
        let f = set.allocation_matrix();
        let r0 = set.initial_rates();
        let u0 = Vector::from_iter((0..set.num_processors()).map(|p| 0.9 * b[p]));
        for boundary in [BoundaryMode::InProcess, BoundaryMode::IdealLanes] {
            let spec = crate::ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 4,
                boundary: boundary.clone(),
            };
            let mut used = spec.build(&set, &b).unwrap();
            let mut u = u0.clone();
            for _ in 0..20 {
                used.update(&u).unwrap();
                u = f.mul_vec(used.rates());
            }
            used.reset(&r0);
            let mut fresh = spec.build(&set, &b).unwrap();
            fresh.reset(&r0);
            let mut u = u0.clone();
            for period in 0..50 {
                used.update(&u).unwrap();
                fresh.update(&u).unwrap();
                assert_eq!(
                    bits(used.rates()),
                    bits(fresh.rates()),
                    "{boundary:?}: the reset team diverged from a fresh one at period {period}"
                );
                u = f.mul_vec(fresh.rates());
            }
        }
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
