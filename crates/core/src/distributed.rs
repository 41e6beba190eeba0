//! Distributed mode: the closed loop split into a controller node and
//! `m` processor nodes exchanging frames over real transport lanes.
//!
//! The paper's architecture (§4) runs the utilization monitors and rate
//! modulators *on the controlled processors* and connects them to the
//! controller through per-processor TCP connections — the feedback
//! lanes.  A [`ClosedLoop`](crate::ClosedLoop) finished with
//! [`LoopBuilder::distributed`](crate::LoopBuilder::distributed) makes
//! that split real: it owns a `NetRuntime`, and every sampling period
//! each processor node sends a [`Frame::UtilizationReport`] over its
//! lane, the controller node computes new rates and answers with one
//! [`Frame::RateCommand`] per lane, and the modulators merge whatever
//! arrived into the rates in force.  The rest of the period — plant,
//! faults, controller, telemetry — is the single-process loop's code.
//!
//! One lane engine carries every frame (`eucon-net`'s `PollEngine`, one
//! per node, both held by a [`LaneFabric`]) over one of two links:
//! in-memory pipes — the *ideal lane*, whose closed-loop traces are
//! bit-identical to the single-process loop — or real loopback TCP.
//! Network effects (per-lane delay and loss) sit in front of either as
//! per-lane [`DelayLossGate`]s configured by a [`LaneModel`] per
//! direction — the only place a delayed or lossy lane exists.
//!
//! Lost or late frames never stall the loop.  Each exchange waits for
//! exactly the frames it wrote to a transport this period and has not
//! yet seen on the other end — a frame the lane model dropped or still
//! holds cannot arrive and is never waited for, so the receive window
//! bounds real transport latency only.  A lane that delivered nothing is
//! marked stale, the controller reuses the lane's last delivered
//! utilization (zero before the first delivery), and the watchdog is
//! notified via [`RateController::note_stale`] so a dead lane eventually
//! trips the same degraded mode as a dead monitor.  A lane torn by a hangup, an
//! I/O error or a malformed frame is stale until the fabric re-dials it
//! (every period starts with [`LaneFabric::heal`]); one retired with
//! `PollEngine::deregister` stays down.
//!
//! See DESIGN.md §13 for the node topology, the frame format and the
//! backpressure/re-dial policy.
//!
//! [`Frame::UtilizationReport`]: eucon_net::Frame::UtilizationReport
//! [`Frame::RateCommand`]: eucon_net::Frame::RateCommand
//! [`RateController::note_stale`]: eucon_control::RateController::note_stale

use std::time::{Duration, Instant};

use eucon_math::Vector;
use eucon_net::{
    memory_lane_fabric, tcp_lane_fabric, DelayLossGate, Frame, FrameKind, FrameView, LaneFabric,
    PollEngine, TcpConfig, TransportStats,
};

use crate::telemetry::NetPeriod;
use crate::CoreError;

/// Which link carries the feedback lanes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NetBackend {
    /// In-memory links — the ideal lane (synchronous delivery,
    /// bit-identical traces to the single-process loop).
    Channel,
    /// Real loopback TCP over `std::net` (nonblocking, per-lane send
    /// timeouts, torn lanes re-dialed with exponential backoff plus
    /// jitter).
    Tcp(TcpConfig),
}

/// Delay/loss model of one direction of a set of lanes: reports
/// (processor → controller), commands (controller → processor), shard
/// boundary lanes or a tenant's lanes.  Each lane crosses its own
/// [`DelayLossGate`]; lane `p` draws its losses from `seed + p`, so lanes
/// fail independently.  A lost or late report leaves the controller on
/// the lane's last delivered value (zero before the first delivery); a
/// lost or late command leaves the tasks on the rates in force.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneModel {
    /// Whole sampling periods each frame spends in flight (0 = the
    /// paper's idealized lanes).
    pub delay: usize,
    /// Probability that a frame is lost, in `[0, 1)`.
    pub loss_probability: f64,
    /// RNG seed for loss draws.
    pub seed: u64,
}

impl LaneModel {
    /// The paper's idealization: zero delay, zero loss.
    pub fn ideal() -> Self {
        LaneModel {
            delay: 0,
            loss_probability: 0.0,
            seed: 0,
        }
    }

    /// Lanes with a fixed delay (in sampling periods).
    pub fn delayed(periods: usize) -> Self {
        LaneModel {
            delay: periods,
            ..LaneModel::ideal()
        }
    }

    /// Lanes dropping each frame independently with probability `p`.
    ///
    /// Never panics: every consumer of a lane model runs
    /// [`LaneModel::validate`], which rejects `p` outside `[0, 1)`.
    pub fn lossy(p: f64, seed: u64) -> Self {
        LaneModel {
            delay: 0,
            loss_probability: p,
            seed,
        }
    }

    /// Checks the model's domain — the one validation every option
    /// carrying a lane model goes through: the distributed finisher,
    /// a service tenant and the shard boundary lanes (`what` names the
    /// option in the error).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] unless the loss probability lies in
    /// `[0, 1)` (`NaN` is rejected).
    pub fn validate(&self, what: &str) -> Result<(), CoreError> {
        if (0.0..1.0).contains(&self.loss_probability) {
            Ok(())
        } else {
            Err(CoreError::Config(format!(
                "{what}: loss probability must be in [0, 1), got {}",
                self.loss_probability
            )))
        }
    }
}

impl Default for LaneModel {
    fn default() -> Self {
        LaneModel::ideal()
    }
}

/// Transport configuration of a distributed loop
/// ([`LoopBuilder::distributed`](crate::LoopBuilder::distributed)): the
/// link plus the network effects layered on each direction of every
/// lane.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The link the lanes run over.
    pub backend: NetBackend,
    /// Delay/loss applied to utilization reports (processor → controller).
    /// Lane `p` draws losses from `seed + p`, so lanes fail independently.
    pub report_lanes: LaneModel,
    /// Delay/loss applied to rate commands (controller → processor).
    pub command_lanes: LaneModel,
    /// The bound on real transport latency: how long an exchange waits
    /// for frames *written to a link this period* and not yet seen on
    /// the other end.  Frames the lane model dropped or still delays are
    /// never waited for, so the window costs nothing unless a frame is
    /// genuinely late.  In-memory links deliver synchronously and want
    /// [`Duration::ZERO`]; TCP needs a small window for the kernel round
    /// trip.
    pub recv_timeout: Duration,
}

impl NetConfig {
    /// Ideal in-memory lanes: no delay, no loss, no receive window
    /// (delivery is synchronous).
    pub fn channel() -> Self {
        NetConfig {
            backend: NetBackend::Channel,
            report_lanes: LaneModel::ideal(),
            command_lanes: LaneModel::ideal(),
            recv_timeout: Duration::ZERO,
        }
    }

    /// Loopback-TCP lanes with default tuning and a 2 ms receive window.
    pub fn tcp() -> Self {
        NetConfig {
            backend: NetBackend::Tcp(TcpConfig::default()),
            report_lanes: LaneModel::ideal(),
            command_lanes: LaneModel::ideal(),
            recv_timeout: Duration::from_millis(2),
        }
    }

    /// The same configuration as [`NetConfig::tcp`]: there is one lane
    /// engine, and it is the poll engine.  Kept as a forward because the
    /// benchmark harness under `perf/` calls it; it goes with the next
    /// benchmark PR.
    pub fn tcp_poll() -> Self {
        NetConfig::tcp()
    }

    /// Replaces the report-lane delay/loss model.
    pub fn report_lanes(mut self, model: LaneModel) -> Self {
        self.report_lanes = model;
        self
    }

    /// Replaces the command-lane delay/loss model.
    pub fn command_lanes(mut self, model: LaneModel) -> Self {
        self.command_lanes = model;
        self
    }

    /// Overrides the per-period receive window.
    pub fn recv_timeout(mut self, window: Duration) -> Self {
        self.recv_timeout = window;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::channel()
    }
}

/// One direction of every lane of a fabric: its delay/loss gates and the
/// sequence bookkeeping that tells a frame in flight from one the model
/// is holding.  Processor lanes and shard boundary lanes both send
/// through it; the caller names the sending engine (`proc` on the way
/// up, `ctrl` on the way down).
pub(crate) struct Direction {
    kind: FrameKind,
    /// Per-lane gates, empty when the model is ideal (the transparent
    /// path costs nothing).
    gates: Vec<DelayLossGate>,
    /// Sequence number of the newest frame [`exchange`] offered.
    seq: u64,
    /// Newest sequence a link accepted per lane: direct sends and frames
    /// a gate released count; modelled losses, still-delayed frames and
    /// sends that failed on a dead lane do not.
    wire_seq: Vec<u64>,
    /// Newest sequence seen on the receiving end per lane (late
    /// duplicates never roll a lane backwards).
    seen_seq: Vec<u64>,
}

impl Direction {
    /// `lanes` lanes carrying `kind` frames under `model`; lane `p`
    /// draws its losses from `model.seed + p · seed_stride`.
    pub(crate) fn new(kind: FrameKind, model: &LaneModel, lanes: usize, seed_stride: u64) -> Self {
        let gates = if model.delay == 0 && model.loss_probability == 0.0 {
            Vec::new()
        } else {
            (0..lanes as u64)
                .map(|p| {
                    DelayLossGate::new(
                        model.delay,
                        model.loss_probability,
                        model.seed.wrapping_add(p.wrapping_mul(seed_stride)),
                    )
                })
                .collect()
        };
        Direction {
            kind,
            gates,
            seq: 0,
            wire_seq: vec![0; lanes],
            seen_seq: vec![0; lanes],
        }
    }

    /// Puts one frame on lane `p`: into its gate when the direction has
    /// a lane model, else straight from the iterator into the engine's
    /// encoder (the allocation-free path).  A send that fails surfaces
    /// in the endpoint stats; the lane is simply stale this period.
    pub(crate) fn offer(
        &mut self,
        tx: &mut PollEngine,
        p: usize,
        seq: u64,
        period: u64,
        shard: u16,
        values: impl ExactSizeIterator<Item = f64>,
    ) {
        if let Some(gate) = self.gates.get_mut(p) {
            // Queued: only a transparent gate passes an offer straight
            // through, and those are not built.
            let _ = gate.offer(Frame::new(self.kind, seq, period, shard, values.collect()));
        } else if tx.send(p, self.kind, seq, period, shard, values).is_ok() {
            self.wire_seq[p] = self.wire_seq[p].max(seq);
        }
    }

    /// One tick of the lane model's clock: every gate releases the
    /// frames whose delay elapsed onto its lane, or drops them on their
    /// loss draw.
    pub(crate) fn tick(&mut self, tx: &mut PollEngine) {
        for (p, gate) in self.gates.iter_mut().enumerate() {
            let wire_seq = &mut self.wire_seq[p];
            gate.tick(|frame| {
                if tx.send_frame(p, &frame).is_ok() {
                    *wire_seq = (*wire_seq).max(frame.seq());
                }
            });
        }
    }

    /// A gated direction reports offers as sends and folds loss draws
    /// into drops, regardless of what reached the link.
    pub(crate) fn mirror_into(&self, sender: &mut TransportStats) {
        if !self.gates.is_empty() {
            sender.sent = self.gates.iter().map(DelayLossGate::accepted).sum();
            sender.dropped += self.gates.iter().map(DelayLossGate::lost).sum::<u64>();
        }
    }
}

/// One direction of one period on every reachable lane, from engine `tx`
/// to engine `rx`: offer this period's frame (`payload(p)`, built as
/// lane `p` sends), tick the gates — the lane model's clock — then drain
/// the receiving ends into `deliver` until every frame a link accepted
/// has been seen or `window` closes.  A frame the model dropped or still
/// holds cannot arrive and is never waited for, nor is one written to a
/// link that has since been torn; in-memory links deliver synchronously,
/// so their first pass suffices.
///
/// Returns whether the window closed on a written frame still unseen.
fn exchange<I: ExactSizeIterator<Item = f64>>(
    (tx, rx): (&mut PollEngine, &mut PollEngine),
    d: &mut Direction,
    k: usize,
    window: Duration,
    partitioned: &[usize],
    mut payload: impl FnMut(usize) -> I,
    mut deliver: impl FnMut(usize, FrameView<'_>),
) -> bool {
    d.seq += 1;
    for p in (0..d.seen_seq.len()).filter(|p| !partitioned.contains(p)) {
        d.offer(tx, p, d.seq, k as u64, 0, payload(p));
    }
    d.tick(tx);
    let deadline = Instant::now() + window;
    loop {
        let mut in_flight = false;
        for p in (0..d.seen_seq.len()).filter(|p| !partitioned.contains(p)) {
            let seen = &mut d.seen_seq[p];
            // Receive and decode errors tear the lane down inside the
            // engine; the loop sees a stale lane.
            let _ = rx.drain(p, |view| {
                // A delayed frame still counts as the delivery — the
                // receiver acts on it k − d periods late.
                if view.kind() == d.kind && view.seq() >= *seen {
                    *seen = view.seq();
                    deliver(p, view);
                }
            });
            in_flight |= *seen < d.wire_seq[p] && rx.lane_connected(p);
        }
        if !in_flight || Instant::now() >= deadline {
            return in_flight;
        }
        std::thread::yield_now();
    }
}

/// The transport side of a distributed loop: one bidirectional lane per
/// processor, the per-lane freshness/stale bookkeeping, and the merge
/// scratch for partially delivered rate commands.
///
/// Owned by [`ClosedLoop`](crate::ClosedLoop) (boxed, `None` in
/// single-process mode) so the period step can route phase 4 (reports)
/// and phase 6 (commands) through the lanes without duplicating the loop
/// itself.
pub(crate) struct NetRuntime {
    fabric: LaneFabric,
    reports: Direction,
    commands: Direction,
    backend_name: &'static str,
    recv_timeout: Duration,
    /// Tasks whose rate modulator lives on each processor, ascending —
    /// the payload layout of that lane's [`Frame::RateCommand`].
    tasks_of: Vec<Vec<usize>>,
    /// Last utilization each lane delivered (zeros before the first
    /// delivery) — what a stale lane's entry falls back to.
    hold: Vector,
    /// Whether a report arrived on the lane this period.
    fresh: Vec<bool>,
    /// When this period's report left each processor node — the start of
    /// the lane's RTT measurement.
    sent_at: Vec<Option<Instant>>,
    /// Completed report→command round trips this period, nanoseconds.
    rtt_scratch: Vec<u64>,
    /// Rates in force merged with whatever commands arrived.
    cmd_scratch: Vector,
    /// Frames not sent this period because the lane was partitioned.
    period_partition_lost: u64,
    /// Lanes whose hold value was reused this period.
    period_stale: u64,
    /// Wall time of this period's report / command exchange, nanoseconds
    /// (the command span stays 0 in a period where no command crossed).
    period_reports_ns: u64,
    period_commands_ns: u64,
    /// Whether a receive window closed this period with a written frame
    /// still unseen.
    period_window_expired: bool,
    /// Aggregate endpoint stats at the last observation (delta source).
    last_stats: TransportStats,
}

impl NetRuntime {
    /// Connects the lanes `cfg` describes; its lane models were validated
    /// by the loop builder.
    pub(crate) fn new(
        cfg: &NetConfig,
        num_procs: usize,
        head_proc: &[usize],
    ) -> Result<NetRuntime, CoreError> {
        let (fabric, backend_name) = match &cfg.backend {
            NetBackend::Channel => (memory_lane_fabric(num_procs), "channel"),
            NetBackend::Tcp(tcp) => (
                tcp_lane_fabric(tcp, num_procs).map_err(eucon_net::TransportError::from)?,
                "tcp",
            ),
        };
        let mut tasks_of = vec![Vec::new(); num_procs];
        for (t, &p) in head_proc.iter().enumerate() {
            tasks_of[p].push(t);
        }
        let (up, down) = (FrameKind::UtilizationReport, FrameKind::RateCommand);
        Ok(NetRuntime {
            fabric,
            reports: Direction::new(up, &cfg.report_lanes, num_procs, 1),
            commands: Direction::new(down, &cfg.command_lanes, num_procs, 1),
            backend_name,
            recv_timeout: cfg.recv_timeout,
            tasks_of,
            hold: Vector::zeros(num_procs),
            fresh: vec![false; num_procs],
            sent_at: vec![None; num_procs],
            rtt_scratch: Vec::with_capacity(num_procs),
            cmd_scratch: Vector::zeros(head_proc.len()),
            period_partition_lost: 0,
            period_stale: 0,
            period_reports_ns: 0,
            period_commands_ns: 0,
            period_window_expired: false,
            last_stats: TransportStats::default(),
        })
    }

    /// Registers a newly-admitted task whose rate modulator lives on
    /// processor `head`.  The task takes the next command-vector slot
    /// (slots are never recycled, so the new id is the largest and the
    /// per-lane ascending payload layout is preserved on both endpoints
    /// of the lane).
    pub(crate) fn add_task(&mut self, head: usize) {
        let t = self.cmd_scratch.len();
        self.tasks_of[head].push(t);
        self.cmd_scratch.push(0.0);
    }

    /// Phase 4 of a distributed period: each processor node sends its
    /// utilization over its lane, the controller node collects what
    /// arrives and fills silent lanes from the hold values.
    ///
    /// Returns `None` when the delivered vector is bit-identical to
    /// `u_report` (the ideal-lane common case — nothing to record).
    pub(crate) fn exchange_reports(
        &mut self,
        k: usize,
        u_report: &Vector,
        partitioned: &[usize],
    ) -> Option<Vector> {
        let started = Instant::now();
        self.fabric.heal();
        self.rtt_scratch.clear();
        self.period_partition_lost = partitioned.len() as u64;
        self.fresh.fill(false);
        self.sent_at.fill(None);
        let (hold, fresh, sent_at) = (&mut self.hold, &mut self.fresh, &mut self.sent_at);
        self.period_window_expired = exchange(
            (&mut self.fabric.proc, &mut self.fabric.ctrl),
            &mut self.reports,
            k,
            self.recv_timeout,
            partitioned,
            |p| {
                sent_at[p] = Some(Instant::now());
                std::iter::once(u_report[p])
            },
            |p, view| {
                if !view.is_empty() {
                    hold[p] = view.value(0);
                    fresh[p] = true;
                }
            },
        );
        self.period_stale = self.fresh.iter().filter(|f| !**f).count() as u64;
        self.period_reports_ns = started.elapsed().as_nanos() as u64;
        self.period_commands_ns = 0;
        let n = self.fresh.len();
        let identical = (0..n).all(|p| self.hold[p].to_bits() == u_report[p].to_bits());
        if identical {
            None
        } else {
            Some(self.hold.clone())
        }
    }

    /// Whether lane `p` delivered nothing in the last exchange (its hold
    /// value was reused).
    pub(crate) fn lane_stale(&self, p: usize) -> bool {
        !self.fresh[p]
    }

    /// Phase 6 of a distributed period: the controller node routes each
    /// processor's slice of `cmd` over its lane; the modulators merge
    /// what arrives into the rates `in_force` (a lane that delivers
    /// nothing keeps its tasks' rates unchanged).
    pub(crate) fn actuate(
        &mut self,
        k: usize,
        cmd: &Vector,
        in_force: &[f64],
        partitioned: &[usize],
    ) -> &Vector {
        let started = Instant::now();
        self.cmd_scratch.copy_from_slice(in_force);
        self.period_partition_lost += partitioned.len() as u64;
        let tasks_of = &self.tasks_of;
        let (cmd_scratch, sent_at, rtt_scratch) = (
            &mut self.cmd_scratch,
            &mut self.sent_at,
            &mut self.rtt_scratch,
        );
        self.period_window_expired |= exchange(
            (&mut self.fabric.ctrl, &mut self.fabric.proc),
            &mut self.commands,
            k,
            self.recv_timeout,
            partitioned,
            move |p| tasks_of[p].iter().map(move |&t| cmd[t]),
            |p, view| {
                // A command delayed past its period still takes effect
                // when it arrives (honest lane delay).
                if view.len() == tasks_of[p].len() {
                    for (&t, rate) in tasks_of[p].iter().zip(view.values()) {
                        cmd_scratch[t] = rate;
                    }
                }
                if view.period() == k as u64 {
                    if let Some(at) = sent_at[p].take() {
                        rtt_scratch.push(at.elapsed().as_nanos() as u64);
                    }
                }
            },
        );
        self.period_commands_ns = started.elapsed().as_nanos() as u64;
        &self.cmd_scratch
    }

    /// Aggregate stats over every endpoint of every lane (both sides, so
    /// report and command traffic are both counted once, at the sender
    /// and the receiver respectively).
    pub(crate) fn aggregate_stats(&self) -> TransportStats {
        let (mut ctrl, mut proc) = (self.fabric.ctrl.stats(), self.fabric.proc.stats());
        self.reports.mirror_into(&mut proc);
        self.commands.mirror_into(&mut ctrl);
        ctrl.merge(&proc)
    }

    /// Lanes whose hold value was reused in the last exchange — the
    /// health signal the control service's eviction policy watches.
    pub(crate) fn stale_lanes(&self) -> u64 {
        self.period_stale
    }

    pub(crate) fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// This period's transport activity for the telemetry registry
    /// (per-period deltas of the cumulative endpoint stats, plus the
    /// period-local stale/partition/RTT/span bookkeeping).
    pub(crate) fn period_observation(&mut self) -> NetPeriod<'_> {
        let agg = self.aggregate_stats();
        let last = self.last_stats;
        self.last_stats = agg;
        NetPeriod {
            sent: agg.sent.saturating_sub(last.sent),
            received: agg.received.saturating_sub(last.received),
            lost: agg.dropped.saturating_sub(last.dropped) + self.period_partition_lost,
            reconnects: agg.reconnects.saturating_sub(last.reconnects),
            decode_errors: agg.decode_errors.saturating_sub(last.decode_errors),
            stale_reuse: self.period_stale,
            rtt_ns: &self.rtt_scratch,
            exchange_reports_ns: self.period_reports_ns,
            exchange_commands_ns: self.period_commands_ns,
            recv_window_expired: self.period_window_expired,
        }
    }
}

impl std::fmt::Debug for NetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("backend", &self.backend_name)
            .field("lanes", &self.fresh.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoopBuilder, RunResult};
    use eucon_sim::{FaultPlan, SimConfig};
    use eucon_tasks::workloads;

    /// SIMPLE at `etf = 0.5` under the default EUCON controller.
    fn simple() -> LoopBuilder {
        LoopBuilder::new(workloads::simple()).sim_config(SimConfig::constant_etf(0.5))
    }

    fn single(periods: usize) -> RunResult {
        simple().local().unwrap().run(periods)
    }

    fn tcp(window_ms: u64) -> NetConfig {
        NetConfig::tcp().recv_timeout(Duration::from_millis(window_ms))
    }

    #[test]
    fn ideal_channel_lanes_match_the_single_process_loop_bitwise() {
        let want = single(40);
        let mut dl = simple().distributed(NetConfig::channel()).unwrap();
        let got = dl.run(40);
        assert_eq!(dl.backend_name(), "channel");
        assert_eq!(got.trace, want.trace, "traces must be bit-identical");
        assert_eq!(got.control_errors, 0);
        // Every step delivered unchanged — no received vectors recorded.
        assert!(got.trace.steps().iter().all(|s| s.received.is_none()));
        // 2 lanes × (1 report + 1 command) × 40 periods.
        let stats = dl.transport_stats();
        assert_eq!(stats.sent, 160);
        assert_eq!(stats.received, 160);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn an_out_of_domain_lossy_model_is_a_typed_error_on_every_path() {
        use crate::service::{ControlService, EvictionPolicy, TenantSpec};
        use crate::{BoundaryMode, ControllerSpec};
        use eucon_control::MpcConfig;
        for p in [1.0, f64::NAN] {
            let bad = LaneModel::lossy(p, 3);
            let loss = |e: &CoreError| e.to_string().contains("loss probability");
            // The distributed finisher.
            let err = simple()
                .distributed(NetConfig::channel().command_lanes(bad.clone()))
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Config(_)) && loss(&err),
                "{p}: {err:?}"
            );
            // A service tenant, rejected before it binds a socket.
            let spec = TenantSpec::new("t", workloads::simple()).report_lanes(bad.clone());
            let err = ControlService::new(EvictionPolicy::default())
                .attach(spec)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Config(_)) && loss(&err),
                "{p}: {err:?}"
            );
            // The shard boundary, through the builder and through the spec.
            let sharded = ControllerSpec::Sharded {
                mpc: MpcConfig::medium(),
                shard_size: 2,
                boundary: BoundaryMode::LossyLanes(bad),
            };
            let err = LoopBuilder::new(workloads::medium())
                .controller(sharded.clone())
                .local()
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Control(_)) && loss(&err),
                "{p}: {err:?}"
            );
            let set = workloads::medium();
            let Err(err) = sharded.build(&set, &eucon_tasks::rms_set_points(&set)) else {
                panic!("{p}: the spec built a boundary that loses everything");
            };
            assert!(err.to_string().contains("loss probability"), "{p}: {err:?}");
        }
    }

    #[test]
    fn certain_command_loss_freezes_the_plant_at_its_initial_rates() {
        let mut dl = simple()
            .distributed(NetConfig::channel().command_lanes(LaneModel::lossy(1.0 - 1e-9, 7)))
            .unwrap();
        let r0 = Vector::from_slice(dl.simulator().rates_slice());
        let result = dl.run(30);
        // Every command lost: the plant never leaves its initial rates.
        for step in result.trace.steps() {
            assert!(step.rates.approx_eq(&r0, 0.0));
        }
        assert!(result.telemetry.counter("frames_lost").unwrap() >= 30);
        assert_eq!(dl.transport_stats().dropped, 60, "2 lanes × 30 periods");
    }

    #[test]
    fn lossy_report_lanes_reuse_the_hold_value_and_count_stale() {
        let mut dl = simple()
            .distributed(NetConfig::channel().report_lanes(LaneModel::lossy(0.3, 11)))
            .unwrap();
        let result = dl.run(60);
        assert_eq!(result.control_errors, 0);
        let stats = dl.transport_stats();
        assert!(stats.dropped > 0, "30% loss must drop frames");
        let stale = result.telemetry.counter("stale_report_reuse").unwrap();
        assert!(stale > 0, "lost reports reuse the hold value");
        assert_eq!(result.telemetry.counter("frames_lost"), Some(stats.dropped));
        // Loss shows up as received vectors differing from the truth.
        assert!(result.trace.steps().iter().any(|s| s.received.is_some()));
    }

    #[test]
    fn delayed_report_lanes_shift_what_the_controller_sees() {
        let net = NetConfig::channel().report_lanes(LaneModel::delayed(2));
        let mut dl = simple().distributed(net).unwrap();
        let result = dl.run(20);
        let steps = result.trace.steps();
        // The first two periods deliver nothing: the controller saw zeros.
        for (k, step) in steps.iter().enumerate().take(2) {
            let seen = step.seen();
            assert!((0..2).all(|p| seen[p] == 0.0), "period {k} not held at 0");
        }
        // From period 2 on, the controller sees u(k − 2) bit-for-bit.
        for k in 2..20 {
            let seen = steps[k].seen();
            for p in 0..2 {
                assert_eq!(
                    seen[p].to_bits(),
                    steps[k - 2].utilization[p].to_bits(),
                    "period {k} lane {p}"
                );
            }
        }
    }

    #[test]
    fn tcp_lanes_run_the_loop_with_zero_errors() {
        // A generous window keeps the bit-exactness assertions below
        // deterministic even on a loaded CI machine.
        let want = single(30);
        let mut dl = simple().distributed(tcp(50)).unwrap();
        let result = dl.run(30);
        assert_eq!(dl.backend_name(), "tcp");
        assert_eq!(result.control_errors, 0);
        assert_eq!(result.trace, want.trace, "tcp lanes must be lossless");
        let stats = dl.transport_stats();
        assert_eq!(stats.sent, 120, "2 lanes × 2 directions × 30 periods");
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.bytes_sent > 0, "real bytes crossed the wire");
        // Loopback TCP is fast and lossless: everything arrived, so the
        // trace records no mutated deliveries.
        assert_eq!(stats.received, 120);
        assert!(result.trace.steps().iter().all(|s| s.received.is_none()));
        assert!(
            result.telemetry.histogram("lane_rtt_ns").unwrap().count > 0,
            "round trips were measured"
        );
    }

    #[test]
    fn partitioned_lanes_freeze_reports_and_commands() {
        let mut dl = simple()
            .faults(FaultPlan::none().partition(1, 10, 15))
            .distributed(NetConfig::channel())
            .unwrap();
        let result = dl.run(30);
        assert_eq!(result.faults.partitioned_periods, 5);
        let steps = result.trace.steps();
        assert_eq!(steps[10].annotations.partitioned, vec![1]);
        assert!(steps[9].annotations.partitioned.is_empty());
        // During the partition the controller sees lane 1's last
        // delivery, while the live lane stays fresh.
        let held = steps[9].utilization[1];
        for (k, step) in steps.iter().enumerate().take(15).skip(10) {
            assert_eq!(
                step.seen()[1].to_bits(),
                held.to_bits(),
                "period {k} must reuse the pre-partition report"
            );
            assert_eq!(
                step.seen()[0].to_bits(),
                step.utilization[0].to_bits(),
                "lane 0 unaffected at period {k}"
            );
        }
        // Commands can't reach the partitioned processor either: every
        // task modulated there holds its rate across the window.
        let set = workloads::simple();
        let mut held_tasks = 0;
        for (t, task) in set.tasks().iter().enumerate() {
            if task.subtasks()[0].processor.0 == 1 {
                held_tasks += 1;
                for (k, step) in steps.iter().enumerate().take(15).skip(10) {
                    assert_eq!(
                        step.rates[t].to_bits(),
                        steps[9].rates[t].to_bits(),
                        "T{} must hold its rate at period {k}",
                        t + 1
                    );
                }
            }
        }
        assert!(held_tasks > 0, "some task is modulated on P2");
        // After it heals, fresh reports flow again.
        assert!(steps[16].received.is_none());
        assert!(
            result.telemetry.counter("stale_report_reuse").unwrap() >= 5,
            "each partitioned period reused the hold value"
        );
    }

    #[test]
    fn a_dead_poll_lane_goes_stale_without_costing_a_window_each_period() {
        let window = Duration::from_millis(100);
        let mut dl = simple().distributed(tcp(100)).unwrap();
        for _ in 0..10 {
            dl.step();
        }
        dl.net.as_mut().unwrap().fabric.proc.deregister(1);
        let started = Instant::now();
        for _ in 0..30 {
            dl.step();
            let net = dl.net.as_ref().unwrap();
            assert!(net.lane_stale(1) && !net.lane_stale(0));
        }
        // Sends on the dead lane fail, so nothing is in flight on it; at
        // most the period that discovers the hangup waits a window out.
        // Retired is for good: no heal pass brought the lane back.
        let wall = started.elapsed();
        assert!(wall < 3 * window, "30 periods took {wall:?}");
        let result = dl.into_result();
        assert_eq!(result.control_errors, 0);
        assert_eq!(result.telemetry.counter("stale_report_reuse"), Some(30));
        assert_eq!(result.telemetry.counter("lane_reconnects"), Some(0));
        assert!(result.telemetry.counter("recv_window_expired").unwrap() <= 2);
    }

    #[test]
    fn a_torn_lane_is_re_dialed_under_a_running_loop() {
        let window = Duration::from_millis(100);
        // `EUCON_TCP_SEED` (the CI `net` job's seed matrix) varies the
        // backoff jitter stream.
        let seed = std::env::var("EUCON_TCP_SEED").ok();
        let mut tcp = TcpConfig::default();
        tcp.jitter_seed = seed.and_then(|s| s.parse().ok()).unwrap_or(tcp.jitter_seed);
        let cap = tcp.max_backoff.mul_f64(1.5);
        let mut net = NetConfig::tcp().recv_timeout(window);
        net.backend = NetBackend::Tcp(tcp);
        let mut dl = simple().distributed(net).unwrap();
        for _ in 0..10 {
            dl.step();
        }
        // A real fault: the socket dies under the engine, which is not told.
        dl.net.as_mut().unwrap().fabric.proc.sever(1);
        let torn_at = Instant::now();
        let mut down_periods = 0;
        loop {
            let started = Instant::now();
            dl.step();
            // At most the period that discovers the tear waits a window
            // out, and a heal pass is no slower than a send.
            let wall = started.elapsed();
            assert!(wall < 2 * window, "a period took {wall:?}");
            let net = dl.net.as_ref().unwrap();
            assert!(!net.lane_stale(0), "the healthy lane never noticed");
            if !net.lane_stale(1) {
                break;
            }
            down_periods += 1;
            assert!(
                torn_at.elapsed() < cap + Duration::from_secs(2),
                "lane 1 still down after {down_periods} periods"
            );
        }
        assert!(
            down_periods >= 1,
            "a severed lane is stale while it is down"
        );
        // Healed for good: the next periods are all fresh on both lanes.
        for _ in 0..20 {
            dl.step();
            let net = dl.net.as_ref().unwrap();
            assert!(!net.lane_stale(0) && !net.lane_stale(1));
        }
        let result = dl.into_result();
        assert_eq!(result.control_errors, 0);
        // One reconnect per end of the re-dialed lane.
        assert_eq!(result.telemetry.counter("lane_reconnects"), Some(2));
        assert_eq!(
            result.telemetry.counter("stale_report_reuse"),
            Some(down_periods)
        );
        assert!(result.telemetry.counter("recv_window_expired").unwrap() <= 1);
    }
}
