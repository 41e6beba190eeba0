//! The multi-tenant control service: many independent plants behind one
//! long-running daemon.
//!
//! A *tenant* is one complete EUCON deployment — task set, simulator,
//! controller, telemetry registry and its own poll-engine lane fabric —
//! described by a [`TenantSpec`] and attached to a [`ControlService`].
//! The service steps every healthy tenant once per service period, fully
//! isolated from the others: tenants share nothing but the scheduler
//! thread, so one tenant's partitioned lanes or controller faults can
//! never perturb another tenant's trace (pinned by the isolation test in
//! `tests/service_isolation.rs`).
//!
//! ## Tenancy health: quarantine → stale-hold → evict
//!
//! The service watches each tenant's lane health through the distributed
//! runtime's stale counter.  A period in which *every* lane reused its
//! hold value is a *silent* period; consecutive silent periods escalate:
//!
//! ```text
//! Healthy ──(quarantine_after silent)──▶ Quarantined ──(evict_after)──▶ Evicted
//!    ▲                                       │
//!    └──────────(any lane delivers)──────────┘  (Recovered)
//! ```
//!
//! Quarantined tenants keep stepping on stale-hold rates (the EUCON
//! degradation story: the last commanded rates stay in force).  Evicted
//! tenants stop consuming service periods; their accumulated result
//! stays retrievable via [`ControlService::detach`].  Every transition
//! is a typed [`TenantEvent`].
//!
//! ## The daemon
//!
//! [`ControlService::spawn`] promotes the service into a daemon thread
//! owning a loopback admin listener with a line-oriented protocol
//! (`PING` / `ATTACH` / `DETACH` / `STATS` / `TENANTS` / `EVENTS` /
//! `SHUTDOWN`), one request per line, responses as zero or more
//! `DATA ...` lines closed by `OK ...` or `ERR ...`; a line longer than
//! 4 KiB is answered `ERR line too long` and its connection closed.
//! [`ServiceClient`] is the matching blocking client.  See DESIGN.md §17.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eucon_control::MpcConfig;
use eucon_math::Vector;
use eucon_net::TransportStats;
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::{workloads, TaskSet};

use crate::plant::PlantFactory;
use crate::{ClosedLoop, ControllerSpec, CoreError, LaneModel, LoopBuilder, NetConfig, RunResult};

/// Identifies one tenant inside a [`ControlService`].
///
/// Ids are dense attach-order indices and are never reused, so a stale
/// id held by an admin client can never alias a newer tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's slot index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A tenant's position in the quarantine → evict state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantHealth {
    /// Lanes are delivering; the tenant steps normally.
    Healthy,
    /// Every lane has been silent for at least `quarantine_after`
    /// consecutive periods; the tenant still steps, riding stale-hold.
    Quarantined,
    /// The silence outlasted `evict_after`; the tenant no longer steps.
    Evicted,
}

impl fmt::Display for TenantHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TenantHealth::Healthy => "healthy",
            TenantHealth::Quarantined => "quarantined",
            TenantHealth::Evicted => "evicted",
        })
    }
}

/// When lane silence escalates a tenant's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Consecutive all-lanes-silent periods before quarantine.
    pub quarantine_after: u32,
    /// Consecutive all-lanes-silent periods before eviction (must be
    /// at least `quarantine_after` to be reachable).
    pub evict_after: u32,
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy {
            quarantine_after: 3,
            evict_after: 10,
        }
    }
}

/// A typed record of one tenancy transition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TenantEvent {
    /// A tenant joined the service.
    Attached {
        /// The new tenant.
        tenant: TenantId,
        /// Its admin-facing name.
        name: String,
    },
    /// Every lane went silent long enough to quarantine.
    Quarantined {
        /// The affected tenant.
        tenant: TenantId,
        /// The tenant's period count at the transition.
        period: usize,
    },
    /// A quarantined tenant's lanes delivered again.
    Recovered {
        /// The affected tenant.
        tenant: TenantId,
        /// The tenant's period count at the transition.
        period: usize,
    },
    /// The silence outlasted the policy; the tenant stopped stepping.
    Evicted {
        /// The affected tenant.
        tenant: TenantId,
        /// The tenant's period count at the transition.
        period: usize,
    },
    /// A tenant left the service (its report was handed out).
    Detached {
        /// The departed tenant.
        tenant: TenantId,
        /// The tenant's final period count.
        period: usize,
    },
}

/// Everything needed to stand up one tenant: the loop's description
/// and the lane configuration (poll-engine TCP lanes by default).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    builder: LoopBuilder,
    net: NetConfig,
}

impl TenantSpec {
    /// A tenant named `name` controlling `set` over ideal loopback-TCP
    /// lanes with a 5 ms receive window.
    pub fn new(name: impl Into<String>, set: TaskSet) -> Self {
        let mut net = NetConfig::tcp();
        net.recv_timeout = Duration::from_millis(5);
        TenantSpec {
            name: name.into(),
            builder: LoopBuilder::new(set),
            net,
        }
    }

    /// Chooses the tenant's plant backend (default: the `eucon-sim`
    /// simulator).
    pub fn plant(mut self, factory: impl PlantFactory + 'static) -> Self {
        self.builder = self.builder.plant(factory);
        self
    }

    /// Sets the simulated-plant configuration.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.builder = self.builder.sim_config(sim);
        self
    }

    /// Sets the controller.
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.builder = self.builder.controller(spec);
        self
    }

    /// Overrides the utilization set points.
    pub fn set_points(mut self, b: Vector) -> Self {
        self.builder = self.builder.set_points(b);
        self
    }

    /// Sets the tenant's fault plan (partition windows silence its own
    /// lanes — and only its own).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.builder = self.builder.faults(plan);
        self
    }

    /// Applies delay/loss to the tenant's report lanes.
    pub fn report_lanes(mut self, model: LaneModel) -> Self {
        self.net.report_lanes = model;
        self
    }

    /// Applies delay/loss to the tenant's command lanes.
    pub fn command_lanes(mut self, model: LaneModel) -> Self {
        self.net.command_lanes = model;
        self
    }

    /// Overrides the per-period receive window of the tenant's lanes.
    pub fn recv_timeout(mut self, window: Duration) -> Self {
        self.net.recv_timeout = window;
        self
    }

    /// Replaces the whole transport configuration.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    fn build(self) -> Result<(String, ClosedLoop), CoreError> {
        Ok((self.name, self.builder.distributed(self.net)?))
    }
}

/// One attached tenant: its loop plus the health bookkeeping.
struct Tenant {
    name: String,
    dloop: ClosedLoop,
    health: TenantHealth,
    /// Consecutive periods in which every lane reused its hold value.
    silent_streak: u32,
}

/// The final accounting handed out when a tenant detaches.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant's id.
    pub tenant: TenantId,
    /// The tenant's admin-facing name.
    pub name: String,
    /// Sampling periods the tenant executed.
    pub periods: usize,
    /// Worst per-processor deviation of the tail-window mean
    /// utilization from the set point, over the trace's last quarter
    /// (`NaN` for an empty trace) — the convergence gate.
    pub worst_tail_err: f64,
    /// Health at detach time.
    pub health: TenantHealth,
    /// Aggregate lane counters.
    pub transport: TransportStats,
    /// The full run result (trace, telemetry, fault summary).
    pub result: RunResult,
}

/// Worst per-processor deviation of the tail-window mean utilization
/// from the set point (the convergence criterion of §7, over the last
/// quarter of the trace).
fn worst_tail_error(result: &RunResult) -> f64 {
    let steps = result.trace.steps();
    if steps.is_empty() {
        return f64::NAN;
    }
    let start = steps.len() - (steps.len() / 4).max(1);
    let tail = &steps[start..];
    let mut worst = 0.0f64;
    for (p, &b) in result.set_points.iter().enumerate() {
        let mean = tail.iter().map(|s| s.utilization[p]).sum::<f64>() / tail.len() as f64;
        worst = worst.max((mean - b).abs());
    }
    worst
}

/// Many independent EUCON plants behind one scheduler: attach tenants,
/// step them together, watch their health, detach for the final report.
///
/// # Example
///
/// ```no_run
/// use eucon_core::service::{ControlService, EvictionPolicy, TenantSpec};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut svc = ControlService::new(EvictionPolicy::default());
/// let a = svc.attach(
///     TenantSpec::new("alpha", workloads::simple())
///         .sim_config(SimConfig::constant_etf(0.5)),
/// )?;
/// svc.run(100);
/// let report = svc.detach(a)?;
/// assert!(report.worst_tail_err < 0.05);
/// # Ok(())
/// # }
/// ```
pub struct ControlService {
    tenants: Vec<Option<Tenant>>,
    policy: EvictionPolicy,
    events: Vec<TenantEvent>,
}

impl ControlService {
    /// An empty service with the given eviction policy.
    pub fn new(policy: EvictionPolicy) -> Self {
        ControlService {
            tenants: Vec::new(),
            policy,
            events: Vec::new(),
        }
    }

    /// Builds and attaches a tenant, connecting its lane fabric.
    ///
    /// # Errors
    ///
    /// Everything the tenant's loop builder rejects (bad lane
    /// parameters, socket failures, invalid workloads).
    pub fn attach(&mut self, spec: TenantSpec) -> Result<TenantId, CoreError> {
        let (name, dloop) = spec.build()?;
        let tenant = TenantId(self.tenants.len());
        self.events.push(TenantEvent::Attached {
            tenant,
            name: name.clone(),
        });
        self.tenants.push(Some(Tenant {
            name,
            dloop,
            health: TenantHealth::Healthy,
            silent_streak: 0,
        }));
        Ok(tenant)
    }

    /// Removes a tenant and returns its final report.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for an unknown or already-detached id.
    pub fn detach(&mut self, id: TenantId) -> Result<TenantReport, CoreError> {
        let tenant = self
            .tenants
            .get_mut(id.0)
            .and_then(Option::take)
            .ok_or_else(|| CoreError::Config(format!("unknown tenant {id}")))?;
        let periods = tenant.dloop.periods_elapsed();
        self.events.push(TenantEvent::Detached {
            tenant: id,
            period: periods,
        });
        let transport = tenant.dloop.transport_stats();
        let result = tenant.dloop.into_result();
        Ok(TenantReport {
            tenant: id,
            name: tenant.name,
            periods,
            worst_tail_err: worst_tail_error(&result),
            health: tenant.health,
            transport,
            result,
        })
    }

    /// Steps every non-evicted tenant one sampling period and updates
    /// the health state machine from the lanes' stale counters.
    pub fn step_all(&mut self) {
        let policy = self.policy;
        let events = &mut self.events;
        for (i, slot) in self.tenants.iter_mut().enumerate() {
            let Some(t) = slot else { continue };
            if t.health == TenantHealth::Evicted {
                continue;
            }
            t.dloop.step();
            let lanes = t.dloop.set_points().len() as u64;
            let silent = t
                .dloop
                .net
                .as_ref()
                .map(|n| lanes > 0 && n.stale_lanes() == lanes)
                .unwrap_or(false);
            let period = t.dloop.periods_elapsed();
            if silent {
                t.silent_streak += 1;
            } else {
                if t.health == TenantHealth::Quarantined {
                    t.health = TenantHealth::Healthy;
                    events.push(TenantEvent::Recovered {
                        tenant: TenantId(i),
                        period,
                    });
                }
                t.silent_streak = 0;
            }
            match t.health {
                TenantHealth::Healthy if t.silent_streak >= policy.quarantine_after => {
                    t.health = TenantHealth::Quarantined;
                    events.push(TenantEvent::Quarantined {
                        tenant: TenantId(i),
                        period,
                    });
                }
                TenantHealth::Quarantined if t.silent_streak >= policy.evict_after => {
                    t.health = TenantHealth::Evicted;
                    events.push(TenantEvent::Evicted {
                        tenant: TenantId(i),
                        period,
                    });
                }
                _ => {}
            }
        }
    }

    /// Runs `periods` service periods (each stepping every non-evicted
    /// tenant once).
    pub fn run(&mut self, periods: usize) {
        for _ in 0..periods {
            self.step_all();
        }
    }

    /// A tenant's current health, or `None` after detach / for unknown
    /// ids.
    pub fn health(&self, id: TenantId) -> Option<TenantHealth> {
        self.tenants.get(id.0)?.as_ref().map(|t| t.health)
    }

    /// A tenant's name.
    pub fn name(&self, id: TenantId) -> Option<&str> {
        self.tenants.get(id.0)?.as_ref().map(|t| t.name.as_str())
    }

    /// Sampling periods a tenant has executed.
    pub fn periods(&self, id: TenantId) -> Option<usize> {
        self.tenants
            .get(id.0)?
            .as_ref()
            .map(|t| t.dloop.periods_elapsed())
    }

    /// A tenant's aggregate lane counters.
    pub fn transport_stats(&self, id: TenantId) -> Option<TransportStats> {
        self.tenants
            .get(id.0)?
            .as_ref()
            .map(|t| t.dloop.transport_stats())
    }

    /// Ids of every attached (not yet detached) tenant.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| TenantId(i))
            .collect()
    }

    /// Number of tenants that still step (attached and not evicted).
    pub fn active_tenants(&self) -> usize {
        self.tenants
            .iter()
            .flatten()
            .filter(|t| t.health != TenantHealth::Evicted)
            .count()
    }

    /// Every tenancy transition so far, in order.
    pub fn events(&self) -> &[TenantEvent] {
        &self.events
    }

    /// Tears the service down: detaches every remaining tenant and
    /// returns the event log plus their final reports.
    pub fn into_summary(mut self) -> ServiceSummary {
        let ids = self.tenant_ids();
        let mut reports = Vec::with_capacity(ids.len());
        for id in ids {
            if let Ok(report) = self.detach(id) {
                reports.push(report);
            }
        }
        ServiceSummary {
            events: self.events,
            reports,
        }
    }

    /// Spawns the service as a daemon thread with a loopback admin
    /// listener (see the module docs for the protocol) and returns the
    /// controlling handle.
    ///
    /// The daemon steps all tenants continuously while any are active
    /// and parks briefly when idle; it exits on `SHUTDOWN` or
    /// [`ServiceHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates `std::io::Error` from binding the admin listener.
    pub fn spawn(policy: EvictionPolicy) -> std::io::Result<ServiceHandle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // The service is built inside the thread: loops hold non-Send
        // solver state, so they must live and die on the daemon thread.
        let handle = std::thread::Builder::new()
            .name("eucon-service".into())
            .spawn(move || daemon_loop(ControlService::new(policy), listener, &flag))?;
        Ok(ServiceHandle { addr, stop, handle })
    }
}

impl fmt::Debug for ControlService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlService")
            .field("tenants", &self.tenant_ids().len())
            .field("active", &self.active_tenants())
            .field("policy", &self.policy)
            .finish()
    }
}

/// What a daemon hands back when it exits: the tenancy event log plus
/// the final report of every tenant still attached at shutdown.
#[derive(Debug, Default)]
pub struct ServiceSummary {
    /// Every tenancy transition, in order.
    pub events: Vec<TenantEvent>,
    /// Final reports of the tenants detached at shutdown.
    pub reports: Vec<TenantReport>,
}

/// Controls a daemon started by [`ControlService::spawn`].
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ServiceSummary>,
}

impl ServiceHandle {
    /// The admin listener's address (connect a [`ServiceClient`] here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon and returns its final summary.
    pub fn shutdown(self) -> ServiceSummary {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }

    /// Waits for the daemon to exit on its own (an admin `SHUTDOWN`)
    /// and returns its final summary.
    pub fn join(self) -> ServiceSummary {
        self.handle.join().unwrap_or_default()
    }
}

/// The longest admin command line the daemon buffers, newline
/// excluded.  A client that sends more before its `\n` is answered
/// `ERR line too long` and disconnected, so no connection can grow the
/// daemon — which also runs every tenant — without bound.
const MAX_LINE: usize = 4096;

/// One admin connection's buffers.
struct Conn {
    stream: TcpStream,
    buf: String,
    closed: bool,
}

/// The daemon's event loop: accept admin connections, serve complete
/// command lines, step the tenants.
fn daemon_loop(
    mut service: ControlService,
    listener: TcpListener,
    stop: &AtomicBool,
) -> ServiceSummary {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = [0u8; 1024];
    'outer: while !stop.load(Ordering::Relaxed) {
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                conns.push(Conn {
                    stream,
                    buf: String::new(),
                    closed: false,
                });
            }
        }
        for conn in &mut conns {
            while !conn.closed {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => conn.closed = true,
                    Ok(n) => conn.buf.push_str(&String::from_utf8_lossy(&chunk[..n])),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => conn.closed = true,
                }
                // Serve every complete line before reading on, so the
                // buffer never holds more than one pending line.
                loop {
                    match conn.buf.find('\n') {
                        Some(pos) if pos <= MAX_LINE => {
                            let line: String = conn.buf.drain(..=pos).collect();
                            let (response, shutdown) = handle_command(&mut service, line.trim());
                            if !write_response(&mut conn.stream, &response) {
                                conn.closed = true;
                            }
                            if shutdown {
                                break 'outer;
                            }
                        }
                        None if conn.buf.len() <= MAX_LINE => break,
                        _ => {
                            write_response(&mut conn.stream, "ERR line too long\n");
                            // FIN right behind the reply: the client reads
                            // it, then end-of-stream.
                            let _ = conn.stream.shutdown(Shutdown::Write);
                            conn.closed = true;
                            break;
                        }
                    }
                }
            }
        }
        conns.retain(|c| !c.closed);
        if service.active_tenants() > 0 {
            service.step_all();
        } else {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    service.into_summary()
}

/// Writes a response to a nonblocking admin socket with a bounded retry.
fn write_response(stream: &mut TcpStream, response: &str) -> bool {
    let bytes = response.as_bytes();
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return false,
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Executes one admin command line, returning the full response text
/// (zero or more `DATA` lines plus the `OK`/`ERR` terminator) and
/// whether the daemon should shut down.
fn handle_command(service: &mut ControlService, line: &str) -> (String, bool) {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("").to_ascii_uppercase();
    let args: Vec<&str> = parts.collect();
    match verb.as_str() {
        "PING" => ("OK pong\n".into(), false),
        "SHUTDOWN" => ("OK bye\n".into(), true),
        "ATTACH" => match parse_attach(&args)
            .and_then(|spec| service.attach(spec).map_err(AttachError::Other))
        {
            Ok(id) => (format!("OK {id}\n"), false),
            Err(e) => (format!("ERR {e}\n"), false),
        },
        "DETACH" => match parse_tenant_id(&args).and_then(|id| service.detach(id)) {
            Ok(report) => (
                format!(
                    "DATA name={} periods={} worst_err={:.4} health={}\nOK detached\n",
                    report.name, report.periods, report.worst_tail_err, report.health
                ),
                false,
            ),
            Err(e) => (format!("ERR {e}\n"), false),
        },
        "STATS" => match parse_tenant_id(&args) {
            Ok(id) => match (
                service.name(id),
                service.periods(id),
                service.health(id),
                service.transport_stats(id),
            ) {
                (Some(name), Some(periods), Some(health), Some(t)) => (
                    format!(
                        "DATA name={name} periods={periods} health={health} \
                         sent={} received={} dropped={} decode_errors={}\nOK\n",
                        t.sent, t.received, t.dropped, t.decode_errors
                    ),
                    false,
                ),
                _ => (format!("ERR unknown tenant {id}\n"), false),
            },
            Err(e) => (format!("ERR {e}\n"), false),
        },
        "TENANTS" => {
            let mut out = String::new();
            for id in service.tenant_ids() {
                if let (Some(name), Some(periods), Some(health)) =
                    (service.name(id), service.periods(id), service.health(id))
                {
                    out.push_str(&format!("DATA {id} {name} {health} {periods}\n"));
                }
            }
            out.push_str("OK\n");
            (out, false)
        }
        "EVENTS" => {
            let mut out = String::new();
            for e in service.events() {
                out.push_str(&format!("DATA {e:?}\n"));
            }
            out.push_str("OK\n");
            (out, false)
        }
        "" => ("ERR empty command\n".into(), false),
        other => (format!("ERR unknown command {other}\n"), false),
    }
}

/// Parses `DETACH <id>` / `STATS <id>` arguments.
fn parse_tenant_id(args: &[&str]) -> Result<TenantId, CoreError> {
    args.first()
        .and_then(|s| s.parse::<usize>().ok())
        .map(TenantId)
        .ok_or_else(|| CoreError::Config("expected a numeric tenant id".into()))
}

/// Why an `ATTACH` command was refused, with a stable machine-readable
/// first token on the wire (`ERR unknown-workload ...` vs a plain
/// `ERR <config message>`), so admin tooling can branch on the cause
/// without parsing free-form prose.
enum AttachError {
    /// The workload name is not in the built-in catalog.
    UnknownWorkload(String),
    /// Any other parse or attach failure.
    Other(CoreError),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::UnknownWorkload(w) => {
                write!(f, "unknown-workload {w} (expected simple|medium)")
            }
            AttachError::Other(e) => write!(f, "{e}"),
        }
    }
}

/// Parses `ATTACH <name> <simple|medium> <etf> [loss=P] [delay=D]
/// [seed=N]` into a [`TenantSpec`].
fn parse_attach(args: &[&str]) -> Result<TenantSpec, AttachError> {
    let bad = |m: &str| AttachError::Other(CoreError::Config(m.to_string()));
    let name = *args.first().ok_or_else(|| bad("ATTACH needs a name"))?;
    let workload = *args.get(1).ok_or_else(|| bad("ATTACH needs a workload"))?;
    let etf: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("ATTACH needs a numeric etf"))?;
    // `-1`, `0`, `NaN` and `inf` all parse as `f64`; the simulator
    // asserts on them, and that panic would take the daemon thread —
    // and every tenant on it — down.
    if !(etf.is_finite() && etf > 0.0) {
        return Err(bad("etf must be positive and finite"));
    }
    let (set, mpc) = match workload {
        "simple" => (workloads::simple(), MpcConfig::simple()),
        "medium" => (workloads::medium(), MpcConfig::medium()),
        other => return Err(AttachError::UnknownWorkload(other.to_string())),
    };
    let mut loss = 0.0f64;
    let mut delay = 0usize;
    let mut seed = 0u64;
    for opt in &args[3..] {
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| bad(&format!("malformed option {opt}")))?;
        match key {
            "loss" => loss = value.parse().map_err(|_| bad("bad loss value"))?,
            "delay" => delay = value.parse().map_err(|_| bad("bad delay value"))?,
            "seed" => seed = value.parse().map_err(|_| bad("bad seed value"))?,
            other => return Err(bad(&format!("unknown option {other}"))),
        }
    }
    if !(0.0..1.0).contains(&loss) {
        return Err(bad("loss must be in [0, 1)"));
    }
    let mut spec = TenantSpec::new(name, set)
        .sim_config(SimConfig::constant_etf(etf).seed(seed))
        .controller(ControllerSpec::Eucon(mpc));
    if loss > 0.0 || delay > 0 {
        spec = spec.report_lanes(LaneModel {
            delay,
            loss_probability: loss,
            seed,
        });
    }
    Ok(spec)
}

/// A parsed admin-protocol response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminResponse {
    /// Whether the terminator was `OK` (vs `ERR`).
    pub ok: bool,
    /// The text after the terminator keyword.
    pub status: String,
    /// The payload of every `DATA` line, in order.
    pub data: Vec<String>,
}

/// Blocking client for the daemon's line-oriented admin protocol.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    buf: String,
}

impl ServiceClient {
    /// Connects to a daemon's admin listener with a 10 s read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient {
            stream,
            buf: String::new(),
        })
    }

    /// Sends one command line and reads the response through its
    /// `OK`/`ERR` terminator.
    ///
    /// # Errors
    ///
    /// I/O failures, the read timeout, or the daemon closing the
    /// connection mid-response.
    pub fn request(&mut self, line: &str) -> std::io::Result<AdminResponse> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut data = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("DATA") {
                data.push(rest.trim_start().to_string());
            } else if let Some(rest) = line.strip_prefix("OK") {
                return Ok(AdminResponse {
                    ok: true,
                    status: rest.trim().to_string(),
                    data,
                });
            } else if let Some(rest) = line.strip_prefix("ERR") {
                return Ok(AdminResponse {
                    ok: false,
                    status: rest.trim().to_string(),
                    data,
                });
            }
        }
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(pos) = self.buf.find('\n') {
                let line: String = self.buf.drain(..=pos).collect();
                return Ok(line.trim_end().to_string());
            }
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "service closed the admin connection",
                ));
            }
            self.buf.push_str(&String::from_utf8_lossy(&chunk[..n]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, etf: f64) -> TenantSpec {
        TenantSpec::new(name, workloads::simple())
            .sim_config(SimConfig::constant_etf(etf))
            .controller(ControllerSpec::Eucon(MpcConfig::simple()))
            .recv_timeout(Duration::from_millis(50))
    }

    #[test]
    fn attach_step_detach_roundtrip() {
        let mut svc = ControlService::new(EvictionPolicy::default());
        let a = svc.attach(tenant("alpha", 0.5)).unwrap();
        let b = svc.attach(tenant("beta", 0.8)).unwrap();
        assert_eq!(svc.active_tenants(), 2);
        svc.run(60);
        assert_eq!(svc.periods(a), Some(60));
        assert_eq!(svc.health(b), Some(TenantHealth::Healthy));
        let ra = svc.detach(a).unwrap();
        assert_eq!(ra.name, "alpha");
        assert_eq!(ra.periods, 60);
        assert!(ra.worst_tail_err < 0.05, "converged: {}", ra.worst_tail_err);
        assert_eq!(ra.transport.decode_errors, 0);
        assert!(svc.detach(a).is_err(), "double detach must fail");
        let rb = svc.detach(b).unwrap();
        assert!(rb.worst_tail_err < 0.05);
        // Attached ×2 then Detached ×2, in order.
        let attaches = svc
            .events()
            .iter()
            .filter(|e| matches!(e, TenantEvent::Attached { .. }))
            .count();
        assert_eq!(attaches, 2);
    }

    #[test]
    fn silence_escalates_quarantine_then_evict() {
        let mut svc = ControlService::new(EvictionPolicy {
            quarantine_after: 3,
            evict_after: 6,
        });
        // Both lanes partitioned from period 10 on: total silence.
        let bad = tenant("doomed", 0.5).faults(
            FaultPlan::none()
                .partition(0, 10, 400)
                .partition(1, 10, 400),
        );
        let good = tenant("steady", 0.5);
        let d = svc.attach(bad).unwrap();
        let g = svc.attach(good).unwrap();
        svc.run(40);
        assert_eq!(svc.health(d), Some(TenantHealth::Evicted));
        assert_eq!(svc.health(g), Some(TenantHealth::Healthy));
        // The evicted tenant stopped stepping; the healthy one did not.
        let frozen = svc.periods(d).unwrap();
        assert!(frozen < 40, "eviction halts stepping (got {frozen})");
        assert_eq!(svc.periods(g), Some(40));
        svc.run(10);
        assert_eq!(svc.periods(d), Some(frozen), "evicted tenants stay frozen");
        // Quarantined before evicted, both for the doomed tenant only.
        let transitions: Vec<&TenantEvent> = svc
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TenantEvent::Quarantined { .. } | TenantEvent::Evicted { .. }
                )
            })
            .collect();
        assert!(
            matches!(
                transitions.as_slice(),
                [
                    TenantEvent::Quarantined { tenant: q, .. },
                    TenantEvent::Evicted { tenant: e, .. },
                ] if *q == d && *e == d
            ),
            "unexpected transition sequence: {transitions:?}"
        );
        let report = svc.detach(d).unwrap();
        assert_eq!(report.health, TenantHealth::Evicted);
    }

    #[test]
    fn recovery_clears_quarantine() {
        let mut svc = ControlService::new(EvictionPolicy {
            quarantine_after: 2,
            evict_after: 50,
        });
        // Silence for 10 periods, then the lanes heal.
        let spec =
            tenant("wobbly", 0.5).faults(FaultPlan::none().partition(0, 5, 15).partition(1, 5, 15));
        let id = svc.attach(spec).unwrap();
        svc.run(30);
        assert_eq!(svc.health(id), Some(TenantHealth::Healthy));
        assert!(svc
            .events()
            .iter()
            .any(|e| matches!(e, TenantEvent::Recovered { tenant, .. } if *tenant == id)));
    }

    #[test]
    fn daemon_serves_the_admin_protocol() {
        let handle = ControlService::spawn(EvictionPolicy::default()).unwrap();
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        assert_eq!(client.request("PING").unwrap().status, "pong");
        let resp = client.request("ATTACH alpha simple 0.5 seed=3").unwrap();
        assert!(resp.ok, "{resp:?}");
        let id: usize = resp.status.parse().unwrap();
        // Wait until the tenant has made progress.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.request(&format!("STATS {id}")).unwrap();
            assert!(stats.ok);
            let line = &stats.data[0];
            let periods: usize = line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("periods="))
                .unwrap()
                .parse()
                .unwrap();
            if periods >= 50 {
                assert!(line.contains("health=healthy"), "{line}");
                break;
            }
            assert!(Instant::now() < deadline, "tenant made no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = client.request("TENANTS").unwrap();
        assert_eq!(resp.data.len(), 1);
        let resp = client.request(&format!("DETACH {id}")).unwrap();
        assert!(resp.ok, "{resp:?}");
        assert!(resp.data[0].contains("name=alpha"), "{:?}", resp.data);
        assert!(client.request("BOGUS").unwrap().status.contains("unknown"));
        let summary = handle.shutdown();
        assert!(summary
            .events
            .iter()
            .any(|e| matches!(e, TenantEvent::Detached { .. })));
        assert!(summary.reports.is_empty(), "tenant already detached");
    }

    #[test]
    fn a_line_without_end_is_refused_and_its_connection_closed() {
        let handle = ControlService::spawn(EvictionPolicy::default()).unwrap();
        let mut neighbour = ServiceClient::connect(handle.addr()).unwrap();
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // 64 KiB and never a newline.  The daemon hangs up once the line
        // passes the cap, possibly before it has read the rest, so the
        // write may fail part way.
        let _ = raw.write_all(&[b'x'; 64 * 1024]);
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        assert_eq!(
            reply, "ERR line too long\n",
            "the reply, then end-of-stream"
        );
        let pong = neighbour.request("PING").unwrap();
        assert!(pong.ok && pong.status == "pong", "{pong:?}");
        handle.shutdown();
    }

    #[test]
    fn a_bad_etf_on_the_admin_line_is_an_error_not_a_dead_daemon() {
        let mut svc = ControlService::new(EvictionPolicy::default());
        let (resp, _) = handle_command(&mut svc, "ATTACH good simple 0.5");
        assert!(resp.starts_with("OK"), "{resp}");
        for etf in ["-1", "0", "NaN", "inf"] {
            let (resp, shutdown) = handle_command(&mut svc, &format!("ATTACH evil simple {etf}"));
            assert!(resp.starts_with("ERR"), "etf {etf}: {resp}");
            assert!(resp.contains("positive and finite"), "etf {etf}: {resp}");
            assert!(!shutdown);
            let before = svc.periods(TenantId(0)).unwrap();
            svc.step_all();
            assert_eq!(svc.periods(TenantId(0)), Some(before + 1));
            assert_eq!(handle_command(&mut svc, "PING").0, "OK pong\n");
        }
        assert_eq!(svc.active_tenants(), 1, "no evil tenant was attached");
    }
}
