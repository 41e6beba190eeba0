//! The fixed-size rows of the ledger: each times one layer's public
//! function directly, at a size the ledger names, and reads the same in
//! every traced run whatever its workload.
//!
//! The host slows down for seconds at a time, so the rows are measured in
//! two passes several seconds apart and every row keeps its faster
//! pass — the same "identical work, best observation" rule as the loop
//! workloads.  All measured rows are times (lower is better); rates and
//! differences are derived after the passes are merged.

use std::hint::black_box;
use std::time::{Duration, Instant};

use eucon::control::{ShardPlanner, ShardedController};
use eucon::math::{Cholesky, Lu};
use eucon::net::{encode_frame, tcp_lane_fabric, FrameKind, FrameReader, LaneFabric, PollEngine};
use eucon::prelude::*;
use eucon::qp::PreparedQp;
use eucon::tasks::workloads::RandomWorkload;

use crate::e2e::{fleet_batch, fleet_reference, timed_step, Acc};
use crate::layers::{lockstep, Composition};
use crate::stats::{percentile, summarize, MinFold};
use crate::watchdog::Watchdog;
use crate::workloads::{cores, fleet_threads, Shape, ALL};

/// What both passes take on the sandbox this was written on.
pub const EXPECTED_S: f64 = 12.0;

pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

type Rows = Vec<(&'static str, f64)>;

/// Measured in a pass but not ledger rows themselves: inputs of the
/// derived rows.
const VIA_DYN_ADVANCE_US: &str = "~via_dyn_advance_medium_us";
const FLEET_1T_US: &str = "~fleet_us_per_period_1t";
const FLEET_NT_US: &str = "~fleet_us_per_period_nt";

/// Both passes, merged and derived.  `quick` divides every iteration
/// count by ten.
pub fn measure(seed: u64, quick: bool, epoch: Instant, dog: &Watchdog) -> Fallible<Rows> {
    // Two passes of half the iterations each cost what one full pass
    // would; a smoke run makes do with one short pass.
    let (scale, second) = if quick { (10, false) } else { (2, true) };
    let mut best = pass(seed, scale, epoch, dog)?;
    let again = if second {
        pass(seed, scale, epoch, dog)?
    } else {
        Rows::new()
    };
    for (name, v) in again {
        let slot = best
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("both passes measure the same rows");
        // A row a pass could not measure reads 0 and stays unmeasured.
        slot.1 = if slot.1 == 0.0 || v == 0.0 {
            0.0
        } else {
            slot.1.min(v)
        };
    }
    let get = |name: &str| {
        let row = best.iter().find(|(n, _)| *n == name);
        row.expect("measured above").1
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let derived = [
        (
            "core.dyn_plant_overhead_ns",
            (get(VIA_DYN_ADVANCE_US) - get("sim.direct_advance_medium_us")) * 1e3,
        ),
        (
            "net.frames_per_s_1000l",
            ratio(2000.0 * 1e6, get("net.fabric_sweep_1000l_us")),
        ),
        (
            "core.service_overhead_us",
            get("core.service_step_per_tenant_us") - get("core.period_tcp_poll_us"),
        ),
        ("core.fleet_periods_per_s_1t", ratio(1e6, get(FLEET_1T_US))),
        (
            "core.fleet_scaling",
            ratio(get(FLEET_1T_US), get(FLEET_NT_US)),
        ),
    ];
    best.retain(|(name, _)| !name.starts_with('~'));
    best.extend(derived);
    Ok(best)
}

/// Best-of-`rounds` median time of one call, nanoseconds, each call
/// timed on its own (for calls of a microsecond and up).
fn best_p50_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    let mut best = u64::MAX;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..rounds {
        samples.clear();
        for _ in 0..iters {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        best = best.min(percentile(&samples, 0.5));
    }
    best as f64
}

/// Best-of-`rounds` mean time of one call, nanoseconds, timed as a batch
/// (for calls too short to time singly).
fn best_mean_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn folded_p50_us(rounds: Vec<Vec<u64>>) -> f64 {
    let mut fold = MinFold::default();
    for r in &rounds {
        fold.push(r);
    }
    fold.summary().p50_us
}

fn mpc_steady_us(set: &TaskSet, cfg: MpcConfig, u: &Vector, iters: usize) -> Fallible<f64> {
    let mut ctrl = MpcController::new(set, rms_set_points(set), cfg)?;
    // Constant under-utilization drives the rates into their upper
    // bounds; from there the active set repeats and every step takes the
    // memoized-factor path.
    for _ in 0..200 {
        ctrl.update(u)?;
    }
    let mut failed = false;
    let ns = best_p50_ns(3, iters, || failed |= ctrl.update(black_box(u)).is_err());
    if failed {
        return Err("a steady-state MPC step failed".into());
    }
    Ok(ns / 1e3)
}

/// A MEDIUM-sized QP (24 variables; 48 bound rows plus 16 coupling rows)
/// with two objectives whose optimal active sets differ.
struct QpCase {
    qp: PreparedQp,
    h: Vector,
    f: [Vector; 2],
    active: [Vec<usize>; 2],
}

fn qp_case() -> Fallible<QpCase> {
    const N: usize = 24;
    const COUPLING: usize = 16;
    let hess = Matrix::from_fn(N, N, |i, j| match i.abs_diff(j) {
        0 => 4.0,
        d => 1.0 / ((1 + d) * (1 + d)) as f64,
    });
    let g = Matrix::from_fn(2 * N + COUPLING, N, |r, j| {
        if r < N {
            f64::from(u8::from(r == j))
        } else if r < 2 * N {
            -f64::from(u8::from(r - N == j))
        } else {
            ((r * 7 + j * 3) % 5) as f64 * 0.1
        }
    });
    let h = Vector::from_iter((0..2 * N + COUPLING).map(|r| if r < 2 * N { 1.0 } else { 2.0 }));
    let qp = PreparedQp::new(hess, g)?;
    let f0 = Vector::from_iter((0..N).map(|i| if i % 2 == 0 { -9.0 } else { 9.0 }));
    let f1 = Vector::from_iter((0..N).map(|i| if i % 3 == 0 { 9.0 } else { -2.0 }));
    let a0 = qp.solve(&f0, &h, &[])?.active;
    let a1 = qp.solve(&f1, &h, &[])?.active;
    if a0.is_empty() || a0 == a1 {
        return Err("the QP case must have two distinct, non-empty active sets".into());
    }
    Ok(QpCase {
        qp,
        h,
        f: [f0, f1],
        active: [a0, a1],
    })
}

/// One period's traffic over a lane fabric: a report up and a command
/// down on every lane, each side drained until every lane delivered.
fn fabric_period(fabric: &mut LaneFabric, seq: u64, got: &mut [bool]) -> Fallible<()> {
    for lane in 0..fabric.lanes() {
        let report = std::iter::once(0.5);
        fabric
            .proc
            .send(lane, FrameKind::UtilizationReport, seq, seq, 0, report)?;
    }
    drain_all(&mut fabric.ctrl, got)?;
    for lane in 0..fabric.lanes() {
        let command = [0.01, 0.02, 0.03].into_iter();
        fabric
            .ctrl
            .send(lane, FrameKind::RateCommand, seq, seq, 0, command)?;
    }
    drain_all(&mut fabric.proc, got)
}

fn drain_all(engine: &mut PollEngine, got: &mut [bool]) -> Fallible<()> {
    got.fill(false);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for (lane, g) in got.iter_mut().enumerate() {
            if !*g {
                *g = engine.drain(lane, |view| {
                    black_box(view.value(0));
                })? > 0;
            }
        }
        if got.iter().all(|g| *g) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("lane fabric: a frame was not delivered within 5 s".into());
        }
    }
}

fn fabric_p50_us(lanes: usize, periods: usize, rounds: usize) -> Fallible<f64> {
    let mut fabric = tcp_lane_fabric(&TcpConfig::default(), lanes)?;
    let mut got = vec![false; lanes];
    let mut seq = 0;
    for _ in 0..periods / 10 + 1 {
        seq += 1;
        fabric_period(&mut fabric, seq, &mut got)?;
    }
    let mut err = None;
    let ns = best_p50_ns(rounds, periods, || {
        seq += 1;
        if let Err(e) = fabric_period(&mut fabric, seq, &mut got) {
            err.get_or_insert(e);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(ns / 1e3),
    }
}

/// MEDIUM's loop p50 over one lane configuration (ideal lanes).
fn net_period_us(net: NetConfig, seed: u64, periods: usize, dog: &Watchdog) -> Fallible<f64> {
    let mut rounds = Vec::new();
    for _ in 0..2 {
        let mut lp = Shape::Medium
            .builder(seed)
            .record_trace(false)
            .distributed(net.clone())?;
        let mut acc = Acc::new(lp.set_points().len(), usize::MAX);
        for _ in 0..periods / 10 {
            timed_step!(lp, acc);
        }
        let mut ns = Vec::with_capacity(periods);
        for _ in 0..periods {
            ns.push(timed_step!(lp, acc));
            dog.tick();
        }
        rounds.push(ns);
    }
    Ok(folded_p50_us(rounds))
}

/// One pass over every fixed row.  `scale` divides the iteration counts.
fn pass(seed: u64, scale: usize, epoch: Instant, dog: &Watchdog) -> Fallible<Rows> {
    let mut rows = Rows::new();
    let mut put = |name: &'static str, v: f64| rows.push((name, v));

    // sim / core: the `dyn Plant` seam, priced on MEDIUM where one
    // `advance_to` is shortest, both sides in lockstep.
    {
        let medium = if scale >= 10 { ALL[0].quick() } else { ALL[0] };
        let (mut via_dyn, mut direct) = (MinFold::default(), MinFold::default());
        for _ in 0..2 {
            let mut a = Composition::dynamic(&medium, seed, epoch)?;
            let mut b = Composition::direct(&medium, seed, epoch)?;
            lockstep(
                medium.warm + medium.periods,
                |k| a.period(k >= medium.warm, None),
                |k| b.period(k >= medium.warm, None),
            );
            via_dyn.push(&a.finish().advance_ns);
            direct.push(&b.finish().advance_ns);
            dog.tick();
        }
        put(VIA_DYN_ADVANCE_US, via_dyn.summary().p50_us);
        put("sim.direct_advance_medium_us", direct.summary().p50_us);
    }

    // control: steady-state MPC steps at the paper's two sizes.
    put(
        "control.mpc_step_simple_us",
        mpc_steady_us(
            &workloads::simple(),
            MpcConfig::simple(),
            &Vector::from_slice(&[0.5, 0.6]),
            2000 / scale,
        )?,
    );
    put(
        "control.mpc_step_medium_us",
        mpc_steady_us(
            &workloads::medium(),
            MpcConfig::medium(),
            &Vector::from_slice(&[0.5, 0.6, 0.4, 0.7]),
            2000 / scale,
        )?,
    );

    // control: the saturation excursion.  Open loop against a constant
    // low utilization every rate climbs to its bound, and on the way the
    // active set churns: the worst step is orders of magnitude above the
    // median.  The step count is never scaled: the excursion sits at a
    // fixed step.
    {
        let set = RandomWorkload::new(40, 120).seed(7).generate();
        let mut ctrl = MpcController::new(&set, rms_set_points(&set), MpcConfig::medium())?;
        let u = Vector::filled(40, 0.3);
        let mut ns = Vec::with_capacity(400);
        let mut iters_max = 0;
        for _ in 0..400 {
            let t0 = Instant::now();
            ctrl.update(&u)?;
            ns.push(t0.elapsed().as_nanos() as u64);
            iters_max = iters_max.max(ctrl.last_step_info().qp_iterations);
            dog.tick();
        }
        let s = summarize(&ns);
        put("control.mpc_step_sat_p50_us", s.p50_us);
        put("control.mpc_step_sat_max_us", s.max_us);
        put("control.mpc_step_sat_iters_max", iters_max as f64);
    }

    // control: the sharded step at 256 processors (the ROADMAP's row).
    {
        let set = RandomWorkload::new(256, 768)
            .seed(21)
            .locality(2)
            .max_chain_len(3)
            .generate();
        let b = rms_set_points(&set);
        let t0 = Instant::now();
        let mut ctrl = ShardedController::with_shard_size(&set, b, MpcConfig::medium(), 16)?;
        put(
            "control.shard_build_256p_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        let u = Vector::filled(256, 0.5);
        for _ in 0..10 {
            ctrl.update(&u)?;
        }
        let mut failed = false;
        let ns = best_p50_ns(1, 100 / scale, || {
            failed |= ctrl.update(black_box(&u)).is_err()
        });
        if failed {
            return Err("a sharded step failed".into());
        }
        put("control.shard_step_256p_us", ns / 1e3);
    }

    // qp: cold / new warm set / memoized warm set on a MEDIUM-sized
    // problem.
    {
        let case = qp_case()?;
        let iters = 2000 / scale;
        let cold = best_p50_ns(3, iters, || {
            black_box(case.qp.solve(&case.f[0], &case.h, &[]).is_ok());
        });
        let mut flip = 0;
        let warm = best_p50_ns(3, iters, || {
            // Seeded with the *other* objective's active set: a warm
            // start whose factors are not the memoized ones.
            flip ^= 1;
            let warm = &case.active[flip ^ 1];
            black_box(case.qp.solve(&case.f[flip], &case.h, warm).is_ok());
        });
        let memo = best_p50_ns(3, iters, || {
            black_box(case.qp.solve(&case.f[0], &case.h, &case.active[0]).is_ok());
        });
        put("qp.solve_cold_us", cold / 1e3);
        put("qp.solve_warm_us", warm / 1e3);
        put("qp.solve_memo_us", memo / 1e3);
    }

    // math: the factorizations behind set-up (Cholesky) and behind every
    // active-set change (LU).
    {
        const N: usize = 192;
        const BAND: usize = 23;
        let a = Matrix::from_fn(N, N, |i, j| match i.abs_diff(j) {
            0 => N as f64,
            d if d <= BAND => 1.0 / (1 + d) as f64,
            _ => 0.0,
        });
        let iters = 40 / scale.min(8);
        let dense = best_p50_ns(2, iters, || {
            black_box(Cholesky::decompose_with_bandwidth(&a, N - 1).is_ok());
        });
        let banded = best_p50_ns(2, iters, || {
            black_box(Cholesky::decompose(&a).is_ok());
        });
        put("math.cholesky_dense_us", dense / 1e3);
        put("math.cholesky_banded_us", banded / 1e3);
        let kkt = Matrix::from_fn(24, 24, |i, j| match i == j {
            true => 4.0,
            false => ((i * 5 + j * 3) % 7) as f64 * 0.1,
        });
        let lu = best_p50_ns(3, 2000 / scale, || {
            black_box(Lu::decompose(&kkt).is_ok());
        });
        put("math.lu_factor_us", lu / 1e3);
    }

    // net: frames alone, then the fabric at MEDIUM's width and at the
    // soak's.
    {
        let report = [0.61, 0.62, 0.63, 0.64];
        let mut wire = Vec::with_capacity(64);
        let encode = best_mean_ns(5, 20_000 / scale, || {
            wire.clear();
            let values = black_box(report).into_iter();
            encode_frame(&mut wire, FrameKind::UtilizationReport, 7, 7, 0, values);
        });
        let mut reader = FrameReader::new();
        let mut bad = false;
        let decode = best_mean_ns(5, 20_000 / scale, || {
            reader.extend(black_box(&wire));
            match reader.next_view() {
                Ok(Some(view)) => {
                    black_box(view.value(3));
                }
                _ => bad = true,
            }
        });
        if bad {
            return Err("a frame this harness encoded did not decode".into());
        }
        put("net.frame_encode_ns", encode);
        put("net.frame_decode_ns", decode);
        put(
            "net.fabric_roundtrip_4l_us",
            fabric_p50_us(4, 2000 / scale, 2)?,
        );
        dog.tick();
        // 1000 lanes need about 2000 descriptors; a host that refuses
        // them gets no row rather than a failed run.
        let sweep = fabric_p50_us(1000, 30 / scale.min(3), 1).unwrap_or_else(|e| {
            eprintln!("net.fabric_sweep_1000l_us: not measured: {e}");
            0.0
        });
        put("net.fabric_sweep_1000l_us", sweep);
    }

    // core: MEDIUM's period over each lane engine, ideal lanes behind a
    // window wide enough that no frame is ever declared stale.
    let periods = 2000 / scale;
    let window = Duration::from_millis(100);
    let channel = net_period_us(NetConfig::channel(), seed, periods, dog)?;
    let pair = net_period_us(NetConfig::tcp().recv_timeout(window), seed, periods, dog)?;
    let poll = net_period_us(
        NetConfig::tcp_poll().recv_timeout(window),
        seed,
        periods,
        dog,
    )?;
    put("core.period_channel_us", channel);
    put("core.period_tcp_pair_us", pair);
    put("core.period_tcp_poll_us", poll);

    // core: the tenant daemon, eight MEDIUM tenants on its default poll
    // lanes.
    {
        const TENANTS: usize = 8;
        let mut service = ControlService::new(EvictionPolicy::default());
        for t in 0..TENANTS {
            service.attach(
                TenantSpec::new(format!("t{t}"), workloads::medium())
                    .sim_config(Shape::Medium.sim_config(seed + t as u64))
                    .controller(Shape::Medium.controller())
                    .recv_timeout(window),
            )?;
        }
        for _ in 0..50 {
            service.step_all();
        }
        let ns = best_p50_ns(1, 600 / scale, || service.step_all());
        put("core.service_step_per_tenant_us", ns / 1e3 / TENANTS as f64);
        dog.tick();
    }

    // core: a small fleet on all the threads it may use, then on one.
    // The sandbox hands a process its second core only after about a
    // second of sustained two-thread demand (the first batches of a fleet
    // run at one-thread speed), so the many-thread batches run back to
    // back for long enough to get past that, and the best one counts.
    {
        const LOOPS: usize = 40;
        let threads = fleet_threads(cores());
        let reference = fleet_reference(seed)?.digest;
        let batch_us = |t: usize| -> Fallible<f64> {
            let b = fleet_batch(seed, LOOPS, t, reference)?;
            if !b.digests_match {
                return Err("fleet digests differ from the reference loop".into());
            }
            dog.tick();
            Ok(b.elapsed_s * 1e6 / b.periods as f64)
        };
        let sustained = Duration::from_millis(3000 / scale as u64);
        let t0 = Instant::now();
        let mut many = f64::INFINITY;
        while many.is_infinite() || t0.elapsed() < sustained {
            many = many.min(batch_us(threads)?);
        }
        let one = batch_us(1)?.min(batch_us(1)?);
        put(FLEET_1T_US, one);
        put(FLEET_NT_US, many);
    }

    // tasks: workload generation and shard planning, at twice
    // `shard_64p`'s size.
    {
        let gen = RandomWorkload::new(128, 384)
            .seed(21)
            .locality(2)
            .max_chain_len(3);
        let gen_ns = best_p50_ns(1, 5, || {
            black_box(gen.generate());
        });
        let set = gen.generate();
        let plan_ns = best_p50_ns(1, 5, || {
            black_box(ShardPlanner::new(&set).target_size(16).plan());
        });
        put("tasks.random_workload_128p_ms", gen_ns / 1e6);
        put("tasks.shard_plan_128p_ms", plan_ns / 1e6);
    }
    Ok(rows)
}
