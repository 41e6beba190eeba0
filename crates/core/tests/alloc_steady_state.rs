//! Allocation-guard regression test for the closed-loop hot path.
//!
//! The event-engine overhaul's contract (ISSUE 3): in the fault-free
//! steady state a sampling period performs **zero heap allocations** —
//! the indexed event queue updates sources in place, utilization sampling
//! writes into persistent scratch, the controller commits rates
//! internally, and actuation passes them by reference.
//!
//! The telemetry layer (ISSUE 4) must preserve this: the metric registry
//! is fully preallocated at build and updated in place every period, so
//! the guarantee holds with telemetry at the default level — and even
//! with an in-memory ring sink attached, whose slots recycle once the
//! ring fills.
//!
//! A counting `#[global_allocator]` makes the contract checkable.  The
//! file contains a single `#[test]` on purpose: the counter is global, so
//! concurrent tests in the same binary would pollute each other's deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eucon_core::{ClosedLoop, ControllerSpec, LoopBuilder};
use eucon_sim::{ExecModel, SimConfig};
use eucon_tasks::workloads;

/// Passes every request to the system allocator, counting them.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations performed by `periods` closed-loop steps.
fn measure(cl: &mut ClosedLoop, periods: usize) -> u64 {
    let before = allocations();
    for _ in 0..periods {
        cl.step();
    }
    allocations() - before
}

#[test]
fn fault_free_steady_state_period_is_allocation_free() {
    // 1. OPEN controller, trace recording off: the period step must not
    // allocate at all.  OPEN isolates the plant + monitor + actuation
    // path — its own update is trivially allocation-free.
    let mut cl = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Open)
        .record_trace(false)
        .local()
        .unwrap();
    // Warm-up: ready queues, release-guard pending lists and in-flight
    // rings grow to their steady-state capacity during the first periods
    // (the slowest tasks release only a handful of jobs per period, so
    // their rings keep growing for tens of periods).
    for _ in 0..100 {
        cl.step();
    }
    let steady = measure(&mut cl, 50);
    assert_eq!(
        steady, 0,
        "fault-free OPEN steady state must not allocate (got {steady} over 50 periods)"
    );
    let counters = cl.simulator().counters();
    assert!(counters.events > 1000, "the plant really ran: {counters:?}");
    assert_eq!(
        counters.stale_wakeups, 0,
        "constant execution times never leave residual work"
    );
    // The default-level telemetry registry was live the whole time.
    let snap = cl.telemetry().snapshot();
    assert_eq!(snap.counter("periods"), Some(150));
    assert_eq!(snap.histogram("span_control_ns").unwrap().count, 150);

    // 1b. Same loop with an in-memory ring sink attached: once the ring
    // has filled, its slots recycle and the period stays allocation-free.
    let mut ringed = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Open)
        .record_trace(false)
        .local()
        .unwrap();
    ringed.telemetry_sink(eucon_core::telemetry::RingBufferSink::new(32));
    for _ in 0..100 {
        ringed.step();
    }
    let ring_steady = measure(&mut ringed, 50);
    assert_eq!(
        ring_steady, 0,
        "ring-sink steady state must not allocate (got {ring_steady} over 50 periods)"
    );

    // 2. Same loop with trace recording on: the only per-period
    // allocations are the recorded step's two vectors (utilization +
    // rates) plus amortized growth of the trace itself.
    let mut recording = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Open)
        .local()
        .unwrap();
    for _ in 0..20 {
        recording.step();
    }
    let recorded = measure(&mut recording, 50);
    assert!(
        recorded <= 2 * 50 + 10,
        "recording may only pay for the trace itself: {recorded} allocations over 50 periods"
    );

    // 2b. Churn-enabled loop (ISSUE 7), OPEN controller: once the plan's
    // membership changes have all fired, the per-period churn check is a
    // constant-time cursor/pending inspection and the actuation slow path
    // assembles commands into a persistent scratch — steady-state periods
    // *between* membership changes stay allocation-free.
    let mut churned = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Open)
        .churn(
            eucon_core::ChurnPlan::none()
                .departure(5, eucon_tasks::TaskId(2))
                .mode_change(8, eucon_tasks::TaskId(0), 1.2),
        )
        .record_trace(false)
        .local()
        .unwrap();
    for _ in 0..200 {
        churned.step();
    }
    assert_eq!(churned.churn_summary().departed, 1, "the plan really ran");
    let churn_steady = measure(&mut churned, 50);
    assert_eq!(
        churn_steady, 0,
        "steady state between membership changes must not allocate \
         (got {churn_steady} over 50 periods)"
    );

    // 2c. An admission policy over an empty plan (ISSUE 17): the
    // load-shedding supervisor reads every period's sample and, at a
    // feasible load, never has a decision to take — scanning is free of
    // the heap.
    let mut supervised = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::medium()))
        .admission(eucon_core::AdmissionPolicy::default())
        .record_trace(false)
        .local()
        .unwrap();
    for _ in 0..100 {
        supervised.step();
    }
    let shed_steady = measure(&mut supervised, 50);
    assert_eq!(
        shed_steady, 0,
        "the shedding supervisor must scan without allocating \
         (got {shed_steady} over 50 periods)"
    );
    assert!(supervised.admission_events().is_empty());

    // 3. EUCON (MPC) under ±20 % execution-time noise, so the active set
    // keeps changing and the QP solver runs real iterations every period:
    // zero as well.  The solver works in a per-controller workspace whose
    // buffers are sized to the problem's bound the first time a solve
    // needs them, and writes its solution into a buffer the controller
    // keeps — after the warm-up no period touches the heap.
    let mut eucon = LoopBuilder::new(workloads::medium())
        .sim_config(SimConfig::constant_etf(0.5).exec_model(ExecModel::Uniform { half_width: 0.2 }))
        .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::medium()))
        .record_trace(false)
        .local()
        .unwrap();
    for _ in 0..40 {
        eucon.step();
    }
    let iterations_before = qp_iterations(&eucon);
    let steady = measure(&mut eucon, 100);
    assert_eq!(
        steady, 0,
        "EUCON steady state must not allocate (got {steady} over 100 periods)"
    );
    assert!(
        qp_iterations(&eucon) > iterations_before,
        "the measured periods really iterated in the QP solver"
    );
}

/// Total active-set iterations the loop's controller has reported so far.
fn qp_iterations(cl: &ClosedLoop) -> f64 {
    cl.telemetry()
        .snapshot()
        .histogram("qp_iterations_hist")
        .expect("declared by every loop")
        .sum
}
