//! Allocation-guard regression test for the distributed hot path over
//! the lane engine, on both of its links.
//!
//! The poll engine's contract (the async-lane overhaul): in the
//! fault-free steady state a distributed sampling period performs
//! **zero heap allocations** — reports and commands are encoded into a
//! persistent scratch buffer straight from iterators ([`encode_frame`]
//! keeps the send path `Vec`-free), received frames decode zero-copy as
//! [`FrameView`]s borrowed from the reader's buffer, and the per-lane
//! hold/stale bookkeeping lives in preallocated vectors.
//!
//! A counting `#[global_allocator]` makes the contract checkable.  The
//! file contains a single `#[test]` on purpose: the counter is global,
//! so concurrent tests in the same binary would pollute each other's
//! deltas.
//!
//! [`encode_frame`]: eucon_core::net::encode_frame
//! [`FrameView`]: eucon_core::net::FrameView

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use eucon_core::{ClosedLoop, ControllerSpec, LoopBuilder, NetConfig};
use eucon_sim::SimConfig;
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

/// Allocations performed by `periods` distributed steps.
fn measure(dl: &mut ClosedLoop, periods: usize) -> u64 {
    let before = allocations();
    for _ in 0..periods {
        dl.step();
    }
    allocations() - before
}

#[test]
fn poll_engine_steady_state_period_is_allocation_free() {
    // OPEN controller, trace recording off: the distributed period must
    // not allocate at all, over real loopback TCP and over in-memory
    // links alike (one engine, so one contract).  OPEN isolates the
    // transport + plant + monitor + actuation path — its own update is
    // trivially allocation-free, so every allocation seen here would be
    // the lane engine's.
    let tcp = NetConfig::tcp().recv_timeout(Duration::from_millis(200));
    for (net, name) in [(tcp, "tcp"), (NetConfig::channel(), "channel")] {
        let mut dl = LoopBuilder::new(workloads::medium())
            .sim_config(SimConfig::constant_etf(0.5))
            .controller(ControllerSpec::Open)
            .record_trace(false)
            .distributed(net)
            .unwrap();
        // Warm-up: frame readers, encode scratch, pipes, ready queues
        // and in-flight rings grow to steady-state capacity during the
        // first periods.
        for _ in 0..100 {
            dl.step();
        }
        let steady = measure(&mut dl, 50);
        assert_eq!(
            steady, 0,
            "{name} steady state must not allocate (got {steady} over 50 periods)"
        );
        // The lanes really carried every frame: one report and one
        // command per processor per period, zero drops, zero decode
        // errors.
        let stats = dl.transport_stats();
        let lanes = dl.set_points().len() as u64;
        assert_eq!(stats.sent, 2 * lanes * 150);
        assert_eq!(stats.received, 2 * lanes * 150);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(dl.backend_name(), name);
    }
}
