//! Peak-memory guard for the centralized controller at cluster scale.
//!
//! The 256×768 reference (the `scaling` bin's cluster tier) prepares one
//! `PreparedLsq` over 1 536 variables and 3 584 rate and utilization
//! rows.  Its back-solve memo keeps one `H⁻¹nᵢ` per constraint row and no
//! `m × m` Gram table: each Gram entry is a sparse dot computed where a
//! solve reads it.  A table of every pair would add 3 584² doubles
//! (103 MB) to the process's peak resident set, and the bound below
//! catches it.  The
//! rates after twelve steps are pinned bit for bit, so a smaller peak
//! cannot come from a different solve.
//!
//! The file contains a single `#[test]` on purpose: `VmHWM` is the
//! process's peak, so a concurrent test in the same binary would add its
//! own memory to the reading.  A debug build is too slow for the
//! preparation and the twelve steps, so the test runs in release only.

use eucon_control::{MpcConfig, MpcController, RateController};
use eucon_math::Vector;
use eucon_tasks::{rms_set_points, workloads::RandomWorkload};

/// The peak resident set bound, in kB.  The test reads about 84 MB; with
/// the memo's `m × m` Gram table it read about 184 MB.
const VM_HWM_LIMIT_KB: u64 = 120_000;

/// Bits of the sum of the rates after the twelve steps, captured while
/// the memo still kept its Gram table.
const RATE_SUM_BITS: u64 = 0x4016_1c52_e6fc_6c3f;

/// The process's peak resident set (`VmHWM` of `/proc/self/status`), kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB")
}

#[test]
#[cfg_attr(
    any(debug_assertions, not(target_os = "linux")),
    ignore = "release only (a debug build takes minutes), and VmHWM is Linux's"
)]
fn the_256x768_reference_stays_under_its_peak_memory_bound() {
    let set = RandomWorkload::new(256, 768)
        .seed(21)
        .locality(2)
        .max_chain_len(3)
        .generate();
    let b = rms_set_points(&set);
    let mut ctrl = MpcController::new(&set, b, MpcConfig::medium()).expect("controller");
    let u = Vector::from_iter((0..256).map(|p| 0.5 + 0.01 * (p % 7) as f64));
    for _ in 0..12 {
        ctrl.update(&u).expect("step");
    }
    let sum: f64 = ctrl.rates().iter().sum();
    let peak = vm_hwm_kb();
    println!("VmHWM {peak} kB, rate sum {:#018x}", sum.to_bits());
    assert_eq!(
        sum.to_bits(),
        RATE_SUM_BITS,
        "rate sum {:#018x}",
        sum.to_bits()
    );
    assert!(
        peak < VM_HWM_LIMIT_KB,
        "VmHWM {peak} kB, bound {VM_HWM_LIMIT_KB} kB"
    );
}
