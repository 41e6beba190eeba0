//! Event-driven simulator of distributed real-time systems running
//! end-to-end tasks.
//!
//! This crate rebuilds the C++ evaluation substrate of the EUCON paper
//! (§7.1) in Rust:
//!
//! * **Processors** scheduled by preemptive rate-monotonic scheduling
//!   (priority = current period; smaller period preempts larger).
//! * **Release guard** (Sun & Liu) enforcing precedence between consecutive
//!   subtasks while keeping every subtask periodic at its task's rate.
//! * **Utilization monitors** reporting per-processor busy fractions per
//!   sampling window, and **rate modulators** applying controller outputs.
//! * **Execution-time factor** profiles ([`EtfProfile`]) scaling actual
//!   execution times relative to the design-time estimates, constant or
//!   stepping at run time (Experiment II), with optional uniform-random
//!   job-level variation ([`ExecModel`]).
//! * **Deadline bookkeeping** for soft end-to-end deadlines
//!   (`d_i = n_i / r_i`).
//! * **Fault injection** ([`FaultPlan`] / [`FaultInjector`]): scripted or
//!   stochastic processor crash + recovery, execution-time bursts,
//!   stuck/corrupted utilization sensors and lane-partition windows —
//!   the infrastructure failures the paper idealizes away.
//!
//! # Example
//!
//! ```
//! use eucon_sim::{EtfProfile, SimConfig, Simulator};
//! use eucon_tasks::workloads;
//!
//! // Run SIMPLE for 10 sampling periods at half the estimated load.
//! let cfg = SimConfig::constant_etf(0.5);
//! let mut sim = Simulator::new(workloads::simple(), cfg);
//! for k in 1..=10 {
//!     sim.run_until(k as f64 * 1000.0);
//!     let u = sim.sample_utilizations();
//!     assert!(u.iter().all(|&ui| ui <= 1.0));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod event;
mod fault;
mod stats;

pub use config::{EtfProfile, ExecModel, ReleaseGuard, SimConfig};
pub use engine::Simulator;
pub use error::SimError;
pub use fault::{FaultInjector, FaultPlan, RandomCrashes, SensorFaultKind};
pub use stats::{DeadlineStats, EngineCounters, SubtaskStats, TaskStats};
