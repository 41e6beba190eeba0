//! `eucon-net` — the feedback-lane transport runtime.
//!
//! The EUCON paper (§4) wires each processor's utilization monitor and
//! rate modulator to the central controller over dedicated TCP
//! connections, but evaluates the loop with those lanes idealized away.
//! This crate makes the lanes real and pluggable:
//!
//! * [`Frame`] — the versioned, compact binary wire format
//!   (utilization reports up, rate commands down; `f64` payloads
//!   round-trip bit-for-bit).
//! * [`PollEngine`] — the one lane engine: a sweep-based readiness
//!   loop multiplexing any number of lanes with zero-copy [`FrameView`]
//!   decode and allocation-free [`encode_frame`] sends — no thread or
//!   object per lane.  A lane's link is a nonblocking loopback-TCP
//!   stream or a bounded in-process pipe; the engine treats them alike.
//! * [`LaneFabric`] — both ends of a set of lanes, built by
//!   [`tcp_lane_fabric`] or [`memory_lane_fabric`] (the *ideal lane*),
//!   and the one place a torn lane is re-dialed, with exponential
//!   backoff and jitter per [`TcpConfig`].
//! * [`DelayLossGate`] — the one delay/loss queue of the workspace: it
//!   holds the frames of one direction of one lane in front of the
//!   lane's sending end, so every delayed or lossy lane is a gate.
//!
//! The distributed loop runtime and the shard boundary bus in
//! `eucon-core` drive these endpoints; this crate knows nothing about
//! control theory — it moves frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod lanes;
mod link;
mod middleware;
mod poll;
mod transport;

pub use error::{FrameError, TransportError};
pub use frame::{
    encode_frame, Frame, FrameKind, FrameReader, FrameView, BOUNDARY_TRAILER_LEN, FRAME_VERSION,
    HEADER_LEN, MAX_PAYLOAD,
};
pub use lanes::{memory_lane_fabric, tcp_lane_fabric, LaneFabric};
pub use middleware::DelayLossGate;
pub use poll::{LaneToken, PollEngine, TcpConfig};
pub use transport::TransportStats;
