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
//! * [`Transport`] — the backend-agnostic lane interface, with two
//!   backends: [`channel_pair`] (bounded in-process queues with
//!   drop-oldest backpressure — the *ideal lane*) and [`tcp_pair`]
//!   (real nonblocking loopback TCP with partial-frame reassembly and
//!   reconnect backoff).
//! * [`DelayLossGate`] — the one delay/loss queue of the workspace,
//!   generic over what it carries: wire frames in front of a transport,
//!   utilization vectors inside the closed loop's `LaneModel`.
//!   [`DelayLoss`] is the gate as middleware composable over any
//!   backend.
//! * [`PollEngine`] / [`LaneFabric`] — the many-lane runtime: one
//!   sweep-based readiness loop multiplexing thousands of nonblocking
//!   TCP lanes with zero-copy [`FrameView`] decode and allocation-free
//!   [`encode_frame`] sends — no thread per lane.
//!
//! The distributed loop runtime in `eucon-core` drives these endpoints;
//! this crate knows nothing about control theory — it moves frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
mod frame;
mod lanes;
mod middleware;
mod poll;
mod tcp;
mod transport;

pub use channel::{channel_pair, ChannelTransport};
pub use error::{FrameError, TransportError};
pub use frame::{
    encode_frame, Frame, FrameKind, FrameReader, FrameView, BOUNDARY_TRAILER_LEN, FRAME_VERSION,
    HEADER_LEN, MAX_PAYLOAD,
};
pub use lanes::{tcp_lane_fabric, LaneFabric};
pub use middleware::{DelayLoss, DelayLossGate};
pub use poll::{LaneToken, PollEngine};
pub use tcp::{tcp_pair, TcpConfig, TcpTransport};
pub use transport::{Transport, TransportStats};
