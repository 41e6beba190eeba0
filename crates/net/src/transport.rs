//! Lane counters.

/// Cumulative counters of one lane endpoint, or of a set of them.
///
/// A direction with a delay/loss gate in front of it folds the gate's
/// activity in (offers count as sends, loss draws as drops), so the
/// figures describe the lane as its user sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames accepted for sending at this endpoint.
    pub sent: u64,
    /// Frames delivered to the caller by [`PollEngine::drain`](crate::PollEngine::drain).
    pub received: u64,
    /// Frames dropped before reaching the peer: sends on a lane that is
    /// down, lane-model losses, send timeouts.
    pub dropped: u64,
    /// Times a torn lane's endpoint was given a re-dialed link.
    pub reconnects: u64,
    /// Malformed frames encountered while decoding the inbound stream.
    pub decode_errors: u64,
    /// Raw bytes written to the wire (an in-memory link counts like a socket).
    pub bytes_sent: u64,
    /// Raw bytes read from the wire (an in-memory link counts like a socket).
    pub bytes_received: u64,
}

impl TransportStats {
    /// Element-wise sum (for aggregating a set of lanes).
    pub fn merge(&self, other: &TransportStats) -> TransportStats {
        TransportStats {
            sent: self.sent + other.sent,
            received: self.received + other.received,
            dropped: self.dropped + other.dropped,
            reconnects: self.reconnects + other.reconnects,
            decode_errors: self.decode_errors + other.decode_errors,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
        }
    }
}
