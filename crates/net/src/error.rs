//! Error types of the transport layer.

use std::error::Error;
use std::fmt;

/// A malformed or incompatible wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The version byte does not match [`crate::FRAME_VERSION`].
    ///
    /// [`crate::FRAME_VERSION`]: crate::frame::FRAME_VERSION
    BadVersion(u8),
    /// The frame-kind byte is not a known frame type.
    BadKind(u8),
    /// The declared payload length exceeds [`crate::frame::MAX_PAYLOAD`].
    Oversize(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v:#04x}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Oversize(n) => write!(f, "frame payload of {n} values exceeds the cap"),
        }
    }
}

impl Error for FrameError {}

/// Errors surfaced by a lane endpoint ([`PollEngine`]).
///
/// [`PollEngine`]: crate::PollEngine
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The lane is down — torn and not yet re-dialed, or retired — or
    /// the token names no lane of the engine.
    Disconnected,
    /// A send did not complete within the configured send timeout.
    Timeout,
    /// The byte stream carried a malformed frame.
    Frame(FrameError),
    /// An I/O failure from the operating system (kind and message are
    /// preserved; the `std::io::Error` itself is not `Clone`).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport peer disconnected"),
            TransportError::Timeout => write!(f, "transport send timed out"),
            TransportError::Frame(e) => write!(f, "frame decode failed: {e}"),
            TransportError::Io(msg) => write!(f, "transport I/O error: {msg}"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TransportError::Frame(FrameError::BadVersion(9));
        assert!(e.to_string().contains("0x09"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&TransportError::Timeout).is_none());
        let io: TransportError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
