//! What a lane's bytes travel over: a loopback-TCP stream or a bounded
//! in-process byte pipe.
//!
//! Both links are nonblocking byte streams with the same failure
//! vocabulary — a full buffer is `WouldBlock`, a hung-up peer reads as
//! end-of-stream and writes as an error — so the poll engine drives them
//! with one write loop and one read loop, and frames are encoded and
//! decoded exactly alike on either.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::poll::TcpConfig;

/// Bytes one direction of an in-memory link holds before a write would
/// block — the in-process stand-in for a socket buffer.  A period puts a
/// few small frames on a lane and the same period drains them, so the
/// bound only binds on a lane nobody reads.
const PIPE_CAPACITY: usize = 64 * 1024;

/// One end of a lane's byte stream.
#[derive(Debug)]
pub(crate) enum Link {
    Tcp(TcpStream),
    Memory(MemoryLink),
}

impl Link {
    /// Wraps a connected stream, switched to nonblocking mode with
    /// `TCP_NODELAY` per `cfg`.
    pub(crate) fn tcp(stream: TcpStream, cfg: &TcpConfig) -> io::Result<Link> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(cfg.nodelay)?;
        Ok(Link::Tcp(stream))
    }

    /// Shuts the link down in both directions without dropping it: the
    /// holder finds out on its next read or write, as it would after a
    /// peer crash.
    pub(crate) fn sever(&self) {
        match self {
            Link::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            Link::Memory(link) => link.close(),
        }
    }

    pub(crate) fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(stream) => stream.read(buf),
            Link::Memory(link) => link.read(buf),
        }
    }

    pub(crate) fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(stream) => stream.write(buf),
            Link::Memory(link) => link.write(buf),
        }
    }
}

/// One direction of an in-memory link.
#[derive(Debug, Default)]
struct Pipe {
    bytes: VecDeque<u8>,
    /// Either end hung up: reads drain what is buffered and then report
    /// end-of-stream, writes fail.
    closed: bool,
}

/// One end of an in-process link made by [`memory_pair`].
#[derive(Debug)]
pub(crate) struct MemoryLink {
    tx: Arc<Mutex<Pipe>>,
    rx: Arc<Mutex<Pipe>>,
}

/// A connected in-memory link: what one end writes the other reads,
/// synchronously and in order.
pub(crate) fn memory_pair() -> (MemoryLink, MemoryLink) {
    let (ab, ba) = (Arc::<Mutex<Pipe>>::default(), Arc::<Mutex<Pipe>>::default());
    let a = MemoryLink {
        tx: Arc::clone(&ab),
        rx: Arc::clone(&ba),
    };
    (a, MemoryLink { tx: ba, rx: ab })
}

/// A pipe is plain bytes, so a lock poisoned by a panicking holder is
/// still in a usable state.
fn lock(pipe: &Mutex<Pipe>) -> MutexGuard<'_, Pipe> {
    pipe.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemoryLink {
    fn close(&self) {
        lock(&self.tx).closed = true;
        lock(&self.rx).closed = true;
    }

    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut pipe = lock(&self.rx);
        // A deque is two slices and each `read` serves one of them.
        let n = pipe.bytes.read(buf)?;
        let n = n + pipe.bytes.read(&mut buf[n..])?;
        if n == 0 && !pipe.closed {
            return Err(ErrorKind::WouldBlock.into());
        }
        Ok(n)
    }

    fn write(&self, buf: &[u8]) -> io::Result<usize> {
        let mut pipe = lock(&self.tx);
        if pipe.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let room = PIPE_CAPACITY - pipe.bytes.len();
        if room == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = room.min(buf.len());
        pipe.bytes.extend(&buf[..n]);
        Ok(n)
    }
}

impl Drop for MemoryLink {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_in_order_and_one_read_empties_a_wrapped_pipe() {
        let (a, b) = memory_pair();
        let mut buf = [0u8; 4096];
        // March the deque's head forward until a write wraps around its
        // ring; the engine's read loop takes a short read for "drained".
        for round in 0..200u8 {
            assert_eq!(a.write(&[round; 100]).unwrap(), 100);
            assert_eq!(b.read(&mut buf).unwrap(), 100, "round {round}");
            assert!(buf[..100].iter().all(|&x| x == round));
        }
        assert_eq!(b.write(&[9]).unwrap(), 1, "and the other way");
        assert_eq!((a.read(&mut buf).unwrap(), buf[0]), (1, 9));
        // An empty open pipe would block.
        assert_eq!(a.read(&mut buf).unwrap_err().kind(), ErrorKind::WouldBlock);
    }
}
