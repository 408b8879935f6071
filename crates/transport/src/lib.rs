//! Message transports for the network objects runtime.
//!
//! Network Objects layers its RPC protocol over pluggable transports; the
//! original system shipped TCP and shared-memory transports selected at
//! bind time by address scheme. This crate reproduces that design:
//!
//! - [`Endpoint`]: a parsed `scheme:address` transport address.
//! - [`Conn`] / [`Listener`] / [`Transport`]: the object-level abstraction —
//!   reliable, connection-oriented exchange of discrete frames.
//! - [`loopback`]: an in-process transport with no networking at all,
//!   used for same-machine measurements (paper: "local" case).
//! - [`sim`]: an in-process *simulated network* with configurable latency,
//!   jitter, loss, duplication, reordering and partitions. This is the
//!   testbed substitute for the paper's Ethernet: experiments dial latency
//!   instead of racking hardware, and the fault knobs drive the
//!   fault-tolerance experiments.
//! - [`tcp`]: a real TCP transport (length-prefixed frames, `TCP_NODELAY`).
//! - [`registry`]: maps address schemes to transports, as the original
//!   runtime did when choosing how to contact an address.
//!
//! All transports present *reliable duplex frame pipes* to the layer above;
//! the simulated network's loss/duplication knobs exist to test the RPC
//! layer's and collector's tolerance of misbehaving channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chan;
pub mod clock;
pub mod endpoint;
pub mod error;
pub mod loopback;
pub mod pool;
pub mod reactor;
pub mod registry;
pub mod sim;
pub mod tcp;

pub use bytes::Bytes;
pub use clock::{Clock, ClockHandle, SystemClock, VirtualClock};
pub use endpoint::Endpoint;
pub use error::TransportError;
pub use registry::TransportRegistry;

use std::time::Duration;

/// Result alias for transport operations.
pub type Result<T> = std::result::Result<T, TransportError>;

/// A reliable, bidirectional, frame-oriented connection.
///
/// Frames are discrete byte payloads; the transport preserves their
/// boundaries. All methods take `&self` so a connection can be shared
/// between senders and whichever thread is currently receiving.
///
/// Frames travel as shared [`Bytes`]: in-process transports enqueue the
/// caller's buffer by reference, and stream transports write the length
/// prefix and the payload as separate (gathered) writes — no transport
/// re-assembles a one-piece frame into a fresh allocation. A frame may
/// also come in [`Segments`], so that an encoder need not copy a bulk
/// payload into its own buffer: a stream transport gathers the pieces by
/// reference too, and an in-process one concatenates them.
pub trait Conn: Send + Sync {
    /// Sends one frame. Returns an error if the connection is closed.
    fn send(&self, frame: Bytes) -> Result<()>;

    /// Sends one frame given as up to three pieces, back to back. The
    /// default concatenates them and calls [`Conn::send`]: a transport
    /// that cannot gather pays here the copy the encoder saved.
    fn send_segments(&self, frame: Segments) -> Result<()> {
        self.send(frame.concat())
    }

    /// Receives the next frame, blocking until one arrives or the
    /// connection closes.
    fn recv(&self) -> Result<Bytes>;

    /// Receives the next frame, waiting at most `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes>;

    /// Receives a frame that has already arrived, without blocking:
    /// `Ok(None)` when none has. An error means the connection is dead —
    /// which is how a caller finds out, before committing a request to an
    /// idle connection, that the peer closed it in the meantime.
    fn try_recv(&self) -> Result<Option<Bytes>> {
        match self.recv_timeout(Duration::ZERO) {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Closes the connection; pending and future operations fail with
    /// [`TransportError::Closed`].
    fn close(&self);

    /// The remote endpoint this connection talks to, if known.
    fn peer(&self) -> Option<Endpoint>;

    /// The connection's non-blocking side, through which a
    /// [`reactor::Reactor`] serves it. Every transport in this crate has
    /// one; `None` (the default) is for a connection that only ever has a
    /// blocking caller, such as a client-side wrapper in a test.
    fn as_pollable(&self) -> Option<&dyn reactor::Pollable> {
        None
    }
}

/// One outbound frame in up to three pieces that travel back to back: what
/// an encoder wrote into its own buffer, a bulk payload it holds by
/// reference, and whatever it wrote after that.
#[derive(Debug, Clone)]
pub struct Segments([Option<Bytes>; 3]);

impl Segments {
    /// A frame of `head`, then `body`, then `tail`.
    pub fn new(head: Bytes, body: Bytes, tail: Bytes) -> Segments {
        Segments([Some(head), Some(body), Some(tail)])
    }

    /// The pieces, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> {
        self.0.iter().flatten()
    }

    /// The three pieces, an absent one empty.
    pub(crate) fn slices(&self) -> [&[u8]; 3] {
        fn piece(p: &Option<Bytes>) -> &[u8] {
            p.as_deref().unwrap_or(&[])
        }
        [piece(&self.0[0]), piece(&self.0[1]), piece(&self.0[2])]
    }

    /// The frame's length in bytes.
    pub fn len(&self) -> usize {
        self.iter().map(Bytes::len).sum()
    }

    /// True for an empty frame.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame as one [`Bytes`]: the piece itself if there is one, else
    /// a copy of them all.
    pub fn concat(self) -> Bytes {
        let len = self.len();
        match self.0 {
            [Some(one), None, None] => one,
            pieces => {
                let mut whole = Vec::with_capacity(len);
                for piece in pieces.iter().flatten() {
                    whole.extend_from_slice(piece);
                }
                Bytes::from(whole)
            }
        }
    }
}

impl From<Bytes> for Segments {
    fn from(frame: Bytes) -> Segments {
        Segments([Some(frame), None, None])
    }
}

/// A passive endpoint accepting incoming connections.
pub trait Listener: Send + Sync {
    /// Accepts the next incoming connection, blocking.
    fn accept(&self) -> Result<Box<dyn Conn>>;

    /// The endpoint peers should connect to.
    fn local_endpoint(&self) -> Endpoint;

    /// Stops listening; a blocked [`Listener::accept`] returns
    /// [`TransportError::Closed`].
    fn close(&self);

    /// The listener's non-blocking side, through which a
    /// [`reactor::Reactor`] accepts from it. A listener without one cannot
    /// be served from.
    fn as_pollable(&self) -> Option<&dyn reactor::PollableListener> {
        None
    }
}

/// A transport: a way of establishing [`Conn`]s from endpoint addresses.
pub trait Transport: Send + Sync {
    /// The address scheme this transport serves (e.g. `"tcp"`).
    fn scheme(&self) -> &str;

    /// Opens a connection to `ep`.
    fn connect(&self, ep: &Endpoint) -> Result<Box<dyn Conn>>;

    /// Starts listening at `ep` (which may be a wildcard the transport
    /// resolves, e.g. `tcp:127.0.0.1:0`).
    fn listen(&self, ep: &Endpoint) -> Result<Box<dyn Listener>>;
}
