//! The remote invocation layer.
//!
//! Network Objects sits on a remote procedure call protocol; this crate is
//! that protocol, reproduced as an explicit request/reply exchange over any
//! [`netobj_transport::Conn`]:
//!
//! - [`msg`]: the wire messages ([`msg::Request`], [`msg::Reply`]) — a call
//!   names a target object by [`netobj_wire::WireRep`], a method by index,
//!   and carries its arguments as an opaque pickle.
//! - [`client::CallClient`]: a multiplexing caller — many threads can issue
//!   concurrent calls over one connection; replies are matched by call id.
//! - [`server::RpcServer`]: accepts connections and dispatches each request
//!   on a worker pool to a user-provided [`Dispatcher`].
//! - [`budget`]: per-client [`budget::ResourceBudget`]s and the
//!   [`budget::FairPool`] the server dispatches on (the original runtime
//!   likewise handed each incoming call to a free server thread), with
//!   admission control that keeps one abusive peer from starving everyone
//!   else.
//!
//! The layer above (the `netobj` runtime) implements [`Dispatcher`] to
//! route calls to concrete objects, and issues collector calls (dirty,
//! clean, ping) as ordinary invocations on each space's reserved object 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod client;
pub mod error;
pub mod msg;
pub mod resilience;
pub mod server;

/// A Fibonacci-multiply hasher for the client's pending-call map, whose
/// keys (call ids) the process allocates itself. One multiply replaces
/// SipHash's several rounds. Not DoS-resistant: the hash's low bits depend
/// only on the key's low bits, so keys a peer chooses stay on std's SipHash.
#[derive(Default)]
pub(crate) struct FibHasher(u64);

impl std::hash::Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

pub(crate) type FibHashMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FibHasher>>;

pub use budget::{ClientUsage, FairAdmit, FairPool, ResourceBudget};
pub use client::{AckToken, CallClient, CallReply};
pub use error::{RemoteError, RemoteErrorKind, RpcError};
pub use resilience::{
    Admission, Backoff, BreakerConfig, BreakerState, CallFailure, CircuitBreaker, FailureClass,
    RetryPolicy,
};
pub use server::{Dispatch, DispatchCx, Dispatcher, RpcServer, ServerConfig};

/// Result alias for RPC operations.
pub type Result<T> = std::result::Result<T, RpcError>;
