//! # netobj — Network Objects in Rust
//!
//! A reproduction of the Network Objects system (Birrell, Nelson, Owicki,
//! Wobber; SOSP 1993): distributed objects with uniform local/remote
//! invocation, pickled marshaling, and — the hard part — a distributed
//! garbage collector based on reference listing with dirty and clean
//! calls.
//!
//! ## Concepts
//!
//! - A [`Space`] is a participating process. The space that allocates an
//!   object is its **owner**; the instance there is the *concrete object*.
//! - Other spaces hold **surrogates**: proxies whose methods perform
//!   remote invocations to the owner. The application sees both through
//!   [`Handle`] (or, usually, through typed stubs generated by
//!   [`network_object!`]).
//! - A reference travels as a *wireRep* (owner id + table index); each
//!   space's *object table* maps wireReps to the local concrete object or
//!   surrogate — at most one surrogate per object per space.
//! - The owner keeps, per object, a **dirty set** of client spaces. A
//!   client that receives a reference for the first time issues a **dirty
//!   call** before using it; when a client's last handle drops, a cleanup
//!   demon issues a **clean call**. Transmission races are prevented by
//!   transient pins held until the carrying message is acknowledged.
//! - Failures are handled with per-client **sequence numbers**, *strong
//!   clean* calls after ambiguous dirty failures, clean-call retry, and
//!   owner-side **ping** (or lease) based termination detection.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use netobj::{network_object, NetResult, Space};
//! use netobj_transport::loopback::Loopback;
//! use netobj_transport::Endpoint;
//!
//! network_object! {
//!     /// The obligatory greeting service.
//!     pub interface Greeter ("demo.Greeter"):
//!         client GreeterClient, export GreeterExport
//!     {
//!         0 => fn greet(&self, name: String) -> String;
//!     }
//! }
//!
//! struct Impl;
//! impl Greeter for Impl {
//!     fn greet(&self, name: String) -> NetResult<String> {
//!         Ok(format!("hello, {name}"))
//!     }
//! }
//!
//! // One transport shared by both spaces (in-process loopback).
//! let net = Loopback::new();
//!
//! // The owner exports a greeter.
//! let owner = Space::builder()
//!     .transport(Arc::new(Arc::clone(&net)))
//!     .listen(Endpoint::loopback("owner"))
//!     .build()
//!     .unwrap();
//! owner
//!     .export(Arc::new(GreeterExport(Arc::new(Impl))))
//!     .unwrap();
//!
//! // A client binds to it and calls.
//! let client_space = Space::builder()
//!     .transport(Arc::new(net))
//!     .build()
//!     .unwrap();
//! let handle = client_space
//!     .import_root(&Endpoint::loopback("owner"), netobj::wire::ObjIx::FIRST_USER)
//!     .unwrap();
//! let greeter = GreeterClient::narrow(handle).unwrap();
//! assert_eq!(greeter.greet("world".into()).unwrap(), "hello, world");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dgc;
pub mod error;
pub mod handle;
pub mod introspect;
pub mod marshal;
pub mod metrics;
pub mod obj;
pub mod options;
mod ring;
pub mod space;
pub mod span;
pub mod stats;
pub mod stub;
mod table;
pub mod trace;

pub use error::{Error, NetResult};
pub use handle::{Handle, TransientPin};
pub use introspect::{Introspect, IntrospectClient, IntrospectExport};
pub use marshal::{MarshalCx, NetMarshal, UnmarshalCx};
pub use metrics::{ClientQuotaGauges, Gauges, Histogram, HistogramSnapshot, Metrics};
pub use obj::{MarshaledResult, NetObject};
pub use options::Options;
pub use space::{Space, SpaceBuilder};
pub use stats::{Stats, StatsSnapshot};

// Resilience knobs for [`Options::retry`] / [`Options::breaker`].
pub use netobj_rpc::{BreakerConfig, ResourceBudget, RetryPolicy};

/// Re-export of the wire crate (ids, typecodes, pickles).
pub mod wire {
    pub use netobj_wire::*;
}

/// Re-export of the transport crate.
pub mod transport {
    pub use netobj_transport::*;
}
