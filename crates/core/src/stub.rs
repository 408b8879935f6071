//! The stub generator.
//!
//! Modula-3 Network Objects shipped a stub compiler that read an interface
//! and emitted a client surrogate type and an owner-side dispatcher. The
//! [`network_object!`](crate::network_object) macro is this repository's
//! stub generator: from an
//! interface description it produces
//!
//! - a Rust *trait* with the interface's methods (servers implement it),
//! - an *export* wrapper implementing [`crate::NetObject`] by unmarshaling
//!   arguments, invoking the trait method and marshaling the result,
//! - a *client* stub type wrapping a [`crate::Handle`] and implementing the
//!   same trait by remote invocation, plus `narrow` for checked downcasts
//!   from untyped handles — the runtime's narrowest-surrogate machinery.
//!
//! Method numbers are explicit in the interface description, as a stub
//! compiler would assign them, so that wire compatibility is visible in
//! the source.

/// Generates a network object interface: trait, export wrapper and client
/// stub.
///
/// A method index may be followed by `[idempotent]` to declare that the
/// method can safely execute more than once. The client stub then lets the
/// runtime transparently retry the call after *ambiguous* failures
/// (timeouts, mid-call connection loss); unmarked methods are retried only
/// when the request provably never reached the owner, preserving
/// at-most-once execution:
///
/// ```text
/// 0 => fn add(&self, n: i64) -> i64;          // at-most-once
/// 1 [idempotent] => fn read(&self) -> i64;    // retried on ambiguity
/// ```
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use netobj::{network_object, NetResult, Space};
///
/// network_object! {
///     /// A counter anyone on the network can bump.
///     pub interface Counter ("demo.Counter"):
///         client CounterClient, export CounterExport
///     {
///         0 => fn add(&self, n: i64) -> i64;
///         1 => fn read(&self) -> i64;
///     }
/// }
///
/// struct Impl(std::sync::Mutex<i64>);
/// impl Counter for Impl {
///     fn add(&self, n: i64) -> NetResult<i64> {
///         let mut v = self.0.lock().unwrap();
///         *v += n;
///         Ok(*v)
///     }
///     fn read(&self) -> NetResult<i64> {
///         Ok(*self.0.lock().unwrap())
///     }
/// }
///
/// let space = Space::builder().build().unwrap();
/// let handle = space.local(Arc::new(CounterExport(Arc::new(Impl(
///     std::sync::Mutex::new(0),
/// )))));
/// let counter = CounterClient::narrow(handle).unwrap();
/// assert_eq!(counter.add(5).unwrap(), 5);
/// assert_eq!(counter.read().unwrap(), 5);
/// ```
#[macro_export]
macro_rules! network_object {
    (
        $(#[$meta:meta])*
        $vis:vis interface $trait_name:ident ($type_name:literal $(extends $($super:literal),+)?) :
            client $client:ident, export $export:ident
        {
            $(
                $(#[$mmeta:meta])*
                $idx:literal $([$flag:ident])? => fn $method:ident (&self $(, $arg:ident : $aty:ty)* $(,)?) -> $rty:ty;
            )*
        }
    ) => {
        $(#[$meta])*
        $vis trait $trait_name: Send + Sync + 'static {
            $(
                $(#[$mmeta])*
                // Interface signatures mirror the wire protocol; wide
                // argument lists are legitimate there.
                #[allow(clippy::too_many_arguments)]
                fn $method(&self $(, $arg: $aty)*) -> $crate::NetResult<$rty>;
            )*
        }

        /// Owner-side wrapper exporting an implementation of the interface
        /// as a network object (generated by `network_object!`).
        $vis struct $export<T: $trait_name>(pub ::std::sync::Arc<T>);

        impl<T: $trait_name> $crate::NetObject for $export<T> {
            fn type_list(&self) -> $crate::wire::TypeList {
                // Most-derived first, supertypes after: importers pick the
                // narrowest fingerprint they know (subtyping). Supertype
                // interfaces must use compatible method numbering.
                $crate::wire::TypeList::from_names(&[$type_name $($(, $super)+)?])
            }

            fn dispatch(
                &self,
                space: &$crate::Space,
                method: u32,
                args: &[u8],
            ) -> $crate::NetResult<$crate::MarshaledResult> {
                let mut ucx = $crate::marshal::UnmarshalCx::new(space, args);
                match method {
                    $(
                        $idx => {
                            $(let $arg: $aty = ucx.get()?;)*
                            ucx.expect_end()?;
                            let value: $rty = self.0.$method($($arg),*)?;
                            let mut mcx = $crate::marshal::MarshalCx::new(space);
                            mcx.put(&value)?;
                            let (bytes, pins) = mcx.finish();
                            // FIFO variant: the method ran without waiting
                            // for background registrations, but the reply —
                            // which releases the sender's transient pins —
                            // must not leave before they complete.
                            ucx.wait_pending()?;
                            Ok($crate::MarshaledResult { bytes, pins })
                        }
                    )*
                    other => Err($crate::Error::app(format!(
                        concat!($type_name, " has no method {}"),
                        other
                    ))),
                }
            }
        }

        /// Client stub for the interface (generated by `network_object!`).
        #[derive(Clone, Debug)]
        $vis struct $client($crate::Handle);

        impl $client {
            /// The interface's wire name.
            pub const TYPE_NAME: &'static str = $type_name;

            /// The interface's type fingerprint.
            pub fn typecode() -> $crate::wire::TypeCode {
                $crate::wire::TypeCode::of_name($type_name)
            }

            /// Narrows an untyped handle to this interface, checking the
            /// handle's type list.
            pub fn narrow(handle: $crate::Handle) -> $crate::NetResult<$client> {
                if handle.types().includes(Self::typecode()) {
                    Ok($client(handle))
                } else {
                    Err($crate::Error::WrongType {
                        wanted: $type_name,
                    })
                }
            }

            /// The underlying handle.
            pub fn handle(&self) -> &$crate::Handle {
                &self.0
            }

            /// Consumes the stub, returning its handle.
            pub fn into_handle(self) -> $crate::Handle {
                self.0
            }
        }

        impl $trait_name for $client {
            $(
                #[allow(clippy::too_many_arguments)]
                fn $method(&self $(, $arg: $aty)*) -> $crate::NetResult<$rty> {
                    self.0.invoke_named(
                        $idx,
                        concat!($type_name, "/", stringify!($method)),
                        $crate::__netobj_idem!($($flag)?),
                        |mcx| {
                            $(mcx.put(&$arg)?;)*
                            let _ = &mcx;
                            Ok(())
                        },
                    )
                }
            )*
        }

        impl $crate::marshal::NetMarshal for $client {
            fn marshal(&self, cx: &mut $crate::marshal::MarshalCx<'_>) -> $crate::NetResult<()> {
                self.0.marshal(cx)
            }
            fn unmarshal(
                cx: &mut $crate::marshal::UnmarshalCx<'_, '_>,
            ) -> $crate::NetResult<Self> {
                let handle = $crate::Handle::unmarshal(cx)?;
                $client::narrow(handle)
            }
        }
    };
}

/// Expands a method's optional idempotence flag to a bool (implementation
/// detail of [`network_object!`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __netobj_idem {
    () => {
        false
    };
    (idempotent) => {
        true
    };
}
