//! Marshaling with collector side effects.
//!
//! Plain data marshals exactly as in the `netobj-wire` pickle format.
//! Object references are different: transmitting one must protect it with a
//! transient dirty pin at the sender, and receiving one must bind it to a
//! local surrogate or concrete object — possibly performing a blocking
//! dirty call. [`MarshalCx`] and [`UnmarshalCx`] thread the [`Space`]
//! through so that [`NetMarshal`] implementations for handle types can do
//! that work; everything else delegates to [`Pickle`].
//!
//! A marshaled reference travels as a three-field record:
//! `(wireRep, owner endpoint, type list)` — the wireRep names the object,
//! the endpoint says where its owner listens, and the type list lets the
//! importer choose the narrowest stub it knows.

use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;

use netobj_transport::Endpoint;
use netobj_wire::pickle::{Blob, Pickle, PickleReader, PickleWriter};
use netobj_wire::{TypeList, WireRep};

use crate::error::{Error, NetResult};
use crate::handle::{Handle, TransientPin};
use crate::space::Space;

/// Marshaling context: a pickle writer plus the pins protecting every
/// reference written so far.
pub struct MarshalCx<'s> {
    space: &'s Space,
    w: PickleWriter,
    pins: Vec<TransientPin>,
}

impl<'s> MarshalCx<'s> {
    /// Creates a context writing into a fresh buffer.
    pub fn new(space: &'s Space) -> MarshalCx<'s> {
        MarshalCx::from_writer(space, PickleWriter::new())
    }

    /// Creates a context writing into `w` — lets callers recycle a buffer
    /// across calls instead of allocating per invocation.
    pub(crate) fn from_writer(space: &'s Space, w: PickleWriter) -> MarshalCx<'s> {
        MarshalCx {
            space,
            w,
            pins: Vec::new(),
        }
    }

    /// The space this context marshals on behalf of.
    pub fn space(&self) -> &Space {
        self.space
    }

    /// Direct access to the underlying pickle writer.
    pub fn writer(&mut self) -> &mut PickleWriter {
        &mut self.w
    }

    /// Marshals one value.
    pub fn put<T: NetMarshal>(&mut self, v: &T) -> NetResult<()> {
        v.marshal(self)
    }

    /// Finishes, returning the bytes and the pins that must outlive the
    /// transmission (until its acknowledgement).
    pub fn finish(self) -> (Vec<u8>, Vec<TransientPin>) {
        (self.w.into_bytes(), self.pins)
    }

    /// Finishes, returning the writer itself (for buffer recycling) and
    /// the pins that must outlive the transmission.
    pub(crate) fn finish_parts(self) -> (PickleWriter, Vec<TransientPin>) {
        (self.w, self.pins)
    }

    pub(crate) fn push_pin(&mut self, pin: TransientPin) {
        self.pins.push(pin);
    }
}

/// Unmarshaling context: a pickle reader bound to the receiving space.
pub struct UnmarshalCx<'s, 'a> {
    space: &'s Space,
    r: PickleReader<'a>,
    /// FIFO-variant receipts: background dirty registrations that must
    /// complete before this message may be acknowledged.
    pending: Vec<Receiver<NetResult<()>>>,
}

impl<'s, 'a> UnmarshalCx<'s, 'a> {
    /// Creates a context reading `bytes` on behalf of `space`.
    pub fn new(space: &'s Space, bytes: &'a [u8]) -> UnmarshalCx<'s, 'a> {
        UnmarshalCx {
            space,
            r: PickleReader::new(bytes),
            pending: Vec::new(),
        }
    }

    /// The space this context unmarshals on behalf of.
    pub fn space(&self) -> &Space {
        self.space
    }

    /// Direct access to the underlying pickle reader.
    pub fn reader(&mut self) -> &mut PickleReader<'a> {
        &mut self.r
    }

    /// Unmarshals one value.
    pub fn get<T: NetMarshal>(&mut self) -> NetResult<T> {
        T::unmarshal(self)
    }

    /// Errors unless the input is fully consumed.
    pub fn expect_end(&self) -> NetResult<()> {
        self.r.expect_end().map_err(Error::from)
    }

    pub(crate) fn push_pending(&mut self, rx: Receiver<NetResult<()>>) {
        self.pending.push(rx);
    }

    /// Waits for any deferred reference registrations (FIFO variant).
    ///
    /// In the base algorithm this is a no-op: registration happened inline
    /// during [`UnmarshalCx::get`].
    pub fn wait_pending(&mut self) -> NetResult<()> {
        for rx in self.pending.drain(..) {
            match rx.recv() {
                Ok(r) => r?,
                Err(_) => return Err(Error::SpaceStopped),
            }
        }
        Ok(())
    }
}

/// A type marshalable through the network objects runtime.
///
/// Unlike [`Pickle`], implementations may interact with the [`Space`]:
/// handle types register references, pin transmissions, and so on.
pub trait NetMarshal: Sized {
    /// Encodes `self`.
    fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()>;
    /// Decodes a value.
    fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self>;
}

macro_rules! net_marshal_via_pickle {
    ($($t:ty),* $(,)?) => {$(
        impl NetMarshal for $t {
            fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
                self.pickle(cx.writer());
                Ok(())
            }
            fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
                <$t as Pickle>::unpickle(cx.reader()).map_err(Error::from)
            }
        }
    )*};
}

net_marshal_via_pickle!(
    (),
    bool,
    i8,
    i16,
    i32,
    i64,
    isize,
    u8,
    u16,
    u32,
    u64,
    usize,
    f32,
    f64,
    char,
    String,
    Blob,
    WireRep,
    TypeList,
    netobj_wire::SpaceId,
    Endpoint,
    netobj_wire::SpanRecord,
    netobj_wire::TraceEvent,
);

impl<T: NetMarshal> NetMarshal for Option<T> {
    fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
        match self {
            None => {
                cx.writer().put_none();
                Ok(())
            }
            Some(v) => {
                cx.writer().begin_some();
                v.marshal(cx)
            }
        }
    }
    fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
        if cx.reader().begin_option()? {
            Ok(Some(T::unmarshal(cx)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: NetMarshal> NetMarshal for Vec<T> {
    fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
        cx.writer().begin_seq(self.len());
        for v in self {
            v.marshal(cx)?;
        }
        Ok(())
    }
    fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
        let n = cx.reader().begin_seq()?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::unmarshal(cx)?);
        }
        Ok(out)
    }
}

impl<K: NetMarshal + Ord, V: NetMarshal> NetMarshal for BTreeMap<K, V> {
    fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
        cx.writer().begin_map(self.len());
        for (k, v) in self {
            k.marshal(cx)?;
            v.marshal(cx)?;
        }
        Ok(())
    }
    fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
        let n = cx.reader().begin_map()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unmarshal(cx)?;
            let v = V::unmarshal(cx)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! net_marshal_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: NetMarshal),+> NetMarshal for ($($name,)+) {
            fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
                $(self.$idx.marshal(cx)?;)+
                Ok(())
            }
            fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
                Ok(($($name::unmarshal(cx)?,)+))
            }
        }
    };
}

net_marshal_tuple!(A: 0);
net_marshal_tuple!(A: 0, B: 1);
net_marshal_tuple!(A: 0, B: 1, C: 2);
net_marshal_tuple!(A: 0, B: 1, C: 2, D: 3);
net_marshal_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl NetMarshal for Handle {
    fn marshal(&self, cx: &mut MarshalCx<'_>) -> NetResult<()> {
        let space = cx.space().clone();
        let sent = space.prepare_send(self)?;
        cx.writer().begin_record(3);
        cx.writer().put_wirerep(sent.wirerep);
        sent.owner_ep.pickle(cx.writer());
        sent.types.pickle(cx.writer());
        if let Some(pin) = sent.pin {
            cx.push_pin(pin);
        }
        Ok(())
    }

    fn unmarshal(cx: &mut UnmarshalCx<'_, '_>) -> NetResult<Self> {
        cx.reader().expect_record(3)?;
        let wirerep = cx.reader().get_wirerep()?;
        let owner_ep = Endpoint::unpickle(cx.reader())?;
        let types = TypeList::unpickle(cx.reader())?;
        let space = cx.space().clone();
        space.receive_ref(cx, wirerep, owner_ep, types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn space() -> Space {
        Space::builder().build().expect("space")
    }

    #[test]
    fn plain_values_roundtrip_through_cx() {
        let s = space();
        let mut m = MarshalCx::new(&s);
        m.put(&42u32).unwrap();
        m.put(&String::from("hi")).unwrap();
        m.put(&vec![1i64, 2, 3]).unwrap();
        m.put(&Some((1u8, 2u8))).unwrap();
        let (bytes, pins) = m.finish();
        assert!(pins.is_empty());

        let mut u = UnmarshalCx::new(&s, &bytes);
        assert_eq!(u.get::<u32>().unwrap(), 42);
        assert_eq!(u.get::<String>().unwrap(), "hi");
        assert_eq!(u.get::<Vec<i64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(u.get::<Option<(u8, u8)>>().unwrap(), Some((1, 2)));
        u.expect_end().unwrap();
        u.wait_pending().unwrap();
    }

    #[test]
    fn trailing_input_detected() {
        let s = space();
        let mut m = MarshalCx::new(&s);
        m.put(&1u8).unwrap();
        m.put(&2u8).unwrap();
        let (bytes, _) = m.finish();
        let mut u = UnmarshalCx::new(&s, &bytes);
        let _ = u.get::<u8>().unwrap();
        assert!(u.expect_end().is_err());
    }

    #[test]
    fn blob_roundtrip() {
        let s = space();
        let mut m = MarshalCx::new(&s);
        m.put(&Blob(vec![7; 1000])).unwrap();
        let (bytes, _) = m.finish();
        let mut u = UnmarshalCx::new(&s, &bytes);
        assert_eq!(u.get::<Blob>().unwrap().0.len(), 1000);
    }
}
