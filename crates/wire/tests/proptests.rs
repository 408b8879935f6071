//! Property-based tests for the pickle format.
//!
//! The central properties: every value round-trips bit-exactly; decoding is
//! total (arbitrary bytes never panic); and the reference scanner finds
//! exactly the references that were written.

use proptest::prelude::*;

use netobj_wire::pickle::{scan_refs, Pickle, Value};
use netobj_wire::{ObjIx, SpaceId, WireRep};

fn arb_wirerep() -> impl Strategy<Value = WireRep> {
    (any::<u128>(), any::<u64>()).prop_map(|(s, ix)| WireRep::new(SpaceId::from_raw(s), ObjIx(ix)))
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::UInt),
        // NaN breaks PartialEq-based roundtrip comparison; use finite floats
        // here and test NaN bit-patterns separately below.
        (-1e300f64..1e300).prop_map(Value::Float),
        ".*".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        arb_wirerep().prop_map(Value::Ref),
        Just(Value::Opt(None)),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Record),
            proptest::collection::vec((inner.clone(), inner.clone()), 0..4).prop_map(Value::Map),
            inner.clone().prop_map(|v| Value::Opt(Some(Box::new(v)))),
            (any::<u64>(), inner).prop_map(|(d, v)| Value::Variant(d, Box::new(v))),
        ]
    })
}

proptest! {
    #[test]
    fn value_roundtrip(v in arb_value()) {
        let bytes = v.to_pickle_bytes();
        let back = Value::from_pickle_bytes(&bytes).expect("roundtrip decode");
        prop_assert_eq!(v, back);
    }

    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic; errors are fine.
        let _ = Value::from_pickle_bytes(&bytes);
        let _ = scan_refs(&bytes);
    }

    #[test]
    fn scan_finds_exactly_written_refs(
        refs in proptest::collection::vec(arb_wirerep(), 0..8),
        pad in proptest::collection::vec(any::<i64>(), 0..8),
    ) {
        // Interleave refs and integer padding inside a record.
        let mut fields = Vec::new();
        for (i, r) in refs.iter().enumerate() {
            fields.push(Value::Ref(*r));
            if let Some(p) = pad.get(i) {
                fields.push(Value::Int(*p));
            }
        }
        let v = Value::Record(fields);
        let bytes = v.to_pickle_bytes();
        let found = scan_refs(&bytes).expect("scan");
        prop_assert_eq!(found, refs);
    }

    #[test]
    fn integer_roundtrip_all_widths(v in any::<i64>()) {
        let bytes = v.to_pickle_bytes();
        prop_assert_eq!(i64::from_pickle_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn string_roundtrip(s in ".*") {
        let bytes = s.to_pickle_bytes();
        prop_assert_eq!(String::from_pickle_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn nested_vec_roundtrip(v in proptest::collection::vec(
        proptest::collection::vec(any::<u32>(), 0..8), 0..8)
    ) {
        let bytes = v.to_pickle_bytes();
        prop_assert_eq!(Vec::<Vec<u32>>::from_pickle_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip(a in any::<i32>(), b in ".*", c in any::<bool>()) {
        let v = (a, b.clone(), c);
        let bytes = v.to_pickle_bytes();
        prop_assert_eq!(<(i32, String, bool)>::from_pickle_bytes(&bytes).unwrap(), v);
    }
}

#[test]
fn float_bit_patterns_roundtrip() {
    for bits in [
        0u64,
        f64::NAN.to_bits(),
        f64::INFINITY.to_bits(),
        1u64,
        u64::MAX,
    ] {
        let v = f64::from_bits(bits);
        let bytes = v.to_pickle_bytes();
        let back = f64::from_pickle_bytes(&bytes).unwrap();
        // Compare representations: NaN != NaN under PartialEq.
        assert_eq!(back.to_bits(), v.to_bits());
    }
}

mod framing {
    use bytes::BytesMut;
    use netobj_wire::frame::{encode_frame, FrameDecoder};
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of frames survives any re-chunking of the byte
        /// stream (the property TCP delivery depends on).
        #[test]
        fn frames_survive_fixed_chunking(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..128), 0..8),
            chunk in 1usize..17,
        ) {
            let mut stream = BytesMut::new();
            for f in &frames {
                encode_frame(&mut stream, f).unwrap();
            }
            let mut decoder = FrameDecoder::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for piece in stream.chunks(chunk) {
                decoder.extend(piece);
                while let Some(f) = decoder.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
            }
            prop_assert_eq!(got, frames);
        }

        /// The same byte stream split at *arbitrary* boundaries (a random
        /// cut set, not a fixed chunk size) yields an identical frame
        /// sequence — and one identical to feeding the stream whole. This
        /// pins down the zero-copy decoder's buffer bookkeeping: split
        /// points may land inside the length prefix, inside a payload, or
        /// exactly between frames.
        #[test]
        fn frames_survive_arbitrary_split_points(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 1..8),
            cuts in proptest::collection::vec(any::<usize>(), 0..24),
        ) {
            let mut stream = BytesMut::new();
            for f in &frames {
                encode_frame(&mut stream, f).unwrap();
            }
            let bytes = stream.to_vec();

            // Reference: decode in one feed.
            let mut whole = FrameDecoder::default();
            whole.extend(&bytes);
            let mut expect: Vec<Vec<u8>> = Vec::new();
            while let Some(f) = whole.next_frame().unwrap() {
                expect.push(f.to_vec());
            }
            prop_assert_eq!(&expect, &frames);

            // Candidate: decode across random split points, draining after
            // every piece so yielded frames and buffered bytes interleave.
            let mut points: Vec<usize> = cuts.iter().map(|i| i % (bytes.len() + 1)).collect();
            points.push(0);
            points.push(bytes.len());
            points.sort_unstable();
            points.dedup();
            let mut decoder = FrameDecoder::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for w in points.windows(2) {
                decoder.extend(&bytes[w[0]..w[1]]);
                while let Some(f) = decoder.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
            }
            prop_assert_eq!(got, expect);
            prop_assert_eq!(decoder.buffered(), 0);
        }

        /// The transports' read path — the decoder reading into its own
        /// buffer — yields the frames `extend` yields, whatever each read
        /// returns: reads short of what was asked, reads capped by a
        /// limit, frames alive across later reads. Frames reach past
        /// `MIN_READ`, so reads sized from the declared length are hit.
        #[test]
        fn read_with_yields_what_extend_yields(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..9000), 1..6),
            reads in proptest::collection::vec((1usize..20_000, 1usize..70_000), 1..16),
        ) {
            let mut stream = BytesMut::new();
            for f in &frames {
                encode_frame(&mut stream, f).unwrap();
            }
            let bytes = stream.to_vec();

            let mut whole = FrameDecoder::default();
            whole.extend(&bytes);
            let mut expect: Vec<Vec<u8>> = Vec::new();
            while let Some(f) = whole.next_frame().unwrap() {
                expect.push(f.to_vec());
            }

            let mut decoder = FrameDecoder::default();
            let mut got = Vec::new();
            let mut fed = 0;
            for &(size, limit) in reads.iter().cycle() {
                if fed == bytes.len() {
                    break;
                }
                let n = decoder
                    .read_with(limit, |buf, ask| {
                        assert!(ask <= limit);
                        let n = ask.min(size).min(bytes.len() - fed);
                        buf.extend_from_slice(&bytes[fed..fed + n]);
                        Ok::<_, ()>(n)
                    })
                    .unwrap();
                fed += n;
                // Keep the frames, not copies: the next read must leave
                // them intact.
                while let Some(f) = decoder.next_frame().unwrap() {
                    got.push(f);
                }
            }
            let got: Vec<Vec<u8>> = got.iter().map(|f| f.to_vec()).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(decoder.buffered(), 0);
        }

        /// Arbitrary garbage never panics the decoder; it either yields
        /// frames or errors on an oversized length.
        #[test]
        fn decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut decoder = FrameDecoder::new(1024);
            decoder.extend(&bytes);
            while let Ok(Some(_)) = decoder.next_frame() {}
        }
    }
}

mod trace {
    use netobj_wire::pickle::{Pickle, PickleWriter};
    use netobj_wire::{ObjIx, SpaceId, TraceEvent, TraceKind, WireRep};
    use proptest::prelude::*;

    fn arb_space() -> impl Strategy<Value = SpaceId> {
        any::<u128>().prop_map(SpaceId::from_raw)
    }

    fn arb_rep() -> impl Strategy<Value = WireRep> {
        (any::<u128>(), any::<u64>())
            .prop_map(|(s, ix)| WireRep::new(SpaceId::from_raw(s), ObjIx(ix)))
    }

    /// Every one of the 22 trace kinds, with arbitrary identities.
    fn arb_kind() -> impl Strategy<Value = TraceKind> {
        prop_oneof![
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(client, owner, target, seqno)| TraceKind::DirtySent {
                    client,
                    owner,
                    target,
                    seqno
                }
            ),
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(owner, client, target, seqno)| TraceKind::DirtyApplied {
                    owner,
                    client,
                    target,
                    seqno
                }
            ),
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(owner, client, target, seqno)| TraceKind::DirtyStale {
                    owner,
                    client,
                    target,
                    seqno
                }
            ),
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(owner, client, target, seqno)| TraceKind::DirtyRefused {
                    owner,
                    client,
                    target,
                    seqno
                }
            ),
            (
                (arb_space(), arb_space(), arb_rep()),
                (any::<u64>(), any::<bool>())
            )
                .prop_map(|((client, owner, target), (seqno, ok))| {
                    TraceKind::DirtyAcked {
                        client,
                        owner,
                        target,
                        seqno,
                        ok,
                    }
                }),
            (
                (arb_space(), arb_space(), arb_rep()),
                (any::<u64>(), any::<bool>(), any::<bool>())
            )
                .prop_map(|((client, owner, target), (seqno, strong, batched))| {
                    TraceKind::CleanSent {
                        client,
                        owner,
                        target,
                        seqno,
                        strong,
                        batched,
                    }
                }),
            (
                (arb_space(), arb_space(), arb_rep()),
                (any::<u64>(), any::<bool>())
            )
                .prop_map(|((owner, client, target), (seqno, strong))| {
                    TraceKind::CleanApplied {
                        owner,
                        client,
                        target,
                        seqno,
                        strong,
                    }
                }),
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(owner, client, target, seqno)| TraceKind::CleanStale {
                    owner,
                    client,
                    target,
                    seqno
                }
            ),
            (arb_space(), arb_space(), arb_rep(), any::<u64>()).prop_map(
                |(client, owner, target, seqno)| TraceKind::CleanAcked {
                    client,
                    owner,
                    target,
                    seqno
                }
            ),
            (arb_space(), arb_rep(), any::<u64>()).prop_map(|(client, target, epoch)| {
                TraceKind::SurrogateCreated {
                    client,
                    target,
                    epoch,
                }
            }),
            (arb_space(), arb_rep(), any::<u64>()).prop_map(|(client, target, epoch)| {
                TraceKind::SurrogateResurrecting {
                    client,
                    target,
                    epoch,
                }
            }),
            (arb_space(), arb_rep(), any::<u64>()).prop_map(|(client, target, epoch)| {
                TraceKind::SurrogateDropped {
                    client,
                    target,
                    epoch,
                }
            }),
            (arb_space(), arb_rep(), any::<u64>()).prop_map(|(owner, target, pin)| {
                TraceKind::TransientPinned { owner, target, pin }
            }),
            (arb_space(), arb_rep(), any::<u64>()).prop_map(|(owner, target, pin)| {
                TraceKind::TransientReleased { owner, target, pin }
            }),
            (arb_space(), arb_rep())
                .prop_map(|(owner, target)| TraceKind::ExportCreated { owner, target }),
            (arb_space(), arb_rep())
                .prop_map(|(owner, target)| TraceKind::ExportCollected { owner, target }),
            (arb_space(), arb_space())
                .prop_map(|(owner, client)| TraceKind::PingSent { owner, client }),
            (arb_space(), arb_space())
                .prop_map(|(space, from)| TraceKind::PingReceived { space, from }),
            (arb_space(), any::<u64>())
                .prop_map(|(owner, expired)| TraceKind::LeaseExpired { owner, expired }),
            (arb_space(), arb_space())
                .prop_map(|(owner, client)| TraceKind::ClientPurged { owner, client }),
            (arb_space(), arb_space())
                .prop_map(|(client, owner)| TraceKind::OwnerDead { client, owner }),
            arb_space().prop_map(|space| TraceKind::SpaceCrashed { space }),
        ]
    }

    proptest! {
        /// Every trace event — all 22 kinds, arbitrary identities —
        /// survives the pickle encoding bit-exactly.
        #[test]
        fn trace_events_roundtrip(
            seq in any::<u64>(),
            at_micros in any::<u64>(),
            kind in arb_kind(),
        ) {
            let ev = TraceEvent { seq, at_micros, kind };
            let bytes = ev.to_pickle_bytes();
            prop_assert_eq!(TraceEvent::from_pickle_bytes(&bytes).unwrap(), ev);
        }

        /// Arbitrary bytes never panic the trace decoder.
        #[test]
        fn trace_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = TraceEvent::from_pickle_bytes(&bytes);
        }

        /// The CLEAN_BATCH payload — a vector of `(ix, seqno, strong)`
        /// intents — round-trips at every length, including empty and
        /// far larger than any real batch.
        #[test]
        fn clean_batch_roundtrip(
            batch in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<bool>()), 0..300),
        ) {
            let bytes = batch.to_pickle_bytes();
            let back = Vec::<(u64, u64, bool)>::from_pickle_bytes(&bytes).unwrap();
            prop_assert_eq!(back, batch);
        }

        /// Truncating a clean batch anywhere yields an error or a shorter
        /// prefix-decode failure — never a panic.
        #[test]
        fn clean_batch_truncation_never_panics(
            batch in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<bool>()), 0..16),
            cut in any::<u16>(),
        ) {
            let bytes = batch.to_pickle_bytes();
            let cut = (cut as usize) % (bytes.len() + 1);
            let _ = Vec::<(u64, u64, bool)>::from_pickle_bytes(&bytes[..cut]);
        }

        /// An adversarial length prefix (a batch claiming up to 2^64
        /// elements with no bytes behind it) errors cleanly instead of
        /// allocating or panicking.
        #[test]
        fn clean_batch_hostile_length_is_rejected(
            claimed in 16u64..u64::MAX,
            junk in 0u64..4,
        ) {
            let mut w = PickleWriter::new();
            w.put_u64(claimed);
            for i in 0..junk {
                w.put_u64(i);
            }
            let bytes = w.into_bytes();
            prop_assert!(Vec::<(u64, u64, bool)>::from_pickle_bytes(&bytes).is_err());
        }
    }
}

mod endpoints {
    use netobj_wire::pickle::Pickle;
    use proptest::prelude::*;

    proptest! {
        /// Well-formed endpoints round-trip through display+parse and
        /// through the pickle format (exercised via the transport crate's
        /// `Endpoint` in its own tests; here we check the typecode list).
        #[test]
        fn typelists_roundtrip(names in proptest::collection::vec("[a-z.]{1,20}", 0..6)) {
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let l = netobj_wire::TypeList::from_names(&refs);
            let bytes = l.to_pickle_bytes();
            let back = netobj_wire::TypeList::from_pickle_bytes(&bytes).unwrap();
            prop_assert_eq!(l, back);
        }

        /// Fingerprints are stable across calls and distinct for distinct
        /// names (no collisions in practice for reasonable name sets).
        #[test]
        fn typecodes_deterministic(name in "[a-zA-Z0-9._-]{1,40}") {
            let a = netobj_wire::TypeCode::of_name(&name);
            let b = netobj_wire::TypeCode::of_name(&name);
            prop_assert_eq!(a, b);
        }
    }
}
