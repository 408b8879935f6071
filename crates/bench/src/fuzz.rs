//! Adversarial fuzzing of the untrusted decode path.
//!
//! Everything a remote peer controls flows through three layers before any
//! runtime state is touched: the length-prefixed [`FrameDecoder`], the
//! [`RpcMsg`] envelope decoder, and the pickle [`Value`] decoder applied
//! to argument payloads. This module drives all three with deterministic,
//! seed-reproducible garbage: structure-aware mutations of valid frames
//! (bit flips, truncations, length-field corruption, splices), freshly
//! generated random-but-valid messages, and raw noise.
//!
//! The oracle is crash-freedom, not semantic correctness: any input may be
//! *rejected*, but no input may panic, hang, or balloon memory. Valid
//! round-trips are additionally checked to decode back to themselves, so
//! the harness would also catch an encoder/decoder drift.
//!
//! Determinism matters more than raw throughput here: the whole run is a
//! pure function of `(seed, corpus)`, so a CI failure is reproducible on a
//! laptop with the seed from the log — see [`run`] and the `fuzz_wire`
//! binary.

use std::path::Path;

use netobj_rpc::msg::RpcMsg;
use netobj_rpc::{RemoteError, RemoteErrorKind};
use netobj_transport::Bytes;
use netobj_wire::frame::{frame_prefix, FrameDecoder};
use netobj_wire::pickle::{scan_refs, Pickle, Value};
use netobj_wire::{ObjIx, SpaceId, WireRep};

/// Frame-size cap used by the harness decoder — small enough that a
/// corrupted length prefix cannot make the decoder buffer gigabytes.
pub const FUZZ_MAX_FRAME: usize = 1 << 20;

/// Cap on a single fuzz case's byte stream; mutations never grow past it.
const MAX_CASE_BYTES: usize = 64 * 1024;

/// A splitmix64 generator: tiny, seedable, and fully deterministic, which
/// is the property the harness actually needs (the statistical quality is
/// incidental). Mirrors the constants used by `rand`'s seeding path.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// True once in `one_in` draws (on average).
    pub fn chance(&mut self, one_in: u64) -> bool {
        self.next_u64() % one_in == 0
    }
}

/// Valid message payloads (unframed) covering every `RpcMsg` arm and the
/// collector's argument shapes: a plain call, a dirty, a clean, a clean
/// batch, both reply outcomes, an ack, and a deeply structured value.
/// These are the built-in seeds; the committed corpus under
/// `tests/corpus/` is generated from this same list (see `gen_corpus`).
pub fn builtin_corpus() -> Vec<(&'static str, Vec<u8>)> {
    use netobj_rpc::msg::{Reply, Request};

    let caller = SpaceId::from_raw(0x1111_2222_3333_4444_5555_6666_7777_8888);
    let owner = SpaceId::from_raw(0x9999_aaaa_bbbb_cccc_dddd_eeee_ffff_0000);
    let target = WireRep::new(owner, ObjIx(64));

    let request = |method: u32, args: Vec<u8>| {
        RpcMsg::Request(Request {
            call_id: 7,
            caller,
            target,
            method,
            args: Bytes::from(args),
            trace_id: 0x1234,
            span_id: 0x5678,
        })
        .to_pickle_bytes()
    };

    let deep = {
        // A representative structured argument: nested seq/map/record/
        // variant with references buried inside.
        let mut v = Value::Seq(vec![
            Value::Ref(target),
            Value::Map(vec![(Value::Text("k".into()), Value::UInt(9))]),
        ]);
        for d in 0..24 {
            v = Value::Record(vec![
                Value::Variant(d, Box::new(v)),
                Value::Bool(d % 2 == 0),
            ]);
        }
        v.to_pickle_bytes()
    };

    vec![
        (
            "request_call",
            request(3, (42u64, String::from("hello")).to_pickle_bytes()),
        ),
        (
            "request_dirty",
            request(0, (64u64, 1u64, None::<u8>).to_pickle_bytes()),
        ),
        (
            "request_clean",
            request(1, (64u64, 2u64, true).to_pickle_bytes()),
        ),
        (
            "request_clean_batch",
            request(
                4,
                vec![(64u64, 3u64, false), (65u64, 4u64, true)].to_pickle_bytes(),
            ),
        ),
        ("request_deep_args", request(9, deep)),
        (
            "reply_ok",
            RpcMsg::Reply(Reply {
                call_id: 7,
                outcome: Ok(Bytes::from((1u64, 2u64).to_pickle_bytes())),
                needs_ack: true,
            })
            .to_pickle_bytes(),
        ),
        (
            "reply_err",
            RpcMsg::Reply(Reply {
                call_id: 7,
                outcome: Err(RemoteError::new(
                    RemoteErrorKind::QuotaExceeded,
                    "client request budget exceeded",
                )),
                needs_ack: false,
            })
            .to_pickle_bytes(),
        ),
        ("reply_ack", RpcMsg::ReplyAck(7).to_pickle_bytes()),
    ]
}

/// Loads every `*.bin` file under `dir`, sorted by file name so the
/// corpus order (and with it the whole run) is deterministic. Missing
/// directory is an empty corpus, not an error.
pub fn load_corpus(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "bin") {
            if let Ok(bytes) = std::fs::read(&path) {
                let name = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                out.push((name, bytes));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Generates a random-but-valid `Value` tree of bounded size (structure-
/// aware input generation: exercises the decoder's deep paths with inputs
/// that get past the first tag check).
fn gen_value(rng: &mut FuzzRng, depth: usize) -> Value {
    let leaf = depth >= 6;
    match rng.below(if leaf { 8 } else { 12 }) {
        0 => Value::Unit,
        1 => Value::Bool(rng.chance(2)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::UInt(rng.next_u64()),
        4 => Value::Text("x".repeat(rng.below(16))),
        5 => Value::Bytes((0..rng.below(24)).map(|_| rng.byte()).collect()),
        6 => Value::Ref(WireRep::new(
            SpaceId::from_raw(rng.next_u64() as u128),
            ObjIx(rng.next_u64() % 1024),
        )),
        7 => Value::Opt(None),
        8 => Value::Seq(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        9 => Value::Record(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth + 1))
                .collect(),
        ),
        10 => Value::Map(
            (0..rng.below(3))
                .map(|_| (gen_value(rng, depth + 1), gen_value(rng, depth + 1)))
                .collect(),
        ),
        _ => Value::Variant(rng.next_u64() % 8, Box::new(gen_value(rng, depth + 1))),
    }
}

/// Applies one random mutation to `bytes` in place.
fn mutate_once(rng: &mut FuzzRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(rng.byte());
        return;
    }
    match rng.below(6) {
        // Bit flip.
        0 => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        // Overwrite with a random byte.
        1 => {
            let i = rng.below(bytes.len());
            bytes[i] = rng.byte();
        }
        // Insert a short run.
        2 => {
            let i = rng.below(bytes.len() + 1);
            let n = 1 + rng.below(8);
            if bytes.len() + n <= MAX_CASE_BYTES {
                let run: Vec<u8> = (0..n).map(|_| rng.byte()).collect();
                bytes.splice(i..i, run);
            }
        }
        // Delete a short run.
        3 => {
            let i = rng.below(bytes.len());
            let n = (1 + rng.below(8)).min(bytes.len() - i);
            bytes.drain(i..i + n);
        }
        // Truncate.
        4 => {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        // Overwrite with an interesting varint-ish boundary value.
        _ => {
            let i = rng.below(bytes.len());
            const INTERESTING: [u8; 8] = [0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff, 0x0a];
            bytes[i] = INTERESTING[rng.below(INTERESTING.len())];
        }
    }
}

/// Builds one fuzz case: a raw byte stream to feed the frame decoder.
/// Pure function of the generator state and corpus.
pub fn build_case(rng: &mut FuzzRng, corpus: &[(String, Vec<u8>)]) -> Vec<u8> {
    let payload: Vec<u8> = match rng.below(10) {
        // Raw noise, no framing discipline at all.
        0 => return (0..rng.below(512)).map(|_| rng.byte()).collect(),
        // Freshly generated structured value.
        1 | 2 => gen_value(rng, 0).to_pickle_bytes(),
        // A splice of two corpus entries.
        3 if corpus.len() >= 2 => {
            let a = &corpus[rng.below(corpus.len())].1;
            let b = &corpus[rng.below(corpus.len())].1;
            let cut_a = rng.below(a.len() + 1);
            let cut_b = rng.below(b.len() + 1);
            let mut s = a[..cut_a].to_vec();
            s.extend_from_slice(&b[cut_b..]);
            s
        }
        // A corpus entry (mutated below with high probability).
        _ if !corpus.is_empty() => corpus[rng.below(corpus.len())].1.clone(),
        _ => gen_value(rng, 0).to_pickle_bytes(),
    };

    let mut payload = payload;
    // Most cases mutate; one in four stays pristine so the valid paths
    // keep being exercised end to end.
    if !rng.chance(4) {
        for _ in 0..=rng.below(8) {
            mutate_once(rng, &mut payload);
        }
    }
    payload.truncate(MAX_CASE_BYTES);

    // Frame it. One in four cases corrupts the length prefix afterwards —
    // undersized, oversized, and pathological lengths included.
    let mut stream = Vec::with_capacity(payload.len() + 8);
    let prefix = frame_prefix(payload.len()).expect("case under 4 GiB");
    stream.extend_from_slice(&prefix);
    stream.extend_from_slice(&payload);
    if rng.chance(4) {
        let declared: u32 = match rng.below(4) {
            0 => rng.next_u64() as u32,
            1 => u32::MAX,
            2 => (payload.len() as u32).wrapping_add(1),
            _ => (payload.len() as u32).wrapping_sub(1),
        };
        stream[..4].copy_from_slice(&declared.to_be_bytes());
    }
    // Sometimes append a second, valid frame behind the garbage to check
    // the decoder's resynchronisation-is-not-attempted contract.
    if rng.chance(8) && !corpus.is_empty() {
        let extra = &corpus[rng.below(corpus.len())].1;
        if let Ok(p) = frame_prefix(extra.len()) {
            stream.extend_from_slice(&p);
            stream.extend_from_slice(extra);
        }
    }
    stream
}

/// Counters from one case or one whole run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Fuzz cases executed.
    pub cases: u64,
    /// Complete frames the decoder yielded.
    pub frames: u64,
    /// Frames that decoded to a well-formed `RpcMsg`.
    pub msgs: u64,
    /// Argument payloads that scanned/decoded as well-formed pickles.
    pub values: u64,
}

impl FuzzReport {
    fn absorb(&mut self, other: FuzzReport) {
        self.cases += other.cases;
        self.frames += other.frames;
        self.msgs += other.msgs;
        self.values += other.values;
    }
}

/// Feeds one case through the full untrusted decode path. Must never
/// panic — that is the property under test; the return value only exists
/// so runs can be compared for determinism.
pub fn execute_case(stream: &[u8], chunk_seed: u64) -> FuzzReport {
    let mut rng = FuzzRng::new(chunk_seed);
    let mut report = FuzzReport {
        cases: 1,
        ..Default::default()
    };
    let mut dec = FrameDecoder::new(FUZZ_MAX_FRAME);
    let mut fed = 0;
    let mut dead = false;
    while fed < stream.len() && !dead {
        // The bytes arrive as the transports receive them — through
        // `read_with`, into the decoder's own buffer — in reads of random
        // size, which exercise every partial-header/partial-body
        // resumption point in the decoder.
        let size = 1 + rng.below(97);
        let read = dec.read_with(usize::MAX, |buf, ask| {
            let n = ask.min(size).min(stream.len() - fed);
            buf.extend_from_slice(&stream[fed..fed + n]);
            Ok::<_, ()>(n)
        });
        fed += read.expect("a read from memory cannot fail");
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    report.frames += 1;
                    inspect_frame(&frame, &mut report);
                }
                Ok(None) => break,
                // A framing error is terminal for the connection; the
                // server drops it. Nothing more to decode.
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
    }
    report
}

/// What the server does with a decoded frame: envelope decode, then the
/// reference scan and dynamic decode of any payload bytes it carries.
fn inspect_frame(frame: &Bytes, report: &mut FuzzReport) {
    let Ok(msg) = RpcMsg::decode(frame) else {
        // Malformed envelope: rejected, connection dropped. Also probe the
        // dynamic value decoder with the same bytes — introspection tools
        // do exactly this with sniffed frames.
        let _ = Value::from_pickle_bytes(frame.as_ref());
        let _ = scan_refs(frame.as_ref());
        return;
    };
    report.msgs += 1;
    let payload: Option<&[u8]> = match &msg {
        RpcMsg::Request(rq) => Some(rq.args.as_ref()),
        RpcMsg::Reply(rp) => match &rp.outcome {
            Ok(bytes) => Some(bytes.as_ref()),
            Err(_) => None,
        },
        RpcMsg::ReplyAck(_) => None,
    };
    if let Some(bytes) = payload {
        let refs_ok = scan_refs(bytes).is_ok();
        let val_ok = Value::from_pickle_bytes(bytes).is_ok();
        if refs_ok && val_ok {
            report.values += 1;
        }
    }
    // Round-trip: a message that decoded must re-encode and decode back
    // to itself (drift here would corrupt peers that relay messages).
    let re = Bytes::from(msg.to_pickle_bytes());
    let again = RpcMsg::decode(&re).expect("re-encoded message must decode");
    assert_eq!(again, msg, "decode/encode round-trip drifted");
}

/// Runs `iters` deterministic fuzz cases from `seed` over `corpus`.
///
/// `on_case` sees each case's byte stream *before* execution, so a caller
/// can persist it and attribute a panic to the exact input (the
/// `fuzz_wire` binary dumps it as a crash artifact).
pub fn run(
    seed: u64,
    iters: u64,
    corpus: &[(String, Vec<u8>)],
    mut on_case: impl FnMut(u64, &[u8]),
) -> FuzzReport {
    let mut rng = FuzzRng::new(seed);
    let mut report = FuzzReport::default();
    for i in 0..iters {
        let stream = build_case(&mut rng, corpus);
        on_case(i, &stream);
        let chunk_seed = rng.next_u64();
        report.absorb(execute_case(&stream, chunk_seed));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(FuzzRng::new(1).next_u64(), FuzzRng::new(2).next_u64());
    }

    #[test]
    fn builtin_corpus_is_valid() {
        for (name, bytes) in builtin_corpus() {
            let frame = Bytes::from(bytes);
            assert!(
                RpcMsg::decode(&frame).is_ok(),
                "builtin corpus entry {name} must decode"
            );
        }
    }

    #[test]
    fn pristine_corpus_cases_decode() {
        // With mutation disabled by construction (feeding a single valid
        // frame directly), the full path must succeed.
        let corpus = builtin_corpus();
        for (_, payload) in &corpus {
            let mut stream = frame_prefix(payload.len()).unwrap().to_vec();
            stream.extend_from_slice(payload);
            let r = execute_case(&stream, 7);
            assert_eq!(r.frames, 1);
            assert_eq!(r.msgs, 1);
        }
    }

    #[test]
    fn short_run_is_reproducible() {
        let corpus: Vec<(String, Vec<u8>)> = builtin_corpus()
            .into_iter()
            .map(|(n, b)| (n.to_string(), b))
            .collect();
        let a = run(0xfeed, 2_000, &corpus, |_, _| {});
        let b = run(0xfeed, 2_000, &corpus, |_, _| {});
        assert_eq!(a, b, "same seed+corpus must reproduce the same run");
        assert!(
            a.frames > 0 && a.msgs > 0,
            "run must exercise valid paths: {a:?}"
        );
    }
}
