//! Property tests of the job wire format: every encode/decode pair is a
//! bijection on valid values, and *no* input — truncated, bit-flipped,
//! version-skewed, or pure garbage — may panic the decoder. Malformed
//! bytes must always come back as typed [`WireError`]s.

use proptest::prelude::*;
use sw_core::codec::LineCodecKind;
use sw_core::config::ThresholdPolicy;
use sw_core::memory_unit::OverflowPolicy;
use sw_serve::api::{FramePayload, JobKernel, RowAck, RowChunk, StreamOpen};
use sw_serve::wire::{decode_frame_body, write_frame, write_frame_versioned, ByteReader, MsgKind};
use sw_serve::{
    FrameAssembler, JobError, JobRequest, JobResponse, JobSpec, WireError, MAGIC, MIN_VERSION,
    VERSION,
};

/// Deterministically expand one seed into a full (valid) job spec.
fn spec_from_seed(seed: u64) -> JobSpec {
    let pick = |n: u64, m: usize| ((seed >> n) as usize) % m;
    JobSpec {
        window: 2 * (1 + pick(2, 16)),
        threshold: (seed >> 7 & 0x1f) as i16,
        policy: ThresholdPolicy::ALL[pick(12, ThresholdPolicy::ALL.len())],
        codec: LineCodecKind::ALL[pick(14, LineCodecKind::ALL.len())],
        hot_path: sw_bitstream::HotPath::ALL[pick(17, 2)],
        kernel: JobKernel::ALL[pick(19, JobKernel::ALL.len())],
        jobs: pick(22, 9),
        overflow_policy: if seed >> 26 & 1 == 0 {
            None
        } else {
            Some(OverflowPolicy::ALL[pick(27, OverflowPolicy::ALL.len())])
        },
        budget_fraction: 0.25 + (seed >> 29 & 0xf) as f64 / 8.0,
    }
}

fn frame_from_seed(seed: u64, w: usize, h: usize) -> FramePayload {
    let mut state = seed | 1;
    FramePayload {
        width: w as u32,
        height: h as u32,
        pixels: (0..w * h)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect(),
    }
}

fn request_from_seed(seed: u64, w: usize, h: usize) -> JobRequest {
    JobRequest {
        tenant: format!("tenant-{}", seed % 97),
        spec: spec_from_seed(seed),
        frame: frame_from_seed(seed, w, h),
        want_frame: seed >> 33 & 1 == 1,
    }
}

fn response_from_seed(seed: u64) -> JobResponse {
    let b = |n: u64| seed.rotate_left(n as u32);
    JobResponse {
        digest: b(1),
        stats_digest: b(2),
        out_width: (b(3) % 4096) as u32,
        out_height: (b(4) % 4096) as u32,
        effective_threshold: (b(5) % 64) as i16,
        degraded: b(6) & 1 == 1,
        t_escalations: b(7) % 1000,
        stall_cycles: b(8) % 1000,
        overflow_events: b(9) % 1000,
        peak_payload_occupancy: b(10),
        management_bits: b(11),
        memory_saving_pct: (b(12) % 10_000) as f64 / 100.0,
        mse: (b(13) % 10_000) as f64 / 7.0,
        queue_ns: b(14),
        exec_ns: b(15),
        frame: (b(16) & 1 == 1).then(|| frame_from_seed(seed, 5, 4)),
    }
}

fn stream_open_from_seed(seed: u64) -> StreamOpen {
    StreamOpen {
        tenant: format!("tenant-{}", seed % 89),
        spec: spec_from_seed(seed),
        width: 1 + (seed >> 3 & 0x3f) as u32,
        height: 1 + (seed >> 9 & 0x3f) as u32,
        want_frame: seed >> 15 & 1 == 1,
    }
}

fn row_chunk_from_seed(seed: u64) -> RowChunk {
    let rows = 1 + (seed >> 5 & 0x7) as u32;
    let width = 1 + (seed >> 11 & 0x1f) as usize;
    let mut state = seed | 1;
    RowChunk {
        seq: (seed % 10_000) as u32,
        first_row: (seed >> 17 & 0xffff) as u32,
        rows,
        pixels: (0..rows as usize * width)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect(),
    }
}

/// One plausible streamed-job conversation, with v1 whole-frame traffic
/// interleaved, as `(kind, version, payload)` triples — the exact shape
/// [`FrameAssembler::next_frame`] yields.
fn streamed_conversation(seed: u64) -> Vec<(MsgKind, u16, Vec<u8>)> {
    let mut convo = vec![
        (MsgKind::Ping, MIN_VERSION, b"v1-probe".to_vec()),
        (
            MsgKind::StreamOpen,
            VERSION,
            stream_open_from_seed(seed).encode(),
        ),
    ];
    for i in 0..(seed % 5) {
        convo.push((
            MsgKind::RowChunk,
            VERSION,
            row_chunk_from_seed(seed.wrapping_add(i)).encode(),
        ));
        if i % 2 == 0 {
            let ack = RowAck {
                seq: i as u32,
                rows_done: i + 1,
            };
            convo.push((MsgKind::RowAck, VERSION, ack.encode()));
        }
    }
    convo.push((
        MsgKind::Job,
        MIN_VERSION,
        request_from_seed(seed, 6, 5).encode(),
    ));
    convo.push((MsgKind::JobDone, VERSION, response_from_seed(seed).encode()));
    convo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests survive an encode/decode round trip bit-for-bit.
    #[test]
    fn request_round_trips(seed in any::<u64>(), w in 1usize..24, h in 1usize..16) {
        let req = request_from_seed(seed, w, h);
        let decoded = JobRequest::decode(&req.encode()).expect("canonical bytes decode");
        prop_assert_eq!(req, decoded);
    }

    /// Responses survive an encode/decode round trip bit-for-bit.
    #[test]
    fn response_round_trips(seed in any::<u64>()) {
        let resp = response_from_seed(seed);
        let decoded = JobResponse::decode(&resp.encode()).expect("canonical bytes decode");
        prop_assert_eq!(resp, decoded);
    }

    /// Every *proper* prefix of a valid encoding decodes to a typed error,
    /// never a value and never a panic.
    #[test]
    fn truncation_yields_typed_errors(seed in any::<u64>(), cut in 0usize..4096) {
        let bytes = request_from_seed(seed, 8, 6).encode();
        let cut = cut % bytes.len().max(1);
        match JobRequest::decode(&bytes[..cut]) {
            Err(WireError::Truncated { .. }) | Err(WireError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(_) => prop_assert!(false, "a proper prefix must not decode"),
        }
    }

    /// Trailing garbage after a valid body is rejected (canonical
    /// encoding: decode(encode(x)) must consume every byte).
    #[test]
    fn trailing_bytes_are_rejected(seed in any::<u64>(), junk in 1usize..16) {
        let mut bytes = request_from_seed(seed, 8, 6).encode();
        bytes.extend(std::iter::repeat_n(0xAA, junk));
        prop_assert!(JobRequest::decode(&bytes).is_err());
    }

    /// Arbitrary garbage never panics any payload decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = JobRequest::decode(&bytes);
        let _ = JobResponse::decode(&bytes);
        let _ = JobError::decode(&bytes);
        let _ = decode_frame_body(&bytes);
    }

    /// Single-bit corruption of a valid encoding either still decodes (the
    /// flipped bit landed in free-form payload like pixels or the tenant
    /// name) or fails typed — it never panics.
    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), bit in 0usize..4096) {
        let mut bytes = request_from_seed(seed, 8, 6).encode();
        let nbits = bytes.len() * 8;
        let bit = bit % nbits;
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = JobRequest::decode(&bytes);
    }

    /// A frame header carrying any version outside the accepted
    /// `MIN_VERSION..=VERSION` range is refused as `VersionSkew` before
    /// the payload is looked at.
    #[test]
    fn version_skew_is_typed(seed in any::<u64>(), skew in 1u16..u16::MAX) {
        let bad_version = VERSION.wrapping_add(skew);
        prop_assume!(!(MIN_VERSION..=VERSION).contains(&bad_version));
        let payload = request_from_seed(seed, 6, 5).encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, MsgKind::Job, &payload).unwrap();
        // Patch the version field: it sits right after the length prefix
        // and magic.
        let at = 4 + MAGIC.len();
        framed[at..at + 2].copy_from_slice(&bad_version.to_le_bytes());
        match decode_frame_body(&framed[4..]) {
            Err(WireError::VersionSkew { got, want }) => {
                prop_assert_eq!(got, bad_version);
                prop_assert_eq!(want, VERSION);
            }
            other => prop_assert!(false, "expected VersionSkew, got {other:?}"),
        }
    }

    /// Streaming payloads (StreamOpen / RowChunk / RowAck) survive an
    /// encode/decode round trip bit-for-bit.
    #[test]
    fn streaming_payloads_round_trip(seed in any::<u64>()) {
        let open = stream_open_from_seed(seed);
        prop_assert_eq!(&open, &StreamOpen::decode(&open.encode()).expect("canonical bytes decode"));
        let chunk = row_chunk_from_seed(seed);
        prop_assert_eq!(&chunk, &RowChunk::decode(&chunk.encode()).expect("canonical bytes decode"));
        let ack = RowAck { seq: (seed % 90_000) as u32, rows_done: seed.rotate_left(13) };
        prop_assert_eq!(&ack, &RowAck::decode(&ack.encode()).expect("canonical bytes decode"));
    }

    /// A whole streamed-job conversation — StreamOpen, RowChunks, acks,
    /// JobDone, plus interleaved v1 frames — reassembles identically no
    /// matter how the bytes are split across reads. The assembler's
    /// output is a function of the byte stream, not of delivery
    /// boundaries.
    #[test]
    fn assembler_is_split_invariant(seed in any::<u64>(), splits in proptest::collection::vec(1usize..97, 0..24)) {
        let convo = streamed_conversation(seed);
        let mut wire = Vec::new();
        for (kind, version, payload) in &convo {
            write_frame_versioned(&mut wire, *kind, payload, *version).unwrap();
        }

        // Reference: one monolithic delivery.
        let mut reference = FrameAssembler::new();
        reference.push(&wire);
        let mut expect = Vec::new();
        while let Some(frame) = reference.next_frame().expect("canonical bytes decode") {
            expect.push(frame);
        }
        prop_assert_eq!(&expect, &convo);

        // Same bytes, arbitrary split boundaries (degenerating to
        // byte-at-a-time when the split list runs out).
        let mut chopped = FrameAssembler::new();
        let mut got = Vec::new();
        let mut at = 0;
        let mut split_iter = splits.iter().copied().chain(std::iter::repeat(1));
        while at < wire.len() {
            let n = split_iter.next().unwrap().min(wire.len() - at);
            chopped.push(&wire[at..at + n]);
            at += n;
            while let Some(frame) = chopped.next_frame().expect("canonical bytes decode") {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, convo);
    }

    /// Corruption anywhere in a RowChunk sequence — truncation, a bit
    /// flip in the framing header, or interleaved garbage — either still
    /// decodes (payload-area flip) or yields a typed error; and once the
    /// assembler errors, it stays poisoned: later valid frames are never
    /// delivered from an untrustworthy stream position.
    #[test]
    fn corrupted_chunk_streams_fail_typed_and_stay_poisoned(
        seed in any::<u64>(),
        bit in 0usize..256,
        junk in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let chunk = row_chunk_from_seed(seed);
        let mut wire = Vec::new();
        write_frame(&mut wire, MsgKind::RowChunk, &chunk.encode()).unwrap();

        // Truncation: a proper prefix never yields the frame.
        let cut = bit % wire.len();
        let mut asm = FrameAssembler::new();
        asm.push(&wire[..cut]);
        match asm.next_frame() {
            Ok(None) => {}                                  // still waiting
            Err(_) => prop_assert!(asm.is_poisoned()),       // typed refusal
            Ok(Some(_)) => prop_assert!(false, "a proper prefix must not decode"),
        }

        // A bit flip in the framing envelope (length, magic, version,
        // kind): typed error or a re-framed partial read — never a panic,
        // and never a silent desync that yields a *different* frame as
        // this one.
        let mut flipped = wire.clone();
        let envelope_bits = 8 * (4 + MAGIC.len() + 3);
        let b = bit % envelope_bits;
        flipped[b / 8] ^= 1 << (b % 8);
        let mut asm = FrameAssembler::new();
        asm.push(&flipped);
        match asm.next_frame() {
            Err(_) => {
                prop_assert!(asm.is_poisoned());
                // Poisoned means poisoned: appending a perfectly valid
                // frame afterwards must not resurrect the stream.
                asm.push(&wire);
                prop_assert!(asm.next_frame().is_err());
            }
            Ok(Some((kind, _, payload))) => {
                // The flip landed somewhere survivable (e.g. turned the
                // kind into another valid tag without breaking lengths).
                // The bytes must still parse as *some* complete frame.
                prop_assert!(MsgKind::ALL.contains(&kind));
                prop_assert!(payload.len() <= flipped.len());
            }
            Ok(None) => {
                // A length-field flip can promise more bytes than sent;
                // the assembler just keeps waiting. Feeding garbage to
                // complete the promised length must fail typed, not
                // desync.
                asm.push(&junk);
                asm.push(&vec![0xA5u8; 1 << 17]);
                // (An Ok here means the flipped length re-framed validly.)
                if asm.next_frame().is_err() {
                    prop_assert!(asm.is_poisoned());
                }
            }
        }
    }

    /// The v1/v2 workload byte is reserved: a spec always encodes it as 0
    /// (it leads the spec, right after the u32-length-prefixed tenant; it
    /// leads a response), and every non-zero byte — 1 named the retired
    /// integral workload — decodes to a typed `BadTag`.
    #[test]
    fn workload_byte_is_zero_and_non_zero_is_a_bad_tag(seed in any::<u64>(), tag in 1u8..=255) {
        let req = request_from_seed(seed, 4, 3);
        let open = stream_open_from_seed(seed);
        let resp = response_from_seed(seed);
        let bad_tag = |r: Result<(), WireError>| {
            matches!(r, Err(WireError::BadTag { what: "workload", tag: t }) if t == u32::from(tag))
        };
        let mut bytes = req.encode();
        let at = 4 + req.tenant.len();
        prop_assert_eq!(bytes[at], 0);
        bytes[at] = tag;
        prop_assert!(bad_tag(JobRequest::decode(&bytes).map(drop)));
        let mut bytes = open.encode();
        let at = 4 + open.tenant.len();
        prop_assert_eq!(bytes[at], 0);
        bytes[at] = tag;
        prop_assert!(bad_tag(StreamOpen::decode(&bytes).map(drop)));
        let mut bytes = resp.encode();
        prop_assert_eq!(bytes[0], 0);
        bytes[0] = tag;
        prop_assert!(bad_tag(JobResponse::decode(&bytes).map(drop)));
    }

    /// Job errors round-trip through their wire form.
    #[test]
    fn job_errors_round_trip(seed in any::<u64>()) {
        let detail = format!("detail-{seed:x}");
        let e = match seed % 5 {
            0 => JobError::Rejected { tenant: format!("t{}", seed % 7), detail },
            1 => JobError::Config(detail),
            2 => JobError::Execution(detail),
            3 => JobError::Malformed(detail),
            _ => JobError::Internal(detail),
        };
        let decoded = JobError::decode(&e.encode()).expect("canonical bytes decode");
        prop_assert_eq!(e, decoded);
    }
}

/// The reader enforces canonicality: `finish()` on leftover bytes is the
/// mechanism every decoder uses to reject padding.
#[test]
fn byte_reader_finish_rejects_leftovers() {
    let mut rd = ByteReader::new(&[1, 2, 3]);
    rd.get_u8().unwrap();
    assert!(matches!(rd.finish(), Err(WireError::Corrupt(_))));
    rd.get_u16().unwrap();
    assert!(rd.finish().is_ok());
}
