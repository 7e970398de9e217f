//! Decode totality: arbitrary byte strings must never panic the decoder —
//! truncated frames, oversize length prefixes, unknown tags and corrupted
//! fields all map to typed errors. This is the robustness gate for the
//! wire format: a malicious or corrupt peer can only produce a clean
//! connection close, never a worker crash.
//!
//! The `Pairs` codec law lives here too: a packed pair list is
//! `Vec<(String, String)>` on the wire. It encodes to the same bytes, and
//! its decoder accepts exactly the byte strings the `Vec` decoder accepts —
//! consuming the same bytes, yielding the same contents, failing with the
//! same `WireError`.

use pnats_rpc::wire::Wire;
use pnats_rpc::{
    read_frame, Assignment, FrameError, MapDone, MapFailed, Msg, Pairs, ProgressReport, Reader,
    ReduceDone, WireError, Writer, MAX_FRAME,
};
use proptest::prelude::*;

/// Valid messages with several variable-length fields; between them every
/// collection, nested collection and enum the format has is non-empty.
fn multi_field_messages() -> Vec<Msg> {
    vec![
        Msg::Heartbeat {
            node: 1,
            epoch: 2,
            free_map_slots: 0,
            free_reduce_slots: 1,
            progress: vec![ProgressReport {
                map: 5,
                attempt: 1,
                d_read: 4096,
                part_bytes: vec![7, 0],
            }],
            map_done: vec![MapDone { map: 4, attempt: 0, bytes: vec![1, 2, 3] }],
            map_failed: vec![MapFailed { map: 9, attempt: 2 }],
            reduce_done: vec![ReduceDone {
                reduce: 0,
                attempt: 3,
                output: Pairs::from_iter([("k", "v"), ("", "1")]),
                sources: vec![(2, 4096)],
            }],
            running_reduces: vec![(2, 0)],
            rpc_retries: 1,
            breaker_trips: 2,
            breaker_closes: 3,
            alt_fetches: 4,
            corrupt_frames: 5,
        },
        Msg::HeartbeatReply {
            assignments: vec![
                Assignment::Map { map: 1, attempt: 0, doomed: true, sources: vec!["a:1".into()] },
                Assignment::Reduce { reduce: 2, attempt: 1, n_maps: 8 },
            ],
            invalidate: vec![1, 4],
            ignored: false,
            dead: true,
            shutdown: false,
            reattach: true,
        },
        Msg::Reattach {
            node: 2,
            epoch: 1,
            data_addr: "127.0.0.1:9004".into(),
            finished_maps: vec![(0, 0), (3, 1)],
            running_maps: vec![(5, 2)],
            running_reduces: vec![(1, 0)],
        },
        Msg::RegisterAck {
            node: 3,
            job: "grep:x".into(),
            n_reduces: 4,
            partitioner: 1,
            cpu_us_per_kib: 30,
            blocks: vec![(0, "line\n".into()), (7, String::new())],
        },
        Msg::ReattachAck { invalidate: vec![3, 0], dead: false, shutdown: true },
        Msg::PartitionData {
            pairs: Pairs::from_iter([("word", "1"), ("", ""), ("héllo", "ü"), ("z", "12")]),
        },
    ]
}

/// The canonical-decoding law: `decode` accepts a byte string only if it
/// is exactly the encoding of the message it decodes to. Two decoders that
/// both obey it, over one encoder, accept the same byte strings.
fn decodes_canonically(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(msg) = Msg::decode(bytes) {
        prop_assert_eq!(msg.encode(), bytes.to_vec(), "{:?} re-encodes differently", msg);
    }
    Ok(())
}

proptest! {
    /// Short tagged inputs, so fixed-size messages often decode `Ok`.
    #[test]
    fn tagged_garbage_decodes_canonically(
        tag in 0u8..=21,
        rest in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&rest);
        decodes_canonically(&bytes)?;
    }

    /// Truncations and two-byte overwrites of multi-field messages.
    #[test]
    fn mutated_messages_decode_canonically(
        which in 0usize..6,
        cut in 0usize..256,
        at in (0usize..256, 0usize..256),
        to in (0u8..=255, 0u8..=255),
    ) {
        let msg = multi_field_messages().swap_remove(which);
        let mut bytes = msg.encode();
        prop_assert_eq!(Msg::decode(&bytes), Ok(msg));
        decodes_canonically(&bytes[..cut % bytes.len()])?;
        let n = bytes.len();
        bytes[at.0 % n] = to.0;
        bytes[at.1 % n] = to.1;
        decodes_canonically(&bytes)?;
    }
}

proptest! {
    /// Fully arbitrary bytes: decode returns Ok or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        match Msg::decode(&bytes) {
            Ok(_) => {}
            Err(
                WireError::Truncated
                | WireError::OversizeFrame(_)
                | WireError::UnknownTag(_)
                | WireError::BadUtf8
                | WireError::BadBool(_)
                | WireError::TrailingBytes(_),
            ) => {}
            Err(e) => prop_assert!(false, "decode produced a non-decode error: {e:?}"),
        }
    }

    /// Bytes that start with a plausible tag (the harder paths: collection
    /// counts and string lengths get interpreted).
    #[test]
    fn tagged_garbage_never_panics(
        tag in 0u8..=20,
        rest in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&rest);
        let _ = Msg::decode(&bytes); // must return, not panic
    }

    /// Valid messages survive arbitrary truncation + bit corruption
    /// without panicking, and pristine encodings still round-trip.
    #[test]
    fn mutated_valid_messages_never_panic(
        map in 0u32..1000,
        addr_len in 0usize..64,
        cut in 0usize..64,
        flip_at in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let msg = Msg::MapAt { node: map, addr: "x".repeat(addr_len), attempt: map % 7 };
        let bytes = msg.encode();
        prop_assert_eq!(Msg::decode(&bytes).unwrap(), msg);
        // Truncate.
        let cut = cut.min(bytes.len());
        let _ = Msg::decode(&bytes[..cut]);
        // Flip one bit.
        let mut corrupt = bytes.clone();
        let i = flip_at % corrupt.len();
        corrupt[i] ^= 1 << flip_bit;
        let _ = Msg::decode(&corrupt);
    }

    /// Framed reads reject oversize length prefixes before allocating.
    #[test]
    fn oversize_frame_prefix_is_rejected(len in (MAX_FRAME as u64 + 1)..=u32::MAX as u64) {
        let mut bytes = (len as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"payload");
        match read_frame(&mut std::io::Cursor::new(bytes)) {
            Err(FrameError::Wire(WireError::OversizeFrame(n))) => prop_assert_eq!(n, len),
            other => prop_assert!(false, "expected oversize rejection, got {other:?}"),
        }
    }

    /// A declared frame length the stream cannot back is an io error (EOF
    /// mid-frame), not a hang or panic.
    #[test]
    fn truncated_frame_is_io_error(declared in 1u32..10_000, actual in 0usize..100) {
        let mut bytes = declared.to_be_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0xAB, actual.min(declared as usize - 1)));
        match read_frame(&mut std::io::Cursor::new(bytes)) {
            Err(FrameError::Io(_)) => {}
            other => prop_assert!(false, "expected io error, got {other:?}"),
        }
    }
}

/// Empty strings, ASCII and one- to four-byte UTF-8 sequences.
const ALPHABET: [char; 8] = ['a', 'b', 'z', ' ', 'é', 'ü', '中', '🙂'];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn pair_lists() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((text(), text()), 0..12)
}

fn encode(v: &impl Wire) -> Vec<u8> {
    let mut w = Writer::new();
    v.put(&mut w);
    w.into_bytes()
}

/// Both decoders over `bytes`: the same verdict, the same bytes consumed,
/// the same contents.
fn decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (mut packed_r, mut owned_r) = (Reader::new(bytes), Reader::new(bytes));
    let packed = Pairs::get(&mut packed_r);
    let owned = Vec::<(String, String)>::get(&mut owned_r);
    prop_assert_eq!(packed_r.remaining(), owned_r.remaining(), "consumed differently");
    match (packed, owned) {
        (Ok(p), Ok(v)) => {
            prop_assert_eq!(p.len(), v.len());
            prop_assert_eq!(p.to_vec(), v);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        // Counts only: a wrongly accepted `Pairs` may not even format.
        (p, v) => prop_assert!(
            false,
            "verdicts differ: packed {:?}, vec {:?}",
            p.map(|p| p.len()),
            v.map(|v| v.len())
        ),
    }
    Ok(())
}

proptest! {
    /// A packed list is its `Vec` on the wire, and reads back whole.
    #[test]
    fn pairs_encode_like_the_vec(list in pair_lists()) {
        let packed: Pairs = list.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let bytes = encode(&packed);
        prop_assert_eq!(&bytes, &encode(&list));
        prop_assert_eq!(packed.len(), list.len());
        prop_assert_eq!(packed.is_empty(), list.is_empty());
        let data: usize = list.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(packed.data_bytes(), data as u64);
        let borrowed: Vec<(&str, &str)> = packed.iter().collect();
        let expected: Vec<(&str, &str)> =
            list.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        prop_assert_eq!(borrowed, expected);
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(Pairs::get(&mut r), Ok(packed));
        r.finish().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Truncations and two-byte overwrites of valid encodings: lengths that
    /// overrun, counts the input cannot back, and UTF-8 broken mid-sequence.
    #[test]
    fn pairs_decode_mutations_like_the_vec(
        list in pair_lists(),
        cut in 0usize..512,
        at in (0usize..512, 0usize..512),
        to in (0u8..=255, 0u8..=255),
    ) {
        let mut bytes = encode(&list);
        decoders_agree(&bytes[..cut % (bytes.len() + 1)])?;
        let n = bytes.len();
        bytes[at.0 % n] = to.0;
        bytes[at.1 % n] = to.1;
        decoders_agree(&bytes)?;
    }

    /// Arbitrary bytes behind a small count, so the decoders read fields.
    #[test]
    fn pairs_decode_arbitrary_bytes_like_the_vec(
        count in 0u32..4,
        rest in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        let mut bytes = count.to_be_bytes().to_vec();
        bytes.extend_from_slice(&rest);
        decoders_agree(&bytes)?;
        decoders_agree(&rest)?;
    }
}

#[test]
fn invalid_utf8_is_refused_like_the_vec() {
    // One pair: key "k", then a value of two bytes that are not UTF-8.
    let bytes = [0, 0, 0, 1, 0, 0, 0, 1, b'k', 0, 0, 0, 2, 0xC3, 0x28];
    assert_eq!(Pairs::get(&mut Reader::new(&bytes)).map(|p| p.len()), Err(WireError::BadUtf8));
    decoders_agree(&bytes).unwrap();
}
