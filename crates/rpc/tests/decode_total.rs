//! Decode totality: arbitrary byte strings must never panic the decoder —
//! truncated frames, oversize length prefixes, unknown tags and corrupted
//! fields all map to typed errors. This is the robustness gate for the
//! wire format: a malicious or corrupt peer can only produce a clean
//! connection close, never a worker crash.

use pnats_rpc::{
    read_frame, Assignment, FrameError, MapDone, MapFailed, Msg, ProgressReport, ReduceDone,
    WireError, MAX_FRAME,
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
                output: vec![("k".into(), "v".into()), (String::new(), "1".into())],
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
        which in 0usize..5,
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
