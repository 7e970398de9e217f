//! Length-prefixed, checksummed framing over a byte stream.
//!
//! A frame is a 4-byte big-endian payload length, a 4-byte big-endian
//! FNV-1a checksum of the payload, then the payload (one encoded
//! [`crate::Msg`]). The length is checked against [`MAX_FRAME`] on both
//! sides before any allocation; the checksum is verified before the payload reaches the
//! message decoder, so corrupted bytes surface as a typed
//! [`WireError::ChecksumMismatch`] instead of decoding into a valid but
//! wrong message. A checksum failure poisons the *connection* (the peer or
//! the link is damaging bytes) — never the process.
//!
//! **One write per frame.** [`write_frame`] hands header and payload to
//! the writer in one vectored write — one `writev` on a socket or a file.
//! Every socket here is `TCP_NODELAY`, so each write leaves as a segment of
//! its own and can wake the reader blocked on it: written as length,
//! checksum and payload, a frame cost three syscalls, three segments and up
//! to three wake-ups. As one `writev` it is one of each, the payload is not
//! copied into a joined buffer, and the bytes are the same.

use crate::wire::{fnv1a32, WireError, MAX_FRAME};
use std::io::{self, IoSlice, Read, Write};

/// Errors a framed read/write can produce.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (connection reset, timeout, EOF mid-frame…).
    Io(io::Error),
    /// The peer sent a malformed frame or message.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Bytes of frame header: payload length + payload checksum.
pub const FRAME_HEADER: usize = 8;

/// Write one frame, in one write. Oversize payloads are refused locally —
/// a bug here must not become a peer's problem.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::OversizeFrame(payload.len() as u64).into());
    }
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&fnv1a32(payload).to_be_bytes());
    write_parts(w, &header, payload)?;
    w.flush()?;
    Ok(())
}

/// Write `head` then `tail` in one vectored write, looping only on a short
/// write.
pub(crate) fn write_parts(w: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let mut parts = [IoSlice::new(head), IoSlice::new(tail)];
    let mut parts = &mut parts[..];
    IoSlice::advance_slices(&mut parts, 0); // drop empty parts
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame. A length prefix beyond [`MAX_FRAME`] is rejected before
/// any buffer is reserved; a payload whose checksum disagrees with the
/// header is rejected before it reaches the message decoder.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
    let declared = u32::from_be_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::OversizeFrame(len as u64).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let computed = fnv1a32(&payload);
    if computed != declared {
        return Err(WireError::ChecksumMismatch { declared, computed }.into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))), "EOF");
    }

    /// A writer that records every write call, taking whatever it is
    /// handed in full, as a socket with room in its buffer does.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Each frame is one write call, and its bytes are the ones the
    /// three-write encoder put on the wire (headers captured from it).
    #[test]
    fn a_frame_is_one_write_with_unchanged_bytes() {
        let golden: [(&[u8], [u8; FRAME_HEADER]); 3] = [
            (b"hello", [0, 0, 0, 5, 0x4f, 0x9f, 0x2c, 0xab]),
            (b"", [0, 0, 0, 0, 0x81, 0x1c, 0x9d, 0xc5]),
            (b"pnats frame", [0, 0, 0, 11, 0xd0, 0x79, 0x80, 0x5e]),
        ];
        for (payload, header) in golden {
            let mut w = Counting::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{payload:?}");
            assert_eq!(w.bytes, [&header[..], payload].concat(), "{payload:?}");
        }
    }

    #[test]
    fn oversize_length_prefix_rejected_without_allocation() {
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        bytes.extend_from_slice(b"xx");
        let mut cur = io::Cursor::new(bytes);
        match read_frame(&mut cur) {
            Err(FrameError::Wire(WireError::OversizeFrame(n))) => {
                assert_eq!(n, u32::MAX as u64)
            }
            other => panic!("expected oversize error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap();
        buf.truncate(FRAME_HEADER + 4);
        let mut cur = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    #[test]
    fn corrupted_payload_is_checksum_mismatch() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"important bytes").unwrap();
        // Flip one payload bit; length stays valid, checksum must not.
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let mut cur = io::Cursor::new(buf);
        match read_frame(&mut cur) {
            Err(FrameError::Wire(WireError::ChecksumMismatch { declared, computed })) => {
                assert_ne!(declared, computed);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_checksum_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[5] ^= 0xFF; // inside the checksum word
        let mut cur = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::Wire(WireError::ChecksumMismatch { .. }))
        ));
    }
}
