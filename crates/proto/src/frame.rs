//! Line-delimited framing with a hard size cap.

use std::io::{self, BufRead, IoSlice, Read, Write};

/// Maximum payload bytes of one frame (excluding the `\n` terminator).
///
/// Large enough for a spectrum over the catalog scenarios, small enough
/// that a malicious or broken peer cannot make the server buffer without
/// bound. Both sides enforce it: writers refuse to emit an oversized
/// frame, readers consume one to its newline and report it as a typed
/// error so the stream stays synchronized.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream — the peer closed between frames.
    Closed,
    /// The stream ended in the middle of a frame (no trailing newline).
    Truncated,
    /// The frame exceeded [`MAX_FRAME_BYTES`]. The reader has already
    /// consumed the rest of the line (up to its newline), so the caller
    /// may keep using the stream.
    Oversized,
    /// The frame is not valid UTF-8.
    Encoding,
    /// An underlying I/O failure (stringified).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized => {
                write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes")
            }
            FrameError::Encoding => write!(f, "frame is not valid UTF-8"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame, enforcing [`MAX_FRAME_BYTES`].
///
/// On [`FrameError::Oversized`] the offending line has been drained, so
/// the next call starts at the next frame boundary.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<String, FrameError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take((MAX_FRAME_BYTES + 1) as u64)
        .read_until(b'\n', &mut buf)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if buf.is_empty() {
        return Err(FrameError::Closed);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized);
        }
        return String::from_utf8(buf).map_err(|_| FrameError::Encoding);
    }
    if buf.len() > MAX_FRAME_BYTES {
        // Over the cap with no newline yet: drain the rest of the line so
        // the stream re-synchronizes, then report the typed error.
        let mut discard = Vec::new();
        reader
            .read_until(b'\n', &mut discard)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        return Err(FrameError::Oversized);
    }
    Err(FrameError::Truncated)
}

/// Writes one frame (payload + `\n`) and flushes.
///
/// The payload and its newline leave in one vectored write, without
/// copying the payload; short writes are resumed where they stopped and
/// `Interrupted` is retried, so the peer sees exactly `payload\n`. A
/// write that accepts zero bytes is reported as [`FrameError::Io`]. One
/// write per frame matters on TCP: a newline sent on its own after the
/// payload waits out the peer's delayed ACK before it leaves (Nagle's
/// algorithm), which stalled every small round trip by ~40 ms per frame.
///
/// Payloads are rendered by `rt_engine::json::render`, which escapes every
/// control character — a rendered frame can never contain a raw newline.
/// The size cap is enforced here too, so a server response that would be
/// unreadable on the other side fails loudly at the writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &str) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized);
    }
    debug_assert!(!payload.contains('\n'), "frame payloads must be one line");
    write_all_vectored(
        writer,
        &mut [IoSlice::new(payload.as_bytes()), IoSlice::new(b"\n")],
    )
    .and_then(|()| writer.flush())
    .map_err(|e| FrameError::Io(e.to_string()))
}

/// `write_all` over several buffers: loops `write_vectored` until every
/// slice is consumed.
fn write_all_vectored<W: Write>(writer: &mut W, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match writer.write_vectored(bufs) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut wire, "{\"type\":\"stats\"}").unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"type\":\"stats\"}");
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    }

    #[test]
    fn crlf_terminators_are_accepted() {
        let mut reader = BufReader::new("{\"a\":1}\r\n".as_bytes());
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"a\":1}");
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed() {
        let mut reader = BufReader::new("{\"partial\":".as_bytes());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Truncated)
        ));

        // An oversized line is drained: the next frame still parses.
        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 10];
        wire.push(b'\n');
        wire.extend_from_slice(b"{\"ok\":1}\n");
        let mut reader = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Oversized)
        ));
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"ok\":1}");
    }

    #[test]
    fn invalid_utf8_is_typed() {
        let mut reader = BufReader::new(&[0xff, 0xfe, b'\n'][..]);
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Encoding)));
    }

    /// Records every `write_vectored` call as the bytes it was handed.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls
                .push(bufs.iter().flat_map(|b| b.iter().copied()).collect());
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_vectored_write() {
        let mut recorder = Recorder::default();
        write_frame(&mut recorder, "{\"type\":\"ping\"}").unwrap();
        assert_eq!(recorder.calls, vec![b"{\"type\":\"ping\"}\n".to_vec()]);
    }

    /// Accepts at most one byte per call; optionally fails the first call
    /// with `Interrupted`, or accepts nothing at all.
    struct Stingy {
        out: Vec<u8>,
        interrupt_once: bool,
        write_zero: bool,
    }

    impl Stingy {
        fn new() -> Stingy {
            Stingy {
                out: Vec::new(),
                interrupt_once: false,
                write_zero: false,
            }
        }
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt_once) {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            if self.write_zero || buf.is_empty() {
                return Ok(0);
            }
            self.out.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_produce_one_frame() {
        let payload = "{\"s\":\"h\u{e9}llo \u{1F600}\"}";
        let expected = format!("{payload}\n").into_bytes();

        let mut one_byte = Stingy::new();
        write_frame(&mut one_byte, payload).unwrap();
        assert_eq!(one_byte.out, expected);

        let mut interrupted = Stingy::new();
        interrupted.interrupt_once = true;
        write_frame(&mut interrupted, payload).unwrap();
        assert_eq!(interrupted.out, expected);

        // The empty payload is still one frame: just the newline.
        let mut empty = Stingy::new();
        write_frame(&mut empty, "").unwrap();
        assert_eq!(empty.out, b"\n");
    }

    #[test]
    fn zero_length_write_is_an_io_error() {
        let mut stuck = Stingy::new();
        stuck.write_zero = true;
        assert!(matches!(
            write_frame(&mut stuck, "{}"),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        let mut wire = Vec::new();
        let huge = "x".repeat(MAX_FRAME_BYTES + 1);
        assert!(matches!(
            write_frame(&mut wire, &huge),
            Err(FrameError::Oversized)
        ));
        assert!(wire.is_empty());
    }
}
