//! Wire framing of the `parapre-netd` protocol.
//!
//! Requests travel client → server as **length-prefixed frames**:
//!
//! ```text
//! <decimal byte count>\n
//! <payload bytes>\n
//! ```
//!
//! The payload's first line is a flat JSON object (a job line or a
//! `{"cmd":…}` control request); any remaining lines are the frame body
//! (today: the Matrix Market text of a `{"cmd":"put"}` upload). Because a
//! frame carries its length up front, the body may contain anything —
//! including newlines — without escaping.
//!
//! For hand-driven sessions (`nc`, `socat`) there is a **bare-line
//! fallback**: a line whose first byte is `{` is accepted as a complete
//! single-line frame. Everything a matrix-free client needs (jobs,
//! `stats`, `shutdown`, …) fits on one line, so `nc` works without
//! counting bytes; only `put` requires real framing.
//!
//! Responses travel server → client as newline-delimited JSON lines (one
//! result or control answer per line, never containing a raw newline), so
//! any line-oriented reader can consume them.

use std::io::{BufRead, Read, Write};

/// Hard ceiling on one frame's payload. Large enough for a multi-megabyte
/// Matrix Market upload, small enough that a mis-framed or hostile client
/// cannot make the server buffer unbounded garbage.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The length header was not a decimal byte count.
    BadLength(String),
    /// The declared (or bare-line) length exceeds the limit. The stream
    /// position is unrecoverable — the connection must be closed.
    Oversized {
        /// Declared or observed payload length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// The stream ended mid-payload.
    Truncated {
        /// Bytes the header declared.
        expected: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadLength(h) => {
                write!(f, "bad frame header {h:?}: expected a decimal byte count")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max} byte limit")
            }
            FrameError::Truncated { expected } => {
                write!(f, "stream ended inside a {expected}-byte frame")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload)?;
    w.write_all(b"\n")
}

/// Reads one frame: `Ok(Some(payload))` on success, `Ok(None)` on a clean
/// end of stream before any frame byte. Blank lines between frames are
/// skipped. A header starting with `{` is the bare-line fallback — the
/// line itself is the payload.
pub fn read_frame<R: BufRead>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let header = loop {
        // Read the header as bytes, length-limited: a hostile client must
        // not be able to stream an unbounded "line".
        let mut header: Vec<u8> = Vec::new();
        let n = r
            .take(max as u64 + 32)
            .read_until(b'\n', &mut header)
            .map_err(FrameError::Io)?;
        if n == 0 {
            return Ok(None);
        }
        while matches!(header.last(), Some(b'\n') | Some(b'\r')) {
            header.pop();
        }
        // A bare line is its own payload, so no header may outgrow `max`.
        if header.len() > max {
            return Err(FrameError::Oversized {
                len: header.len(),
                max,
            });
        }
        if !header.is_empty() {
            break header;
        }
    };
    if header[0] == b'{' {
        // Bare single-line frame (interactive clients).
        return Ok(Some(header));
    }
    let text = std::str::from_utf8(&header)
        .map_err(|_| FrameError::BadLength(String::from_utf8_lossy(&header).into_owned()))?;
    let len: usize = text
        .trim()
        .parse()
        .map_err(|_| FrameError::BadLength(text.to_string()))?;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated { expected: len },
        _ => FrameError::Io(e),
    })?;
    // Consume the trailing newline separator, if present.
    let buffered = r.fill_buf().map_err(FrameError::Io)?;
    if buffered.first() == Some(&b'\n') {
        r.consume(1);
    }
    Ok(Some(payload))
}

/// Splits a frame payload into its JSON header line and its (possibly
/// empty) body. The newline separating them is not part of either.
pub fn split_payload(payload: &[u8]) -> (&[u8], &[u8]) {
    match payload.iter().position(|&b| b == b'\n') {
        Some(i) => (&payload[..i], &payload[i + 1..]),
        None => (payload, &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut wire, b"{\"cmd\":\"put\"}\nline1\nline2").unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"{\"cmd\":\"ping\"}"
        );
        let multi = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        let (head, body) = split_payload(&multi);
        assert_eq!(head, b"{\"cmd\":\"put\"}");
        assert_eq!(body, b"line1\nline2");
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn bare_line_fallback_and_blank_lines() {
        let wire = b"\n\n{\"id\":\"a\"}\n{\"id\":\"b\"}\n";
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"{\"id\":\"a\"}"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"{\"id\":\"b\"}"
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn bad_and_oversized_headers_are_typed_errors() {
        let mut r = BufReader::new(&b"xyzzy\n"[..]);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::BadLength(_))
        ));

        let mut r = BufReader::new(&b"999999999999\npayload"[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized { max: 1024, .. })
        ));

        // A bare line longer than the limit is oversized too, and the
        // reader must not have buffered it all.
        let mut long = vec![b'{'];
        long.extend_from_slice(&[b'x'; 4096]);
        let mut r = BufReader::new(&long[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized { .. })
        ));

        // So is one that ends in a newline within the reader's slack.
        let mut line = vec![b'{'];
        line.extend_from_slice(&[b'x'; 1044]);
        line.push(b'\n');
        let mut r = BufReader::new(&line[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Oversized {
                len: 1045,
                max: 1024
            })
        ));
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let mut r = BufReader::new(&b"10\nshort"[..]);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::Truncated { expected: 10 })
        ));
    }

    #[test]
    fn non_utf8_header_does_not_panic() {
        let wire = [0xff, 0xfe, 0x01, b'\n'];
        let mut r = BufReader::new(&wire[..]);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME_BYTES),
            Err(FrameError::BadLength(_))
        ));
    }
}
