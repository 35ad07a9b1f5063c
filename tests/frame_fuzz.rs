//! `read_frame`, netd's one reader of client bytes, on generated streams:
//! length-prefixed frames (of any bytes, newlines included), bare `{…}`
//! lines, blank and CRLF lines, then at most one bad piece — an oversized
//! frame or bare line, a header that is not a byte count, or a frame the
//! stream ends inside — and on random bytes.
//!
//! Three properties: `read_frame` never panics; it never returns more than
//! `max` bytes; and a stream of good pieces reads back as exactly their
//! payloads (so `write_frame` output round-trips), followed by the one
//! typed error the bad piece calls for, or a clean end of stream.

use parapre::net::{read_frame, write_frame, FrameError};
use proptest::prelude::*;
use std::io::BufReader;

/// A small deterministic generator.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A length near an end of `0..=max`, or inside it.
    fn len_up_to(&mut self, max: usize) -> usize {
        [0, 1, max / 2, max - 1, max, self.below(max + 1)][self.below(6)]
    }

    /// `n` bytes of any value, newlines and carriage returns likely.
    fn bytes(&mut self, n: usize) -> Vec<u8> {
        let alphabet = b"{}\n\r 0123456789x\"";
        (0..n)
            .map(|_| match self.below(4) {
                0 => self.next() as u8,
                _ => alphabet[self.below(alphabet.len())],
            })
            .collect()
    }

    /// A bare line's content: `{` first, no line break anywhere.
    fn bare(&mut self, n: usize) -> Vec<u8> {
        let mut line = vec![b'{'];
        line.extend(self.bytes(n - 1).into_iter().map(|b| match b {
            b'\n' | b'\r' => b'x',
            b => b,
        }));
        line
    }
}

/// What reading a bad piece must end in.
#[derive(Debug)]
enum Ends {
    Clean,
    Oversized,
    BadLength,
    Truncated(usize),
}

/// A stream of good pieces and the payloads they carry, then at most one
/// bad piece and the error it calls for.
fn stream(draw: &mut Draw, max: usize) -> (Vec<u8>, Vec<Vec<u8>>, Ends) {
    let (mut wire, mut payloads) = (Vec::new(), Vec::new());
    for _ in 0..draw.below(8) {
        match draw.below(5) {
            0 | 1 => {
                let n = draw.len_up_to(max);
                let payload = draw.bytes(n);
                write_frame(&mut wire, &payload).unwrap();
                payloads.push(payload);
            }
            2 => {
                let n = draw.len_up_to(max).max(1);
                let line = draw.bare(n);
                wire.extend_from_slice(&line);
                wire.extend_from_slice([&b"\n"[..], b"\r\n"][draw.below(2)]);
                payloads.push(line);
            }
            3 => wire.extend_from_slice([&b"\n"[..], b"\r\n", b"\r\r\n"][draw.below(3)]),
            _ => {
                // A CRLF header, and a payload closed by CRLF: the stray
                // `\r` reads as a blank line.
                let n = draw.len_up_to(max);
                let payload = draw.bytes(n);
                wire.extend_from_slice(format!(" {} \r\n", payload.len()).as_bytes());
                wire.extend_from_slice(&payload);
                wire.extend_from_slice(b"\r\n");
                payloads.push(payload);
            }
        }
    }
    let ends = match draw.below(6) {
        0 => Ends::Clean,
        1 => {
            let len = max + 1 + draw.below(3);
            write_frame(&mut wire, &draw.bytes(len)).unwrap();
            Ends::Oversized
        }
        2 => {
            // Ended by a newline or not, within the reader's slack or past it.
            let over = [0, 1, 30, 31, 32, 1000][draw.below(6)];
            let line = draw.bare(max + 1 + over);
            wire.extend_from_slice(&line);
            if draw.below(2) == 0 {
                wire.push(b'\n');
            }
            Ends::Oversized
        }
        3 => {
            let bad: [&[u8]; 6] = [b"xyzzy", b"-3", b"1e3", b"0x10", b"12 3", &[0xff, 0xfe]];
            wire.extend_from_slice(bad[draw.below(bad.len())]);
            wire.push(b'\n');
            Ends::BadLength
        }
        _ => {
            let len = 1 + draw.below(max);
            let mut frame = Vec::new();
            write_frame(&mut frame, &draw.bytes(len)).unwrap();
            let header = frame.iter().position(|&b| b == b'\n').unwrap() + 1;
            wire.extend_from_slice(&frame[..header + draw.below(len)]);
            Ends::Truncated(len)
        }
    };
    (wire, payloads, ends)
}

/// Every frame `wire` reads as, and how the reading ended; asserts that no
/// payload is longer than `max`.
fn read_all(wire: &[u8], max: usize) -> (Vec<Vec<u8>>, Result<(), FrameError>) {
    let mut r = BufReader::with_capacity(1 + wire.len() % 64, wire);
    let mut got = Vec::new();
    // Every frame consumes at least one byte.
    for _ in 0..=wire.len() {
        match read_frame(&mut r, max) {
            Ok(Some(payload)) => {
                assert!(payload.len() <= max, "{} > {max} bytes", payload.len());
                got.push(payload);
            }
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
    panic!("read_frame returned more frames than the stream has bytes");
}

#[test]
fn a_bare_line_one_byte_over_the_limit_is_oversized() {
    let mut line = vec![b'{'; 1025];
    line.push(b'\n');
    let (got, end) = read_all(&line, 1024);
    assert!(got.is_empty());
    assert!(matches!(end, Err(FrameError::Oversized { len: 1025, .. })));
    line.remove(0);
    let (got, end) = read_all(&line, 1024);
    assert_eq!((got.len(), got[0].len()), (1, 1024));
    assert!(end.is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn good_frames_read_back_and_a_bad_one_is_a_typed_error(seed in any::<u64>()) {
        let mut draw = Draw(seed | 1);
        let max = [32usize, 33, 100, 1024][draw.below(4)];
        let (wire, payloads, ends) = stream(&mut draw, max);
        let (got, end) = read_all(&wire, max);
        let wire = String::from_utf8_lossy(&wire);
        prop_assert_eq!(&got, &payloads, "max {}: read {:?} from {:?}", max, got, wire);
        let typed = match (&ends, &end) {
            (Ends::Clean, Ok(())) => true,
            (Ends::Oversized, Err(FrameError::Oversized { max: m, .. })) => *m == max,
            (Ends::BadLength, Err(FrameError::BadLength(_))) => true,
            (Ends::Truncated(n), Err(FrameError::Truncated { expected })) => n == expected,
            _ => false,
        };
        prop_assert!(typed, "expected {:?}, got {:?}", ends, end);
    }

    #[test]
    fn random_bytes_never_panic_nor_overflow(seed in any::<u64>()) {
        let mut draw = Draw(seed | 1);
        let max = [1usize, 2, 8, 32, 1024][draw.below(5)];
        let n = draw.below(4096);
        let wire = draw.bytes(n);
        let (got, _) = read_all(&wire, max);
        prop_assert!(got.iter().map(Vec::len).sum::<usize>() <= wire.len());
    }
}
