//! The benchmark's own client for netd's wire protocol.
//!
//! Requests are length-prefixed frames (`<decimal byte count>\n<payload>\n`);
//! responses are newline-delimited JSON lines. Written from the protocol
//! description, not linked from `parapre-net`, so a change to the product's
//! framing code that breaks wire compatibility fails here instead of being
//! compiled into both ends.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits for one response line. Far above any request of
/// the benchmark; turns a hung server into a counted transport error.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Encodes one frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(payload.len().to_string().as_bytes());
    out.push(b'\n');
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// One closed-loop connection: a request is sent only after the previous
/// response was read.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response line and the client-side latency, send to line received.
pub struct Reply {
    pub line: Json,
    pub latency_s: f64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one frame and reads the next response line. The clock stops
    /// when the line has arrived, before it is parsed.
    pub fn request(&mut self, payload: &[u8]) -> Result<Reply, String> {
        let frame = encode_frame(payload);
        let t0 = Instant::now();
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let latency_s = t0.elapsed().as_secs_f64();
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let line = Json::parse(line.trim_end()).map_err(|e| format!("response: {e}"))?;
        Ok(Reply { line, latency_s })
    }

    /// A single-line request (a job or a `{"cmd":…}` control).
    pub fn request_line(&mut self, json_line: &str) -> Result<Reply, String> {
        self.request(json_line.as_bytes())
    }

    /// Uploads Matrix Market text through `put`; the reply carries `fp`.
    /// `parts` are concatenated to form the body, so callers can keep the
    /// unchanging bulk of a matrix apart from the lines that vary.
    pub fn put(&mut self, parts: &[&[u8]]) -> Result<Reply, String> {
        let mut payload = Vec::with_capacity(16 + parts.iter().map(|p| p.len()).sum::<usize>());
        payload.extend_from_slice(b"{\"cmd\":\"put\"}\n");
        for p in parts {
            payload.extend_from_slice(p);
        }
        self.request(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netd::Netd;
    use std::path::PathBuf;

    /// The netd binary `benchmark/run.sh test` built and named, or the one
    /// in the default target directory.
    fn netd_bin() -> PathBuf {
        let bin = std::env::var_os("PARAPRE_BENCH_NETD").map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/release/parapre-netd"),
            PathBuf::from,
        );
        assert!(
            bin.exists(),
            "{} is missing: run the tests through `benchmark/run.sh test`",
            bin.display()
        );
        bin
    }

    #[test]
    fn own_frames_are_understood_by_a_live_netd() {
        let netd = Netd::spawn(&netd_bin()).unwrap();
        let mut conn = netd.connect().unwrap();
        let pong = conn.request_line("{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(pong.line.bool("pong"), Some(true));
        assert!(pong.latency_s > 0.0);
        // A frame whose body has newlines of its own: a two-by-two upload.
        let put = conn
            .put(&[
                &b"%%MatrixMarket matrix coordinate real general\n2 2 2\n"[..],
                b"1 1 2e0\n",
                b"2 2 3e0\n",
            ])
            .unwrap();
        assert_eq!(put.line.bool("put"), Some(true));
        assert_eq!(put.line.num("n"), Some(2.0));
        assert_eq!(put.line.num("nnz"), Some(2.0));
        assert_eq!(put.line.str("fp").map(str::len), Some(16));
        // The stream is still in step after the multi-line frame.
        let again = conn.request_line("{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(again.line.bool("pong"), Some(true));
        drop(conn);
        assert!(netd.shutdown(), "netd drains and exits 0 on shutdown");
    }

    #[test]
    fn frames_carry_their_length() {
        assert_eq!(
            encode_frame(b"{\"cmd\":\"ping\"}"),
            b"14\n{\"cmd\":\"ping\"}\n"
        );
        assert_eq!(encode_frame(b"a\nb"), b"3\na\nb\n");
        assert_eq!(encode_frame(b""), b"0\n\n");
    }
}
