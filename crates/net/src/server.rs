//! The `parapre-netd` server: concurrent network clients over one
//! [`SolveService`].
//!
//! Every connection gets a reader (the connection thread), a writer
//! thread, and one short-lived waiter thread per in-flight job — results
//! stream back **in completion order**, keyed by job id, while the reader
//! keeps accepting new frames. Fairness and safety are enforced per
//! client *before* the shared queue is touched:
//!
//! * **max in-flight** — a hard per-connection cap on unredeemed jobs;
//! * **fair share** — the global slot budget (`pool_size +
//!   queue_capacity`) divided by the live connection count, so one greedy
//!   client cannot starve the rest even below its own cap;
//! * the service's own [`SubmitError::QueueFull`] backpressure remains
//!   the last line of defense.
//!
//! Rejections are structured result lines (`error_kind: "admission"` /
//! `"rejected"` / `"bad_frame"`), never dropped bytes. Graceful drain —
//! a `{"cmd":"shutdown"}` frame or [`NetServer::begin_drain`] — stops
//! the accept loops, kicks every blocked reader by shutting down the
//! socket's read half, lets in-flight jobs finish and stream out, then
//! lets [`NetServer::wait`] return.

use crate::protocol::{read_frame, split_payload, MAX_FRAME_BYTES};
use parapre_engine::{
    parse_job_fields, parse_line_fields, ConfigError, JobResult, ServiceConfig, SolveService,
    SubmitError,
};
use parapre_metrics::flatjson;
use parapre_metrics::names;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and limits of the network layer (the solve pool itself is
/// configured through the embedded [`ServiceConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// The wrapped solve service's sizing.
    pub service: ServiceConfig,
    /// Hard per-connection cap on in-flight (submitted, unredeemed) jobs.
    pub max_inflight: usize,
    /// Largest accepted request frame.
    pub max_frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            service: ServiceConfig::default(),
            max_inflight: 8,
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum NetError {
    /// The embedded [`ServiceConfig`] was invalid.
    Config(ConfigError),
    /// Binding a listener failed.
    Io(std::io::Error),
    /// Neither a TCP address nor a unix-socket path was given.
    NoListener,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Config(e) => write!(f, "{e}"),
            NetError::Io(e) => write!(f, "bind: {e}"),
            NetError::NoListener => write!(f, "no listener: give a TCP address or a socket path"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<ConfigError> for NetError {
    fn from(e: ConfigError) -> NetError {
        NetError::Config(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// A connected transport: TCP or unix-domain.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Shuts down the read half: a reader blocked in `read_frame` sees a
    /// clean end of stream (the drain kick).
    fn shutdown_read(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Read),
            Stream::Unix(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

struct NetShared {
    service: SolveService,
    cfg: NetConfig,
    draining: AtomicBool,
    drain_signal: (Mutex<bool>, Condvar),
    /// Live connections (the fair-share divisor).
    clients: AtomicUsize,
    next_conn: AtomicU64,
    /// Read-half handles of live connections, for the drain kick.
    conn_streams: Mutex<HashMap<u64, Stream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl NetShared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let (lock, cv) = &self.drain_signal;
            *lock.lock().expect("drain lock") = true;
            cv.notify_all();
        }
        for (_, s) in self.conn_streams.lock().expect("conn registry").iter() {
            s.shutdown_read();
        }
    }

    /// Per-connection submission budget right now: the hard cap, tightened
    /// to this client's fair share of the global slot budget.
    fn allowed_slots(&self) -> usize {
        let clients = self.clients.load(Ordering::Relaxed).max(1);
        let total = self.cfg.service.pool_size + self.cfg.service.queue_capacity;
        self.cfg.max_inflight.min((total / clients).max(1))
    }
}

/// The running network server. Dropping it begins a drain and waits for
/// every connection to finish.
pub struct NetServer {
    shared: Arc<NetShared>,
    accept_threads: Mutex<Vec<JoinHandle<()>>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl NetServer {
    /// Validates the configuration, starts the solve service, binds the
    /// requested listeners (`tcp` as `host:port` — port `0` picks a free
    /// one; `unix` as a socket path, any stale socket file is replaced),
    /// and begins accepting. At least one listener is required.
    pub fn start(
        cfg: NetConfig,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> Result<NetServer, NetError> {
        if tcp.is_none() && unix.is_none() {
            return Err(NetError::NoListener);
        }
        let service = SolveService::start(cfg.service)?;
        let shared = Arc::new(NetShared {
            service,
            cfg,
            draining: AtomicBool::new(false),
            drain_signal: (Mutex::new(false), Condvar::new()),
            clients: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            conn_streams: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let mut accept_threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            accept_threads.push(std::thread::spawn(move || accept_tcp(&shared, &listener)));
        }
        let mut unix_path = None;
        if let Some(path) = unix {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            let shared = Arc::clone(&shared);
            accept_threads.push(std::thread::spawn(move || accept_unix(&shared, &listener)));
        }
        Ok(NetServer {
            shared,
            accept_threads: Mutex::new(accept_threads),
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (resolves `:0` to the picked port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The wrapped solve service (cache and store statistics).
    pub fn service(&self) -> &SolveService {
        &self.shared.service
    }

    /// Starts a graceful drain, as if a `{"cmd":"shutdown"}` frame had
    /// arrived: stop accepting, kick blocked readers, let in-flight jobs
    /// finish and stream out.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until a drain begins (a `{"cmd":"shutdown"}` frame or
    /// [`NetServer::begin_drain`]) and every connection has flushed its
    /// in-flight results and closed.
    pub fn wait(&self) {
        {
            let (lock, cv) = &self.shared.drain_signal;
            let mut draining = lock.lock().expect("drain lock");
            while !*draining {
                draining = cv.wait(draining).expect("drain lock");
            }
        }
        for h in self
            .accept_threads
            .lock()
            .expect("accept threads")
            .drain(..)
        {
            let _ = h.join();
        }
        // Connection threads may still be spawning waiters; drain the
        // registry until it stays empty.
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut threads = self.shared.conn_threads.lock().expect("conn threads");
                threads.drain(..).collect()
            };
            if batch.is_empty() {
                break;
            }
            for h in batch {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.begin_drain();
        self.wait();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn accept_tcp(shared: &Arc<NetShared>, listener: &TcpListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => spawn_conn(shared, Stream::Tcp(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn accept_unix(shared: &Arc<NetShared>, listener: &UnixListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => spawn_conn(shared, Stream::Unix(stream)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn spawn_conn(shared: &Arc<NetShared>, stream: Stream) {
    // Accepted connections must be blocking again (the listener's
    // nonblocking flag is inherited on some platforms). TCP also gets
    // Nagle disabled: responses are small frames written whole, and the
    // Nagle/delayed-ACK interaction would add ~40ms to every round trip.
    match &stream {
        Stream::Tcp(s) => {
            let _ = s.set_nonblocking(false);
            let _ = s.set_nodelay(true);
        }
        Stream::Unix(s) => {
            let _ = s.set_nonblocking(false);
        }
    }
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(kick) = stream.try_clone() {
        shared
            .conn_streams
            .lock()
            .expect("conn registry")
            .insert(conn_id, kick);
    }
    // Register before the thread starts so a racing drain kicks it too.
    if shared.draining.load(Ordering::SeqCst) {
        stream.shutdown_read();
    }
    let shared2 = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        handle_conn(&shared2, stream, conn_id);
        shared2
            .conn_streams
            .lock()
            .expect("conn registry")
            .remove(&conn_id);
    });
    shared
        .conn_threads
        .lock()
        .expect("conn threads")
        .push(handle);
}

/// What the dispatcher tells the reader loop to do next.
enum Flow {
    /// Keep reading frames.
    Continue,
    /// Stop reading; drain in-flight jobs and say goodbye.
    Bye,
    /// Stop reading; a server-wide drain has begun.
    Drain,
}

fn handle_conn(shared: &Arc<NetShared>, stream: Stream, conn_id: u64) {
    parapre_metrics::inc(names::NET_CONNECTIONS_TOTAL, 1);
    let live = shared.clients.fetch_add(1, Ordering::SeqCst) + 1;
    parapre_metrics::gauge_set(names::NET_ACTIVE_CONNECTIONS, live as f64);

    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            let live = shared.clients.fetch_sub(1, Ordering::SeqCst) - 1;
            parapre_metrics::gauge_set(names::NET_ACTIVE_CONNECTIONS, live as f64);
            return;
        }
    };
    let (out_tx, out_rx) = channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut w = std::io::BufWriter::new(writer_stream);
        for line in out_rx {
            // Flush every line: clients act on whole records as they
            // complete, not whenever the buffer happens to fill.
            if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
                return; // client hung up; drop remaining lines
            }
        }
    });

    let inflight = Arc::new(AtomicUsize::new(0));
    let mut reader = BufReader::new(stream);
    let mut seq: usize = 0;
    let mut watch_seq: u64 = 0;
    let mut said_bye = false;
    loop {
        match read_frame(&mut reader, shared.cfg.max_frame_bytes) {
            Ok(None) => break, // client EOF or drain kick
            Ok(Some(payload)) => {
                parapre_metrics::inc(names::NET_FRAMES_TOTAL, 1);
                seq += 1;
                match dispatch(
                    shared,
                    conn_id,
                    &payload,
                    seq,
                    &inflight,
                    &mut watch_seq,
                    &out_tx,
                ) {
                    Flow::Continue => {}
                    Flow::Bye => {
                        said_bye = true;
                        break;
                    }
                    Flow::Drain => break,
                }
            }
            Err(e) => {
                // Framing is lost: answer with a structured error and
                // close — resynchronization inside a byte stream whose
                // lengths can't be trusted is not possible.
                parapre_metrics::inc(names::NET_FRAMES_REJECTED_TOTAL, 1);
                let line = format!(
                    "{{\"ok\":false,\"error\":\"{}\",\"error_kind\":\"bad_frame\"}}",
                    flatjson::escape(&e.to_string())
                );
                let _ = out_tx.send(line);
                break;
            }
        }
    }
    // Let every in-flight result stream out before closing.
    while inflight.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    if said_bye {
        let _ = out_tx.send("{\"bye\":true,\"drained\":true}".to_string());
    }
    drop(out_tx);
    let _ = writer.join();
    let live = shared.clients.fetch_sub(1, Ordering::SeqCst) - 1;
    parapre_metrics::gauge_set(names::NET_ACTIVE_CONNECTIONS, live as f64);
}

fn dispatch(
    shared: &Arc<NetShared>,
    conn_id: u64,
    payload: &[u8],
    seq: usize,
    inflight: &Arc<AtomicUsize>,
    watch_seq: &mut u64,
    out_tx: &Sender<String>,
) -> Flow {
    let (head, body) = split_payload(payload);
    // The one parse of the head: its `cmd`, its `id` and the job come from it.
    let fields = parse_line_fields(String::from_utf8_lossy(head).trim());
    let get_str = |k: &str| fields.as_ref().ok()?.get(k)?.as_str();
    if let Some(cmd) = get_str("cmd") {
        return serve_command(shared, cmd, body, watch_seq, out_tx);
    }
    // A job frame. Admission control first — before parsing commits any
    // real work and before the shared queue is touched.
    let allowed = shared.allowed_slots();
    let in_now = inflight.load(Ordering::SeqCst);
    // Auto-generated ids are namespaced per connection so two clients
    // never collide.
    let id = get_str("id").map_or_else(|| format!("c{conn_id}-{seq}"), str::to_string);
    if in_now >= allowed {
        parapre_metrics::inc(names::NET_ADMISSION_REJECTS_TOTAL, 1);
        let _ = out_tx.send(format!(
            "{{\"id\":\"{}\",\"ok\":false,\"error\":\"admission limit: {} jobs in flight, {} allowed\",\
             \"error_kind\":\"admission\",\"inflight\":{},\"allowed\":{}}}",
            flatjson::escape(&id),
            in_now,
            allowed,
            in_now,
            allowed
        ));
        return Flow::Continue;
    }
    let job = match fields.and_then(|f| parse_job_fields(&f, || id.clone())) {
        Ok(job) => job,
        Err(e) => {
            parapre_metrics::inc(names::NET_FRAMES_REJECTED_TOTAL, 1);
            let mut r = JobResult::failed(id, e.to_string());
            r.error_kind = Some("rejected".into());
            let _ = out_tx.send(r.to_json());
            return Flow::Continue;
        }
    };
    match shared.service.submit_solve(job) {
        Ok(ticket) => {
            inflight.fetch_add(1, Ordering::SeqCst);
            let out = out_tx.clone();
            let inflight = Arc::clone(inflight);
            std::thread::spawn(move || {
                let result = ticket.wait();
                let _ = out.send(result.to_json());
                inflight.fetch_sub(1, Ordering::SeqCst);
            });
        }
        Err(e @ (SubmitError::QueueFull { .. } | SubmitError::ShuttingDown)) => {
            let mut r = JobResult::failed(id, e.to_string());
            r.error_kind = Some("rejected".into());
            let _ = out_tx.send(r.to_json());
        }
    }
    Flow::Continue
}

fn serve_command(
    shared: &Arc<NetShared>,
    cmd: &str,
    body: &[u8],
    watch_seq: &mut u64,
    out_tx: &Sender<String>,
) -> Flow {
    match cmd {
        "ping" => {
            let _ = out_tx.send("{\"pong\":true}".to_string());
            Flow::Continue
        }
        "put" => {
            let _ = out_tx.send(serve_put(shared, body));
            Flow::Continue
        }
        "shutdown" => {
            let _ = out_tx.send("{\"shutdown\":true,\"draining\":true}".to_string());
            shared.begin_drain();
            Flow::Drain
        }
        "bye" => Flow::Bye,
        // `stats`, `watch`, `metrics`, and the rejection of anything else:
        // one frame per reply record.
        other => {
            for record in shared.service.read_command(other, watch_seq) {
                let _ = out_tx.send(record);
            }
            Flow::Continue
        }
    }
}

/// Registers a `put` frame's Matrix Market body and answers with its
/// fingerprint — the handle later `{"fp":…}` jobs solve against.
fn serve_put(shared: &Arc<NetShared>, body: &[u8]) -> String {
    let a = match parapre_sparse::io::parse_matrix_market(body) {
        Ok(a) => a,
        Err(e) => {
            parapre_metrics::inc(names::NET_FRAMES_REJECTED_TOTAL, 1);
            return format!(
                "{{\"ok\":false,\"error\":\"put: {}\",\"error_kind\":\"rejected\"}}",
                flatjson::escape(&format!("{e:?}"))
            );
        }
    };
    if a.n_rows() != a.n_cols() {
        parapre_metrics::inc(names::NET_FRAMES_REJECTED_TOTAL, 1);
        return format!(
            "{{\"ok\":false,\"error\":\"put: matrix must be square ({}x{})\",\
             \"error_kind\":\"rejected\"}}",
            a.n_rows(),
            a.n_cols()
        );
    }
    let n = a.n_rows();
    let nnz = a.nnz();
    let (fp, known) = shared.service.matrix_store().put(a);
    format!("{{\"put\":true,\"fp\":\"{fp:016x}\",\"n\":{n},\"nnz\":{nnz},\"known\":{known}}}")
}
