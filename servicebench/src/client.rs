//! Load generation over keep-alive connections: closed loops, the open
//! loop, and one-shot GETs.

use crate::workload::{Op, Plan};
use cqp_server::http::{parse_response, ClientResponse, HttpError};
use std::collections::HashSet;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A socket that, set non-blocking, waits by spinning, yielding to any
/// other runnable thread but never sleeping: the client's CPU does not go
/// idle while a response is due, so a measured latency holds no wake-up
/// of an idle client CPU (on a virtual machine, tens of microseconds that
/// vary with the host's load), only the server's work and the loopback.
struct Spin(TcpStream);

impl Spin {
    fn retry<T>(mut io: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        loop {
            match io() {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                other => return other,
            }
        }
    }
}

impl Read for Spin {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let stream = &mut self.0;
        Spin::retry(|| stream.read(buf))
    }
}

impl Write for Spin {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let stream = &mut self.0;
        Spin::retry(|| stream.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How a workload's clients connect.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Connections, one client thread each.
    pub conns: usize,
    /// Whether a client waits by spinning ([`Spin`]) rather than blocking.
    pub spin: bool,
}

/// One keep-alive connection; reconnects lazily after the server closes
/// it (the server recycles connections after a request cap).
pub struct Conn {
    addr: SocketAddr,
    spin: bool,
    open: Option<(Spin, BufReader<Spin>)>,
}

impl Conn {
    /// A connection to `addr`, dialed on first use; `spin` makes it
    /// non-blocking, so waits on it spin.
    pub fn new(addr: SocketAddr, spin: bool) -> Conn {
        Conn {
            addr,
            spin,
            open: None,
        }
    }

    /// Sends one request and reads its response. Any failure drops the
    /// connection; the next call dials afresh.
    pub fn roundtrip(&mut self, wire: &[u8]) -> Result<ClientResponse, HttpError> {
        if self.open.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(self.spin)?;
            let reader = BufReader::new(Spin(stream.try_clone()?));
            self.open = Some((Spin(stream), reader));
        }
        let (stream, reader) = self.open.as_mut().expect("connected above");
        let result = stream
            .write_all(wire)
            .map_err(HttpError::from)
            .and_then(|()| parse_response(reader));
        let close = match &result {
            Ok(resp) => resp
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close")),
            Err(_) => true,
        };
        if close {
            self.open = None;
        }
        result
    }
}

/// `GET path` on a fresh connection; the body as text.
pub fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: cqp\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let resp = parse_response(&mut raw.as_slice()).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    Ok(resp.body_text())
}

/// What one operation did, timed in nanoseconds from the run's clock.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The operation.
    pub op: Op,
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    /// When it could first be sent: its due instant, or later if its
    /// connection was still waiting on the previous response.
    pub ready_ns: u64,
    /// When its first byte was written.
    pub sent_ns: u64,
    /// When its response was read.
    pub done_ns: u64,
    /// HTTP status; 0 for a socket-level failure.
    pub status: u16,
    /// Response body with its `latency_us` value zeroed, shared between
    /// samples whose bodies are then identical.
    pub body: Arc<Vec<u8>>,
}

impl Sample {
    /// Latency from the due instant, milliseconds, less the generator's
    /// own lateness: waiting for a busy connection (the server's doing)
    /// counts, the generator waking late does not.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns - self.generator_late_ns()) as f64 / 1e6
    }

    /// How long after the operation was ready the generator sent it.
    pub fn generator_late_ns(&self) -> u64 {
        self.sent_ns - self.ready_ns
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self.op, Op::Read(_))
    }
}

fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Zeroes the per-request `latency_us` value, the one field that makes
/// otherwise identical responses differ.
fn zero_latency(mut body: Vec<u8>) -> Vec<u8> {
    const KEY: &[u8] = b"\"latency_us\":";
    if let Some(at) = body.windows(KEY.len()).rposition(|w| w == KEY) {
        let start = at + KEY.len();
        let digits = body[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        body.splice(start..start + digits, *b"0");
    }
    body
}

/// One client's sender: its connection plus the distinct bodies seen.
struct Sender<'p> {
    conn: Conn,
    plan: &'p Plan,
    base: Instant,
    bodies: HashSet<Arc<Vec<u8>>>,
    /// When the previous response on this connection arrived.
    last_done_ns: u64,
}

impl<'p> Sender<'p> {
    fn new(addr: SocketAddr, spin: bool, plan: &'p Plan, base: Instant) -> Self {
        Sender {
            conn: Conn::new(addr, spin),
            plan,
            base,
            bodies: HashSet::new(),
            last_done_ns: 0,
        }
    }

    fn send(&mut self, op: Op, due_ns: u64) -> Sample {
        let wire = self.plan.request(&op);
        let sent_ns = ns_since(self.base);
        let (status, body) = match self.conn.roundtrip(&wire) {
            Ok(resp) => (resp.status, resp.body),
            Err(_) => (0, Vec::new()),
        };
        let done_ns = ns_since(self.base);
        let due_ns = due_ns.min(sent_ns);
        let ready_ns = due_ns.max(self.last_done_ns).min(sent_ns);
        self.last_done_ns = done_ns;
        let body = zero_latency(body);
        let body = match self.bodies.get(&body) {
            Some(seen) => Arc::clone(seen),
            None => {
                let fresh = Arc::new(body);
                self.bodies.insert(Arc::clone(&fresh));
                fresh
            }
        };
        Sample {
            op,
            due_ns,
            ready_ns,
            sent_ns,
            done_ns,
            status,
            body,
        }
    }
}

/// Runs `drive` on the load's connections at once, one thread each, and
/// returns every sample in send order.
fn on_connections<F>(
    addr: SocketAddr,
    load: Load,
    plan: &Plan,
    base: Instant,
    drive: F,
) -> Vec<Sample>
where
    F: Fn(usize, &mut Sender<'_>) -> Vec<Sample> + Sync,
{
    let mut out: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.conns)
            .map(|c| {
                let drive = &drive;
                s.spawn(move || drive(c, &mut Sender::new(addr, load.spin, plan, base)))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.sort_by_key(|s| s.sent_ns);
    out
}

/// Sends a fixed list of operations over the load's connections, client
/// `c` taking every `conns`-th operation in order.
pub fn run_fixed(
    addr: SocketAddr,
    load: Load,
    plan: &Plan,
    ops: &[Op],
    base: Instant,
) -> Vec<Sample> {
    on_connections(addr, load, plan, base, |c, sender| {
        ops.iter()
            .skip(c)
            .step_by(load.conns)
            .map(|op| sender.send(op.clone(), u64::MAX))
            .collect()
    })
}

/// Closed loop: client `c` of the load sends stream `c` of the plan back
/// to back until `window` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    load: Load,
    plan: &Plan,
    window: Duration,
    base: Instant,
) -> Vec<Sample> {
    let end_ns = ns_since(base) + window.as_nanos() as u64;
    on_connections(addr, load, plan, base, |c, sender| {
        (0..)
            .take_while(|_| ns_since(base) < end_ns)
            .map(|index| sender.send(plan.op(c as u64, index), u64::MAX))
            .collect()
    })
}

/// Open loop: operation `k` of stream 0 is due `k / rate` seconds after
/// the start, for every `k` due inside `window`; connection `c` sends
/// every `conns`-th one. Latency counts from the due instant, so a stall
/// is charged to every operation it delays.
pub fn open_loop(
    addr: SocketAddr,
    load: Load,
    plan: &Plan,
    rate: f64,
    window: Duration,
    base: Instant,
) -> Vec<Sample> {
    let start_ns = ns_since(base);
    let total = (rate * window.as_secs_f64()) as u64;
    on_connections(addr, load, plan, base, |c, sender| {
        (c as u64..total)
            .step_by(load.conns)
            .map(|k| {
                let due_ns = start_ns + (k as f64 * 1e9 / rate) as u64;
                let now = ns_since(base);
                if !load.spin && now < due_ns {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                while ns_since(base) < due_ns {
                    std::thread::yield_now();
                }
                sender.send(plan.op(0, k), due_ns)
            })
            .collect()
    })
}
