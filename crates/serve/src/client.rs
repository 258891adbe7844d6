//! A retrying client for the `dap serve` protocol.
//!
//! The client is the other half of the server's robustness story:
//!
//! * Every request carries a monotone **sequence number**, and the
//!   server caches the last answered (seq, response) per client id — so
//!   a retry after a lost ack re-submits the *same* seq and converges on
//!   the original answer instead of double-applying.
//! * `overloaded` responses back off exponentially and resend the same
//!   seq — shed work is retried, never silently dropped.
//! * I/O errors reconnect and resend the same seq: a mid-commit
//!   disconnect is indistinguishable from a lost ack and the dedup cache
//!   (or WAL replay, across a crash) resolves it either way.
//! * A definitive `err` response is returned as-is — errors are answers,
//!   not transport faults, and are never retried.
//!
//! Asynchronous subscription [`Response::Event`] frames can interleave
//! with replies on the wire; the client collects them to the side
//! ([`Client::take_events`]) while matching replies by seq.

use crate::protocol::{encode_wire_frame, Command, FrameReader, Request, Response, MAX_FRAME};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client tuning knobs.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Client identity for the server's idempotency cache. Must be
    /// stable across reconnects of the *same logical client*.
    pub client_id: String,
    /// Attempts per request before giving up (connect + send + await).
    pub max_attempts: u32,
    /// Base of the exponential backoff between attempts.
    pub backoff: Duration,
    /// How long to wait for the reply to one request attempt.
    pub reply_timeout: Duration,
}

impl ClientOptions {
    /// Defaults for the given client identity.
    pub fn new(client_id: impl Into<String>) -> ClientOptions {
        ClientOptions {
            client_id: client_id.into(),
            max_attempts: 8,
            backoff: Duration::from_millis(10),
            reply_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a request ultimately failed (after retries).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed and every reconnect attempt failed too.
    Io(std::io::Error),
    /// The server answered with bytes that do not decode.
    Protocol(String),
    /// Attempts exhausted without a definitive reply (persistent
    /// overload or a server that never answers).
    RetriesExhausted,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection to a `dap serve` instance. See the module docs for the
/// retry semantics.
pub struct Client {
    addr: SocketAddr,
    opts: ClientOptions,
    conn: Option<Conn>,
    next_seq: u64,
    events: Vec<String>,
}

struct Conn {
    stream: TcpStream,
    frames: FrameReader,
}

impl Client {
    /// Create a client for `addr`. Connection is lazy — the first
    /// request dials.
    pub fn new(addr: SocketAddr, opts: ClientOptions) -> Client {
        Client {
            addr,
            opts,
            conn: None,
            next_seq: 1,
            events: Vec::new(),
        }
    }

    /// Shorthand: `new` with default options for `client_id`.
    pub fn connect(addr: SocketAddr, client_id: impl Into<String>) -> Client {
        Client::new(addr, ClientOptions::new(client_id))
    }

    /// Subscription events collected while awaiting replies (drained).
    pub fn take_events(&mut self) -> Vec<String> {
        std::mem::take(&mut self.events)
    }

    /// Wait up to `timeout` for one asynchronous event frame, polling
    /// the connection. Returns `None` on timeout or a dead connection.
    pub fn wait_event(&mut self, timeout: Duration) -> Option<String> {
        if let Some(ev) = self.pop_event() {
            return Some(ev);
        }
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.conn.is_none() && self.dial().is_err() {
                return None;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.read_one_response(remaining) {
                Ok(Some(Response::Event { body })) => return Some(body),
                Ok(Some(_)) | Ok(None) => {}
                Err(_) => return None,
            }
            if let Some(ev) = self.pop_event() {
                return Some(ev);
            }
        }
        None
    }

    fn pop_event(&mut self) -> Option<String> {
        if self.events.is_empty() {
            None
        } else {
            Some(self.events.remove(0))
        }
    }

    /// Issue one command with retry/backoff and idempotent
    /// re-submission. Returns the definitive response (`Ok` or `Err`
    /// from the server); transport-level failure only after every
    /// attempt is burned.
    pub fn request(&mut self, cmd: Command) -> Result<Response, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let req = Request {
            client: self.opts.client_id.clone(),
            seq,
            cmd,
        };
        let frame = encode_wire_frame(&req.encode());
        let mut last_io: Option<std::io::Error> = None;
        for attempt in 0..self.opts.max_attempts {
            if attempt > 0 {
                // Exponential backoff, capped so chaos tests stay quick.
                let exp = attempt.min(6);
                std::thread::sleep(self.opts.backoff * 2u32.pow(exp));
            }
            if self.conn.is_none() {
                match self.dial() {
                    Ok(()) => {}
                    Err(e) => {
                        last_io = Some(e);
                        continue;
                    }
                }
            }
            if let Err(e) = self.send_bytes(&frame) {
                last_io = Some(e);
                self.conn = None;
                continue;
            }
            match self.await_reply(seq) {
                Ok(Some(Response::Overloaded { .. })) => continue, // back off, same seq
                Ok(Some(resp)) => return Ok(resp),
                Ok(None) => continue, // reply deadline passed: resend same seq
                Err(AwaitError::Io(e)) => {
                    last_io = Some(e);
                    self.conn = None;
                    continue;
                }
                Err(AwaitError::Protocol(msg)) => return Err(ClientError::Protocol(msg)),
            }
        }
        match last_io {
            Some(e) => Err(ClientError::Io(e)),
            None => Err(ClientError::RetriesExhausted),
        }
    }

    fn dial(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        self.conn = Some(Conn {
            stream,
            frames: FrameReader::new(MAX_FRAME),
        });
        Ok(())
    }

    fn send_bytes(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let conn = self.conn.as_mut().expect("send_bytes without connection");
        conn.stream.write_all(frame)
    }

    /// Read frames until the reply for `seq` arrives, the deadline
    /// passes (`Ok(None)`), or the transport fails. Events and stale
    /// replies (earlier seqs re-delivered after a reconnect) are
    /// absorbed along the way.
    fn await_reply(&mut self, seq: u64) -> Result<Option<Response>, AwaitError> {
        let deadline = Instant::now() + self.opts.reply_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            match self.read_one_response(remaining) {
                Ok(Some(resp)) => match resp {
                    Response::Event { body } => self.events.push(body),
                    resp if resp.seq() == seq => return Ok(Some(resp)),
                    _ => {} // stale reply from a previous attempt
                },
                Ok(None) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    /// Pull one decoded response off the wire, waiting at most
    /// `timeout`. `Ok(None)` means the deadline passed with no complete
    /// frame.
    fn read_one_response(&mut self, timeout: Duration) -> Result<Option<Response>, AwaitError> {
        let conn = self.conn.as_mut().expect("read without connection");
        conn.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(AwaitError::Io)?;
        loop {
            match conn.frames.next_frame() {
                Ok(Some(payload)) => {
                    let resp = Response::decode(&payload).map_err(AwaitError::Protocol)?;
                    return Ok(Some(resp));
                }
                Ok(None) => {}
                Err(msg) => return Err(AwaitError::Protocol(msg)),
            }
            let mut buf = [0u8; 4096];
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(AwaitError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => conn.frames.push(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                // Interrupted by a signal, not a transport failure.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(AwaitError::Io(e)),
            }
        }
    }

    // ---- convenience verbs -------------------------------------------

    /// `ping`: liveness + the server's counter line.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.request(Command::Ping)
    }

    /// `register <query>`.
    pub fn register(&mut self, q: &dap_relalg::Query) -> Result<Response, ClientError> {
        self.request(Command::Register(q.clone()))
    }

    /// `unregister q<k>`.
    pub fn unregister(&mut self, id: dap_relalg::QueryId) -> Result<Response, ClientError> {
        self.request(Command::Unregister(id))
    }

    /// `subscribe q<k>`: each later commit that changes the query's view
    /// flows to this connection as an event frame.
    pub fn subscribe(&mut self, id: dap_relalg::QueryId) -> Result<Response, ClientError> {
        self.request(Command::Subscribe(id))
    }

    /// `delete-source t1,t2,...`.
    pub fn delete_source(&mut self, tids: &[dap_relalg::Tid]) -> Result<Response, ClientError> {
        self.request(Command::DeleteSource(tids.to_vec()))
    }

    /// `solve q<k> view|source <tuple>`.
    pub fn solve(
        &mut self,
        id: dap_relalg::QueryId,
        objective: crate::protocol::SolveObjective,
        target: dap_relalg::Tuple,
    ) -> Result<Response, ClientError> {
        self.request(Command::Solve {
            id,
            objective,
            target,
        })
    }

    /// `shutdown`: ask the server to drain, flush, snapshot, and exit.
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(Command::Shutdown)
    }
}

enum AwaitError {
    Io(std::io::Error),
    Protocol(String),
}
