//! The connection engine.
//!
//! There is no loop thread and no hand-off: every worker runs the same
//! loop on one shared [`Poller`] (the Leader/Followers pattern — the
//! thread that waits on the event source also does the work). Each wait
//! takes at most one event, so no worker holds a second ready connection
//! while another sits idle.
//!
//! Connections are registered one-shot, so a ready connection goes to
//! exactly one worker. That worker takes it out of the parked table,
//! reads until the socket would block or a request is complete, routes
//! and answers every complete request in the buffer (pipelined ones
//! included), then puts the connection back in the table and re-arms it.
//! Bytes accumulate in `Conn::buf` and the connection's [`http::Parser`]
//! frames them, parsing each head once.
//!
//! The listener is level-triggered. The worker that accepts a connection
//! reads it at once, so a request sent along with the connect (a cluster
//! shard's `Connection: close` trip) is answered without a round trip
//! through the poller. The shutdown self-pipe is level-triggered too and
//! never drained: once written, it wakes every worker.
//!
//! Idle connections cost **no** thread and **no** periodic wake-up. A
//! request that starts arriving gets a deadline (408 on expiry). Only
//! connections holding a partial request are in the deadline index, so
//! the 408 bookkeeping never scans the idle ones; whichever worker next
//! returns from its wait answers what is overdue, and a worker never
//! sleeps past the nearest deadline it saw.

use crate::json::error_body;
use crate::poll::{Events, Poller, WakeReceiver};
use crate::{http, respond, OpenConnGuard, ServerState};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Token of the self-pipe read end.
pub(crate) const TOKEN_WAKE: u64 = 0;
/// Token of the listening socket.
pub(crate) const TOKEN_LISTENER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Minimum (and post-success reset) accept backoff.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Accept backoff doubles up to this cap.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Write budget of a one-line error on a connection being hung up: a peer
/// that will not even read that is simply dropped.
const ERROR_WRITE_BUDGET: Duration = Duration::from_secs(1);
/// Bytes one `read` may take off a socket.
const READ_CHUNK: usize = 16 * 1024;

/// A connection, parked in the table or held by one worker.
struct Conn {
    /// The socket, always non-blocking outside [`write_out`]'s fallback.
    stream: TcpStream,
    token: u64,
    /// Bytes received ahead of parsing; leftovers after a request are
    /// pipelined follow-ups.
    buf: Vec<u8>,
    /// Frames `buf`, caching the in-progress request's parsed head.
    parser: http::Parser,
    /// Absolute deadline for completing the in-progress request — armed
    /// when its first byte arrives, cleared once it is framed, answered
    /// with 408 on expiry. Idle (byte-less) connections never expire.
    deadline: Option<Instant>,
    /// Whether the socket is in the interest set yet (re-arm it) or not
    /// (add it).
    registered: bool,
    /// Decrements `cgte_serve_open_connections` when the connection
    /// drops, wherever that happens.
    _guard: OpenConnGuard,
}

impl Conn {
    /// Cuts one complete request off the front of the buffer. `Ok(None)`
    /// means more bytes are needed; an error is answered once and the
    /// connection hung up.
    fn try_extract(
        &mut self,
        max_body: usize,
    ) -> Result<Option<http::Request>, http::RequestError> {
        let Some((req, used)) = self.parser.next(&self.buf, max_body)? else {
            return Ok(None);
        };
        self.buf.drain(..used);
        self.deadline = None;
        Ok(Some(req))
    }
}

/// What the workers share under one lock.
#[derive(Default)]
struct Table {
    /// Parked connections by token.
    conns: HashMap<u64, Conn>,
    /// `(deadline, token)` of every parked connection holding a partial
    /// request.
    deadlines: BTreeSet<(Instant, u64)>,
    /// While `Some`, the listener is out of the interest set until the
    /// instant passes (accept-error backoff without hot-spinning a
    /// level-triggered ready listener).
    accept_resume: Option<Instant>,
}

impl Table {
    /// Takes a parked connection out of the table and its deadline index.
    fn remove(&mut self, token: u64) -> Option<Conn> {
        let conn = self.conns.remove(&token)?;
        if let Some(d) = conn.deadline {
            self.deadlines.remove(&(d, token));
        }
        Some(conn)
    }
}

/// The engine every worker runs: the shared poller (self-pipe, listener
/// and one-shot connection registrations) and the parked-connection
/// table. It drops — closing every parked connection — when the last
/// worker exits.
pub(crate) struct Engine {
    state: Arc<ServerState>,
    poller: Poller,
    listener: TcpListener,
    /// Kept open for the engine's lifetime; never read.
    _wake_rx: WakeReceiver,
    next_token: AtomicU64,
    /// The next accept-error backoff, in milliseconds.
    accept_backoff_ms: AtomicU64,
    table: Mutex<Table>,
}

impl Engine {
    /// An engine over a poller that already holds the self-pipe (token 0)
    /// and the non-blocking listener (token 1), both level-triggered.
    pub(crate) fn new(
        state: Arc<ServerState>,
        listener: TcpListener,
        poller: Poller,
        wake_rx: WakeReceiver,
    ) -> Engine {
        Engine {
            state,
            poller,
            listener,
            _wake_rx: wake_rx,
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
            accept_backoff_ms: AtomicU64::new(ACCEPT_BACKOFF_MIN.as_millis() as u64),
            table: Mutex::new(Table::default()),
        }
    }

    /// The table lock. A panic never happens while it is held (handlers
    /// run outside it), so a poisoned table is still consistent.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker's body: wait for one ready fd, take it to a written
    /// response, repeat until shutdown.
    pub(crate) fn run_worker(&self) {
        let mut events = Events::with_capacity(1);
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let timeout = self.tick(Instant::now());
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                if e.kind() == ErrorKind::Interrupted {
                    continue;
                }
                eprintln!("cgte-serve: worker poll failed: {e}");
                break;
            }
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Nothing ready means the wait timed out: the next tick
            // answers what is overdue. The self-pipe is only written on
            // shutdown, which the check above has seen.
            let Some(ev) = events.iter().next() else {
                continue;
            };
            match ev.token {
                TOKEN_WAKE => {}
                TOKEN_LISTENER => self.accept(&mut chunk),
                token => {
                    let conn = self.table().remove(token);
                    if let Some(conn) = conn {
                        if ev.readable || !ev.closed {
                            self.drive(conn, &mut chunk);
                        }
                    }
                }
            }
        }
    }

    /// Answers 408 on every overdue partial request and re-adds the
    /// listener once its backoff window has passed. Returns how long the
    /// next wait may sleep: until the nearest deadline or backoff resume,
    /// or forever.
    fn tick(&self, now: Instant) -> Option<Duration> {
        let mut expired = Vec::new();
        let next = {
            let mut table = self.table();
            while let Some(&(deadline, token)) = table.deadlines.first() {
                if deadline > now {
                    break;
                }
                table.deadlines.pop_first();
                expired.extend(table.conns.remove(&token));
            }
            if table.accept_resume.is_some_and(|resume| now >= resume) {
                table.accept_resume =
                    match self.poller.add(self.listener.as_raw_fd(), TOKEN_LISTENER) {
                        Ok(()) => None,
                        Err(_) => Some(now + self.accept_backoff()),
                    };
            }
            let first = table.deadlines.first().map(|&(d, _)| d);
            first.into_iter().chain(table.accept_resume).min()
        };
        for conn in expired {
            self.state.request_timeouts.fetch_add(1, Ordering::Relaxed);
            answer_and_drop(conn, 408, "timed out reading the request");
        }
        next.map(|t| t.saturating_duration_since(Instant::now()))
    }

    fn accept_backoff(&self) -> Duration {
        Duration::from_millis(self.accept_backoff_ms.load(Ordering::Relaxed))
    }

    /// Accepts one pending connection and reads it straight away. On a
    /// transient accept failure — classically EMFILE under fd exhaustion —
    /// the listener leaves the interest set for a doubling backoff window
    /// instead of spinning hot.
    fn accept(&self, chunk: &mut [u8]) {
        match self.listener.accept() {
            Ok((stream, _)) => {
                let min = ACCEPT_BACKOFF_MIN.as_millis() as u64;
                if self.accept_backoff_ms.load(Ordering::Relaxed) != min {
                    self.accept_backoff_ms.store(min, Ordering::Relaxed);
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    return;
                }
                let conn = Conn {
                    stream,
                    token: self.next_token.fetch_add(1, Ordering::Relaxed),
                    buf: Vec::new(),
                    parser: http::Parser::default(),
                    deadline: None,
                    registered: false,
                    _guard: OpenConnGuard::new(&self.state),
                };
                self.drive(conn, chunk);
            }
            // Another worker took it, or a signal: the level-triggered
            // listener reports again while anything is pending.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => {
                self.state.accept_errors.fetch_add(1, Ordering::Relaxed);
                let mut table = self.table();
                let _ = self.poller.delete(self.listener.as_raw_fd());
                let backoff = self.accept_backoff();
                table.accept_resume = Some(Instant::now() + backoff);
                let next = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                self.accept_backoff_ms
                    .store(next.as_millis() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Takes a connection this worker holds from readiness to written
    /// responses: reads until the socket would block or a request is
    /// complete, answers every complete request in the buffer, then parks
    /// it. EOF, a transport error, a failed write or a `Connection: close`
    /// request drops it; a framing error is answered once and hangs up.
    fn drive(&self, mut conn: Conn, chunk: &mut [u8]) {
        let mut served = false;
        loop {
            match conn.try_extract(self.state.max_body) {
                Ok(Some(req)) => {
                    if !self.answer(&mut conn, &req) {
                        return;
                    }
                    served = true;
                    continue;
                }
                Err(e) => return answer_and_drop(conn, e.status(), &e.to_string()),
                // Answered what was buffered: whatever arrives next wakes
                // the re-armed registration.
                Ok(None) if served => break,
                Ok(None) => {}
            }
            match conn.stream.read(chunk) {
                Ok(0) => return, // EOF
                Ok(n) => {
                    if conn.buf.is_empty() {
                        // First byte of a request: arm the deadline.
                        conn.deadline = Some(Instant::now() + self.state.request_timeout);
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
        self.park(conn);
    }

    /// Routes one request and writes its response. `true` keeps the
    /// connection.
    fn answer(&self, conn: &mut Conn, req: &http::Request) -> bool {
        let resp = respond(&self.state, req);
        let bytes = http::response_bytes(&resp, req.keep_alive);
        write_out(&conn.stream, &bytes, self.state.request_timeout).is_ok()
            && req.keep_alive
            && !self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Puts a connection this worker holds back in the table, then arms
    /// its registration. The insert comes first, so a worker handed the
    /// token finds the connection; both run under the table lock, so a
    /// 408 expiry, which closes the socket, cannot come between them and
    /// let a reused fd number be armed under this token.
    fn park(&self, mut conn: Conn) {
        if self.state.shutdown.load(Ordering::SeqCst) {
            return; // drops the connection
        }
        if !conn.buf.is_empty() && conn.deadline.is_none() {
            // A partial pipelined request behind an answered one.
            conn.deadline = Some(Instant::now() + self.state.request_timeout);
        }
        let (fd, token, registered) = (conn.stream.as_raw_fd(), conn.token, conn.registered);
        conn.registered = true;
        let mut table = self.table();
        if let Some(d) = conn.deadline {
            table.deadlines.insert((d, token));
        }
        table.conns.insert(token, conn);
        let armed = if registered {
            self.poller.rearm(fd, token)
        } else {
            self.poller.add_oneshot(fd, token)
        };
        if armed.is_err() {
            table.remove(token); // drops the connection
        }
    }
}

/// Writes `bytes` to a non-blocking socket. What the send buffer takes at
/// once goes without a mode switch. Only when it fills (a large snapshot
/// download) does the rest go through a blocking `write_all`, each send
/// bounded by `budget`, after which the socket is non-blocking again.
fn write_out(mut stream: &TcpStream, bytes: &[u8], budget: Duration) -> io::Result<()> {
    let mut rest = bytes;
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stream.set_nonblocking(false)?;
                stream.set_write_timeout(Some(budget))?;
                let written = stream.write_all(rest);
                stream.set_nonblocking(true)?;
                return written;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Answers a terse error on a connection being hung up.
fn answer_and_drop(conn: Conn, status: u16, msg: &str) {
    let resp = http::Response {
        status,
        content_type: "application/json",
        headers: Vec::new(),
        body: error_body(msg).into_bytes(),
    };
    let _ = write_out(
        &conn.stream,
        &http::response_bytes(&resp, false),
        ERROR_WRITE_BUDGET,
    );
}
