//! The connection engine.
//!
//! One event-loop thread owns the listener, the self-pipe, and every idle
//! or partially-read connection, all in non-blocking mode on a vendored
//! [`crate::poll::Poller`]. Each connection steps through a small state
//! machine — reading-headers → reading-body → dispatched → writing — where
//! the first two states live here (bytes accumulate in `Conn::buf` and
//! the connection's [`http::Parser`] frames them, parsing each head once)
//! and the last two live on a worker: the parsed request is checked out
//! to the crossbeam pool as a [`Job`], the worker routes it and writes
//! the response, and a keep-alive connection parks back here over the
//! return channel (paired with a self-pipe wake-up).
//!
//! Idle connections therefore cost **no** thread and **no** periodic
//! wake-up: readiness is level-triggered, and shutdown is a self-pipe
//! wake.

use crate::json::error_body;
use crate::poll::{Events, Poller, WakeReceiver};
use crate::{http, OpenConnGuard, ServerState};
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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

/// A connection owned by the event loop (or checked out to a worker).
pub(crate) struct Conn {
    /// The socket, kept non-blocking while parked on the poller.
    pub(crate) stream: TcpStream,
    token: u64,
    /// Bytes received ahead of parsing; leftovers after a dispatch are
    /// pipelined follow-up requests.
    buf: Vec<u8>,
    /// Frames `buf`, caching the in-progress request's parsed head.
    parser: http::Parser,
    /// Absolute deadline for completing the in-progress request — armed
    /// when its first byte arrives, cleared on dispatch, answered with
    /// 408 on expiry. Idle (byte-less) connections never expire here.
    deadline: Option<Instant>,
    /// Decrements `cgte_serve_open_connections` when the connection
    /// drops, wherever that happens (loop, worker, or teardown).
    _guard: OpenConnGuard,
}

/// One parsed request checked out to the worker pool, with the
/// connection it arrived on.
pub(crate) struct Job {
    pub(crate) conn: Conn,
    pub(crate) req: http::Request,
}

impl Conn {
    /// Cuts one complete request off the front of the buffer. `Ok(None)`
    /// means stay parked; an error is answered once and the connection
    /// hung up.
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

/// Answers a terse error on a connection being hung up. The write gets a
/// bounded blocking budget; a peer that will not even read a one-line
/// error is simply dropped.
fn answer_and_drop(mut conn: Conn, status: u16, msg: &str) {
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = http::write_json_response(&mut conn.stream, status, &error_body(msg), false);
}

struct Engine {
    state: Arc<ServerState>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    dispatch_tx: Sender<Job>,
    accept_backoff: Duration,
    /// While `Some`, the listener is out of the interest set until the
    /// instant passes (accept-error backoff without hot-spinning a
    /// level-triggered ready listener).
    accept_resume: Option<Instant>,
}

impl Engine {
    /// Parks a connection on the poller — unless its buffer already holds
    /// a complete pipelined request (dispatch immediately) or a protocol
    /// violation (answer and close).
    fn park(&mut self, mut conn: Conn) {
        if self.state.shutdown.load(Ordering::SeqCst) {
            return; // drops the connection
        }
        match conn.try_extract(self.state.max_body) {
            Ok(Some(req)) => {
                let _ = self.dispatch_tx.send(Job { conn, req });
            }
            Err(e) => answer_and_drop(conn, e.status(), &e.to_string()),
            Ok(None) => {
                if !conn.buf.is_empty() && conn.deadline.is_none() {
                    conn.deadline = Some(Instant::now() + self.state.request_timeout);
                }
                if self.poller.add(conn.stream.as_raw_fd(), conn.token).is_ok() {
                    self.conns.insert(conn.token, conn);
                }
                // A failed registration drops the connection.
            }
        }
    }

    /// Takes a connection off the poller and out of the table.
    fn unregister(&mut self, token: u64) -> Option<Conn> {
        let conn = self.conns.remove(&token)?;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        Some(conn)
    }

    /// Drains a readable connection and advances its state machine: a
    /// complete request is dispatched, a framing error answered and the
    /// connection closed, EOF or a transport error closes it silently.
    fn handle_readable(&mut self, token: u64) {
        let max_body = self.state.max_body;
        let request_timeout = self.state.request_timeout;
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break Err(None), // EOF
                    Ok(n) => {
                        if conn.buf.is_empty() {
                            // First byte of a request: arm the deadline.
                            conn.deadline = Some(Instant::now() + request_timeout);
                        }
                        conn.buf.extend_from_slice(&chunk[..n]);
                        match conn.try_extract(max_body) {
                            Ok(None) => continue,
                            Ok(Some(req)) => break Ok(req),
                            Err(e) => break Err(Some(e)),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return, // stays parked
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break Err(None),
                }
            }
        };
        let Some(conn) = self.unregister(token) else {
            return;
        };
        match outcome {
            Ok(req) => {
                // If the workers are gone (teardown) the connection drops.
                let _ = self.dispatch_tx.send(Job { conn, req });
            }
            Err(Some(e)) => answer_and_drop(conn, e.status(), &e.to_string()),
            Err(None) => {}
        }
    }

    /// Accepts every pending connection (the listener is level-triggered
    /// and non-blocking). On a transient accept failure — classically
    /// EMFILE under fd exhaustion — the listener leaves the interest set
    /// for a doubling backoff window instead of spinning hot.
    fn do_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _guard = OpenConnGuard::new(&self.state);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.park(Conn {
                        stream,
                        token,
                        buf: Vec::new(),
                        parser: http::Parser::default(),
                        deadline: None,
                        _guard,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = self.poller.delete(self.listener.as_raw_fd());
                    self.accept_resume = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    return;
                }
            }
        }
    }

    /// Re-arms the listener once its backoff window has passed.
    fn maybe_resume_listener(&mut self, now: Instant) {
        if let Some(resume) = self.accept_resume {
            if now >= resume {
                if self
                    .poller
                    .add(self.listener.as_raw_fd(), TOKEN_LISTENER)
                    .is_ok()
                {
                    self.accept_resume = None;
                } else {
                    self.accept_resume = Some(now + self.accept_backoff);
                }
            }
        }
    }

    /// Answers 408 on every connection whose request deadline has passed
    /// (the event-loop half of the slowloris fix).
    fn expire(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.state.request_timeouts.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.unregister(token) {
                answer_and_drop(conn, 408, "timed out reading the request");
            }
        }
    }

    /// The nearest instant anything timed is due: a request deadline or
    /// the listener's backoff resume. `None` sleeps until the next event.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = self.accept_resume;
        for conn in self.conns.values() {
            if let Some(d) = conn.deadline {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        next.map(|t| t.saturating_duration_since(now))
    }
}

/// The event-loop thread body. The poller arrives with the self-pipe
/// (token 0) and the non-blocking listener (token 1) already registered;
/// dropping `dispatch_tx` on exit disconnects the channel and drains the
/// worker pool.
pub(crate) fn run(
    state: Arc<ServerState>,
    listener: TcpListener,
    poller: Poller,
    wake_rx: WakeReceiver,
    dispatch_tx: Sender<Job>,
    ret_rx: Receiver<Conn>,
) {
    let mut engine = Engine {
        state,
        poller,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        dispatch_tx,
        accept_backoff: ACCEPT_BACKOFF_MIN,
        accept_resume: None,
    };
    let mut events = Events::with_capacity(1024);
    let mut ready: Vec<(u64, bool)> = Vec::new();
    loop {
        let now = Instant::now();
        engine.maybe_resume_listener(now);
        let timeout = engine.next_timeout(now);
        if let Err(e) = engine.poller.wait(&mut events, timeout) {
            if e.kind() == ErrorKind::Interrupted {
                continue;
            }
            eprintln!("cgte-serve: event loop poll failed: {e}");
            break;
        }
        let mut accept_ready = false;
        ready.clear();
        for ev in events.iter() {
            match ev.token {
                TOKEN_WAKE => wake_rx.drain(),
                TOKEN_LISTENER => accept_ready = true,
                token => ready.push((token, ev.closed && !ev.readable)),
            }
        }
        if engine.state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Workers hand finished keep-alive connections back over the
        // return channel (each send paired with a self-pipe wake).
        while let Ok(conn) = ret_rx.try_recv() {
            engine.park(conn);
        }
        for &(token, dead) in &ready {
            if dead {
                engine.unregister(token);
            } else {
                engine.handle_readable(token);
            }
        }
        if accept_ready {
            engine.do_accept();
        }
        engine.expire(Instant::now());
    }
    // Teardown: parked connections drop here (decrementing the gauge via
    // their guards); dropping `dispatch_tx` drains and stops the workers.
}
