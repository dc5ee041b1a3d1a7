//! Vendored `epoll` readiness layer for the event-driven connection engine.
//!
//! This is cgte-serve's one `unsafe` module — the same pattern as
//! `cgte-graph/src/mmap.rs`: the syscalls are declared directly against
//! libc (which std already links on unix), so no crate is pulled in. The
//! module only compiles on `cgte_epoll` platforms (Linux on the 64-bit
//! architectures whose flag constants are vendored below — see
//! `build.rs`); elsewhere nothing can be served and `Server::bind`
//! answers `ErrorKind::Unsupported`.
//!
//! # Safety model
//!
//! Every unsafe block is a single syscall over values we own:
//!
//! - [`Poller`] owns the epoll fd it creates and closes it on drop; `add`,
//!   `add_oneshot`, `rearm` and `delete` pass borrowed raw fds that the
//!   *caller* keeps open while it calls them. A connection socket may be
//!   closed while registered: the kernel drops the registration with the
//!   last reference to the socket, and the engine never reuses a token, so
//!   an event dequeued just before the close finds no connection under
//!   its token.
//! - [`Poller::wait`] hands the kernel a pointer + capacity into a
//!   buffer we own and trusts the returned count, exactly like `read`.
//! - The self-pipe pair ([`wake_pipe`]) owns both ends; `wake`/`drain`
//!   are plain `write`/`read` on them, and both fds are closed on drop.
//!
//! No buffer is ever handed out past its lifetime. The one epoll hazard
//! left to the caller is re-arming a fd number that was closed and reused
//! in between. The engine re-arms a connection under the same table lock
//! it parks the connection under, so no other thread can take it out
//! (and close it) before the re-arm.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Raw libc declarations. The flag values are the asm-generic ones shared
/// by x86_64 / aarch64 / riscv64 — `build.rs` gates `cgte_epoll` to
/// exactly those architectures so the constants cannot be wrong at
/// runtime.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const O_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`: packed on x86_64, naturally aligned on the
    /// other architectures — mirroring the kernel UAPI definition.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// One readiness notification: the registered token plus what fired.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data is readable (or a half-close/EOF is pending — reading
    /// distinguishes them).
    pub readable: bool,
    /// The peer hung up or the socket errored; the connection is dead.
    pub closed: bool,
}

/// A reusable buffer of kernel-filled readiness events.
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that receives at most `cap` events per [`Poller::wait`].
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; cap.max(1)],
            len: 0,
        }
    }

    /// The events filled by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) struct before testing bits.
            let bits = e.events;
            Event {
                token: e.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            }
        })
    }

    /// Number of events filled by the last [`Poller::wait`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait returned no events (i.e. it timed out).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Read interest of a level-triggered registration.
const LEVEL_READ: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;
/// Read interest of a one-shot registration.
const ONESHOT_READ: u32 = LEVEL_READ | sys::EPOLLONESHOT;

/// An owned epoll instance: read-interest registrations, level-triggered
/// or one-shot, keyed by caller-chosen `u64` tokens. Any number of
/// threads may wait on one poller at once.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall; the returned fd (checked below) is owned
        // by the Poller and closed exactly once, in Drop.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// Registers `fd` for level-triggered read readiness under `token`.
    /// The caller must keep `fd` open until [`Poller::delete`] (dropping a
    /// registered fd would let the kernel reuse its number under a stale
    /// token).
    pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, LEVEL_READ, token)
    }

    /// Registers `fd` for one-shot read readiness under `token`: the first
    /// event disarms it, so exactly one [`Poller::wait`] caller is handed
    /// the fd until [`Poller::rearm`] arms it again.
    pub fn add_oneshot(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, ONESHOT_READ, token)
    }

    /// Re-arms a one-shot registration of `fd` under `token`. Data that is
    /// already pending reports at once.
    pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, ONESHOT_READ, token)
    }

    /// One `epoll_ctl` call.
    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. `fd` is open by the callers' contract.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Removes `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on modern kernels but must
        // be non-null on pre-2.6.9.
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits forever). Sub-millisecond timeouts round up
    /// so a pending deadline can never busy-spin the loop.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis().min(i32::MAX as u128 - 1) as i32;
                ms + i32::from(d.subsec_nanos() % 1_000_000 != 0)
            }
        };
        events.len = 0;
        // SAFETY: the buffer pointer + capacity describe memory we own for
        // the duration of the call; the kernel fills at most `maxevents`
        // entries and reports how many in the return value.
        let rc = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.buf.as_mut_ptr(),
                events.buf.len() as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        events.len = rc as usize;
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own epfd and this is its single close.
        unsafe { sys::close(self.epfd) };
    }
}

/// The write end of the self-pipe: wakes a [`Poller::wait`] from any
/// thread (`Server::shutdown`).
#[derive(Debug)]
pub struct Waker {
    write_fd: RawFd,
}

// RawFd is a plain integer; writes to a pipe are atomic and thread-safe.
impl Waker {
    /// Makes the paired [`WakeReceiver`] readable. A full pipe (EAGAIN)
    /// means a wake-up is already pending, which is exactly as good.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: single write of one byte from a live stack buffer to a
        // pipe fd we own; all outcomes (short write, EAGAIN, EPIPE) are
        // acceptable, so the return value is deliberately ignored.
        unsafe { sys::write(self.write_fd, (&byte as *const u8).cast(), 1) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own the write end and this is its single close.
        unsafe { sys::close(self.write_fd) };
    }
}

/// The read end of the self-pipe, registered on the engine's poller.
#[derive(Debug)]
pub struct WakeReceiver {
    read_fd: RawFd,
}

impl WakeReceiver {
    /// The fd to register with [`Poller::add`].
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Discards every pending wake-up byte (the pipe is non-blocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read into a live stack buffer on a fd we own; the
            // pipe is O_NONBLOCK so this cannot block.
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 || (n as usize) < buf.len() {
                return;
            }
        }
    }
}

impl Drop for WakeReceiver {
    fn drop(&mut self) {
        // SAFETY: we own the read end and this is its single close.
        unsafe { sys::close(self.read_fd) };
    }
}

/// Creates the non-blocking self-pipe pair used for wake-ups.
pub fn wake_pipe() -> io::Result<(WakeReceiver, Waker)> {
    let mut fds = [0i32; 2];
    // SAFETY: pipe2 fills the two-element array we own; both fds (checked
    // below) are owned by the returned halves and closed in their Drops.
    let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_CLOEXEC | sys::O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((WakeReceiver { read_fd: fds[0] }, Waker { write_fd: fds[1] }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn wake_pipe_round_trip() {
        let (rx, waker) = wake_pipe().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(rx.fd(), 7).unwrap();
        let mut events = Events::with_capacity(8);

        // Nothing pending: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // Wakes (including coalesced ones) surface as readability.
        waker.wake();
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<_> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 7);
        assert!(ev[0].readable);

        // Drained, the pipe goes quiet again (level-triggered proof).
        rx.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn tcp_readability_and_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server_side.as_raw_fd(), 42).unwrap();
        let mut events = Events::with_capacity(8);

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<_> = events.iter().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 42);
        assert!(ev[0].readable);

        // Deregistered fds never fire again.
        poller.delete(server_side.as_raw_fd()).unwrap();
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    /// A connected (client, server side) pair, the server side
    /// non-blocking as the engine keeps it.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (client, server_side)
    }

    /// Waits up to `timeout` and returns the tokens reported.
    fn tokens(poller: &Poller, events: &mut Events, timeout: Duration) -> Vec<u64> {
        poller.wait(events, Some(timeout)).unwrap();
        events.iter().map(|e| e.token).collect()
    }

    #[test]
    fn oneshot_reports_once_and_stays_silent_while_data_is_pending() {
        let (mut client, server_side) = tcp_pair();
        let poller = Poller::new().unwrap();
        poller.add_oneshot(server_side.as_raw_fd(), 5).unwrap();
        let mut events = Events::with_capacity(8);

        client.write_all(b"ping").unwrap();
        assert_eq!(tokens(&poller, &mut events, Duration::from_secs(5)), [5]);
        // The bytes are still unread, yet the registration is disarmed —
        // and more bytes do not arm it again.
        assert!(tokens(&poller, &mut events, Duration::from_millis(20)).is_empty());
        client.write_all(b"pong").unwrap();
        assert!(tokens(&poller, &mut events, Duration::from_millis(20)).is_empty());
    }

    #[test]
    fn rearm_with_data_already_pending_reports_at_once() {
        let (mut client, server_side) = tcp_pair();
        let poller = Poller::new().unwrap();
        poller.add_oneshot(server_side.as_raw_fd(), 5).unwrap();
        let mut events = Events::with_capacity(8);
        client.write_all(b"ping").unwrap();
        assert_eq!(tokens(&poller, &mut events, Duration::from_secs(5)), [5]);

        // Re-armed under a new token over unread bytes: the very next
        // wait reports it without blocking.
        poller.rearm(server_side.as_raw_fd(), 6).unwrap();
        assert_eq!(tokens(&poller, &mut events, Duration::ZERO), [6]);
        assert!(tokens(&poller, &mut events, Duration::from_millis(20)).is_empty());
    }

    #[test]
    fn level_triggered_fd_keeps_reporting_beside_a_oneshot_one() {
        let (mut one_client, one_side) = tcp_pair();
        let (mut level_client, level_side) = tcp_pair();
        let poller = Poller::new().unwrap();
        poller.add_oneshot(one_side.as_raw_fd(), 1).unwrap();
        poller.add(level_side.as_raw_fd(), 2).unwrap();
        let mut events = Events::with_capacity(8);

        one_client.write_all(b"a").unwrap();
        level_client.write_all(b"b").unwrap();
        // Both reach the ready list; the one-shot fd reports once, the
        // level-triggered one on every wait while its byte is unread.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut seen = Vec::new();
        while seen.len() < 2 && std::time::Instant::now() < deadline {
            for t in tokens(&poller, &mut events, Duration::from_millis(100)) {
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, [1, 2]);
        for _ in 0..3 {
            assert_eq!(tokens(&poller, &mut events, Duration::from_secs(5)), [2]);
        }
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(1);
        // A 100µs timeout must not be truncated to a 0ms busy-poll.
        let started = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_micros(100)))
            .unwrap();
        assert!(started.elapsed() >= Duration::from_micros(100));
    }
}
