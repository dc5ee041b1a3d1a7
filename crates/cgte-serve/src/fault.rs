//! Deterministic fault injection for the cluster transport.
//!
//! [`FaultProxy`] is a TCP proxy that sits between a [`RetryClient`] and a
//! real `cgte-serve` shard and misbehaves **on schedule**: the n-th request
//! through the proxy (a global counter across connections) gets the action
//! the [`FaultPlan`] assigns to index n. Plans are either an explicit
//! script (tests pinning "request 3 stalls, request 4 dies mid-body") or
//! seeded pseudo-random (soak tests reproduce a failure sequence from one
//! `u64`). Nothing here is wall-clock- or thread-schedule-dependent except
//! the stall durations themselves.
//!
//! [`RetryClient`]: crate::cluster::RetryClient

use crate::http;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the proxy does to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward the request and relay the full response.
    Pass,
    /// Close the connection before reading a byte (the client sees a
    /// reset/EOF, like a refused or dead endpoint).
    Refuse,
    /// Forward the request, then relay only half the response body and
    /// close — the classic mid-body disconnect.
    MidBodyDisconnect,
    /// Read the request, then hold the connection silent for this many
    /// milliseconds without responding (slow-loris; the client's read
    /// timeout is expected to fire first), then close.
    Stall(u64),
    /// Answer `500 Internal Server Error` without contacting the shard.
    ServerError,
}

/// A deterministic map from global request index to [`FaultAction`].
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Explicit per-index actions; requests past the end pass through.
    Script(Vec<FaultAction>),
    /// Seeded pseudo-random faults: roughly `fault_percent`% of requests
    /// draw one of the four fault kinds, the rest pass. The mapping is a
    /// pure hash of `(seed, index)` — the same seed always yields the
    /// same schedule regardless of timing or connection interleaving.
    Seeded {
        /// Schedule seed.
        seed: u64,
        /// Percentage of requests to fault (0–100).
        fault_percent: u8,
    },
    /// A runtime on/off switch: requests pass while the gate is `true`
    /// and answer `500` (without touching the upstream) while it is
    /// `false`. Tests flip the gate mid-run to take a shard down and
    /// bring it *back* — something a scripted index plan cannot express
    /// because the outage must span an unknown number of requests.
    Gated(Arc<AtomicBool>),
}

/// SplitMix64 finalizer — a stateless, well-mixed `u64 -> u64` (shared
/// with the cluster's seed derivation).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The action for the `index`-th request through the proxy.
    pub fn action(&self, index: usize) -> FaultAction {
        match self {
            FaultPlan::Script(script) => script.get(index).copied().unwrap_or(FaultAction::Pass),
            FaultPlan::Seeded {
                seed,
                fault_percent,
            } => {
                let h = mix64(seed ^ mix64(index as u64));
                if (h % 100) as u8 >= *fault_percent {
                    return FaultAction::Pass;
                }
                match (h >> 7) % 4 {
                    0 => FaultAction::Refuse,
                    1 => FaultAction::MidBodyDisconnect,
                    2 => FaultAction::Stall(500),
                    _ => FaultAction::ServerError,
                }
            }
            FaultPlan::Gated(up) => {
                if up.load(Ordering::SeqCst) {
                    FaultAction::Pass
                } else {
                    FaultAction::ServerError
                }
            }
        }
    }
}

/// A fault-injecting proxy in front of one upstream shard.
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicUsize>,
    log: Arc<Mutex<Vec<(usize, String)>>>,
    accept: std::thread::JoinHandle<()>,
}

impl FaultProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`
    /// under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicUsize::new(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let requests = Arc::clone(&requests);
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let plan = plan.clone();
                    let requests = Arc::clone(&requests);
                    let log = Arc::clone(&log);
                    // Connection handlers are detached: they hold no
                    // resources past their sockets, and a stalled one dies
                    // with its peer.
                    std::thread::spawn(move || {
                        proxy_connection(stream, upstream, &plan, &requests, &log);
                    });
                }
            })
        };
        Ok(FaultProxy {
            addr,
            shutdown,
            requests,
            log,
            accept,
        })
    }

    /// The proxy's listening address (point the client here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests seen so far (the next request gets index
    /// `requests_seen()` in the plan).
    pub fn requests_seen(&self) -> usize {
        self.requests.load(Ordering::SeqCst)
    }

    /// Every request seen so far as `"METHOD /path"`, ordered by claimed
    /// request index (refused connections log as `"(refused)"` — the
    /// proxy acts before reading a byte, so there is no path to record).
    pub fn request_log(&self) -> Vec<String> {
        let mut entries = self.log.lock().expect("proxy log poisoned").clone();
        entries.sort_by_key(|(i, _)| *i);
        entries.into_iter().map(|(_, line)| line).collect()
    }

    /// Stops accepting and joins the accept loop.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    plan: &FaultPlan,
    requests: &AtomicUsize,
    log: &Mutex<Vec<(usize, String)>>,
) {
    let _ = client.set_nodelay(true);
    let Ok(mut client_writer) = client.try_clone() else {
        return;
    };
    let mut client_reader = BufReader::new(client);
    loop {
        // Claim this request's index *before* reading it, so Refuse can
        // act without consuming bytes.
        let index = requests.fetch_add(1, Ordering::SeqCst);
        let action = plan.action(index);
        if action == FaultAction::Refuse {
            log.lock()
                .expect("proxy log poisoned")
                .push((index, "(refused)".to_string()));
            let _ = client_reader.get_ref().shutdown(Shutdown::Both);
            return;
        }
        let req = match http::read_request(&mut client_reader) {
            Ok(Some(r)) => r,
            // Clean EOF: the index claimed above was never a request.
            // Scripted tests use one request per connection, where the
            // indices stay aligned; Seeded plans don't care.
            _ => return,
        };
        log.lock()
            .expect("proxy log poisoned")
            .push((index, format!("{} {}", req.method, req.path)));
        match action {
            FaultAction::Refuse => unreachable!("handled before the read"),
            FaultAction::Stall(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                let _ = client_reader.get_ref().shutdown(Shutdown::Both);
                return;
            }
            FaultAction::ServerError => {
                let body = "{\"error\":\"injected fault\"}";
                let _ = http::write_json_response(&mut client_writer, 500, body, false);
                return;
            }
            FaultAction::Pass | FaultAction::MidBodyDisconnect => {
                let Ok(resp) = forward(upstream, &req) else {
                    let _ = client_reader.get_ref().shutdown(Shutdown::Both);
                    return;
                };
                let truncate = action == FaultAction::MidBodyDisconnect;
                let sent = relay(&mut client_writer, &resp, truncate);
                if truncate || sent.is_err() {
                    let _ = client_reader.get_ref().shutdown(Shutdown::Both);
                    return;
                }
                if !req.keep_alive {
                    return;
                }
            }
        }
    }
}

/// Replays a parsed request against the upstream on a fresh connection
/// and reads the full response.
fn forward(upstream: SocketAddr, req: &http::Request) -> std::io::Result<http::ParsedResponse> {
    let stream = TcpStream::connect(upstream)?;
    let _ = stream.set_nodelay(true);
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(k);
        if !v.is_empty() {
            target.push('=');
            target.push_str(v);
        }
    }
    http::write_request(&mut &stream, &req.method, &target, &req.body, true)?;
    http::read_response(&mut BufReader::new(stream))
}

/// Writes the upstream's response back to the client; with `truncate`,
/// sends the head but only half the body (a believable partial write).
fn relay<W: Write>(w: &mut W, resp: &http::ParsedResponse, truncate: bool) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} X\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        resp.status,
        if resp.content_type.is_empty() {
            "application/octet-stream"
        } else {
            &resp.content_type
        },
        resp.body.len()
    );
    w.write_all(head.as_bytes())?;
    let cut = if truncate {
        resp.body.len() / 2
    } else {
        resp.body.len()
    };
    w.write_all(&resp.body[..cut])?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic_and_calibrated() {
        let plan = FaultPlan::Seeded {
            seed: 7,
            fault_percent: 30,
        };
        let again = FaultPlan::Seeded {
            seed: 7,
            fault_percent: 30,
        };
        let faults = (0..1000)
            .filter(|&i| {
                assert_eq!(plan.action(i), again.action(i));
                plan.action(i) != FaultAction::Pass
            })
            .count();
        // ~300 expected; wide tolerance keeps this timing-free and stable.
        assert!((200..400).contains(&faults), "{faults} faults in 1000");
        let other = FaultPlan::Seeded {
            seed: 8,
            fault_percent: 30,
        };
        assert!((0..1000).any(|i| plan.action(i) != other.action(i)));
    }

    #[test]
    fn script_plan_passes_past_the_end() {
        let plan = FaultPlan::Script(vec![FaultAction::Refuse, FaultAction::Stall(10)]);
        assert_eq!(plan.action(0), FaultAction::Refuse);
        assert_eq!(plan.action(1), FaultAction::Stall(10));
        assert_eq!(plan.action(2), FaultAction::Pass);
    }
}
