//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! just enough to drive the serve API from benches, integration tests and
//! scripted smoke jobs without external tooling.

use crate::http;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};

/// One keep-alive connection to a server.
///
/// The read half is one persistent `BufReader` for the connection's
/// lifetime: rebuilding it per request would drop any buffered
/// read-ahead bytes (desynchronizing the stream) and pay a `dup` +
/// buffer allocation on every request — this client is also the latency
/// probe for the gated serve benchmarks, where that overhead would be
/// measured as server time.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`. Nagle's algorithm is disabled: the client
    /// sends whole small requests and waits for the response, the exact
    /// pattern delayed ACKs penalize.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request (a single `write_all`) and reads the full
    /// response. Returns `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        http::write_request(&mut self.writer, method, path, body.as_bytes(), false)?;
        let resp = http::read_response(&mut self.reader)?;
        String::from_utf8(resp.body)
            .map(|b| (resp.status, b))
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))
    }
}
