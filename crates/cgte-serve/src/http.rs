//! A deliberately small HTTP/1.1 subset over `std::net`: request-line +
//! headers + `Content-Length` bodies, keep-alive by default, JSON
//! responses. No chunked encoding (a `Transfer-Encoding` request is
//! refused), no TLS, no percent-decoding — the API uses only simple paths
//! and JSON bodies, and the build environment is dependency-free by
//! constraint. One incremental [`Parser`] frames every request, whether
//! the event loop or a blocking reader ([`read_request`]) drives it.

use std::io::{self, BufRead, Write};

/// Largest accepted request body (a batch of a few million node ids).
pub const MAX_BODY: usize = 64 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path without the query string, e.g. `/sessions/s0/estimate`.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Request heads larger than this answer 400 — no legitimate client of
/// the JSON API sends a megabyte of request headers.
const MAX_HEAD: usize = 1 << 20;

/// Why a request could not be framed — 413 for an over-limit body, 400
/// for everything else. Either way the connection is answered once and
/// closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The advertised `Content-Length` exceeds the configured cap.
    TooLarge {
        /// The advertised body length.
        length: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// Malformed framing: bad request line, protocol or header, an
    /// unsupported `Transfer-Encoding`, conflicting `Content-Length`s, or
    /// an oversized head.
    Malformed(String),
}

impl RequestError {
    /// The HTTP status this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::TooLarge { .. } => 413,
            RequestError::Malformed(_) => 400,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge { length, max } => {
                write!(f, "request body of {length} bytes exceeds the {max} limit")
            }
            RequestError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

/// The parsed head of one request.
#[derive(Debug)]
struct Head {
    method: String,
    /// Path plus optional query string.
    target: String,
    keep_alive: bool,
    /// 0 without a `Content-Length`.
    content_length: usize,
    /// Head length in bytes, blank line included: the body starts here.
    len: usize,
}

/// Incremental request framer over a connection's receive buffer: each
/// head is parsed exactly once, and the blank-line search resumes where
/// the previous call stopped, so a head trickling in byte by byte costs
/// linear time.
#[derive(Debug, Default)]
pub struct Parser {
    /// No head end starts before this offset of the buffer.
    scanned: usize,
    /// The in-progress request's head, once it has arrived.
    head: Option<Head>,
}

impl Parser {
    /// Frames one request at the front of `buf`. `Ok(None)` means more
    /// bytes are needed; `Ok(Some((req, n)))` means the request used
    /// `buf[..n]` (the caller drains it — the rest is pipelined). A body
    /// over `max_body` (clamped to [`MAX_BODY`]) is refused as soon as the
    /// head arrives, before any of it is buffered.
    pub fn next(
        &mut self,
        buf: &[u8],
        max_body: usize,
    ) -> Result<Option<(Request, usize)>, RequestError> {
        let head = match self.head {
            Some(ref head) => head,
            None => {
                let Some(end) = self.head_end(buf) else {
                    if buf.len() > MAX_HEAD {
                        return Err(RequestError::Malformed("request head too large".into()));
                    }
                    return Ok(None);
                };
                self.head.insert(parse_head(&buf[..end], max_body)?)
            }
        };
        let total = head.len + head.content_length;
        if buf.len() < total {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        self.scanned = 0;
        let (path, query) = match head.target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (head.target, Vec::new()),
        };
        let req = Request {
            method: head.method,
            path,
            query,
            body: buf[head.len..total].to_vec(),
            keep_alive: head.keep_alive,
        };
        Ok(Some((req, total)))
    }

    /// Bytes the in-progress request still needs once its head is
    /// parsed, given `buffered` bytes so far.
    fn remaining(&self, buffered: usize) -> Option<usize> {
        let head = self.head.as_ref()?;
        Some((head.len + head.content_length).saturating_sub(buffered))
    }

    /// One past the blank line ending the head (`\n\n` or `\n\r\n`), if it
    /// has arrived. A newline too close to the end to decide is rescanned
    /// next time; everything before it never is.
    fn head_end(&mut self, buf: &[u8]) -> Option<usize> {
        while let Some(off) = buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let nl = self.scanned + off;
            match (buf.get(nl + 1), buf.get(nl + 2)) {
                (Some(b'\n'), _) => return Some(nl + 2),
                (Some(b'\r'), Some(b'\n')) => return Some(nl + 3),
                (None, _) | (Some(b'\r'), None) => {
                    self.scanned = nl;
                    return None;
                }
                _ => self.scanned = nl + 1,
            }
        }
        self.scanned = buf.len();
        None
    }
}

/// Parses a complete head (blank line included), line by line. The first
/// malformed line decides the 400, except that an over-limit
/// `Content-Length` anywhere in the head answers 413 first: the body
/// limit is a framing decision, taken before the head is read for
/// meaning. `Transfer-Encoding` and differing duplicate `Content-Length`
/// values are refused (RFC 9112 §6.3) — framing either would let one
/// request be read as two.
fn parse_head(head: &[u8], max_body: usize) -> Result<Head, RequestError> {
    const NOT_UTF8: &str = "stream did not contain valid UTF-8";
    let mut lines = head
        .split(|&b| b == b'\n')
        .map(|l| std::str::from_utf8(l).map(str::trim_end));
    let mut error: Option<String> = None;
    let (mut method, mut target, mut keep_alive) = (String::new(), String::new(), false);
    match lines.next() {
        Some(Ok(line)) => {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => {
                    method = m.to_string();
                    target = t.to_string();
                    // HTTP/1.1 defaults to keep-alive; `Connection: close`
                    // opts out.
                    keep_alive = v == "HTTP/1.1";
                }
                (Some(_), Some(_), Some(v)) => error = Some(format!("unsupported protocol {v:?}")),
                _ => error = Some(format!("malformed request line {line:?}")),
            }
        }
        _ => error = Some(NOT_UTF8.into()),
    }
    // `length` is the last Content-Length line (`None` if unparsable),
    // `first` the first parsable one.
    let (mut length, mut first) = (None::<usize>, None::<usize>);
    let mut conflicting = false;
    for line in lines {
        let Ok(line) = line else {
            error.get_or_insert_with(|| NOT_UTF8.into());
            continue;
        };
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok();
            match (length, first) {
                (None, _) => {
                    error.get_or_insert_with(|| format!("bad Content-Length {value:?}"));
                }
                (Some(n), None) => first = Some(n),
                (Some(n), Some(f)) if n != f => {
                    conflicting = true;
                    error.get_or_insert_with(|| {
                        format!("conflicting Content-Length values {f} and {n}")
                    });
                }
                _ => {}
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            error.get_or_insert_with(|| {
                "Transfer-Encoding is not supported; send a Content-Length body".into()
            });
        } else if name.eq_ignore_ascii_case("connection") {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                keep_alive = false;
            } else if v.contains("keep-alive") {
                keep_alive = true;
            }
        }
    }
    let max = max_body.min(MAX_BODY);
    match (length, error) {
        (Some(length), _) if length > max && !conflicting => {
            Err(RequestError::TooLarge { length, max })
        }
        (_, Some(msg)) => Err(RequestError::Malformed(msg)),
        (length, None) => Ok(Head {
            method,
            target,
            keep_alive,
            content_length: length.unwrap_or(0),
            len: head.len(),
        }),
    }
}

/// Reads one request from a blocking stream through the same [`Parser`]
/// the event loop drives, at the hard [`MAX_BODY`] cap. `Ok(None)` is a
/// clean end-of-stream before the first byte. Bytes past the request are
/// never consumed, so a pipelined follow-up stays in `r`.
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let mut parser = Parser::default();
    let mut buf = Vec::new();
    loop {
        match parser.next(&buf, MAX_BODY) {
            Ok(Some((req, _))) => return Ok(Some(req)),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let avail = r.fill_buf()?;
        if avail.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the request",
            ));
        }
        // Head bytes go one line at a time (the head's end is unknown
        // until its blank line), body bytes up to the body's end.
        let take = match parser.remaining(buf.len()) {
            Some(rest) => rest.min(avail.len()),
            None => avail
                .iter()
                .position(|&b| b == b'\n')
                .map_or(avail.len(), |i| i + 1),
        };
        buf.extend_from_slice(&avail[..take]);
        r.consume(take);
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// One parsed response, client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value (empty if absent).
    pub content_type: String,
    /// Response body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

/// Reads one response from a server (status line, headers,
/// `Content-Length` body). Used by every client in the crate — the
/// keep-alive [`crate::client::Client`], the hardened cluster client and
/// the fault-injection proxy; a mid-body disconnect surfaces as
/// `UnexpectedEof`, never a short read.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<ParsedResponse> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let line = line.trim_end();
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut content_type = String::new();
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad Content-Length {value:?}"),
                        )
                    })?;
                }
                "content-type" => content_type = value.trim().to_string(),
                _ => {}
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response body of {content_length} bytes exceeds the {MAX_BODY} limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(ParsedResponse {
        status,
        content_type,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// One response to send: status, content type, optional extra headers
/// (e.g. `Retry-After` on a 429) and the body bytes. The API speaks JSON
/// almost everywhere; `/metrics` is Prometheus text and the session
/// snapshot download is a raw `.cgtes` byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers appended after the standard ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 JSON response.
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A 200 plain-text response (Prometheus exposition format).
    pub fn text(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A 200 binary response (`.cgtes` snapshot downloads).
    pub fn bytes(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body,
        }
    }
}

/// Writes a response.
///
/// The whole response is composed in memory and sent with **one**
/// `write_all` — emitting header fragments as separate small socket
/// writes triggers the Nagle + delayed-ACK interaction (~40–200 ms
/// stalls per request) that would dominate every latency measurement.
pub fn write_response<W: Write>(w: &mut W, resp: &Response, keep_alive: bool) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

/// Writes a JSON response (sugar over [`write_response`]).
pub fn write_json_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let resp = Response {
        status,
        content_type: "application/json",
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    write_response(w, &resp, keep_alive)
}

/// Writes one request with a `Content-Length` body, composed in memory
/// and sent with one `write_all` (see [`write_response`] for why).
/// `close` asks the server to hang up after its response.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: cgte\r\nContent-Length: {}\r\n{}\r\n",
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Frames a whole buffer in one call.
    fn frame(raw: &[u8], max_body: usize) -> Result<Option<(Request, usize)>, RequestError> {
        Parser::default().next(raw, max_body)
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let raw = b"POST /sessions/s0/ingest?ci=0.95&x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/s0/ingest");
        assert_eq!(req.query_value("ci"), Some("0.95"));
        assert_eq!(req.query_value("x"), Some(""));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none() {
        let raw: &[u8] = b"";
        assert!(read_request(&mut BufReader::new(raw)).unwrap().is_none());
    }

    #[test]
    fn garbage_is_an_error() {
        let raw: &[u8] = b"nonsense\r\n\r\n";
        assert!(read_request(&mut BufReader::new(raw)).is_err());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(&mut BufReader::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn oversized_body_is_a_typed_too_large() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2000\r\n\r\n";
        match frame(raw, 1024) {
            Err(RequestError::TooLarge { length, max }) => {
                assert_eq!(length, 2000);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn head_end_accepts_both_line_endings() {
        let used = |raw: &[u8]| frame(raw, MAX_BODY).unwrap().map(|(_, n)| n);
        assert_eq!(used(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(used(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(used(b"GET / HTTP/1.1\nHost: h\n\r\nx"), Some(25));
        assert_eq!(used(b"GET / HTTP/1.1\r\nHost: h\r\n"), None);
    }

    #[test]
    fn content_length_scan_matches_parser_semantics() {
        let body_of = |raw: &[u8]| frame(raw, MAX_BODY).map(|r| r.map(|(req, _)| req.body));
        let ok = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(body_of(ok), Ok(Some(b"abcd".to_vec())));
        // Names are case-insensitive and identical duplicates agree.
        let dup = b"POST /x HTTP/1.1\r\ncontent-LENGTH: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(body_of(dup), Ok(Some(b"abcd".to_vec())));
        assert_eq!(body_of(b"GET / HTTP/1.1\r\n\r\n"), Ok(Some(Vec::new())));
        // Differing duplicates are refused, never resolved "last wins".
        let conflict = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nabcd";
        assert_eq!(
            body_of(conflict),
            Err(RequestError::Malformed(
                "conflicting Content-Length values 4 and 9".into()
            ))
        );
        assert_eq!(
            body_of(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::Malformed(
                "bad Content-Length \"nope\"".into()
            ))
        );
    }

    /// Every error path as raw bytes → (status, response body), at a
    /// 1024-byte body cap, pinned byte for byte. The last two rows are the
    /// RFC 9112 §6.3 refusals.
    #[test]
    fn error_answers_are_pinned() {
        let huge_head = [&b"GET / HTTP/1.1\r\nX-Pad: "[..], &[b'a'; MAX_HEAD]].concat();
        let table: Vec<(&[u8], u16, &str)> = vec![
            (
                b"nonsense\r\n\r\n",
                400,
                r#"{"error":"malformed request line \"nonsense\""}"#,
            ),
            (
                b"\r\n\r\n",
                400,
                r#"{"error":"malformed request line \"\""}"#,
            ),
            (b"\n\n", 400, r#"{"error":"malformed request line \"\""}"#),
            (
                b"GET /\r\n\r\n",
                400,
                r#"{"error":"malformed request line \"GET /\""}"#,
            ),
            (
                b"GET / HTTP/2.0\r\n\r\n",
                400,
                r#"{"error":"unsupported protocol \"HTTP/2.0\""}"#,
            ),
            (
                b"GET / SPDY/1\r\n\r\n",
                400,
                r#"{"error":"unsupported protocol \"SPDY/1\""}"#,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                400,
                r#"{"error":"bad Content-Length \"nope\""}"#,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                400,
                r#"{"error":"bad Content-Length \"-1\""}"#,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                400,
                r#"{"error":"bad Content-Length \"99999999999999999999999\""}"#,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: nope\r\n\r\n",
                400,
                r#"{"error":"bad Content-Length \"nope\""}"#,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: nope\r\nContent-Length: 3\r\n\r\nabc",
                400,
                r#"{"error":"bad Content-Length \"nope\""}"#,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 2000\r\n\r\n",
                413,
                r#"{"error":"request body of 2000 bytes exceeds the 1024 limit"}"#,
            ),
            (
                b"POST /x HTTP/1.1\r\ncontent-length:  2000 \r\n\r\n",
                413,
                r#"{"error":"request body of 2000 bytes exceeds the 1024 limit"}"#,
            ),
            // The body limit is decided before the head is read for meaning.
            (
                b"garbage\r\nContent-Length: 5000\r\n\r\n",
                413,
                r#"{"error":"request body of 5000 bytes exceeds the 1024 limit"}"#,
            ),
            (
                b"GET /\xff HTTP/1.1\r\n\r\n",
                400,
                r#"{"error":"stream did not contain valid UTF-8"}"#,
            ),
            (
                b"GET / HTTP/1.1\r\nX-Bad: \xfe\r\n\r\n",
                400,
                r#"{"error":"stream did not contain valid UTF-8"}"#,
            ),
            (&huge_head[..], 400, r#"{"error":"request head too large"}"#),
            (
                b"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                400,
                r#"{"error":"Transfer-Encoding is not supported; send a Content-Length body"}"#,
            ),
            (
                b"POST /s HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}",
                400,
                r#"{"error":"conflicting Content-Length values 2 and 4"}"#,
            ),
        ];
        for (raw, status, body) in table {
            let shown = String::from_utf8_lossy(&raw[..raw.len().min(60)]).into_owned();
            let e = frame(raw, 1024).expect_err(&shown);
            assert_eq!(e.status(), status, "{shown}");
            assert_eq!(crate::json::error_body(&e.to_string()), body, "{shown}");
        }
    }

    /// What framing a stream yields, in order.
    #[derive(Debug, PartialEq)]
    enum Out {
        /// A request: method, path, query, body, keep-alive.
        Req(String, String, Vec<(String, String)>, Vec<u8>, bool),
        /// A refusal (the connection closes).
        Err(String),
        /// The stream ended inside a request.
        Truncated,
    }

    fn req_out(req: Request) -> Out {
        Out::Req(req.method, req.path, req.query, req.body, req.keep_alive)
    }

    /// Feeds `chunks` the way the event loop does: append each read, then
    /// frame every complete request before the next read.
    fn frame_chunks<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<Out> {
        let (mut parser, mut buf, mut out) = (Parser::default(), Vec::new(), Vec::new());
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            loop {
                match parser.next(&buf, MAX_BODY) {
                    Ok(Some((req, used))) => {
                        buf.drain(..used);
                        out.push(req_out(req));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        out.push(Out::Err(e.to_string()));
                        return out;
                    }
                }
            }
        }
        if !buf.is_empty() {
            out.push(Out::Truncated);
        }
        out
    }

    /// Drives the blocking [`read_request`] over a reader with the given
    /// buffer capacity until end-of-stream or an error.
    fn read_blocking(stream: &[u8], capacity: usize) -> Vec<Out> {
        let mut r = BufReader::with_capacity(capacity, stream);
        let mut out = Vec::new();
        loop {
            match read_request(&mut r) {
                Ok(Some(req)) => out.push(req_out(req)),
                Ok(None) => return out,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    out.push(Out::Truncated);
                    return out;
                }
                Err(e) => {
                    out.push(Out::Err(e.to_string()));
                    return out;
                }
            }
        }
    }

    /// The frame scanner is chunking-invariant: every split point, and
    /// one byte at a time, yields exactly the whole-buffer sequence of
    /// requests and errors — and so does the blocking reader.
    #[test]
    fn framing_is_identical_at_every_split_point() {
        let corpus: Vec<&[u8]> = vec![
            b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\nPOST /sessions?x=1&y HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /graphs HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /a HTTP/1.1\nHost: h\n\nPOST /b HTTP/1.0\ncontent-length: 3\n\nxyzGET /c HTTP/1.1\n\r\n",
            b"POST /s HTTP/1.1\r\nContent-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyzGET /t HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
            b"GET /ok HTTP/1.1\r\n\r\nGET / HTTP/2.0\r\n\r\nGET /never HTTP/1.1\r\n\r\n",
            b"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 67108865\r\n\r\nxyz",
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc",
            b"GET /a HTTP/1.1\r\n\r\r\n\r\nGET /b HTTP/1.1\r\n\n",
        ];
        for stream in corpus {
            let whole = frame_chunks([stream]);
            let shown = String::from_utf8_lossy(stream);
            assert!(!whole.is_empty(), "{shown}");
            for cut in 0..=stream.len() {
                let (a, b) = stream.split_at(cut);
                assert_eq!(frame_chunks([a, b]), whole, "split at {cut}: {shown}");
            }
            assert_eq!(frame_chunks(stream.chunks(1)), whole, "bytewise: {shown}");
            for capacity in [1, 7, 8 << 10] {
                assert_eq!(read_blocking(stream, capacity), whole, "blocking: {shown}");
            }
        }
        // The oversize head is too long to split everywhere: a stride of
        // cut points plus the ones straddling the limit.
        let huge = [&b"GET / HTTP/1.1\r\nX-Pad: "[..], &[b'a'; MAX_HEAD]].concat();
        let whole = frame_chunks([&huge[..]]);
        assert_eq!(whole, [Out::Err("request head too large".into())]);
        let cuts = (0..huge.len())
            .step_by(65_521)
            .chain(MAX_HEAD - 2..huge.len());
        for cut in cuts {
            let (a, b) = huge.split_at(cut);
            assert_eq!(frame_chunks([a, b]), whole, "split at {cut}");
        }
        assert_eq!(frame_chunks(huge.chunks(1)), whole);
        assert_eq!(read_blocking(&huge, 8 << 10), whole);
    }

    #[test]
    fn response_has_framing() {
        let mut out = Vec::new();
        write_json_response(&mut out, 422, "{\"error\":\"x\"}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 422 Unprocessable Entity\r\n"));
        assert!(s.contains("Content-Length: 13\r\n"));
        assert!(s.ends_with("{\"error\":\"x\"}"));
    }
}
