//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Just enough of RFC 7230 for a JSON planning service and its bench
//! clients: request-line + headers + `Content-Length` bodies, keep-alive
//! by default, no chunked encoding, no TLS. Hand-rolled because the
//! environment is offline — the vendored stand-ins cover serde but there
//! is no HTTP crate, and the protocol subset needed here is ~200 lines.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body (a hand-written profile is ~10 KB; 4 MB
/// leaves room for generated ones while bounding a misbehaving client).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted header section.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased).
    pub method: String,
    /// The path component, e.g. `/plan` (query strings are not split off;
    /// the service's paths don't use them).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, sized by `Content-Length` (empty if absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before a request line.
    Closed,
    /// The socket read timed out: the connection sat idle past the
    /// server's idle limit, its read timeout.
    TimedOut,
    /// The bytes on the wire were not a well-formed request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// Any other socket error.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::TimedOut,
            std::io::ErrorKind::UnexpectedEof => ReadError::Closed,
            _ => ReadError::Io(e),
        }
    }
}

/// Read one request from `reader` (a buffered wrapper of the stream).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let mut line = String::new();
    let mut header_bytes = 0;
    if reader.read_line(&mut line)? == 0 {
        return Err(ReadError::Closed);
    }
    header_bytes += line.len();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line missing path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let mut hl = String::new();
        if reader.read_line(&mut hl)? == 0 {
            return Err(ReadError::Malformed("EOF inside headers".into()));
        }
        header_bytes += hl.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ReadError::Malformed("header section too large".into()));
        }
        let hl = hl.trim_end();
        if hl.is_empty() {
            break;
        }
        let (name, value) = hl
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {hl:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed(format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reason-phrases for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response to its wire bytes.
pub fn format_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            status,
            status_text(status),
            content_type,
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    out
}

/// Write a response; returns `false` if the socket rejected it (peer
/// gone), in which case the connection should be dropped.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> bool {
    stream
        .write_all(&format_response(status, content_type, body, keep_alive))
        .and_then(|_| stream.flush())
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &str) -> Result<Request, ReadError> {
        // Push the raw bytes through a real socket pair so the reader
        // sees genuine TcpStream behaviour.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        drop(client); // EOF after the payload
        let (server_side, _) = listener.accept().unwrap();
        read_request(&mut BufReader::new(server_side))
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            "POST /plan HTTP/1.1\r\nContent-Length: 7\r\nX-Deadline-Ms: 250\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/plan");
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_close() {
        let req = roundtrip("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            roundtrip("not http at all\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip("POST /plan HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(ReadError::TooLarge)
        ));
        assert!(matches!(roundtrip(""), Err(ReadError::Closed)));
    }

    #[test]
    fn response_wire_format() {
        let bytes = format_response(200, "application/json", b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
