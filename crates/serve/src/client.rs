//! A small blocking HTTP/1.1 client for the daemon's protocol.
//!
//! Used by the bench harness, the CLI smoke path, and the integration
//! tests — anything that needs to talk to a running `pipedream serve`
//! without an HTTP crate. Keep-alive by default: one [`Client`] holds
//! one connection and pipelines sequential requests over it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A keep-alive connection to the daemon.
pub struct Client {
    write_half: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7100"`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            write_half: stream,
            reader,
        })
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, Some(body), None)
    }

    /// `POST path` with a JSON body and an `x-deadline-ms` header.
    pub fn post_with_deadline(
        &mut self,
        path: &str,
        body: &str,
        deadline_ms: u64,
    ) -> std::io::Result<Response> {
        self.request("POST", path, Some(body), Some(deadline_ms))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Response> {
        let body = body.unwrap_or("");
        let mut request = format!("{method} {path} HTTP/1.1\r\nhost: pipedream\r\n");
        if let Some(ms) = deadline_ms {
            request.push_str(&format!("x-deadline-ms: {ms}\r\n"));
        }
        request.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        request.push_str(body);
        // One write: a daemon that sheds this connection answers 503 and
        // closes at once, and a second write could meet its reset first.
        self.write_half.write_all(request.as_bytes())?;
        self.write_half.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("EOF inside response headers".into()));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            body: String::from_utf8(body).map_err(|e| bad(e.to_string()))?,
        })
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<Response> {
    Client::connect(addr)?.get(path)
}

/// One-shot `POST` on a fresh connection.
pub fn post(addr: impl ToSocketAddrs, path: &str, body: &str) -> std::io::Result<Response> {
    Client::connect(addr)?.post(path, body)
}
