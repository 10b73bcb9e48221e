//! A minimal HTTP/1.1 client for the demo server's wire format: one
//! request per connection (the server answers `Connection: close`), the
//! whole response read to end of stream, then parsed and checked against
//! its `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Header fields in wire order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: String,
}

impl Response {
    /// First header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Renders a request. A body, if any, is sent with its `Content-Length`.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses a complete response (status line, headers, body).
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no end of headers")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let body = &raw[split + 4..];
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("not an HTTP/1.x status line: {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| format!("bad status in {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let response = Response {
        status,
        headers,
        body: String::new(),
    };
    let declared: usize = response
        .header("Content-Length")
        .ok_or("response has no Content-Length")?
        .parse()
        .map_err(|_| "unparsable Content-Length")?;
    if declared != body.len() {
        return Err(format!(
            "Content-Length {declared} but {} body bytes",
            body.len()
        ));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "body is not UTF-8")?;
    Ok(Response { body, ..response })
}

/// Sends one request on a fresh connection and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    // Requests are small and latency-bound: send them as one segment.
    let _ = stream.set_nodelay(true);
    stream
        .write_all(&render_request(method, path, body))
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::with_capacity(64 * 1024);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 2\r\nRetry-After: 3\r\nConnection: close\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{}");
        assert_eq!(r.header("retry-after"), Some("3"));
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.header("X-Missing"), None);
    }

    #[test]
    fn empty_body_is_fine() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, ""));
    }

    #[test]
    fn truncated_or_malformed_responses_are_errors() {
        // Body shorter than declared: a connection cut mid-response.
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nabc").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n").is_err());
        assert!(parse_response(b"SMTP 200 OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nbroken\r\n\r\n").is_err());
        assert!(parse_response(b"").is_err());
    }

    #[test]
    fn requests_carry_their_content_length() {
        let raw = render_request("POST", "/api/route", "{\"a\":1}");
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("POST /api/route HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }
}
