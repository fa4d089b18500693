//! A minimal HTTP/1.1 keep-alive client: one request out, one response
//! in, reconnecting when the server rotates the connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response slower than this is a failed request, not a stall.
const TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::with_capacity(64 * 1024) }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request frame and returns the status and body. A
    /// keep-alive socket the server closed while idle is retried once
    /// on a fresh connection.
    pub fn exchange(&mut self, frame: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        match self.try_exchange(frame) {
            Ok(reply) => Ok(reply),
            Err(_) => {
                self.stream = None;
                self.try_exchange(frame).inspect_err(|_| self.stream = None)
            }
        }
    }

    fn try_exchange(&mut self, frame: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut buf = std::mem::take(&mut self.buf);
        let stream = self.connect()?;
        stream.write_all(frame)?;
        let result = read_response(stream, &mut buf);
        self.buf = buf;
        let (status, body, close) = result?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Reads one `Content-Length` response; returns the status, the body
/// and whether the server closes the connection after it.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(u16, Vec<u8>, bool)> {
    buf.clear();
    let mut scratch = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response"));
        }
        buf.extend_from_slice(&scratch[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim().eq_ignore_ascii_case(name).then(|| value.trim().to_ascii_lowercase())
        })
    };
    let close = header("connection").as_deref() == Some("close");
    let length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid("no content length"))?;
    let mut body = Vec::with_capacity(length);
    body.extend_from_slice(&buf[head_end..buf.len().min(head_end + length)]);
    while body.len() < length {
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
        }
        body.extend_from_slice(&scratch[..n.min(length - body.len())]);
    }
    Ok((status, body, close))
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let frame = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    Conn::new(addr).exchange(frame.as_bytes())
}

/// Every `"makespan":N` value in a response body, in order: one per
/// solution. Cheap enough to run on the load threads, so the timed
/// phase keeps numbers instead of whole bodies.
pub fn makespans(body: &[u8]) -> Vec<i64> {
    const KEY: &[u8] = b"\"makespan\":";
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = body[i..].windows(KEY.len()).position(|w| w == KEY) {
        let mut j = i + at + KEY.len();
        let negative = body.get(j) == Some(&b'-');
        if negative {
            j += 1;
        }
        let mut value: i64 = 0;
        while let Some(d) = body.get(j).filter(|b| b.is_ascii_digit()) {
            value = value * 10 + i64::from(d - b'0');
            j += 1;
        }
        out.push(if negative { -value } else { value });
        i = j;
    }
    out
}

/// The top-level objects of a response's `"results"` array, as byte
/// slices, or `None` when there is no such array. Splitting first keeps
/// each decode to one solution's size: the workspace JSON parser's cost
/// grows with the square of a body's length.
pub fn result_objects(body: &[u8]) -> Option<Vec<&[u8]>> {
    const KEY: &[u8] = b"\"results\":[";
    let mut i = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let mut out = Vec::new();
    loop {
        match body.get(i)? {
            b']' => return Some(out),
            b',' | b' ' => i += 1,
            b'{' => {
                let (start, mut depth, mut in_string) = (i, 0usize, false);
                loop {
                    let c = *body.get(i)?;
                    i += 1;
                    match (in_string, c) {
                        (true, b'\\') => i += 1,
                        (true, b'"') | (false, b'"') => in_string = !in_string,
                        (false, b'{' | b'[') => depth += 1,
                        (false, b'}' | b']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                out.push(&body[start..i]);
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespans_are_read_in_order_and_skip_other_keys() {
        let body =
            br#"{"max_makespan":99,"results":[{"makespan":14,"schedule":null},{"makespan":7}]}"#;
        assert_eq!(makespans(body), vec![14, 7]);
        assert!(makespans(b"{}").is_empty());
    }

    #[test]
    fn result_objects_split_nested_objects_and_strings() {
        let body =
            br#"{"count":2,"results":[{"a":{"b":[1,{"c":"}"}]}},{"error":{"kind":"x\"}"}}],"z":1}"#;
        let parts = result_objects(body).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], br#"{"a":{"b":[1,{"c":"}"}]}}"#);
        assert_eq!(parts[1], br#"{"error":{"kind":"x\"}"}}"#);
        assert_eq!(result_objects(br#"{"results":[]}"#), Some(vec![]));
        assert_eq!(result_objects(b"{}"), None);
    }
}
