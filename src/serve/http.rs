//! Minimal HTTP/1.1 over `std::net::TcpStream` — just enough of the
//! protocol for the daemon's routes, written defensively: header and
//! body caps, read timeouts, typed 4xx/5xx for every malformed input.
//! One request per connection (`Connection: close`), which keeps the
//! parser stateless and makes hostile connection reuse a non-issue.
//!
//! The same module carries the client side ([`request`]): the
//! integration tests speak to the daemon through it, so client and
//! server agree on the framing by construction.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use super::{Request, Response, ServerState, IO_TIMEOUT};

/// Upper bound on the request line plus headers.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 64 * 1024;

/// Serves one HTTP exchange on `stream` and closes it.
pub fn serve_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let response = match read_request(&mut reader) {
        Ok((method, path, body)) => match route(&method, &path, &body) {
            Ok(request) => state.handle_tagged("http", &request),
            Err(response) => {
                state.record_rejected("http", &response);
                response
            }
        },
        Err(response) => {
            state.record_rejected("http", &response);
            response
        }
    };
    write_response(stream, &response);
}

/// Reads and frames one request: request line, headers (bounded),
/// `Content-Length` body (bounded). Anything outside the bounds or the
/// grammar yields a typed 4xx instead of an io error or a panic.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<(String, String, String), Response> {
    let request_line = read_head_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(protocol_error(400, "malformed request line"));
    }

    let mut content_length: usize = 0;
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(reader)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(protocol_error(431, "headers exceed the 8KiB cap"));
        }
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| protocol_error(400, "unparsable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(protocol_error(413, "body exceeds the 64KiB cap"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| protocol_error(400, "body shorter than Content-Length"))?;
    let body = String::from_utf8(body).map_err(|_| protocol_error(400, "body is not UTF-8"))?;
    Ok((method, path, body))
}

/// Reads one CRLF (or bare LF) terminated header line, enforcing the
/// head cap even against a single line with no terminator.
fn read_head_line(reader: &mut BufReader<TcpStream>) -> Result<String, Response> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_HEAD_BYTES as u64 + 1);
    match limited.read_line(&mut line) {
        Ok(0) => Err(protocol_error(400, "connection closed mid-request")),
        Ok(n) if n > MAX_HEAD_BYTES => Err(protocol_error(431, "header line exceeds the cap")),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        }
        Err(_) => Err(protocol_error(400, "unreadable request head")),
    }
}

/// Maps `(method, path, body)` to a protocol [`Request`].
fn route(method: &str, path: &str, body: &str) -> Result<Request, Response> {
    let (path, query) = match path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (path, ""),
    };
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(Request::Healthz),
        ("GET", ["metrics"]) => Ok(Request::Metrics),
        ("GET", ["loadz"]) => Ok(Request::Loadz),
        ("GET", ["generate", selector]) => Ok(Request::Generate(percent_decode(selector))),
        ("POST", ["generate"]) => {
            let selector = body.trim();
            if selector.is_empty() {
                Err(protocol_error(400, "POST /generate needs a selector body"))
            } else {
                Ok(Request::Generate(selector.to_owned()))
            }
        }
        ("GET", ["batch"]) => Ok(Request::Batch(cognicrypt_core::GenEngine::DEFAULT_THREADS)),
        ("GET", ["batch", threads]) => match threads.parse::<usize>() {
            Ok(n) => Ok(Request::Batch(n)),
            Err(_) => Err(protocol_error(400, "batch thread count must be an integer")),
        },
        ("GET", ["report"]) => Ok(Request::Report),
        ("POST", ["reload"]) => Ok(Request::Reload),
        ("GET", ["tracez"]) => Ok(Request::Tracez {
            errors_only: query_flag(query, "errors"),
        }),
        ("GET", ["statz"]) => Ok(Request::Statz {
            json: query_flag(query, "json"),
        }),
        ("POST", ["profilez"]) => {
            let requests = body.trim();
            if requests.is_empty() {
                Ok(Request::ProfilezArm(1))
            } else {
                requests
                    .parse::<u64>()
                    .map(Request::ProfilezArm)
                    .map_err(|_| protocol_error(400, "profilez request count must be an integer"))
            }
        }
        ("GET", ["profilez"]) => Ok(Request::ProfilezGet),
        ("POST", ["shutdown"]) => Ok(Request::Shutdown),
        (
            _,
            ["healthz" | "metrics" | "loadz" | "generate" | "batch" | "report" | "reload" | "tracez"
            | "statz" | "profilez" | "shutdown", ..],
        ) => Err(protocol_error(405, "method not allowed for this route")),
        _ => Err(protocol_error(404, "no such route")),
    }
}

/// Whether a `?flag=1`-style query member is set: present with no
/// value, or any value other than `0`.
fn query_flag(query: &str, name: &str) -> bool {
    query.split('&').any(|member| {
        let (key, value) = match member.split_once('=') {
            Some((key, value)) => (key, value),
            None => (member, ""),
        };
        key == name && value != "0"
    })
}

/// Decodes `%XX` escapes and `+` (space) in a path segment; invalid
/// escapes pass through literally — the selector lookup will reject
/// them with a typed usage error.
fn percent_decode(segment: &str) -> String {
    let bytes = segment.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                match (hex_digit(bytes[i + 1]), hex_digit(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A typed protocol-level error response (the request never reached
/// the dispatch core).
fn protocol_error(code: u16, message: &str) -> Response {
    use devharness::json::Json;
    let class = match code {
        404 => "not_found",
        405 => "method_not_allowed",
        413 | 431 => "too_large",
        _ => "protocol",
    };
    Response {
        code,
        class,
        content_type: "application/json",
        body: format!(
            "{}\n",
            Json::Obj(vec![
                ("error".to_owned(), Json::Str(class.to_owned())),
                ("message".to_owned(), Json::Str(message.to_owned())),
            ])
        ),
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Status",
    }
}

fn write_response(mut stream: TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.code,
        status_text(response.code),
        response.content_type,
        response.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
    // An early error response leaves unread request bytes behind (e.g.
    // a refused header bomb). Closing with unread data pending makes
    // the kernel send RST, which can destroy the buffered response
    // before the client reads it — so signal end-of-response, then
    // drain a bounded amount before closing.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Client side: one HTTP exchange against `addr`. Returns the status
/// code and body. Used by the integration tests.
///
/// # Errors
///
/// Connection, write or read failures; a malformed status line from
/// something that is not this daemon.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line: {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    Ok((
        code,
        String::from_utf8(body).map_err(|e| std::io::Error::other(e.to_string()))?,
    ))
}
