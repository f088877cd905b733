//! The `cognicryptgen serve` child process and the two clients that
//! talk to it, each stamping the layer boundaries it can see from
//! outside: connect, request written, first reply byte, last byte.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use devharness::json::Json;

use crate::oracle::Reply;

/// Socket timeouts: a wedged daemon fails the op instead of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon child. Dropping it kills the process if it is still
/// running and always waits for it to end.
pub struct Daemon {
    child: Child,
    // Held so the daemon's later stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub http: Option<String>,
    pub uds: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `bin serve <args>` and waits for its `listening …` lines.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let wants = |flag: &str| args.iter().any(|a| a == flag);
        let (mut http, mut uds) = (None, None);
        while (wants("--listen") && http.is_none()) || (wants("--socket") && uds.is_none()) {
            let mut line = String::new();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let status = child.wait();
                return Err(format!("daemon exited before listening: {status:?}"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening http=") {
                http = Some(addr.to_owned());
            } else if let Some(path) = line.trim().strip_prefix("listening uds=") {
                uds = Some(PathBuf::from(path));
            }
        }
        Ok(Daemon {
            child,
            _stdout: stdout,
            http,
            uds,
        })
    }

    /// Peak resident set of the daemon so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to shut down over the protocol and waits for it;
    /// kills it if it has not exited after a few seconds.
    pub fn stop(mut self) {
        let asked = match (&self.http, &self.uds) {
            (Some(addr), _) => http_exchange(addr, "POST", "/shutdown", "").is_ok(),
            (None, Some(path)) => UdsConn::connect(path)
                .and_then(|mut c| c.request("shutdown"))
                .is_ok(),
            (None, None) => false,
        };
        if asked {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn vm_hwm_kb(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The instants one exchange passed through, as seen by the client.
#[derive(Debug, Clone, Copy)]
pub struct Stamps {
    /// Before connecting (HTTP) or before writing the line (UDS).
    pub start: Instant,
    /// Connection established; equals `start` on a held connection.
    pub connected: Instant,
    /// Request fully written.
    pub written: Instant,
    /// First reply byte read.
    pub first_byte: Instant,
    /// Last reply byte read.
    pub done: Instant,
}

impl Stamps {
    pub fn connect(&self) -> Duration {
        self.connected - self.start
    }

    /// Request written to first reply byte: the daemon's accept wait,
    /// parse, dispatch and serialization.
    pub fn wait(&self) -> Duration {
        self.first_byte - self.written
    }

    /// First reply byte to last.
    pub fn body(&self) -> Duration {
        self.done - self.first_byte
    }
}

/// One HTTP/1.1 exchange on a fresh connection, as the daemon's own
/// client does it. Returns the status, the body and the stamps.
pub fn http_exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Stamps), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    let io = |e: std::io::Error| format!("http io: {e}");
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let written = Instant::now();

    let mut buf = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    let mut expected_len: Option<usize> = None;
    loop {
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if expected_len.is_none() {
            if let Some(end) = find(&buf, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..end]);
                let length = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .ok_or("response without Content-Length")?;
                expected_len = Some(end + 4 + length);
            }
        }
        if expected_len.is_some_and(|len| buf.len() >= len) {
            break;
        }
    }
    let done = Instant::now();
    let first_byte = first_byte.ok_or("connection closed without a response")?;
    let head_end = find(&buf, b"\r\n\r\n").ok_or("truncated response head")?;
    let status_line = String::from_utf8_lossy(&buf[..head_end]);
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let body = String::from_utf8(buf[head_end + 4..].to_vec()).map_err(|e| e.to_string())?;
    Ok((
        code,
        body,
        Stamps {
            start,
            connected,
            written,
            first_byte,
            done,
        },
    ))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The reply class of an HTTP exchange: `ok` for 200, otherwise the
/// `error` member of the JSON error body.
pub fn http_reply(code: u16, body: String) -> Reply {
    if code == 200 {
        return Reply::ok(body);
    }
    let class = Json::parse(&body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_owned))
        .unwrap_or_else(|| format!("http-{code}"));
    Reply { class, body }
}

/// `GET <path>` that must answer 200 with a JSON body.
pub fn http_json(addr: &str, method: &str, path: &str, body: &str) -> Result<Json, String> {
    match http_exchange(addr, method, path, body)? {
        (200, text, _) => Json::parse(&text).map_err(|e| format!("{path}: {e}")),
        (code, _, _) => Err(format!("{path}: status {code}")),
    }
}

/// Percent-encodes arbitrary text into one URL path segment.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A held connection to the daemon's Unix-socket line protocol: one
/// line out, one JSON line back.
pub struct UdsConn {
    stream: UnixStream,
}

impl UdsConn {
    pub fn connect(path: &Path) -> Result<UdsConn, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("uds connect: {e}"))?;
        let io = |e: std::io::Error| format!("uds io: {e}");
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
        Ok(UdsConn { stream })
    }

    /// Sends one line and reads its reply line; returns the reply and
    /// the stamps (`connected` equals `start`: the connection is held).
    pub fn exchange(&mut self, line: &str) -> Result<(Reply, Stamps), String> {
        let io = |e: std::io::Error| format!("uds io: {e}");
        let start = Instant::now();
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.stream.write_all(&out).map_err(io)?;
        let written = Instant::now();
        let mut buf = Vec::with_capacity(16 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        loop {
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("daemon closed the connection mid-reply".to_owned());
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if chunk[..n].contains(&b'\n') {
                break;
            }
        }
        let done = Instant::now();
        let text = std::str::from_utf8(&buf).map_err(|e| format!("uds frame: {e}"))?;
        let doc = Json::parse(text.trim_end()).map_err(|e| format!("uds frame: {e}"))?;
        let field = |name: &str| doc.get(name).and_then(Json::as_str).map(str::to_owned);
        let reply = Reply {
            class: field("class").ok_or("uds frame without class")?,
            body: field("body").unwrap_or_default(),
        };
        let first_byte = first_byte.expect("at least one chunk was read");
        Ok((
            reply,
            Stamps {
                start,
                connected: start,
                written,
                first_byte,
                done,
            },
        ))
    }

    /// [`UdsConn::exchange`] without the stamps.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.exchange(line).map(|(reply, _)| reply)
    }

    /// A request whose `ok` body must be a JSON document.
    pub fn json(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.request(line)?;
        if reply.class != "ok" {
            return Err(format!("{line}: class {}", reply.class));
        }
        Json::parse(&reply.body).map_err(|e| format!("{line}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_encoding_keeps_one_segment() {
        assert_eq!(percent_encode("uc-1_a.b~"), "uc-1_a.b~");
        assert_eq!(percent_encode("../x y"), "..%2Fx%20y");
    }

    #[test]
    fn error_bodies_name_their_class() {
        let reply = http_reply(400, "{\"error\":\"usage\",\"message\":\"m\"}".to_owned());
        assert_eq!(reply.class, "usage");
        assert_eq!(http_reply(200, "x".to_owned()).class, "ok");
        assert_eq!(http_reply(502, "<html>".to_owned()).class, "http-502");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_kb("/proc/self/status").unwrap() > 0);
    }
}
