//! Line/JSON protocol over a Unix domain socket.
//!
//! One request per line — `healthz`, `metrics`, `loadz`,
//! `generate <selector>`, `batch [threads]`, `report`, `reload`,
//! `tracez [errors]`, `statz [json]`, `profilez [<n>]` (a bare
//! `profilez` fetches the capture, `profilez <n>` arms one),
//! `shutdown` — and exactly one
//! JSON object per response line:
//!
//! ```text
//! {"class":"ok","code":200,"body":"…"}
//! {"class":"usage","code":400,"body":"…"}
//! ```
//!
//! Unlike the HTTP transport a connection persists: a client can pipe
//! a whole request script through one socket and read responses back
//! line by line. Malformed lines get a typed `"protocol"` response on
//! their own line and the connection stays usable — a hostile line
//! never desynchronises the stream, because the framing is strictly
//! one line in, one line out.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;

use devharness::json::Json;

use super::{Request, Response, ServerState, IO_TIMEOUT};

/// Upper bound on one request line.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serves one socket connection: request lines in, JSON lines out,
/// until EOF or a `shutdown` request.
pub fn serve_connection(state: &ServerState, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        let mut limited = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match limited.read_line(&mut line) {
            Ok(0) => return,
            Ok(n) if n > MAX_LINE_BYTES => {
                let response = protocol_error("request line exceeds the 64KiB cap");
                state.record_rejected("uds", &response);
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
                // The over-long line was only partially consumed; the
                // stream is no longer line-synchronised, so drop it.
                return;
            }
            Ok(_) => {}
            Err(_) => return,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let response = match parse_line(line) {
            Ok(request) => {
                let shutting_down = matches!(request, Request::Shutdown);
                let response = state.handle_tagged("uds", &request);
                if shutting_down {
                    let _ = write_line(&mut writer, &response);
                    return;
                }
                response
            }
            Err(response) => {
                state.record_rejected("uds", &response);
                response
            }
        };
        if write_line(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Parses one request line into a protocol [`Request`].
fn parse_line(line: &str) -> Result<Request, Response> {
    let mut parts = line.splitn(2, char::is_whitespace);
    let verb = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("").trim();
    match (verb, rest) {
        ("healthz", "") => Ok(Request::Healthz),
        ("metrics", "") => Ok(Request::Metrics),
        ("loadz", "") => Ok(Request::Loadz),
        ("generate", "") => Err(protocol_error("generate needs a selector")),
        ("generate", selector) => Ok(Request::Generate(selector.to_owned())),
        ("batch", "") => Ok(Request::Batch(cognicrypt_core::GenEngine::DEFAULT_THREADS)),
        ("batch", threads) => threads
            .parse::<usize>()
            .map(Request::Batch)
            .map_err(|_| protocol_error("batch thread count must be an integer")),
        ("report", "") => Ok(Request::Report),
        ("reload", "") => Ok(Request::Reload),
        ("tracez", "") => Ok(Request::Tracez { errors_only: false }),
        ("tracez", "errors") => Ok(Request::Tracez { errors_only: true }),
        ("statz", "") => Ok(Request::Statz { json: false }),
        ("statz", "json") => Ok(Request::Statz { json: true }),
        ("profilez", "") => Ok(Request::ProfilezGet),
        ("profilez", requests) => requests
            .parse::<u64>()
            .map(Request::ProfilezArm)
            .map_err(|_| protocol_error("profilez request count must be an integer")),
        ("shutdown", "") => Ok(Request::Shutdown),
        _ => Err(protocol_error("unknown request verb")),
    }
}

fn protocol_error(message: &str) -> Response {
    Response {
        code: 400,
        class: "protocol",
        content_type: "application/json",
        body: format!(
            "{}\n",
            Json::Obj(vec![
                ("error".to_owned(), Json::Str("protocol".to_owned())),
                ("message".to_owned(), Json::Str(message.to_owned())),
            ])
        ),
    }
}

/// Writes one response as a single JSON line. The body rides inside
/// the JSON string, so embedded newlines in generated Java cannot
/// break the framing. The frame is rendered first and written with
/// one `write_all`: formatting straight onto the unbuffered socket
/// would cost one `write(2)` per formatting fragment.
fn write_line(writer: &mut UnixStream, response: &Response) -> std::io::Result<()> {
    let doc = Json::Obj(vec![
        ("class".to_owned(), Json::Str(response.class.to_owned())),
        ("code".to_owned(), Json::Num(f64::from(response.code))),
        ("body".to_owned(), Json::Str(response.body.clone())),
    ]);
    let mut frame = doc.to_string();
    frame.push('\n');
    writer.write_all(frame.as_bytes())
}

/// Client side: sends request lines over `path` and returns one parsed
/// JSON response per line. Used by the integration tests.
///
/// # Errors
///
/// Connection or I/O failures, or a response line that is not valid
/// JSON (which would mean the daemon broke its own framing).
pub fn request_lines(path: &std::path::Path, lines: &[&str]) -> std::io::Result<Vec<Json>> {
    let mut stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    for line in lines {
        if let Err(e) = writeln!(stream, "{line}") {
            // The daemon refuses some lines mid-write — the 64 KiB cap
            // makes it respond and close while the client is still
            // sending — and its refusal frame stays readable after the
            // EPIPE. Stop writing and collect it; anything else is a
            // real transport failure.
            match e.kind() {
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => break,
                _ => return Err(e),
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        responses.push(
            Json::parse(&line).map_err(|e| std::io::Error::other(format!("bad frame: {e}")))?,
        );
    }
    Ok(responses)
}
