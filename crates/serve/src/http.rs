//! A deliberately small HTTP/1.1 layer over blocking streams.
//!
//! The service speaks exactly the subset its endpoints need: one request
//! per connection (`Connection: close`), a request line plus headers, an
//! optional `Content-Length` body, and JSON responses. No keep-alive, no
//! chunked transfer, no TLS — matching the in-tree, dependency-free style
//! of `mrp-batch`'s JSON reader. Head and body sizes are capped so a
//! misbehaving client cannot balloon server memory.

use std::io::{Read, Write};

use mrp_obs::json;

/// Cap on the request line + headers (bytes).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on the number of header lines; more is either a confused client
/// or an attack, and both get a 431.
pub(crate) const MAX_HEADERS: usize = 64;
/// Cap on the request body (bytes). Generous for spec files: a thousand
/// 100-tap filters fit comfortably.
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request: method, path (query stripped), and decoded body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// A request that could not be read; carries the HTTP status to answer
/// with and a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    fn too_large(what: &str, cap: usize) -> HttpError {
        HttpError {
            status: 413,
            message: format!("{what} exceeds the {cap}-byte limit"),
        }
    }
}

/// Reads one request from `stream`. Blocks until the head (and any
/// declared body) has arrived, the peer closes, or the stream's read
/// timeout fires.
pub(crate) fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Only bytes at `scanned..` have never been checked for the head
    // terminator; rescanning from zero on every read would make a
    // byte-at-a-time (slowloris) sender cost O(head²).
    let mut scanned = 0usize;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, scanned) {
            // The cap applies to the head actually parsed, not just to
            // the running buffer — a terminator arriving in the same
            // chunk must not smuggle an oversized head through.
            if pos > MAX_HEAD_BYTES {
                return Err(HttpError::too_large("request head", MAX_HEAD_BYTES));
            }
            break pos;
        }
        // The terminator may straddle a read boundary: keep the last 3
        // bytes in the unscanned window.
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::too_large("request head", MAX_HEAD_BYTES));
        }
        let n = read_some(stream, &mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed before a full request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::bad(format!(
            "malformed request line `{request_line}`"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("unsupported version `{version}`")));
    }
    let mut content_length: Option<u64> = None;
    let mut headers = 0usize;
    for line in lines {
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError {
                status: 431,
                message: format!("more than {MAX_HEADERS} header lines"),
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad(format!("malformed header line `{line}`")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            // Duplicate Content-Length headers are a request-smuggling
            // vector; reject rather than pick one.
            if content_length.is_some() {
                return Err(HttpError::bad("duplicate Content-Length header"));
            }
            // Parse as u64 first so absurd values overflow into a clean
            // 413 instead of a platform-dependent parse error.
            let parsed: u64 = value.trim().parse().map_err(|_| {
                HttpError::bad(format!("invalid Content-Length `{}`", value.trim()))
            })?;
            content_length = Some(parsed);
        }
    }
    let declared = content_length.unwrap_or(0);
    if declared > MAX_BODY_BYTES as u64 {
        return Err(HttpError::too_large("request body", MAX_BODY_BYTES));
    }
    let content_length = declared as usize;
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| HttpError::bad("body is not UTF-8"))?;
    Ok(Request {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        body,
    })
}

/// One `read` with `Interrupted` retried; any other failure maps to a
/// 400 (the peer will usually never see it, but the connection handler
/// needs a status to log).
fn read_some<R: Read>(stream: &mut R, chunk: &mut [u8]) -> Result<usize, HttpError> {
    loop {
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::bad(format!("read failed: {e}"))),
        }
    }
}

fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf[start..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| start + p)
}

/// Writes one JSON response and flushes. `extra_headers` lets the
/// backpressure path attach `Retry-After`.
pub(crate) fn respond(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// `{"error":"…"}` with proper escaping.
pub(crate) fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}\n", json::string(message))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_get_without_body() {
        let r = read("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.body, "");
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let body = r#"{"coeffs":[7,9]}"#;
        let raw = format!(
            "POST /synth?x=1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = read(&raw).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/synth");
        assert_eq!(r.body, body);
    }

    #[test]
    fn body_may_arrive_in_pieces() {
        // Cursor delivers everything at once; simulate a split with a
        // reader that returns one byte at a time.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let raw = "POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let r = read_request(&mut OneByte(Cursor::new(raw.as_bytes().to_vec()))).unwrap();
        assert_eq!(r.body, "abcd");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert_eq!(read("GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(read("GET / SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            read("GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Declared body larger than the cap.
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(read(&raw).unwrap_err().status, 413);
        // Truncated body.
        assert_eq!(
            read("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab")
                .unwrap_err()
                .status,
            400
        );
        // Closed before the head completes.
        assert_eq!(read("GET / HTTP/1.1\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn rejects_smuggling_and_flooding_shapes() {
        // Duplicate Content-Length — even when the copies agree.
        assert_eq!(
            read("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab")
                .unwrap_err()
                .status,
            400
        );
        // A Content-Length that overflows usize parses as u64 → 413,
        // identical on every platform.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n";
        assert_eq!(read(raw).unwrap_err().status, 400); // > u64: not a length at all
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert_eq!(read(&raw).unwrap_err().status, 413);
        // Header lines must be `name: value`.
        assert_eq!(
            read("GET / HTTP/1.1\r\nnot a header\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Header floods stop at MAX_HEADERS with a 431.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(read(&raw).unwrap_err().status, 431);
        // …but exactly MAX_HEADERS is fine.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(read(&raw).is_ok());
    }

    #[test]
    fn head_scan_is_incremental_not_quadratic() {
        // A slowloris head delivered one byte at a time must still
        // parse; with the old rescan-everything loop this case is
        // O(n²) and visibly slow at this size.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        raw.push_str(&format!("X-Pad: {}\r\n\r\n", "p".repeat(12_000)));
        let r = read_request(&mut OneByte(Cursor::new(raw.into_bytes()))).unwrap();
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Flaky {
            inner: Cursor<Vec<u8>>,
            interrupts: usize,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.interrupts > 0 {
                    self.interrupts -= 1;
                    return Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "sig"));
                }
                self.inner.read(buf)
            }
        }
        let raw = "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut stream = Flaky {
            inner: Cursor::new(raw.as_bytes().to_vec()),
            interrupts: 3,
        };
        assert_eq!(read_request(&mut stream).unwrap().body, "ok");
    }

    /// Property: no byte stream, however mangled, makes the parser
    /// panic — it either parses or returns a clean 4xx.
    #[test]
    fn fuzz_arbitrary_bytes_never_panic() {
        mrp_ptest::run_cases("http.fuzz_arbitrary", 400, |rng| {
            let len = rng.usize_in(0, 600);
            let bytes: Vec<u8> = (0..len).map(|_| rng.u32_in(0, 256) as u8).collect();
            match read_request(&mut Cursor::new(bytes)) {
                Ok(_) => {}
                Err(e) => assert!(
                    (400..500).contains(&e.status),
                    "non-4xx {} for garbage",
                    e.status
                ),
            }
        });
    }

    /// Property: truncating or corrupting a *valid* request never
    /// panics and never yields a request with a different body than
    /// declared.
    #[test]
    fn fuzz_mangled_valid_requests() {
        mrp_ptest::run_cases("http.fuzz_mangled", 400, |rng| {
            let body: String = (0..rng.usize_in(0, 64)).map(|_| 'x').collect();
            let mut raw = format!(
                "POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            match rng.u32_in(0, 3) {
                0 => raw.truncate(rng.usize_in(0, raw.len() + 1)),
                1 => {
                    let at = rng.usize_in(0, raw.len());
                    raw[at] ^= 1 << rng.u32_in(0, 8);
                }
                _ => {
                    let at = rng.usize_in(0, raw.len());
                    let extra = rng.usize_in(1, 16);
                    let junk: Vec<u8> = (0..extra).map(|_| rng.u32_in(0, 256) as u8).collect();
                    raw.splice(at..at, junk);
                }
            }
            if let Ok(request) = read_request(&mut Cursor::new(raw)) {
                assert!(request.body.len() <= MAX_BODY_BYTES);
            }
        });
    }

    /// Property: oversized heads and header floods are bounded — the
    /// parser stops with 413/431 instead of buffering without limit.
    #[test]
    fn fuzz_oversized_inputs_are_bounded() {
        mrp_ptest::run_cases("http.fuzz_oversized", 24, |rng| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            if rng.u64_below(2) == 0 {
                raw.push_str(&format!("X-Big: {}\r\n", "a".repeat(MAX_HEAD_BYTES + 10)));
            } else {
                for i in 0..(MAX_HEADERS + rng.usize_in(1, 50)) {
                    raw.push_str(&format!("X-{i}: v\r\n"));
                }
            }
            raw.push_str("\r\n");
            let e = read(&raw).unwrap_err();
            assert!(e.status == 413 || e.status == 431, "got {}", e.status);
        });
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        respond(
            &mut out,
            503,
            &[("Retry-After", "1".to_string())],
            &error_body("busy"),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"busy\"}\n"), "{text}");
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, "{\"error\":\"busy\"}\n".len());
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(
            error_body("a\"b\\c\nd\u{1}"),
            "{\"error\":\"a\\\"b\\\\c\\nd\\u0001\"}\n"
        );
    }
}
