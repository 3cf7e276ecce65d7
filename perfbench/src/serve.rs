//! The `serve-mixed` side: a `serve listen` child process and a
//! closed-loop HTTP client that times each request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oic_engine::{canonical_policy, to_hex, JsonValue, PolicySpec, SweepSpec};

/// How long the client waits on one socket operation.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The request body `POST /v1/sweep` takes for `spec` (learned policies
/// carry their weight blob as hex).
pub fn wire_body(spec: &SweepSpec) -> String {
    let policies: Vec<JsonValue> = spec
        .policies
        .iter()
        .map(|policy| match policy {
            PolicySpec::Drl { name, weights } => JsonValue::object().with(
                "drl",
                JsonValue::object()
                    .with("name", name.as_str())
                    .with("weights_hex", to_hex(weights)),
            ),
            other => canonical_policy(other).into(),
        })
        .collect();
    JsonValue::object()
        .with("kind", "oic-sweep-spec")
        .with("version", 1usize)
        .with("scenarios", spec.scenarios.clone())
        .with("policies", policies)
        .with("episodes", spec.episodes)
        .with("steps", spec.steps)
        .with("seed", spec.seed.to_string())
        .with("memory", spec.memory)
        .with("chunk", spec.chunk)
        .to_json()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A `done` trailer arrived.
    Done,
    /// Refused with 503.
    Refused,
    /// A non-200 status, an `error` trailer, or a socket error.
    Errored,
    /// The stream ended without a trailer.
    Truncated,
}

/// One timed request.
#[derive(Debug)]
pub struct Response {
    /// How it ended.
    pub status: Status,
    /// Connect to end of stream.
    pub total: Duration,
    /// Connect to the first complete cell line.
    pub first_cell: Option<Duration>,
    /// Response bytes received (head and body).
    pub bytes: usize,
    /// The NDJSON cell lines, in stream order.
    pub cells: Vec<String>,
    /// The trailer line, parsed.
    pub trailer: Option<JsonValue>,
    /// What went wrong, for anything but [`Status::Done`].
    pub error: String,
}

/// A running `serve listen` process on a loopback port.
pub struct Server {
    child: Child,
    addr: String,
    log: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin listen` on an ephemeral loopback port with a disk
    /// cache under `cache_dir` and waits until `/healthz` answers.
    ///
    /// # Errors
    ///
    /// Describes a spawn failure or a server that never became ready.
    pub fn start(bin: &Path, cache_dir: &Path) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("listen")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--allow-shutdown")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
                eprintln!("[server] {line}");
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            log: Some(log),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "server did not report its address within 30 s".to_string())?;
        loop {
            if let Ok(body) = server.get("/healthz") {
                if body.trim() == "ok" {
                    return Ok(server);
                }
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("server did not become healthy within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }

    /// `GET path`, body only.
    fn get(&self, path: &str) -> Result<String, String> {
        let mut stream = self.connect().map_err(|e| e.to_string())?;
        write!(stream, "GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr)
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        let (head, body) = text.split_once("\r\n\r\n").ok_or("malformed response")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(head.lines().next().unwrap_or("").to_string());
        }
        Ok(body.to_string())
    }

    /// The server's `/v1/metrics` document.
    ///
    /// # Errors
    ///
    /// Describes a failed request or an unparsable body.
    pub fn metrics(&self) -> Result<JsonValue, String> {
        let body = self.get("/v1/metrics")?;
        JsonValue::parse(&body).map_err(|e| format!("metrics: {e}"))
    }

    /// Sends one sweep request and times it.
    pub fn sweep(&self, body: &str) -> Response {
        let started = Instant::now();
        let mut response = Response {
            status: Status::Errored,
            total: Duration::ZERO,
            first_cell: None,
            bytes: 0,
            cells: Vec::new(),
            trailer: None,
            error: String::new(),
        };
        let mut raw = Vec::new();
        let outcome = (|| -> std::io::Result<()> {
            let mut stream = self.connect()?;
            write!(
                stream,
                "POST /v1/sweep HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                self.addr,
                body.len()
            )?;
            stream.write_all(body.as_bytes())?;
            let mut buf = [0u8; 64 * 1024];
            loop {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    return Ok(());
                }
                raw.extend_from_slice(&buf[..n]);
                if response.first_cell.is_none() {
                    // The head, then the header line, then the first cell.
                    if let Some(head_end) = find(&raw, b"\r\n\r\n") {
                        let body_lines =
                            raw[head_end + 4..].iter().filter(|&&b| b == b'\n').count();
                        if body_lines >= 2 {
                            response.first_cell = Some(started.elapsed());
                        }
                    }
                }
            }
        })();
        response.total = started.elapsed();
        response.bytes = raw.len();
        if let Err(e) = outcome {
            response.error = format!("socket: {e}");
            return response;
        }
        let text = String::from_utf8_lossy(&raw);
        let Some((head, body)) = text.split_once("\r\n\r\n") else {
            response.status = Status::Truncated;
            response.error = "no header/body separator".to_string();
            return response;
        };
        if head.starts_with("HTTP/1.1 503") {
            response.status = Status::Refused;
            response.error = "503".to_string();
            return response;
        }
        if !head.starts_with("HTTP/1.1 200") {
            response.error = head.lines().next().unwrap_or("").to_string();
            return response;
        }
        let mut lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        let trailer = lines.pop().and_then(|line| JsonValue::parse(line).ok());
        response.cells = lines
            .iter()
            .filter(|line| line.starts_with("{\"cell\":"))
            .map(|line| line.to_string())
            .collect();
        match &trailer {
            Some(doc) if doc.get("done").is_some() => response.status = Status::Done,
            Some(doc) if doc.get("error").is_some() => {
                response.error = doc.to_json();
            }
            _ => {
                response.status = Status::Truncated;
                response.error = "no done/error trailer".to_string();
            }
        }
        response.trailer = trailer;
        response
    }

    /// The server process's peak resident set, in MiB (`VmHWM`).
    ///
    /// # Errors
    ///
    /// Describes an unreadable `/proc` entry.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the server through `/v1/shutdown` and waits for it to exit
    /// (killing it if it has not within 30 s).
    ///
    /// # Errors
    ///
    /// Describes a server that had to be killed or exited with an error.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut stream| {
            write!(
                stream,
                "POST /v1/shutdown HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\n\r\n",
                self.addr
            )?;
            let mut sink = Vec::new();
            stream.read_to_end(&mut sink).map(|_| ())
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break None,
            }
        };
        let result = match (asked, status) {
            (Ok(()), Some(status)) if status.success() => Ok(()),
            (asked, status) => Err(format!(
                "server did not drain cleanly (shutdown request: {asked:?}, exit: {status:?})"
            )),
        };
        self.reap();
        result
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, MiB.
///
/// # Errors
///
/// Describes an unreadable file or a missing field.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_engine::DropoutSpec;

    #[test]
    fn wire_body_parses_back_to_the_same_spec() {
        let registry = oic_bench::golden::registry_with_golden();
        let spec = crate::workload::Workload::ServeMixed.spec(&registry, 12345678901234567);
        let body = wire_body(&spec);
        let parsed = SweepSpec::from_json(&JsonValue::parse(&body).unwrap()).unwrap();
        assert_eq!(parsed.spec_hash(), spec.spec_hash());
        assert_eq!(parsed.seed, 12345678901234567);
        assert!(parsed.dropouts.iter().all(DropoutSpec::is_none));
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.0);
    }
}
