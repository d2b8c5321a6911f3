//! The server process and line-protocol connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Pid of the running server (0 when none), for the run watchdog.
static SERVER_PID: AtomicU32 = AtomicU32::new(0);

/// Kill the running server, if any: the watchdog's exit path, which
/// skips destructors.
pub fn kill_running_server() {
    let pid = SERVER_PID.swap(0, Ordering::SeqCst);
    if pid != 0 {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// Longest a single reply may take before the connection counts as
/// dropped (a scan is ~100 ms; this only catches a hung server).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest the server may take to print `listening on`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `tahoma-serve --backend nn` child process.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn to `listening on`: fixture build, calibration and ingest.
    pub setup: Duration,
    pub store_dir: PathBuf,
}

impl Server {
    /// Boot the server on an ephemeral port with `seed` (corpus, weights
    /// and streams all derive from it) over the persistent store in
    /// `store_dir`, which must not exist yet, so every boot ingests afresh.
    pub fn spawn(
        bin: &Path,
        seed: u64,
        corpus: usize,
        store_dir: &Path,
        log: &Path,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--backend", "nn", "--addr", "127.0.0.1:0", "--workers", "4"])
            .args(["--corpus", &corpus.to_string(), "--seed", &seed.to_string()]);
        cmd.arg("--store-dir").arg(store_dir);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        SERVER_PID.store(child.id(), Ordering::SeqCst);
        let stdout = child.stdout.take().expect("stdout is piped");
        // The reader thread ends when the child closes stdout (it exits).
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send((Instant::now(), addr.trim().to_string()));
                }
            }
        });
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok((at, addr)) => Ok(Server {
                child,
                addr,
                setup: at - t0,
                store_dir: store_dir.to_path_buf(),
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                Err("server did not print `listening on`".to_string())
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Send `SHUTDOWN` and wait for the process to exit (killing it if it
    /// does not within a few seconds). Every client connection must be
    /// closed first: workers drain their connection before exiting.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.request("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error paths: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        SERVER_PID.store(0, Ordering::SeqCst);
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Split into a sending half and a receiving half, for open-loop
    /// traffic that does not wait for replies before sending.
    pub fn split(self) -> (TcpStream, Conn) {
        let writer = self.writer.try_clone().expect("socket clone");
        (writer, self)
    }
}

/// The value of ` key=value` in a response line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// `field` parsed as a number (`sum=` is hex).
pub fn num(line: &str, key: &str) -> Option<u64> {
    let v = field(line, key)?;
    if key == "sum" || key == "rescan" {
        u64::from_str_radix(v, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// A comma-joined id list (`-` is empty).
pub fn ids(line: &str, key: &str) -> Option<Vec<u64>> {
    let v = field(line, key)?;
    if v == "-" {
        return Some(Vec::new());
    }
    v.split(',').map(|s| s.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_fields() {
        let line = "OK qid=2 tick=5 window=8..40 matched=2 entered=8 scored=8 \
                    sum=000000000000abcd added=3,9 removed=-";
        assert_eq!(num(line, "qid"), Some(2));
        assert_eq!(num(line, "sum"), Some(0xabcd));
        assert_eq!(ids(line, "added"), Some(vec![3, 9]));
        assert_eq!(ids(line, "removed"), Some(vec![]));
        assert_eq!(field(line, "window"), Some("8..40"));
        assert_eq!(field(line, "sums"), None);
        assert_eq!(num("OK n=3 survivors=9", "n"), Some(3));
    }
}
