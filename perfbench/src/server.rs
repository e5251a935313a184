//! Running `acs-serve` as a child process, and reading its
//! `/v1/metrics` document.

use crate::client::{request_once, Response};
use crate::inputs::Request;
use acs_errors::json::{parse, Value};
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running `acs-serve`.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `bin` on an ephemeral loopback port with `workers` event-loop
    /// workers; returns once it has printed its address.
    pub fn spawn(bin: &Path, workers: usize) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout pipe"))?;
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(ServerProc { child, stdin, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "acs-serve did not report its address: {line:?}"
                )))
            }
        }
    }

    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send each request in turn until it answers 200 (retrying while
    /// the server warms up); fails after `timeout`.
    pub fn await_ok(&self, requests: &[Arc<Request>], timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        for r in requests {
            loop {
                match request_once(self.addr, &r.wire, timeout) {
                    Ok(Response { status: 200, .. }) => break,
                    Ok(Response { status, .. }) if Instant::now() >= deadline => {
                        return Err(io::Error::other(format!(
                            "{} {} -> {status}",
                            r.method, r.path
                        )))
                    }
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        Ok(())
    }

    /// Graceful stop (a `shutdown` line on stdin), then reap; kills the
    /// process if it has not exited within five seconds.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached only on an error path: never leave a server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A `/v1/metrics` document. Values are read by dotted path; a name the
/// server does not report reads as absent, never as zero.
#[derive(Debug, Clone)]
pub struct Metrics(Value);

impl Metrics {
    pub fn fetch(addr: SocketAddr) -> io::Result<Self> {
        let wire = b"GET /v1/metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
        let response = request_once(addr, wire, Duration::from_secs(10))?;
        Self::parse(&String::from_utf8_lossy(&response.body))
    }

    pub fn parse(text: &str) -> io::Result<Self> {
        parse(text)
            .map(Metrics)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// The number at `path` (`"caches.screen.hits"`), if reported.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<f64> {
        path.split('.')
            .try_fold(&self.0, |v, key| v.get(key))?
            .as_f64()
    }

    /// `after - before` at `path`, if both report it.
    #[must_use]
    pub fn delta(before: &Metrics, after: &Metrics, path: &str) -> Option<f64> {
        Some(after.get(path)? - before.get(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reader_reports_missing_names_as_absent() {
        let before =
            Metrics::parse(r#"{"caches":{"screen":{"hits":3},"raw":{"hits":1}}}"#).unwrap();
        let after = Metrics::parse(
            r#"{"caches":{"screen":{"hits":10},"raw":{"hits":1}},"reactor":{"events":5}}"#,
        )
        .unwrap();
        assert_eq!(after.get("caches.screen.hits"), Some(10.0));
        assert_eq!(
            Metrics::delta(&before, &after, "caches.screen.hits"),
            Some(7.0)
        );
        assert_eq!(
            Metrics::delta(&before, &after, "caches.raw.hits"),
            Some(0.0)
        );
        // A layer a later change removes: absent, not zero, not an error.
        assert_eq!(after.get("caches.sim_steps.hits"), None);
        assert_eq!(Metrics::delta(&before, &after, "reactor.events"), None);
        assert_eq!(
            after.get("caches.screen"),
            None,
            "an object is not a number"
        );
    }
}
