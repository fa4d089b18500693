//! The server under test: a fresh `mst serve --store <copy of the log>`
//! child process per boot, measured through `/proc` and its own
//! `/metrics` exposition.

use crate::client;
use crate::stats::{cpu_secs, prom_value, vm_hwm_kb};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `mst serve` on a free port with `store` as its history
    /// log and returns once it answers `/healthz`.
    pub fn boot(mst: &Path, store: &Path) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(mst)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mst.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        let mut server = Server { child, addr: "127.0.0.1:0".parse().expect("valid"), spawned };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("mst serve did not announce an address: {line:?}")),
        }
        match client::get(server.addr, "/healthz") {
            Ok((200, _)) => Ok(server),
            other => Err(format!("mst serve is not healthy: {other:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Server CPU seconds (user + system, all threads) so far.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        cpu_secs(&self.pid()).ok_or_else(|| "cannot read the server's /proc stat".to_string())
    }

    /// Peak resident set size in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kb = vm_hwm_kb(&status).ok_or("no VmHWM in the server's /proc status")?;
        Ok(kb as f64 / 1024.0)
    }

    /// The Prometheus exposition, as text.
    pub fn prometheus(&self) -> Result<Counters, String> {
        match client::get(self.addr, "/metrics?format=prometheus") {
            Ok((200, body)) => Ok(Counters(String::from_utf8_lossy(&body).into_owned())),
            other => Err(format!("metrics scrape failed: {other:?}")),
        }
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A run that fails half-way must not leave its server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One scrape of the server's counters.
#[derive(Debug, Clone)]
pub struct Counters(String);

impl Counters {
    pub fn get(&self, name: &str) -> f64 {
        prom_value(&self.0, name, "").unwrap_or(0.0)
    }

    pub fn tenant(&self, name: &str) -> f64 {
        prom_value(&self.0, name, "tenant=\"default\"").unwrap_or(0.0)
    }

    /// `later - self` for a plain counter.
    pub fn delta(&self, later: &Counters, name: &str) -> f64 {
        later.get(name) - self.get(name)
    }

    /// `later - self` for a counter with `labels`.
    pub fn labeled_delta(&self, later: &Counters, name: &str, labels: &str) -> f64 {
        let value = |c: &Counters| prom_value(&c.0, name, labels).unwrap_or(0.0);
        value(later) - value(self)
    }

    /// `later - self` for a default-tenant counter.
    pub fn tenant_delta(&self, later: &Counters, name: &str) -> f64 {
        later.tenant(name) - self.tenant(name)
    }
}
