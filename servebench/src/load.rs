//! Load generation: an open-loop Poisson schedule over at most two
//! keep-alive connections, and a closed loop of one outstanding
//! request. Latency is measured from a request's scheduled send time,
//! so a stall is charged to every request queued behind it. While load
//! runs, the calling thread logs the host's steal time.

use crate::client::{makespans, Conn};
use crate::stats::proc_steal_ticks;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Client threads and connections: the box's two cores.
pub const CLIENT_THREADS: usize = 2;

/// How often the calling thread reads the steal time during open-loop
/// load.
const STEAL_EVERY: Duration = Duration::from_millis(50);

/// Readings of `/proc/stat` over time: how much of this guest's CPU
/// time the hypervisor gave to other guests. On a shared host, latency
/// follows steal closely; the reported numbers come from the stretches
/// with the least of it.
#[derive(Debug, Default, Clone)]
pub struct StealLog(Vec<(Instant, u64, u64)>);

impl StealLog {
    /// Takes a reading now; none where `/proc/stat` has no steal field.
    pub fn sample(&mut self) {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        if let Some((steal, total)) = proc_steal_ticks(&text) {
            self.0.push((Instant::now(), steal, total));
        }
    }

    /// Share of CPU time stolen from `from` to `to`, between the last
    /// reading at or before `from` and the first at or after `to` (the
    /// first and last readings where the span runs past them); 0 without
    /// two distinct readings.
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let a = self.0.iter().rev().find(|r| r.0 <= from).or(self.0.first());
        let b = self.0.iter().find(|r| r.0 >= to).or(self.0.last());
        match (a, b) {
            (Some(a), Some(b)) if b.2 > a.2 => (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
            _ => 0.0,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Seconds after the phase start.
    pub at: f64,
    /// Index of its request frame.
    pub frame: usize,
    /// Keep the whole response body for the witness checks.
    pub keep_body: bool,
}

/// What one request saw.
#[derive(Debug, Clone)]
pub struct Sample {
    pub frame: usize,
    /// Scheduled and completed, in seconds after the phase start.
    pub scheduled: f64,
    pub done: f64,
    /// 0 when the exchange failed below HTTP.
    pub status: u16,
    pub makespans: Vec<i64>,
    pub body: Option<Vec<u8>>,
    /// How late the generator itself was: the send time minus the
    /// later of the schedule and the connection becoming free.
    pub late: f64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled) * 1e3
    }

    /// Latency for the percentiles: a failed or refused request counts
    /// as missing every limit.
    pub fn counted_ms(&self) -> f64 {
        if self.ok() {
            self.latency_ms()
        } else {
            f64::INFINITY
        }
    }

    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

fn exchange(conn: &mut Conn, frame: &[u8], keep_body: bool) -> (u16, Vec<i64>, Option<Vec<u8>>) {
    match conn.exchange(frame) {
        Ok((status, body)) => {
            let spans = makespans(&body);
            (status, spans, keep_body.then_some(body))
        }
        Err(_) => (0, Vec::new(), None),
    }
}

/// Runs an open-loop schedule starting at `start`; arrivals are dealt
/// round-robin to [`CLIENT_THREADS`] threads, each on its own
/// connection, while the calling thread logs steal into `steal`.
/// Samples come back in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    arrivals: &[Arrival],
    start: Instant,
    steal: &mut StealLog,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut free = 0.0f64;
                    let mut out = Vec::new();
                    for (i, arrival) in arrivals.iter().enumerate().skip(t).step_by(CLIENT_THREADS)
                    {
                        let due = start + Duration::from_secs_f64(arrival.at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let (status, makespans, body) =
                            exchange(&mut conn, &frames[arrival.frame], arrival.keep_body);
                        let done = start.elapsed().as_secs_f64();
                        out.push((
                            i,
                            Sample {
                                frame: arrival.frame,
                                scheduled: arrival.at,
                                done,
                                status,
                                makespans,
                                body,
                                late: (sent - arrival.at.max(free)).max(0.0),
                            },
                        ));
                        free = done;
                    }
                    out
                })
            })
            .collect::<Vec<_>>();
        steal.sample();
        while !workers.iter().all(|w| w.is_finished()) {
            std::thread::sleep(STEAL_EVERY);
            steal.sample();
        }
        let mut all: Vec<(usize, Sample)> =
            workers.into_iter().flat_map(|w| w.join().expect("load thread panicked")).collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| s).collect()
    });
    samples.shrink_to_fit();
    samples
}

/// Sends `frames` in order on one connection, one outstanding at a
/// time, until `seconds` have passed; latency runs from send to the
/// full response. Steal is read before each send.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    keep_body: impl Fn(usize) -> bool,
    seconds: f64,
    steal: &mut StealLog,
) -> Result<(Vec<Sample>, f64), String> {
    let mut conn = Conn::new(addr);
    let start = Instant::now();
    let mut out = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        steal.sample();
        let sent = start.elapsed().as_secs_f64();
        if sent >= seconds {
            return Ok((out, sent));
        }
        let (status, makespans, body) = exchange(&mut conn, frame, keep_body(i));
        let done = start.elapsed().as_secs_f64();
        out.push(Sample { frame: i, scheduled: sent, done, status, makespans, body, late: 0.0 });
    }
    Err(format!("the closed loop ran out of its {} prepared requests", frames.len()))
}
