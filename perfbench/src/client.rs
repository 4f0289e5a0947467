//! The benchmark's own closed-loop HTTP/1.1 client: keep-alive
//! connections, `Content-Length` framing, one request in flight per
//! connection. It counts `/solve` requests only, and it does not share
//! code with the program's load generator, so an edit there cannot
//! change this instrument.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status, body, and the time from the first request byte
/// written to the last response byte read.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub elapsed: Duration,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    pub fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        let start = Instant::now();
        self.stream.write_all(&request)?;
        let (status, body) = self.read_response()?;
        Ok(Reply {
            status,
            body,
            elapsed: start.elapsed(),
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let status = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < head_end + 4 + length {
            self.fill()?;
        }
        let body =
            String::from_utf8_lossy(&self.buf[head_end + 4..head_end + 4 + length]).into_owned();
        self.buf.drain(..head_end + 4 + length);
        Ok((status, body))
    }
}

/// The inside of a `/solve` response's `"widths":{...}` object.
pub fn widths_fields(body: &str) -> Option<&str> {
    let start = body.find("\"widths\":{")? + "\"widths\":{".len();
    let len = body[start..].find('}')?;
    Some(&body[start..start + len])
}

/// One instance's successful answers in a window.
pub struct Answered {
    /// The widths its first answer carried; later answers must repeat it.
    pub fields: String,
    /// Latency of each successful answer, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// What a traffic window measured, client side. Every request is counted
/// once: as an answer of its instance, or as a failure.
#[derive(Default)]
pub struct Window {
    /// Per instance key, its successful answers.
    pub answers: HashMap<usize, Answered>,
    pub failed: u64,
    pub seconds: f64,
}

impl Window {
    /// Records a 200 for `key`: a success when it repeats the instance's
    /// earlier answers, otherwise a failure.
    fn record(&mut self, key: usize, fields: &str, latency_ms: f64) {
        match self.answers.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Answered {
                    fields: fields.to_string(),
                    latencies_ms: vec![latency_ms],
                });
            }
            Entry::Occupied(mut o) if o.get().fields == fields => {
                o.get_mut().latencies_ms.push(latency_ms)
            }
            Entry::Occupied(_) => {
                eprintln!("perfbench: instance {key} answered inconsistently");
                self.failed += 1;
            }
        }
    }

    /// Merges another connection's or another slice's window; answers
    /// that disagree with this window's answers for the same instance are
    /// failures.
    pub fn absorb(&mut self, other: Window) {
        self.failed += other.failed;
        self.seconds += other.seconds;
        for (key, theirs) in other.answers {
            match self.answers.entry(key) {
                Entry::Vacant(v) => {
                    v.insert(theirs);
                }
                Entry::Occupied(mut o) if o.get().fields == theirs.fields => {
                    o.get_mut().latencies_ms.extend(theirs.latencies_ms)
                }
                Entry::Occupied(_) => {
                    eprintln!("perfbench: instance {key} answered inconsistently");
                    self.failed += theirs.latencies_ms.len() as u64;
                }
            }
        }
    }

    /// Moves every answer of `key` from the successes to the failures.
    pub fn reject(&mut self, key: usize) {
        if let Some(a) = self.answers.remove(&key) {
            self.failed += a.latencies_ms.len() as u64;
        }
    }

    pub fn ok(&self) -> u64 {
        self.answers
            .values()
            .map(|a| a.latencies_ms.len() as u64)
            .sum()
    }

    /// Latency of every successful `/solve`, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.answers
            .values()
            .flat_map(|a| a.latencies_ms.iter().copied())
            .collect()
    }

    pub fn qps(&self) -> f64 {
        self.ok() as f64 / self.seconds
    }
}

/// The request mix of a window: stream position to instance key, and
/// instance key to request body.
pub struct Traffic<'a> {
    pub pick: &'a (dyn Fn(usize) -> usize + Sync),
    pub body: &'a (dyn Fn(usize) -> String + Sync),
}

/// Drives `conns` closed-loop connections for `duration`, taking
/// requests in stream order from `cursor` (shared, so a later window
/// continues the stream).
pub fn run_window(
    addr: SocketAddr,
    conns: usize,
    traffic: &Traffic,
    cursor: &AtomicUsize,
    duration: Duration,
) -> Window {
    let start = Instant::now();
    let deadline = start + duration;
    let mut total = Window::default();
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| scope.spawn(|| drive(addr, traffic, cursor, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    total.seconds = start.elapsed().as_secs_f64();
    for part in parts {
        total.absorb(part);
    }
    total
}

fn drive(addr: SocketAddr, traffic: &Traffic, cursor: &AtomicUsize, deadline: Instant) -> Window {
    let mut out = Window::default();
    let mut bodies: HashMap<usize, String> = HashMap::new();
    let mut conn: Option<Conn> = None;
    while Instant::now() < deadline {
        let key = (traffic.pick)(cursor.fetch_add(1, Ordering::Relaxed));
        let body = bodies.entry(key).or_insert_with(|| (traffic.body)(key));
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    eprintln!("perfbench: connect: {e}");
                    out.failed += 1;
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        match c.call("POST", "/solve", body) {
            Ok(reply) if reply.status == 200 => match widths_fields(&reply.body) {
                Some(fields) => out.record(key, fields, reply.elapsed.as_secs_f64() * 1e3),
                None => {
                    eprintln!("perfbench: 200 without widths: {}", reply.body);
                    out.failed += 1;
                }
            },
            Ok(reply) => {
                eprintln!(
                    "perfbench: /solve answered {}: {}",
                    reply.status,
                    reply.body.trim()
                );
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: /solve transport error: {e}");
                out.failed += 1;
                conn = None;
            }
        }
    }
    out
}
