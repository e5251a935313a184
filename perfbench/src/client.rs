//! The benchmark's own HTTP/1.1 client: an open-loop generator that
//! sends each request at its scheduled time whether or not earlier ones
//! have been answered (pipelining on a keep-alive connection), and times
//! it from that scheduled time to its last byte.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A complete response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    /// The payload, de-chunked when the response was chunked.
    pub body: Vec<u8>,
    pub chunked: bool,
}

/// Result of framing the front of a receive buffer.
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// More bytes are needed; `first_chunk` is true once the head and at
    /// least one data chunk of a chunked response have arrived.
    Incomplete { first_chunk: bool },
    /// One response occupying the first `consumed` bytes.
    Complete { response: Response, consumed: usize },
    /// The bytes can never frame a response.
    Invalid(String),
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Frame one response from the front of `buf`.
#[must_use]
pub fn parse_response(buf: &[u8]) -> Frame {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Frame::Incomplete { first_chunk: false };
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Frame::Invalid("response head is not UTF-8".to_owned());
    };
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status else {
        return Frame::Invalid(format!("bad status line in {head:?}"));
    };
    let mut length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Frame::Invalid(format!("bad header line {line:?}"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) => length = Some(n),
                Err(_) => return Frame::Invalid(format!("bad Content-Length {value:?}")),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.trim().eq_ignore_ascii_case("chunked");
        }
    }
    let mut at = head_end + 4;
    if !chunked {
        let n = length.unwrap_or(0);
        return match buf.get(at..at + n) {
            Some(body) => Frame::Complete {
                response: Response {
                    status,
                    body: body.to_vec(),
                    chunked: false,
                },
                consumed: at + n,
            },
            None => Frame::Incomplete { first_chunk: false },
        };
    }
    let mut body = Vec::new();
    let mut chunks = 0usize;
    loop {
        let Some(eol) = find(&buf[at..], b"\r\n") else {
            return Frame::Incomplete {
                first_chunk: chunks > 0,
            };
        };
        let size_text = String::from_utf8_lossy(&buf[at..at + eol]);
        let Ok(size) = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
        else {
            return Frame::Invalid(format!("bad chunk size {size_text:?}"));
        };
        let data = at + eol + 2;
        if size == 0 {
            // Last chunk: no trailers are sent, so the frame ends at the
            // blank line that follows.
            return match buf.get(data..data + 2) {
                Some(b"\r\n") => {
                    let response = Response {
                        status,
                        body,
                        chunked: true,
                    };
                    Frame::Complete {
                        response,
                        consumed: data + 2,
                    }
                }
                Some(_) => Frame::Invalid("chunked trailers are not expected".to_owned()),
                None => Frame::Incomplete {
                    first_chunk: chunks > 0,
                },
            };
        }
        match buf.get(data..data + size + 2) {
            Some(chunk) if chunk.ends_with(b"\r\n") => {
                body.extend_from_slice(&chunk[..size]);
                chunks += 1;
                at = data + size + 2;
            }
            Some(_) => return Frame::Invalid("chunk not followed by CRLF".to_owned()),
            None => {
                return Frame::Incomplete {
                    first_chunk: chunks > 0,
                }
            }
        }
    }
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the phase's request list.
    pub index: usize,
    /// How late the generator sent it, in seconds.
    pub late_s: f64,
    /// Scheduled send time to last byte, in seconds; `None` when the
    /// request got no complete response (transport failure).
    pub latency_s: Option<f64>,
    /// Scheduled send time to the first chunk of a chunked response.
    pub first_chunk_s: Option<f64>,
    /// Response status (0 without a response).
    pub status: u16,
    /// The response, kept only for requests selected for checking or
    /// when the caller asks for every body.
    pub response: Option<Response>,
}

impl Outcome {
    /// A request fails when it gets no response or an unexpected status
    /// (every request the benchmark sends expects 200; a 503 shed fails).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.latency_s.is_none() || self.status != 200
    }

    /// Latency counted against a limit: a failed request misses any
    /// limit, so it counts as infinitely slow.
    #[must_use]
    pub fn latency_or_miss(&self) -> f64 {
        if self.failed() {
            f64::INFINITY
        } else {
            self.latency_s.unwrap_or(f64::INFINITY)
        }
    }
}

/// One scheduled send: offset from the phase start and the request's
/// index.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub due_s: f64,
    pub index: usize,
}

/// Drive `slots` (sorted by `due_s`) over `conns`, slot `i` on
/// connection `i % conns.len()`, one thread per connection. Requests
/// still unanswered `drain` after the last due time fail.
pub fn open_loop(
    conns: &mut [TcpStream],
    slots: &[Slot],
    wires: &[&[u8]],
    keep: &(dyn Fn(usize) -> bool + Sync),
    drain: Duration,
) -> Vec<Outcome> {
    let start = Instant::now() + Duration::from_millis(5);
    let k = conns.len().max(1);
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<Slot> = slots.iter().skip(c).step_by(k).copied().collect();
                scope.spawn(move || drive(conn, &mine, wires, keep, start, drain))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

struct InFlight {
    index: usize,
    due: Instant,
    late_s: f64,
    first_chunk_s: Option<f64>,
}

fn drive(
    conn: &mut TcpStream,
    slots: &[Slot],
    wires: &[&[u8]],
    keep: &(dyn Fn(usize) -> bool + Sync),
    start: Instant,
    drain: Duration,
) -> Vec<Outcome> {
    let mut out = Vec::with_capacity(slots.len());
    let mut queue: VecDeque<InFlight> = VecDeque::new();
    // Bytes received but not yet framed start at `buf[at]`.
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut at = 0;
    // Bytes due to be sent but not yet taken by the socket start at
    // `pending[sent]`. Writes never block for long, so the thread keeps
    // reading while the server pushes back: a blocking write could wait
    // on a server that waits for this thread to read.
    let mut pending: Vec<u8> = Vec::new();
    let mut sent = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let due_of = |slot: &Slot| start + Duration::from_secs_f64(slot.due_s);
    let hard_stop = slots.last().map_or(start, due_of) + drain;
    let mut broken: Option<String> = None;
    if conn
        .set_write_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        broken = Some("cannot set write timeout".to_owned());
    }
    while broken.is_none() && (next < slots.len() || !queue.is_empty()) {
        let now = Instant::now();
        while next < slots.len() && due_of(&slots[next]) <= now {
            let slot = slots[next];
            next += 1;
            let due = due_of(&slot);
            let late_s = now.saturating_duration_since(due).as_secs_f64();
            pending.extend_from_slice(wires[slot.index]);
            queue.push_back(InFlight {
                index: slot.index,
                due,
                late_s,
                first_chunk_s: None,
            });
        }
        if sent < pending.len() {
            match conn.write(&pending[sent..]) {
                Ok(n) => sent += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => broken = Some(format!("write: {e}")),
            }
            if sent == pending.len() {
                pending.clear();
                sent = 0;
            }
        }
        let now = Instant::now();
        if broken.is_some() {
            break;
        }
        if now >= hard_stop {
            broken = Some("responses still outstanding at the drain deadline".to_owned());
            break;
        }
        let wake = if sent < pending.len() {
            now + Duration::from_micros(100)
        } else if next < slots.len() {
            due_of(&slots[next])
        } else {
            hard_stop
        };
        let wait = wake
            .saturating_duration_since(now)
            .max(Duration::from_micros(50));
        if queue.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if conn.set_read_timeout(Some(wait)).is_err() {
            broken = Some("cannot set read timeout".to_owned());
            break;
        }
        match conn.read(&mut chunk) {
            Ok(0) => broken = Some("server closed the connection".to_owned()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => broken = Some(format!("read: {e}")),
        }
        let arrived = Instant::now();
        while let Some(front) = queue.front_mut() {
            match parse_response(&buf[at..]) {
                Frame::Complete { response, consumed } => {
                    at += consumed;
                    let f = queue.pop_front().expect("front exists");
                    let latency_s = arrived.duration_since(f.due).as_secs_f64();
                    // A stream that arrived in one read got its first
                    // chunk when it completed.
                    let first_chunk_s = f.first_chunk_s.or(response.chunked.then_some(latency_s));
                    out.push(Outcome {
                        index: f.index,
                        late_s: f.late_s,
                        latency_s: Some(latency_s),
                        first_chunk_s,
                        status: response.status,
                        response: (response.status != 200 || keep(f.index)).then_some(response),
                    });
                }
                Frame::Incomplete { first_chunk } => {
                    if first_chunk && front.first_chunk_s.is_none() {
                        front.first_chunk_s = Some(arrived.duration_since(front.due).as_secs_f64());
                    }
                    break;
                }
                Frame::Invalid(e) => {
                    broken = Some(e);
                    break;
                }
            }
        }
        buf.drain(..at);
        at = 0;
    }
    if let Some(reason) = &broken {
        eprintln!("perfbench: connection failed: {reason}");
    }
    let unanswered = |index: usize, late_s: f64| Outcome {
        index,
        late_s,
        latency_s: None,
        first_chunk_s: None,
        status: 0,
        response: None,
    };
    out.extend(queue.into_iter().map(|f| unanswered(f.index, f.late_s)));
    out.extend(slots[next..].iter().map(|s| unanswered(s.index, 0.0)));
    out
}

/// The event-loop worker the server assigns a connection from `local`
/// to: FNV-1a over the length-prefixed peer-address text, modulo the
/// worker count. This mirrors `acs-serve`'s placement so the benchmark
/// can pick its connections' workers without the server's help.
#[must_use]
pub fn worker_of(local: SocketAddr, workers: usize) -> usize {
    let text = local.to_string();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in (text.len() as u64)
        .to_le_bytes()
        .iter()
        .chain(text.as_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % workers.max(1) as u64) as usize
}

/// `n` connections spread over distinct workers (as far as `workers`
/// allows), redialling until the placement holds. Returns the
/// connections, their workers and the number of redials.
pub fn dial_spread(
    addr: SocketAddr,
    n: usize,
    workers: usize,
) -> io::Result<(Vec<TcpStream>, Vec<usize>, usize)> {
    let mut conns = Vec::new();
    let mut placed = Vec::new();
    let mut redials = 0;
    while conns.len() < n {
        let conn = TcpStream::connect(addr)?;
        let worker = worker_of(conn.local_addr()?, workers);
        // Fill every worker once before any gets a second connection.
        let taken = |w: usize| placed.iter().filter(|&&p| p == w).count();
        let least = (0..workers.max(1)).map(taken).min().unwrap_or(0);
        if taken(worker) > least {
            redials += 1;
            if redials > 1000 {
                return Err(io::Error::other(
                    "could not spread connections over workers",
                ));
            }
            continue;
        }
        conn.set_nodelay(true)?;
        conns.push(conn);
        placed.push(worker);
    }
    Ok((conns, placed, redials))
}

/// Send one request on a fresh connection and wait for its response.
pub fn request_once(addr: SocketAddr, wire: &[u8], timeout: Duration) -> io::Result<Response> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.write_all(wire)?;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        match parse_response(&buf) {
            Frame::Complete { response, .. } => return Ok(response),
            Frame::Invalid(e) => return Err(io::Error::other(e)),
            Frame::Incomplete { .. } => {}
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frames_length_and_chunked_responses() {
        let plain = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1";
        assert_eq!(
            parse_response(plain),
            Frame::Complete {
                response: Response {
                    status: 200,
                    body: b"hi".to_vec(),
                    chunked: false
                },
                consumed: 40
            }
        );
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n";
        match parse_response(chunked) {
            Frame::Complete { response, consumed } => {
                assert_eq!(response.body, b"ab\ncd");
                assert!(response.chunked);
                assert_eq!(consumed, chunked.len());
            }
            other => panic!("{other:?}"),
        }
        let partial = &chunked[..chunked.len() - 9];
        assert_eq!(
            parse_response(partial),
            Frame::Incomplete { first_chunk: true }
        );
        assert_eq!(
            parse_response(&chunked[..50]),
            Frame::Incomplete { first_chunk: false }
        );
        assert!(matches!(
            parse_response(b"garbage\r\n\r\n"),
            Frame::Invalid(_)
        ));
    }

    #[test]
    fn placement_mirrors_the_server_hash() {
        // FNV-1a of the 8-byte little-endian length 15 then the text.
        let addr: SocketAddr = "127.0.0.1:40000".parse().unwrap();
        let w = worker_of(addr, 2);
        assert!(w < 2);
        assert_eq!(w, worker_of(addr, 2));
        assert_eq!(worker_of(addr, 1), 0);
    }

    #[test]
    fn a_refused_request_fails_and_misses_the_limit() {
        // A server that answers the first request 200 and sheds the
        // second with 503, then closes before the third is answered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 4096];
            while seen.windows(4).filter(|w| w == b"\r\n\r\n").count() < 3 {
                let n = s.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            s.write_all(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        });
        let mut conns = vec![TcpStream::connect(addr).unwrap()];
        let wire: &[u8] = b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let wires = vec![wire; 3];
        let slots: Vec<Slot> = (0..3)
            .map(|i| Slot {
                due_s: 0.0,
                index: i,
            })
            .collect();
        let outcomes = open_loop(
            &mut conns,
            &slots,
            &wires,
            &|_| false,
            Duration::from_secs(2),
        );
        server.join().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].failed());
        assert!(outcomes[0].latency_or_miss().is_finite());
        assert!(outcomes[1].failed() && outcomes[1].status == 503);
        assert_eq!(outcomes[1].latency_or_miss(), f64::INFINITY);
        assert!(outcomes[2].failed() && outcomes[2].latency_s.is_none());
        assert_eq!(outcomes[2].latency_or_miss(), f64::INFINITY);
    }
}
