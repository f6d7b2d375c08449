//! The open-loop load generator: one process, two threads, at most two
//! connections. The calling thread writes pre-encoded frames on schedule;
//! one receiver thread reads every connection (multiplexed with `poll`)
//! and correlates replies — `QueryFor` by request id, mutation replies in
//! send order. Latency is taken from each request's *scheduled* send
//! time, so a stalled server also charges the requests it delayed.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use deepjoin_serve::{QueryReply, Response};

use crate::stats::{percentile, RungOutcome, Slo};
use crate::streams::{Rung, SlotKind};

mod sys {
    use std::os::raw::{c_int, c_short, c_ulong};

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Block until one of `streams` is readable or `timeout_ms` passes; the
/// flag per stream says whether it is readable (or closed), so one `read`
/// on it returns without blocking.
fn readable(streams: &[TcpStream], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut fds: Vec<sys::PollFd> = streams
        .iter()
        .map(|s| sys::PollFd {
            fd: s.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is an exclusively borrowed, initialized array of
    // `pollfd`-layout structs and `nfds` is its exact length; `poll` only
    // writes the `revents` fields inside it, and every fd stays open for
    // the call because `streams` borrows the sockets that own them.
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// A reply as the receiver recorded it.
#[derive(Debug, Clone)]
pub enum Reply {
    Query(QueryReply),
    Mutated { applied: u64 },
    Failed(String),
}

const PENDING: u8 = 0;
const OK: u8 = 1;
const FAILED: u8 = 2;

/// Per-slot timing and status, shared by the sender and the receiver.
pub struct Record {
    due_ns: Vec<AtomicU64>,
    sent_ns: Vec<AtomicU64>,
    recv_ns: Vec<AtomicU64>,
    status: Vec<AtomicU8>,
}

impl Record {
    fn new(n: usize) -> Self {
        let zeros = || (0..n).map(|_| AtomicU64::new(0)).collect();
        Record {
            due_ns: zeros(),
            sent_ns: zeros(),
            recv_ns: zeros(),
            status: (0..n).map(|_| AtomicU8::new(PENDING)).collect(),
        }
    }

    /// Scheduled send time of a slot, ns since the run's epoch.
    pub fn due_ns(&self, slot: usize) -> u64 {
        self.due_ns[slot].load(Ordering::Acquire)
    }

    /// Actual send time of a slot, ns since the run's epoch.
    pub fn sent_ns(&self, slot: usize) -> u64 {
        self.sent_ns[slot].load(Ordering::Acquire)
    }

    /// Receive time of a slot's reply, ns since the run's epoch.
    pub fn recv_ns(&self, slot: usize) -> u64 {
        self.recv_ns[slot].load(Ordering::Acquire)
    }

    pub fn answered(&self, slot: usize) -> bool {
        self.status[slot].load(Ordering::Acquire) == OK
    }

    /// Latency from the scheduled send time, ms; `None` if never answered.
    pub fn latency_ms(&self, slot: usize) -> Option<f64> {
        self.answered(slot)
            .then(|| self.recv_ns(slot).saturating_sub(self.due_ns(slot)) as f64 / 1e6)
    }
}

/// Everything one ladder run observed.
pub struct LadderRun {
    pub record: Record,
    pub replies: Vec<Option<Reply>>,
    pub outcomes: Vec<RungOutcome>,
    /// Per-rung window `[start, end)` in ns since the epoch.
    pub windows: Vec<(u64, u64)>,
    /// How late each write went out after its scheduled time, ms.
    pub lag_ms: Vec<f64>,
    /// Server CPU per rung, in consecutive stretches of [`CPU_WINDOW`]
    /// from its first write on; the last runs until its last reply arrived.
    pub cpu: Vec<Vec<CpuWindow>>,
}

/// How often the server's CPU clock is read during a rung's schedule.
pub const CPU_WINDOW: Duration = Duration::from_secs(1);

/// Server CPU over one stretch of a rung: the seconds it used, and the
/// queries sent to it meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    pub cpu_s: f64,
    pub queries: usize,
}

/// Drives `rungs` over `conns` (connection 0 carries queries, 1 carries
/// mutations), judging each rung against `slo`. Between rungs it waits for
/// every reply (up to `drain_timeout`), so rungs do not bleed into each
/// other. `server_cpu_s` reads the server's CPU clock every [`CPU_WINDOW`].
pub fn run_ladder(
    conns: &[TcpStream],
    rungs: &[Rung],
    slots: &[SlotKind],
    slo: &Slo,
    drain_timeout: Duration,
    server_cpu_s: impl Fn() -> io::Result<f64>,
) -> io::Result<LadderRun> {
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let n = slots.len();
    let record = Record::new(n);
    let mutation_slots: Vec<usize> = (0..n)
        .filter(|&s| matches!(slots[s], SlotKind::Mutation(_)))
        .collect();
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;
    let received = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut writers: Vec<&TcpStream> = conns.iter().collect();
    let mut outcomes = Vec::new();
    let mut windows = Vec::new();
    let mut lag_ms = Vec::new();
    let mut cpu = Vec::new();

    let replies = std::thread::scope(|s| -> io::Result<Vec<Option<Reply>>> {
        let receiver =
            s.spawn(|| receive(&readers, &mutation_slots, &record, &received, &stop, epoch));
        let mut sent_total = 0usize;
        let mut send = || -> io::Result<()> {
            let sleep_until = |at: u64| {
                let now = now_ns();
                if at > now {
                    std::thread::sleep(Duration::from_nanos(at - now));
                }
            };
            let window_ns = CPU_WINDOW.as_nanos() as u64;
            for rung in rungs {
                let mut cpu_mark = server_cpu_s()?;
                let mut rung_cpu = Vec::new();
                let mut queries = 0usize;
                let start = now_ns() + 2_000_000;
                let mut window_end = start + window_ns;
                for op in &rung.ops {
                    let due = start + op.due_ns;
                    if due >= window_end {
                        sleep_until(window_end);
                        let now_cpu = server_cpu_s()?;
                        rung_cpu.push(CpuWindow {
                            cpu_s: now_cpu - cpu_mark,
                            queries,
                        });
                        (cpu_mark, queries) = (now_cpu, 0);
                        while window_end <= due {
                            window_end += window_ns;
                        }
                    }
                    sleep_until(due);
                    let sent = now_ns();
                    for slot in op.first..op.first + op.len {
                        record.due_ns[slot].store(due, Ordering::Release);
                        record.sent_ns[slot].store(sent, Ordering::Release);
                    }
                    lag_ms.push((sent.saturating_sub(due)) as f64 / 1e6);
                    writers[op.conn].write_all(&op.frame)?;
                    sent_total += op.len;
                    if op.conn == 0 {
                        queries += op.len;
                    }
                }
                let end = start + rung.ops.last().map_or(0, |op| op.due_ns);
                let give_up = Instant::now() + drain_timeout;
                while received.load(Ordering::Acquire) < sent_total && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                rung_cpu.push(CpuWindow {
                    cpu_s: server_cpu_s()? - cpu_mark,
                    queries,
                });
                cpu.push(rung_cpu);
                outcomes.push(evaluate(&record, rung, slots, end, slo));
                windows.push((start, end));
            }
            Ok(())
        };
        let sent = send();
        stop.store(true, Ordering::Release);
        let replies = receiver.join().expect("receiver thread panicked")?;
        sent?;
        Ok(replies)
    })?;
    Ok(LadderRun {
        record,
        replies,
        outcomes,
        windows,
        lag_ms,
        cpu,
    })
}

/// Judge one rung's query slots against the SLO.
fn evaluate(
    record: &Record,
    rung: &Rung,
    slots: &[SlotKind],
    end_ns: u64,
    slo: &Slo,
) -> RungOutcome {
    let queries: Vec<usize> = rung
        .slots
        .clone()
        .filter(|&s| matches!(slots[s], SlotKind::Query(_)))
        .collect();
    let mut lat: Vec<f64> = queries
        .iter()
        .map(|&s| record.latency_ms(s).unwrap_or(f64::INFINITY))
        .collect();
    lat.sort_by(f64::total_cmp);
    let backlog_deadline = end_ns + (slo.p99_limit_ms * 1e6) as u64;
    RungOutcome {
        rate: rung.rate,
        sent: queries.len(),
        answered: queries.iter().filter(|&&s| record.answered(s)).count(),
        p99_ms: if lat.is_empty() {
            f64::INFINITY
        } else {
            percentile(&lat, 99.0)
        },
        backlog: queries
            .iter()
            .filter(|&&s| !record.answered(s) || record.recv_ns(s) > backlog_deadline)
            .count(),
    }
}

/// The receiver loop: read whatever every connection has, cut it into
/// frames, and file each reply under its slot.
fn receive(
    conns: &[TcpStream],
    mutation_slots: &[usize],
    record: &Record,
    received: &AtomicUsize,
    stop: &AtomicBool,
    epoch: Instant,
) -> io::Result<Vec<Option<Reply>>> {
    let mut replies: Vec<Option<Reply>> = vec![None; record.recv_ns.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut next_mutation = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    while !stop.load(Ordering::Acquire) {
        let ready = readable(conns, 20)?;
        for (c, mut conn) in conns.iter().enumerate() {
            if !ready[c] {
                continue;
            }
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed a load connection",
                    ))
                }
                Ok(got) => bufs[c].extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let mut at = 0;
            while bufs[c].len() - at >= 4 {
                let len =
                    u32::from_le_bytes(bufs[c][at..at + 4].try_into().expect("4 bytes")) as usize;
                if bufs[c].len() - at - 4 < len {
                    break;
                }
                let payload = &bufs[c][at + 4..at + 4 + len];
                at += 4 + len;
                let now = epoch.elapsed().as_nanos() as u64;
                let response = Response::decode(payload).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad reply frame: {e}"))
                })?;
                let (slot, reply) = match response {
                    Response::QueryFor { request_id, reply } => {
                        let slot = usize::try_from(request_id)
                            .ok()
                            .filter(|&s| s < replies.len())
                            .ok_or_else(|| {
                                io::Error::new(io::ErrorKind::InvalidData, "unknown request id")
                            })?;
                        let reply = match reply {
                            Ok(r) => Reply::Query(r),
                            Err(e) => Reply::Failed(format!("{:?}: {}", e.code, e.message)),
                        };
                        (slot, reply)
                    }
                    other => {
                        let slot = *mutation_slots.get(next_mutation).ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unexpected reply {other:?}"),
                            )
                        })?;
                        next_mutation += 1;
                        let reply = match other {
                            Response::Mutated { applied, .. } => Reply::Mutated { applied },
                            Response::Error(e) => {
                                Reply::Failed(format!("{:?}: {}", e.code, e.message))
                            }
                            other => Reply::Failed(format!("unexpected reply {other:?}")),
                        };
                        (slot, reply)
                    }
                };
                record.recv_ns[slot].store(now, Ordering::Release);
                let ok = !matches!(reply, Reply::Failed(_));
                record.status[slot].store(if ok { OK } else { FAILED }, Ordering::Release);
                replies[slot] = Some(reply);
                received.fetch_add(1, Ordering::AcqRel);
            }
            bufs[c].drain(..at);
        }
    }
    Ok(replies)
}
