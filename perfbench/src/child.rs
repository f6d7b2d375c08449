//! The serving process. The benchmark re-executes itself as
//! `perfbench serve-child ...`, which serves the trained artifact the way
//! `dj serve` does — the lake regenerated from its lake file for labels,
//! `snapshot_loader` (or `live_snapshot_loader` over a `LiveLake` with its
//! compactor thread) and the real `deepjoin_serve::Server` — with one
//! worker and a one-thread encode pool. The parent drives it over
//! loopback TCP and reads its peak RSS from `/proc`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepjoin_lake::corpus::Corpus;
use deepjoin_serve::{protocol, Request, Response, Server, ServerConfig, StatsReply};
use deepjoin_store::{SharedIo, StdIo};

use crate::{Workload, COMPACT_MIN_SEGS, COMPACT_MS, FLUSH_ROWS};

/// What the serving process serves. The workload decides the rest: the
/// query cache size, and whether a live lake (in [`live_dir`], with the
/// flush policy of `main.rs`) sits beside the model.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub workload: Workload,
    pub lake: PathBuf,
    pub model: PathBuf,
}

/// The live lake's directory, beside the model artifact.
pub fn live_dir(model: &Path) -> PathBuf {
    model.parent().unwrap_or(Path::new(".")).join("live")
}

mod sys {
    use std::os::raw::{c_int, c_long};

    /// `_SC_CLK_TCK` from `<unistd.h>` on Linux.
    pub const SC_CLK_TCK: c_int = 2;

    extern "C" {
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// Admission queue bound: far above any backlog a run builds, so overload
/// shows as queueing delay (which the SLO judges), never as sheds.
const MAX_INFLIGHT: usize = 1 << 16;

impl ServeSpec {
    fn args(&self) -> Vec<String> {
        vec![
            "serve-child".to_string(),
            self.workload.name().to_string(),
            self.lake.display().to_string(),
            self.model.display().to_string(),
        ]
    }

    fn from_args(args: &[String]) -> Result<Self, String> {
        let [workload, lake, model] = args else {
            return Err("usage: serve-child WORKLOAD LAKE MODEL".to_string());
        };
        Ok(ServeSpec {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("serve-child: unknown workload {workload:?}"))?,
            lake: PathBuf::from(lake),
            model: PathBuf::from(model),
        })
    }
}

/// Entry point of the serving process (`args` after `serve-child`).
pub fn serve_child_main(args: &[String]) -> Result<(), String> {
    let spec = ServeSpec::from_args(args)?;
    deepjoin_par::Pool::set_global_threads(1);
    let bytes = std::fs::read(&spec.lake).map_err(|e| format!("{}: {e}", spec.lake.display()))?;
    let config = deepjoin_lake::lakefile::decode(&bytes).map_err(|e| e.to_string())?;
    let repo = Arc::new(Corpus::generate(config).to_repository().0);
    let model_path = spec.model.display().to_string();
    let io: SharedIo = Arc::new(StdIo);
    let mut compactor = None;
    let cache = spec.workload.cache();
    let loader = if spec.workload.live() {
        let dir = live_dir(&spec.model);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let model = deepjoin::load_model_path(&spec.model)?.into_model();
        let opened = deepjoin::LiveLake::open_with_flush_rows(io, dir, &model, FLUSH_ROWS)
            .map_err(|e| e.to_string())?;
        compactor = Some(
            opened
                .lake
                .spawn_compactor(Duration::from_millis(COMPACT_MS), COMPACT_MIN_SEGS),
        );
        deepjoin::live_snapshot_loader(model_path, repo, cache, opened.lake)
    } else {
        deepjoin::snapshot_loader(model_path, repo, cache)
    };
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_inflight: MAX_INFLIGHT,
            ..ServerConfig::default()
        },
        loader,
    )?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening {addr}");
    io::stdout().flush().map_err(|e| e.to_string())?;
    let handle = server.handle();
    server.run().map_err(|e| e.to_string())?;
    if let Some(c) = compactor {
        c.stop();
    }
    let waves: Vec<String> = handle
        .wave_size_histogram()
        .iter()
        .map(u64::to_string)
        .collect();
    println!("waves {}", waves.join(" "));
    Ok(())
}

/// CPU time process `pid` has used so far, user plus system over all its
/// threads (ended ones included), in seconds. The guest kernel charges
/// time the host steals from this VM as steal, not to the process, so
/// this counts the process's own work even while the host preempts the VM.
pub fn cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, from `state` (field 3)
    // on; `utime` and `stime` are fields 14 and 15, in clock ticks.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    // SAFETY: `sysconf` only reads the process's configuration; the
    // argument is the valid `_SC_CLK_TCK` name.
    let per_s = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if per_s <= 0 {
        return Err(io::Error::other("sysconf(_SC_CLK_TCK) failed"));
    }
    Ok((ticks(11)? + ticks(12)?) / per_s as f64)
}

/// A running serving process.
pub struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// Start the serving process and wait until it listens.
pub fn spawn(spec: &ServeSpec) -> io::Result<Served> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(spec.args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line)?;
    match line.trim().strip_prefix("listening ") {
        Some(addr) => Ok(Served {
            addr: addr.to_string(),
            child,
            stdout,
        }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::other(format!(
                "serving process failed to start: {line:?}"
            )))
        }
    }
}

/// Send one request on a fresh blocking connection and read one reply.
pub fn call(addr: &str, request: &Request) -> io::Result<Response> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    call_on(&mut conn, request)
}

/// Send one request on `conn` and read one reply.
pub fn call_on(conn: &mut TcpStream, request: &Request) -> io::Result<Response> {
    protocol::write_frame(conn, &request.encode())?;
    let payload = protocol::read_frame(conn, protocol::MAX_FRAME)
        .map_err(|e| io::Error::other(format!("{e:?}")))?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    Response::decode(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// What the serving process reported when it stopped.
pub struct Stopped {
    pub peak_rss_mb: f64,
    pub wave_hist: Vec<u64>,
}

impl Served {
    pub fn stats(&self) -> io::Result<StatsReply> {
        match call(&self.addr, &Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(io::Error::other(format!("stats answered {other:?}"))),
        }
    }

    /// CPU time the serving process has used so far (see [`cpu_s`]).
    pub fn cpu_s(&self) -> io::Result<f64> {
        cpu_s(self.child.id())
    }

    /// Peak resident memory so far (`VmHWM`), MiB.
    fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Drain the server with a `Shutdown` request and wait for the process
    /// to exit (killing it if it does not within the grace period).
    pub fn stop(mut self) -> io::Result<Stopped> {
        let peak_rss_mb = self.peak_rss_mb();
        let asked = call(&self.addr, &Request::Shutdown);
        let grace = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > grace {
                let _ = self.child.kill();
                self.child.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        asked?;
        let mut wave_hist = Vec::new();
        for line in (&mut self.stdout).lines() {
            if let Some(rest) = line?.strip_prefix("waves ") {
                wave_hist = rest.split(' ').filter_map(|v| v.parse().ok()).collect();
            }
        }
        match status {
            Some(s) if s.success() => Ok(Stopped {
                peak_rss_mb: peak_rss_mb?,
                wave_hist,
            }),
            Some(s) => Err(io::Error::other(format!("serving process exited with {s}"))),
            None => Err(io::Error::other("serving process did not drain; killed")),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // A no-op after `stop`; on an error path it kills the server, so a
        // failed run never leaves one behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
