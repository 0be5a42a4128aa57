//! The live deployment: three durable `coord_server` processes and, for
//! the data workload, two `store_server` processes, all on loopback under
//! one run directory that is removed when the deployment goes away.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dufs_coord::runtime::ServerStatus;
use dufs_coord::tcp::remote_status;

/// Where the server binaries are.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `coord_server`.
    pub coord: PathBuf,
    /// `store_server`.
    pub store: PathBuf,
}

/// One server child process.
pub struct Member {
    child: Child,
    /// Held open so a late write by the child never meets a closed pipe.
    _stdout: ChildStdout,
    /// Listening address.
    pub addr: SocketAddr,
    /// Its durable directory.
    pub dir: PathBuf,
}

impl Member {
    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One leader probe made while waiting for the election.
#[derive(Debug, Clone, Copy)]
pub struct LeaderProbe {
    /// When the probe started, from the first READY line.
    pub at: Duration,
    /// How long the probe call took.
    pub took: Duration,
    /// Whether the member answered at all.
    pub answered: bool,
}

/// The running servers.
pub struct Deployment {
    /// Root of every durable directory of this deployment.
    pub run_dir: PathBuf,
    /// Coordination ensemble members, indexed by peer id.
    pub coord: Vec<Member>,
    /// Data servers.
    pub store: Vec<Member>,
    /// Index of the leader.
    pub leader: usize,
    /// From the first spawn to the last READY line.
    pub ready: Duration,
    /// From the last READY line to the first probe that saw a leader.
    pub election: Duration,
    /// Every probe made while waiting for the leader.
    pub probes: Vec<LeaderProbe>,
}

/// `n` free loopback addresses, held together while probing so they are
/// distinct.
fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let held = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe port: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    held.iter().map(|l| l.local_addr().map_err(|e| e.to_string())).collect()
}

/// A spawned child whose `READY <addr>` line has not been read yet. Killed
/// and reaped if dropped before it is ready.
struct Starting {
    child: Option<Child>,
    dir: PathBuf,
    what: String,
    line: mpsc::Receiver<(std::io::Result<String>, ChildStdout)>,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option: signal to deliver when the parent thread exits.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`.
const SIGKILL: i32 = 9;

/// Spawn `cmd` with its stdout piped to a reader that waits for the
/// `READY` line. The child is killed if this process dies first, however
/// it dies, so no server outlives a killed benchmark.
fn spawn(mut cmd: Command, dir: PathBuf) -> Result<Starting, String> {
    let what = format!("{cmd:?}");
    // SAFETY: the closure only makes one async-signal-safe system call.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {what}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, line) = mpsc::channel();
    // The reader hands the pipe back with the line so it stays open; it
    // ends by itself when the child exits.
    std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        let mut line = String::new();
        let res = r.read_line(&mut line).map(|_| line);
        let _ = tx.send((res, r.into_inner()));
    });
    Ok(Starting { child: Some(child), dir, what, line })
}

impl Starting {
    /// Wait for the READY line.
    fn ready(mut self) -> Result<Member, String> {
        match self.line.recv_timeout(Duration::from_secs(30)) {
            Ok((Ok(line), stdout)) => {
                match line.trim().strip_prefix("READY ").and_then(|a| a.parse().ok()) {
                    Some(addr) => {
                        let child = self.child.take().expect("child is taken only here");
                        let dir = std::mem::take(&mut self.dir);
                        Ok(Member { child, _stdout: stdout, addr, dir })
                    }
                    None => Err(format!("unexpected first line {line:?} from {}", self.what)),
                }
            }
            Ok((Err(e), _)) => Err(format!("reading READY from {}: {e}", self.what)),
            Err(_) => Err(format!("no READY from {} within 30 s", self.what)),
        }
    }
}

impl Drop for Starting {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Deployment {
    /// Spawn the ensemble (and `stores` data servers), wait for every
    /// READY line, then find the leader.
    pub fn start(bins: &Bins, run_dir: PathBuf, stores: usize) -> Result<Deployment, String> {
        std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
        let t0 = Instant::now();
        let mut dep = Deployment {
            run_dir,
            coord: Vec::new(),
            store: Vec::new(),
            leader: 0,
            ready: Duration::ZERO,
            election: Duration::ZERO,
            probes: Vec::new(),
        };
        let addrs = free_addrs(3)?;
        let peers = addrs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
        // Start every process before waiting for any, so the ensemble
        // members come up together (see NOTES.md on time to leader).
        let mut starting = Vec::new();
        for me in 0..addrs.len() {
            let dir = dep.run_dir.join(format!("wal-{me}"));
            let mut cmd = Command::new(&bins.coord);
            cmd.arg("--me")
                .arg(me.to_string())
                .arg("--peers")
                .arg(&peers)
                .arg("--wal-dir")
                .arg(&dir);
            starting.push(spawn(cmd, dir)?);
        }
        for id in 0..stores {
            let dir = dep.run_dir.join(format!("store-{id}"));
            let mut cmd = Command::new(&bins.store);
            cmd.arg("--dir").arg(&dir).arg("--listen").arg("127.0.0.1:0").arg("--id");
            cmd.arg((id + 1).to_string());
            starting.push(spawn(cmd, dir)?);
        }
        for (i, s) in starting.into_iter().enumerate() {
            let m = s.ready()?;
            if i < addrs.len() {
                dep.coord.push(m);
            } else {
                dep.store.push(m);
            }
        }
        dep.ready = t0.elapsed();
        dep.await_leader(Duration::from_secs(30))?;
        Ok(dep)
    }

    fn await_leader(&mut self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        while t0.elapsed() < timeout {
            for (i, m) in self.coord.iter().enumerate() {
                let at = t0.elapsed();
                let st = remote_status(m.addr, Duration::from_secs(2));
                self.probes.push(LeaderProbe {
                    at,
                    took: t0.elapsed() - at,
                    answered: st.is_some(),
                });
                if st.is_some_and(|s| s.is_leader) {
                    self.leader = i;
                    self.election = t0.elapsed();
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("no leader within {timeout:?}"))
    }

    /// Follower index session `k` is pinned to: `(leader + 1 + k) mod 3`,
    /// so the leader only forwards and commits.
    pub fn follower_for(&self, k: usize) -> usize {
        (self.leader + 1 + k) % self.coord.len()
    }

    /// Status of every coordination member.
    pub fn statuses(&self) -> Result<Vec<ServerStatus>, String> {
        self.coord
            .iter()
            .map(|m| {
                remote_status(m.addr, Duration::from_secs(5))
                    .ok_or_else(|| format!("member {} did not answer a status probe", m.addr))
            })
            .collect()
    }

    /// Kill every child, wait for each, and remove the run directory.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for m in self.coord.iter_mut().chain(self.store.iter_mut()) {
            let _ = m.child.kill();
            let _ = m.child.wait();
        }
        self.coord.clear();
        self.store.clear();
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What `/proc` says about one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU, microseconds (clock ticks at the usual 100 Hz).
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// Bytes this process caused to be written to storage.
    pub write_bytes: u64,
    /// Resident set now, bytes.
    pub rss: u64,
    /// Peak resident set, bytes.
    pub rss_peak: u64,
}

/// Linux's `USER_HZ`; every mainstream kernel build uses 100.
const CLOCK_TICKS_PER_S: u64 = 100;

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sample `/proc/<pid>/{stat,io,status}` (`pid` may be `"self"`).
pub fn sample(pid: &str) -> ProcSample {
    let base = PathBuf::from("/proc").join(pid);
    let mut s = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string(base.join("stat")) {
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            s.cpu_us = (ticks(11) + ticks(12)) * (1_000_000 / CLOCK_TICKS_PER_S);
        }
    }
    if let Ok(io) = std::fs::read_to_string(base.join("io")) {
        s.write_bytes = status_field(&io, "write_bytes:");
    }
    if let Ok(st) = std::fs::read_to_string(base.join("status")) {
        s.rss = status_field(&st, "VmRSS:") * 1024;
        s.rss_peak = status_field(&st, "VmHWM:") * 1024;
    }
    if let Ok(tasks) = std::fs::read_dir(base.join("task")) {
        for t in tasks.flatten() {
            if let Ok(st) = std::fs::read_to_string(t.path().join("status")) {
                s.ctx_switches += status_field(&st, "voluntary_ctxt_switches:")
                    + status_field(&st, "nonvoluntary_ctxt_switches:");
            }
        }
    }
    s
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Apparent size of every file under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
