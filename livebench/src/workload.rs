//! The three closed-loop workloads. Each session thread runs one of them
//! against its own `Dufs` client, waiting for every reply before sending
//! the next operation, and checks every answer against the benchmark's own
//! model of the namespace.

use std::collections::BTreeMap;
use std::time::Instant;

use dufs_core::{BackendSet, CoordService, DufsError, Fid, NodeKind};

use crate::client::Session;
use crate::trace::{self, Kind, Layer};

/// Workload names, as given on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// mdtest-style directory churn.
    Churn,
    /// Zipf-popular stats over a namespace larger than the cache.
    StatZipf,
    /// N-N checkpoint and restart through the data path.
    Ckpt,
}

impl Name {
    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "md-churn" => Some(Name::Churn),
            "md-stat-zipf" => Some(Name::StatZipf),
            "data-ckpt" => Some(Name::Ckpt),
            _ => None,
        }
    }

    /// Operations each session runs, untimed, before a timed window:
    /// about 1.5 s of load on a 2-vCPU VM. A count rather than a time, so
    /// the state a window starts from (files ever created, cache fill,
    /// client memory) does not follow the machine's speed.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Name::Churn => 3_000,
            Name::StatZipf => 20_000,
            Name::Ckpt => 400,
        }
    }

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Churn => "md-churn",
            Name::StatZipf => "md-stat-zipf",
            Name::Ckpt => "data-ckpt",
        }
    }
}

/// Directories of the `md-stat-zipf` namespace (even, so each session owns
/// half of them for chmod).
pub const ZIPF_DIRS: usize = 128;
/// Files per directory: 128 x 160 = 20,480 files, above the cache's
/// default 16,384-entry capacity.
pub const ZIPF_FILES_PER_DIR: usize = 160;
/// Zipf exponent of file and directory popularity.
const ZIPF_THETA: f64 = 0.99;
/// Files written per checkpoint and read back per restart.
pub const CKPT_FILES: usize = 4;
/// Bytes per checkpoint file (four stripes).
pub const CKPT_BYTES: usize = 256 << 10;
/// Mode every benchmark file is created with.
pub const FILE_MODE: u32 = 0o644;

/// Small, fast, seedable generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf-distributed choice over `n` items, with popularity ranks assigned
/// to items by a seeded permutation so hot items are scattered.
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, theta: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut item_of_rank);
        Zipf { cdf, item_of_rank }
    }

    /// Draw one item.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank] as usize
    }
}

/// Inputs of one run, all derived from the seed.
pub struct Workload {
    /// Which workload.
    pub name: Name,
    /// The run's seed.
    pub seed: u64,
    /// File popularity (`md-stat-zipf`).
    pub files: Option<Zipf>,
    /// Directory popularity (`md-stat-zipf`).
    pub dirs: Option<Zipf>,
}

impl Workload {
    /// Build the inputs of `name` for `seed`.
    pub fn new(name: Name, seed: u64) -> Workload {
        let mut rng = Rng::new(seed);
        let (files, dirs) = if name == Name::StatZipf {
            let files = Zipf::new(ZIPF_DIRS * ZIPF_FILES_PER_DIR, ZIPF_THETA, &mut rng);
            let dirs = Zipf::new(ZIPF_DIRS, ZIPF_THETA, &mut rng);
            (Some(files), Some(dirs))
        } else {
            (None, None)
        };
        Workload { name, seed, files, dirs }
    }

    /// Per-session generator, stable across windows.
    pub fn session_rng(&self, k: usize) -> Rng {
        Rng::new(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (k as u64 + 1) << 32)
    }
}

/// Path of file `f` of the Zipf namespace.
pub fn zipf_file(f: usize) -> String {
    format!("/zipf/d{}/f{}", f / ZIPF_FILES_PER_DIR, f % ZIPF_FILES_PER_DIR)
}

/// Path of directory `d` of the Zipf namespace.
pub fn zipf_dir(d: usize) -> String {
    format!("/zipf/d{d}")
}

/// What one session knows about the namespace it has changed. Lives
/// across windows so names stay fresh and the final checks see every
/// write.
pub struct Model {
    /// Input generator.
    pub rng: Rng,
    /// Next cycle number (churn and checkpoint names).
    pub cycle: u64,
    /// Znodes this session created minus those it removed.
    pub live: i64,
    /// Last mode this session set on each directory it owns.
    pub modes: BTreeMap<usize, u32>,
}

impl Model {
    /// Empty model for session `k`.
    pub fn new(k: usize, wl: &Workload) -> Model {
        Model { rng: wl.session_rng(k), cycle: 0, live: 0, modes: BTreeMap::new() }
    }
}

/// Which latency distribution an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// stat, open, readdir_plus, restart read.
    Read,
    /// mkdir, create, unlink, rmdir, rename, chmod, checkpoint write.
    Write,
    /// Checkpoint cleanup (unlink + data delete): counted in the op rate,
    /// in no latency distribution.
    Other,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, in microseconds from the window start.
    pub end_us: u64,
    /// Its latency in nanoseconds.
    pub ns: u64,
    /// Its latency class.
    pub class: Class,
}

/// Everything one session observed in one window.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Every operation completed inside the window.
    pub samples: Vec<Sample>,
    /// Every operation attempted, window tail included.
    pub attempted: u64,
    /// Operations that returned an error the model did not expect.
    pub failed: u64,
    /// Answers that came back successful but wrong.
    pub wrong: u64,
    /// First few problems, for the report.
    pub problems: Vec<String>,
    /// Payload bytes written by timed operations.
    pub bytes_written: u64,
    /// Payload bytes read by timed operations.
    pub bytes_read: u64,
    /// `(µs from window start, (steal, total) CPU ticks)` samples.
    pub cpu: Vec<(u64, (u64, u64))>,
}

impl OpLog {
    fn note(&mut self, msg: String) {
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Fold another session's log in.
    pub fn absorb(&mut self, o: OpLog) {
        self.samples.extend(o.samples);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        for p in o.problems {
            self.note(p);
        }
        self.bytes_written += o.bytes_written;
        self.bytes_read += o.bytes_read;
    }

    /// Share of the machine's CPU time the hypervisor stole while this log
    /// was recorded, from its first and last `/proc/stat` samples.
    pub fn steal_share(&self) -> f64 {
        match (self.cpu.first(), self.cpu.last()) {
            (Some(&(_, (s0, t0))), Some(&(_, (s1, t1)))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }

    /// Operations completed inside the window.
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Latencies (ns) of one class, from samples ending in `[from, to)` µs.
    pub fn latencies(&self, class: Class, from: u64, to: u64) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.class == class && s.end_us >= from && s.end_us < to)
            .map(|s| s.ns)
            .collect()
    }

    /// Seconds from the window start to the end of its last operation.
    pub fn secs(&self) -> f64 {
        self.samples.iter().map(|s| s.end_us).max().unwrap_or(0) as f64 / 1e6
    }
}

/// How an operation ended.
enum Outcome<T> {
    Ok(T),
    /// An error the model did not expect.
    Failed(String),
    /// A successful reply that contradicts the model.
    Wrong(String),
}

impl<T> From<Result<T, DufsError>> for Outcome<T> {
    fn from(r: Result<T, DufsError>) -> Self {
        match r {
            Ok(v) => Outcome::Ok(v),
            Err(e) => Outcome::Failed(format!("{e:?}")),
        }
    }
}

/// Runs operations against the window deadline and operation budget,
/// and books their outcomes.
struct Exec<'a> {
    log: &'a mut OpLog,
    start: Instant,
    deadline: Instant,
    budget: u64,
}

impl Exec<'_> {
    fn timing(&self) -> bool {
        self.log.attempted < self.budget && Instant::now() < self.deadline
    }

    /// Run one operation. Inside the window it is timed and traced; after
    /// the deadline (finishing a cycle) it is only checked.
    fn op<T>(
        &mut self,
        class: Class,
        what: &str,
        bytes: u64,
        f: impl FnOnce() -> Outcome<T>,
    ) -> Option<T> {
        let timed = self.timing();
        let kind = match class {
            Class::Read => Kind::Read,
            Class::Write => Kind::Write,
            Class::Other => Kind::Other,
        };
        let t0 = Instant::now();
        let out = if timed {
            trace::op(kind, f)
        } else {
            // Finishing a cycle after the deadline: not part of the trace.
            trace::pause();
            f()
        };
        let end = Instant::now();
        self.log.attempted += 1;
        if timed {
            let ns = (end - t0).as_nanos() as u64;
            let end_us = (end - self.start).as_micros() as u64;
            self.log.samples.push(Sample { end_us, ns, class });
        }
        match out {
            Outcome::Ok(v) => {
                if timed {
                    match class {
                        Class::Read => self.log.bytes_read += bytes,
                        _ => self.log.bytes_written += bytes,
                    }
                }
                Some(v)
            }
            Outcome::Failed(e) => {
                self.log.failed += 1;
                self.log.note(format!("{what}: {e}"));
                None
            }
            Outcome::Wrong(e) => {
                self.log.wrong += 1;
                self.log.note(format!("{what}: wrong answer: {e}"));
                None
            }
        }
    }
}

/// A `Dufs` call, as a `core` span.
fn core<T>(f: impl FnOnce() -> T) -> T {
    trace::span(Layer::Core, Kind::Other, f)
}

/// A `StoreClient` call, as a `store` span.
fn store<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    trace::span(Layer::Store, kind, f)
}

/// Run `s` from `start` until `deadline` or until it has attempted
/// `budget` operations, then finish the cycle in progress so the namespace
/// returns to a state the model describes.
pub fn run<C: CoordService, B: BackendSet>(
    wl: &Workload,
    s: &mut Session<C, B>,
    m: &mut Model,
    start: Instant,
    deadline: Instant,
    budget: u64,
) -> OpLog {
    let mut log = OpLog::default();
    let mut ex = Exec { log: &mut log, start, deadline, budget };
    while ex.timing() {
        match wl.name {
            Name::Churn => churn_cycle(s, m, &mut ex),
            Name::StatZipf => zipf_op(wl, s, m, &mut ex),
            Name::Ckpt => ckpt_cycle(s, m, &mut ex),
        }
    }
    log
}

/// mdtest-style cycle in the session's own directory: mkdir, a burst of
/// creates, a stat of each, a few same-directory renames, unlinks, rmdir.
fn churn_cycle<C: CoordService, B: BackendSet>(
    s: &mut Session<C, B>,
    m: &mut Model,
    ex: &mut Exec,
) {
    let dir = format!("/churn/s{}/c{}", s.k, m.cycle);
    m.cycle += 1;
    let burst = 16 + m.rng.below(33) as usize;
    let fs = &mut s.fs;
    if ex.op(Class::Write, "mkdir", 0, || core(|| fs.mkdir(&dir, 0o755)).into()).is_none() {
        return;
    }
    m.live += 1;
    let mut names = Vec::with_capacity(burst);
    for i in 0..burst {
        let p = format!("{dir}/f{i}");
        if ex.op(Class::Write, "create", 0, || core(|| fs.create(&p, FILE_MODE)).into()).is_some() {
            m.live += 1;
            names.push(p);
        }
    }
    for p in &names {
        ex.op(Class::Read, "stat", 0, || match core(|| fs.stat(p)) {
            Ok(a) if a.kind == NodeKind::File && a.mode == FILE_MODE => Outcome::Ok(()),
            Ok(a) => Outcome::Wrong(format!("{p}: {a:?}")),
            Err(e) => Outcome::Failed(format!("{e:?}")),
        });
    }
    for p in &mut names {
        if m.rng.below(8) == 0 {
            let to = format!("{dir}/r{}", &p[dir.len() + 2..]);
            if ex.op(Class::Write, "rename", 0, || core(|| fs.rename(p, &to)).into()).is_some() {
                *p = to;
            }
        }
    }
    for p in &names {
        if ex.op(Class::Write, "unlink", 0, || core(|| fs.unlink(p)).into()).is_some() {
            m.live -= 1;
        }
    }
    if ex.op(Class::Write, "rmdir", 0, || core(|| fs.rmdir(&dir)).into()).is_some() {
        m.live -= 1;
    }
}

/// One `md-stat-zipf` operation.
fn zipf_op<C: CoordService, B: BackendSet>(
    wl: &Workload,
    s: &mut Session<C, B>,
    m: &mut Model,
    ex: &mut Exec,
) {
    let (files, dirs) = (wl.files.as_ref().expect("zipf inputs"), wl.dirs.as_ref().expect("zipf"));
    let fs = &mut s.fs;
    let u = m.rng.unit();
    if u < 0.75 {
        let p = zipf_file(files.draw(&mut m.rng));
        ex.op(Class::Read, "stat", 0, || match core(|| fs.stat(&p)) {
            Ok(a) if a.kind == NodeKind::File && a.mode == FILE_MODE => Outcome::Ok(()),
            Ok(a) => Outcome::Wrong(format!("{p}: {a:?}")),
            Err(e) => Outcome::Failed(format!("{p}: {e:?}")),
        });
    } else if u < 0.80 {
        let p = zipf_dir(dirs.draw(&mut m.rng));
        ex.op(Class::Read, "stat dir", 0, || match core(|| fs.stat(&p)) {
            Ok(a) if a.kind == NodeKind::Dir => Outcome::Ok(()),
            Ok(a) => Outcome::Wrong(format!("{p}: {a:?}")),
            Err(e) => Outcome::Failed(format!("{p}: {e:?}")),
        });
    } else if u < 0.90 {
        let p = zipf_file(files.draw(&mut m.rng));
        ex.op(Class::Read, "open", 0, || core(|| fs.open(&p).and_then(|h| fs.close(h))).into());
    } else if u < 0.91 {
        let p = zipf_dir(dirs.draw(&mut m.rng));
        ex.op(Class::Read, "readdir_plus", 0, || match core(|| fs.readdir_plus(&p)) {
            Ok(e) if e.len() == ZIPF_FILES_PER_DIR => Outcome::Ok(()),
            Ok(e) => Outcome::Wrong(format!("{p}: {} entries", e.len())),
            Err(e) => Outcome::Failed(format!("{p}: {e:?}")),
        });
    } else if u < 0.975 {
        // Absent names, themselves Zipf-popular so the negative cache is
        // exercised; ENOENT is the correct answer.
        let p = format!("{}/absent{}", zipf_dir(dirs.draw(&mut m.rng)), m.rng.below(64));
        ex.op(Class::Read, "stat absent", 0, || match core(|| fs.stat(&p)) {
            Err(DufsError::NoEnt) => Outcome::Ok(()),
            Ok(a) => Outcome::Wrong(format!("{p} exists: {a:?}")),
            Err(e) => Outcome::Failed(format!("{p}: {e:?}")),
        });
    } else {
        // Directory chmod is a znode write, so it fires the watches other
        // sessions' cache entries hang on. Each session owns the
        // directories of its parity, so the last mode written is known.
        let d = (dirs.draw(&mut m.rng) & !1) | s.k;
        let mode = 0o700 | m.rng.below(0o100) as u32;
        let p = zipf_dir(d);
        if ex.op(Class::Write, "chmod", 0, || core(|| fs.chmod(&p, mode)).into()).is_some() {
            m.modes.insert(d, mode);
        }
    }
}

/// Deterministic checkpoint payload.
fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// One N-N checkpoint/restart cycle: create and write each file, then
/// open, read back and CRC-check each, then unlink it and drop its data.
fn ckpt_cycle<C: CoordService, B: BackendSet>(s: &mut Session<C, B>, m: &mut Model, ex: &mut Exec) {
    let k = s.k;
    let (fs, st) = (&mut s.fs, s.store.as_mut().expect("data workload has a store client"));
    let mut written: Vec<(String, Fid, u32)> = Vec::with_capacity(CKPT_FILES);
    for i in 0..CKPT_FILES {
        let path = format!("/ckpt/s{k}/c{}-{i}", m.cycle);
        let data = payload(&mut m.rng, CKPT_BYTES);
        let crc = dufs_net::crc32(&data);
        let r = ex.op(Class::Write, "checkpoint", CKPT_BYTES as u64, || {
            let fid = match core(|| fs.create(&path, FILE_MODE)) {
                Ok(fid) => fid,
                Err(e) => return Outcome::Failed(format!("create {path}: {e:?}")),
            };
            match store(Kind::Write, || st.write(fid, 0, &data)) {
                Ok(()) => Outcome::Ok(fid),
                Err(e) => Outcome::Failed(format!("write {path}: {e}")),
            }
        });
        if let Some(fid) = r {
            m.live += 1;
            written.push((path, fid, crc));
        }
    }
    let mut buf = vec![0u8; CKPT_BYTES];
    for (path, fid, crc) in &written {
        ex.op(Class::Read, "restart", CKPT_BYTES as u64, || {
            let opened = core(|| -> Result<Option<Fid>, DufsError> {
                let h = fs.open(path)?;
                let meta = fs.node_meta(path)?;
                fs.close(h)?;
                Ok(meta.fid())
            });
            match opened {
                Ok(Some(f)) if f == *fid => {}
                Ok(f) => return Outcome::Wrong(format!("{path}: FID {f:?}, created {fid:?}")),
                Err(e) => return Outcome::Failed(format!("open {path}: {e:?}")),
            }
            if let Err(e) = store(Kind::Read, || st.read_into(*fid, 0, &mut buf)) {
                return Outcome::Failed(format!("read {path}: {e}"));
            }
            match dufs_net::crc32(&buf) {
                c if c == *crc => Outcome::Ok(()),
                c => Outcome::Wrong(format!("{path}: CRC {c:08x}, wrote {crc:08x}")),
            }
        });
    }
    for (path, fid, _) in &written {
        let r = ex.op(Class::Other, "cleanup", 0, || {
            if let Err(e) = core(|| fs.unlink(path)) {
                return Outcome::Failed(format!("unlink {path}: {e:?}"));
            }
            match store(Kind::Other, || st.delete(*fid)) {
                Ok(true) => Outcome::Ok(()),
                Ok(false) => Outcome::Wrong(format!("{path}: no data stored under {fid:?}")),
                Err(e) => Outcome::Failed(format!("delete {path}: {e}")),
            }
        });
        if r.is_some() {
            m.live -= 1;
        }
    }
    m.cycle += 1;
}
