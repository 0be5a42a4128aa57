//! Live DUFS benchmark: real `coord_server`/`store_server` processes driven
//! by two closed-loop `Dufs` client threads.
//!
//! ```text
//! dufs-livebench --workload md-churn|md-stat-zipf|data-ckpt --seed N
//!                --seconds S --trace 0|1
//!                --coord-bin PATH --store-bin PATH --run-root DIR [--rev REV]
//! ```
//!
//! `livebench/run.py` builds the binaries and supplies the paths. The last
//! line of standard output is one JSON object; the lines before it report
//! every metric with its unit, the sample counts and the run's provenance.
//! The process exits non-zero if any answer was wrong.

mod client;
mod deploy;
mod report;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use bytes::Bytes;

use dufs_cache::{CacheBuilder, CacheStats};
use dufs_coord::runtime::{ServerStatus, ZkClient};
use dufs_coord::tcp::TcpTransport;
use dufs_coord::ReadConsistency;
use dufs_core::plan::{BackendReq, BackendResp};
use dufs_core::shard::physical_path;
use dufs_core::{
    BackendMapper, BackendSet, CoordService, Dufs, FidGenerator, LocalBackends, Md5Mapping,
    NodeMeta,
};
use dufs_net::NetStatsSnapshot;
use dufs_store::StoreTarget;
use dufs_zkstore::{CreateMode, MultiOp};

use client::{
    cached_session, store_client, CacheCoord, PlainSession, Probe, Session, TracedSession,
};
use deploy::{Bins, Deployment, ProcSample};
use trace::{ThreadTrace, Timed};
use workload::{Model, Name, OpLog, Workload};

/// Full deployments set up per run; `setup_s` is their median, and the
/// last one is measured.
const SETUPS: usize = 9;
/// Longest an untimed warm-up may run before its operation budget
/// (`Name::warmup_ops`) is spent.
const WARMUP_CAP: Duration = Duration::from_secs(30);
/// Longest the untimed load after warm-up may wait for a calm second.
const SETTLE_CAP: Duration = Duration::from_secs(20);
/// Most of the machine's CPU time the hypervisor may steal in a second
/// for that second to count as calm.
const CALM_STEAL: f64 = 0.03;
/// Load-generating sessions (one thread each).
const SESSIONS: usize = 2;
/// Back-end mounts each `Dufs` client merges.
const BACKENDS: usize = 4;
/// Znode creates per pre-population transaction.
const PREPOP_BATCH: usize = 512;

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
    bins: Bins,
    run_root: PathBuf,
    rev: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("dufs-livebench: {msg}");
    eprintln!(
        "usage: dufs-livebench --workload md-churn|md-stat-zipf|data-ckpt --seed N --seconds S \
         --trace 0|1 --coord-bin PATH --store-bin PATH --run-root DIR [--rev REV]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut coord, mut store, mut run_root, mut rev) = (None, None, None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&val).unwrap_or_else(|| usage("bad --workload")))
            }
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(val.parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => match val.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace is 0 or 1"),
            },
            "--coord-bin" => coord = Some(PathBuf::from(val)),
            "--store-bin" => store = Some(PathBuf::from(val)),
            "--run-root" => run_root = Some(PathBuf::from(val)),
            "--rev" => rev = val,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds == 0 {
        usage("--seconds must be positive");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        bins: Bins {
            coord: coord.unwrap_or_else(|| usage("--coord-bin is required")),
            store: store.unwrap_or_else(|| usage("--store-bin is required")),
        },
        run_root: run_root.unwrap_or_else(|| usage("--run-root is required")),
        rev,
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("dufs-livebench: {e}");
            exit(1);
        }
    }
}

/// A set-up deployment with its namespace, ready for sessions.
struct Env {
    dep: Deployment,
    backends: LocalBackends,
    /// Znodes the benchmark expects, not counting what sessions changed.
    expected_nodes: usize,
    /// Seconds spent populating the namespace.
    populate_s: f64,
}

impl Env {
    fn store_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.dep.store.iter().map(|m| m.addr).collect()
    }
}

fn mkdirs_and_files(
    admin: &mut ZkClient<TcpTransport>,
    backends: &mut LocalBackends,
    dirs: &[String],
    files: &[String],
) -> Result<usize, String> {
    let dir_meta = NodeMeta::dir(0o755).encode();
    let mut ops: Vec<MultiOp> = dirs
        .iter()
        .map(|p| MultiOp::Create {
            path: p.clone(),
            data: dir_meta.clone(),
            mode: CreateMode::Persistent,
        })
        .collect();
    // Files exactly as `Dufs::create` lays them out: a znode holding the
    // FID, and a physical file at the FID's shard path on mount
    // MD5(fid) mod N. Batched so set-up stays short.
    let mut fids = FidGenerator::new(u64::MAX);
    let mapper = Md5Mapping::new(backends.n_backends());
    for p in files {
        let fid = fids.next_fid();
        let data: Bytes = NodeMeta::file(fid, workload::FILE_MODE).encode();
        ops.push(MultiOp::Create { path: p.clone(), data, mode: CreateMode::Persistent });
        let req =
            BackendReq::CreateFile { path: physical_path("/", fid), mode: workload::FILE_MODE };
        match backends.call(mapper.backend_of(fid), req) {
            BackendResp::Unit(Ok(())) => {}
            other => return Err(format!("pre-populate {p}: back-end said {other:?}")),
        }
    }
    let n = ops.len();
    let mut ops = ops.into_iter().peekable();
    while ops.peek().is_some() {
        let batch: Vec<MultiOp> = ops.by_ref().take(PREPOP_BATCH).collect();
        admin.multi(batch).map_err(|e| format!("pre-populate: {e:?}"))?;
    }
    Ok(n)
}

/// Spawn a deployment and build the namespace the workload starts from.
fn setup(args: &Args, wl: &Workload, rep: usize) -> Result<Env, String> {
    let run_dir = args.run_root.join(format!("{}-{rep}", std::process::id()));
    let stores = if wl.name == Name::Ckpt { 2 } else { 0 };
    let dep = Deployment::start(&args.bins, run_dir, stores)?;
    let base = dep.statuses()?[dep.leader].node_count;
    let t0 = Instant::now();
    let mut backends = LocalBackends::lustre(BACKENDS);
    let mut admin = ZkClient::establish(TcpTransport::new(vec![dep.coord[dep.leader].addr]))
        .map_err(|e| format!("admin session: {e:?}"))?;
    let sessions: Vec<String> = (0..SESSIONS).map(|k| format!("s{k}")).collect();
    let created = match wl.name {
        Name::Churn | Name::Ckpt => {
            let top = if wl.name == Name::Churn { "/churn" } else { "/ckpt" };
            let mut dirs = vec![top.to_string()];
            dirs.extend(sessions.iter().map(|s| format!("{top}/{s}")));
            mkdirs_and_files(&mut admin, &mut backends, &dirs, &[])?
        }
        Name::StatZipf => {
            let mut dirs = vec!["/zipf".to_string()];
            dirs.extend((0..workload::ZIPF_DIRS).map(workload::zipf_dir));
            let files: Vec<String> = (0..workload::ZIPF_DIRS * workload::ZIPF_FILES_PER_DIR)
                .map(workload::zipf_file)
                .collect();
            mkdirs_and_files(&mut admin, &mut backends, &dirs, &files)?
        }
    };
    let _ = admin.close();
    let populate_s = t0.elapsed().as_secs_f64();
    Ok(Env { dep, backends, expected_nodes: base + created, populate_s })
}

/// Open the load sessions: session `k` pinned to follower
/// `(leader + 1 + k) mod 3`, both attached to one shared cache. `first_id`
/// keeps FID spaces of successive session sets apart.
fn plain_sessions(env: &Env, first_id: u64) -> Result<Vec<PlainSession>, String> {
    let shared = CacheBuilder::new().shared();
    (0..SESSIONS)
        .map(|k| {
            let addr = env.dep.coord[env.dep.follower_for(k)].addr;
            let cached = cached_session(TcpTransport::new(vec![addr]), &shared)?;
            let fs = Dufs::new(first_id + k as u64, CacheCoord(cached), env.backends.clone());
            let store = store_client(&env.store_addrs(), first_id + k as u64, |t| {
                Box::new(t) as Box<dyn StoreTarget>
            })?;
            Ok(Session { k, fs, store })
        })
        .collect()
}

/// The same sessions with a timing wrapper at every layer boundary.
fn traced_sessions(env: &Env, first_id: u64) -> Result<Vec<TracedSession>, String> {
    let shared = CacheBuilder::new().shared();
    (0..SESSIONS)
        .map(|k| {
            let addr = env.dep.coord[env.dep.follower_for(k)].addr;
            let cached = cached_session(Timed::new(TcpTransport::new(vec![addr])), &shared)?;
            let fs = Dufs::new(
                first_id + k as u64,
                Timed::new(CacheCoord(cached)),
                Timed::new(env.backends.clone()),
            );
            let store = store_client(&env.store_addrs(), first_id + k as u64, |t| {
                Box::new(Timed::new(t)) as Box<dyn StoreTarget>
            })?;
            Ok(Session { k, fs, store })
        })
        .collect()
}

/// Counters read at a window edge.
pub struct Edge {
    coord: Vec<ProcSample>,
    store: Vec<ProcSample>,
    me: ProcSample,
    status: Vec<ServerStatus>,
    cache: CacheStats,
    net: NetStatsSnapshot,
    reconnects: u64,
    wal_bytes: Vec<u64>,
    store_bytes: Vec<u64>,
}

fn edge<C: CoordService + Probe, B: BackendSet>(
    env: &Env,
    sessions: &mut [Session<C, B>],
) -> Result<Edge, String> {
    let mut cache = CacheStats::default();
    let mut net = NetStatsSnapshot::default();
    let mut reconnects = 0;
    for s in sessions.iter_mut() {
        let c = s.fs.coord_mut();
        cache.absorb(&c.cache_stats());
        let n = c.net_stats();
        net.frames_sent += n.frames_sent;
        net.frames_recv += n.frames_recv;
        net.bytes_sent += n.bytes_sent;
        net.bytes_recv += n.bytes_recv;
        net.heartbeat_misses += n.heartbeat_misses;
        net.writev_batches += n.writev_batches;
        net.frames_flushed += n.frames_flushed;
        reconnects += c.reconnects();
    }
    let pid = |m: &deploy::Member| deploy::sample(&m.pid().to_string());
    Ok(Edge {
        coord: env.dep.coord.iter().map(pid).collect(),
        store: env.dep.store.iter().map(pid).collect(),
        me: deploy::sample("self"),
        status: env.dep.statuses()?,
        cache,
        net,
        reconnects,
        wal_bytes: env.dep.coord.iter().map(|m| deploy::dir_bytes(&m.dir)).collect(),
        store_bytes: env.dep.store.iter().map(|m| deploy::dir_bytes(&m.dir)).collect(),
    })
}

/// One timed window and what was measured around it.
pub struct Window {
    log: OpLog,
    secs: f64,
    /// Peak RSS of this process after warm-up, before settling.
    warm_rss_peak: u64,
    /// Seconds of untimed load spent waiting for a calm second.
    settle_s: f64,
    before: Edge,
    after: Edge,
    traces: Vec<ThreadTrace>,
}

/// Run every session on its own thread for `secs` or `budget` operations
/// each, whichever ends first, sampling the machine's steal time
/// alongside.
fn drive<C, B>(
    wl: &Workload,
    sessions: &mut [Session<C, B>],
    models: &mut [Model],
    secs: Duration,
    budget: u64,
    traced: bool,
) -> (OpLog, Vec<ThreadTrace>)
where
    C: CoordService + Send,
    B: BackendSet + Send,
{
    let mut log = OpLog::default();
    let mut traces = Vec::new();
    let start = Instant::now();
    let deadline = start + secs;
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        let sampler = scope.spawn(move || {
            let mut v = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                v.push((start.elapsed().as_micros() as u64, deploy::cpu_ticks()));
                std::thread::sleep(Duration::from_millis(50));
            }
            v.push((start.elapsed().as_micros() as u64, deploy::cpu_ticks()));
            v
        });
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(models.iter_mut())
            .map(|(s, m)| {
                scope.spawn(move || {
                    trace::enable(traced);
                    let log = workload::run(wl, s, m, start, deadline, budget);
                    (log, trace::take())
                })
            })
            .collect();
        for h in handles {
            let (l, t) = h.join().expect("session thread panicked");
            log.absorb(l);
            traces.push(t);
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        log.cpu = sampler.join().expect("sampler thread panicked");
    });
    (log, traces)
}

/// Keep the sessions under untimed load, one second at a time, until a
/// second in which the hypervisor stole at most `CALM_STEAL` of the
/// machine's CPU time, or until `SETTLE_CAP`. Neighbours on a shared host
/// steal in episodes of tens of seconds; starting the window after one
/// ends keeps whole windows out of it more often.
fn settle<C, B>(
    wl: &Workload,
    sessions: &mut [Session<C, B>],
    models: &mut [Model],
) -> (OpLog, Duration)
where
    C: CoordService + Send,
    B: BackendSet + Send,
{
    let t0 = Instant::now();
    let mut log = OpLog::default();
    while t0.elapsed() < SETTLE_CAP {
        let (mut second, _) = drive(wl, sessions, models, Duration::from_secs(1), u64::MAX, false);
        let calm = second.steal_share() <= CALM_STEAL;
        // Checked like any operation; not timed.
        second.samples.clear();
        log.absorb(second);
        if calm {
            break;
        }
    }
    (log, t0.elapsed())
}

/// Warm up (a fixed number of operations per session, untimed), settle,
/// then run one timed window of `secs`.
fn window<C, B>(
    env: &Env,
    wl: &Workload,
    sessions: &mut [Session<C, B>],
    models: &mut [Model],
    secs: u64,
    traced: bool,
) -> Result<(Window, OpLog), String>
where
    C: CoordService + Probe + Send,
    B: BackendSet + Send,
{
    let (mut warm, _) = drive(wl, sessions, models, WARMUP_CAP, wl.name.warmup_ops(), false);
    let warm_rss_peak = deploy::sample("self").rss_peak;
    let (settled, settle_s) = settle(wl, sessions, models);
    warm.absorb(settled);
    let before = edge(env, sessions)?;
    let (log, traces) = drive(wl, sessions, models, Duration::from_secs(secs), u64::MAX, traced);
    let secs = log.secs();
    let after = edge(env, sessions)?;
    let settle_s = settle_s.as_secs_f64();
    Ok((Window { log, secs, warm_rss_peak, settle_s, before, after, traces }, warm))
}

/// The correctness gates run after the last window.
fn verify<C: CoordService + Probe, B: BackendSet>(
    env: &Env,
    wl: &Workload,
    sessions: &mut [Session<C, B>],
    models: &[Model],
) -> Vec<String> {
    let mut problems = Vec::new();
    for s in sessions.iter_mut() {
        if let Err(e) = s.fs.coord_mut().sync() {
            problems.push(format!("final sync of session {}: {e:?}", s.k));
        }
    }
    // Replicas converge: same applied zxid and digest everywhere.
    let deadline = Instant::now() + Duration::from_secs(10);
    let statuses = loop {
        match env.dep.statuses() {
            Ok(st) => {
                let same = st
                    .windows(2)
                    .all(|w| w[0].last_applied == w[1].last_applied && w[0].digest == w[1].digest);
                if same || Instant::now() > deadline {
                    if !same {
                        problems.push(format!("replicas did not converge: {st:?}"));
                    }
                    break st;
                }
            }
            Err(e) => {
                problems.push(e);
                return problems;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let live: i64 = models.iter().map(|m| m.live).sum();
    let expected = env.expected_nodes as i64 + live;
    for (i, st) in statuses.iter().enumerate() {
        if st.node_count as i64 != expected {
            problems
                .push(format!("member {i} holds {} znodes, model says {expected}", st.node_count));
        }
    }
    // The last mode each session wrote is what a linearizable reader sees.
    if wl.name == Name::StatZipf {
        let leader = env.dep.coord[env.dep.leader].addr;
        let check = ZkClient::establish(TcpTransport::new(vec![leader])).map(|mut zk| {
            // Linearizable sessions bypass the cache: every read is fresh.
            zk.set_consistency(ReadConsistency::Linearizable);
            CacheBuilder::new().session(zk)
        });
        match check {
            Ok(c) => {
                let mut fs = Dufs::new(u64::MAX - 1, CacheCoord(c), env.backends.clone());
                for m in models {
                    for (&d, &mode) in &m.modes {
                        match fs.stat(&workload::zipf_dir(d)) {
                            Ok(a) if a.mode == mode => {}
                            Ok(a) => problems
                                .push(format!("d{d}: mode {:o}, last written {mode:o}", a.mode)),
                            Err(e) => problems.push(format!("d{d}: {e:?}")),
                        }
                    }
                }
            }
            Err(e) => problems.push(format!("verifier session: {e:?}")),
        }
    }
    problems
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.run_root)
        .map_err(|e| format!("{}: {e}", args.run_root.display()))?;
    let wl = Workload::new(args.workload, args.seed);
    let mut setup_s = Vec::new();
    let mut elections = Vec::new();
    let mut env = None;
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let e = setup(args, &wl, rep)?;
        // Sessions are part of set-up; the measured deployment keeps its own.
        let t1 = Instant::now();
        let sessions = plain_sessions(&e, 1)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        println!(
            "setup {rep} total_s {:.3} spawn_s {:.3} election_s {:.3} populate_s {:.3} sessions_s {:.3}",
            t0.elapsed().as_secs_f64(),
            e.dep.ready.as_secs_f64(),
            e.dep.election.as_secs_f64(),
            e.populate_s,
            t1.elapsed().as_secs_f64()
        );
        elections.push((e.dep.election, e.dep.probes.clone()));
        if rep + 1 == SETUPS {
            env = Some((e, sessions));
        } else {
            drop(sessions);
            e.dep.shutdown();
        }
    }
    let (env, mut plain) = env.expect("at least one set-up");
    let mut models: Vec<Model> = (0..SESSIONS).map(|k| Model::new(k, &wl)).collect();

    // A traced run splits its measuring time between an untraced window
    // (the base of the trace overhead) and the traced one.
    let secs = if args.trace { args.seconds.div_ceil(2) } else { args.seconds };
    let (main, mut warm) = window(&env, &wl, &mut plain, &mut models, secs, false)?;
    let mut traced = None;
    let problems = if args.trace {
        drop(plain);
        let mut ts = traced_sessions(&env, 1 + SESSIONS as u64)?;
        let (w, warm2) = window(&env, &wl, &mut ts, &mut models, secs, true)?;
        warm.absorb(warm2);
        let p = verify(&env, &wl, &mut ts, &models);
        traced = Some(w);
        p
    } else {
        verify(&env, &wl, &mut plain, &models)
    };

    let prov = report::Provenance::collect(args, &env.dep.run_dir);
    let rep = report::Report {
        wl: &wl,
        setup_s: median(setup_s),
        elections: &elections,
        main: &main,
        traced: traced.as_ref(),
        warm: &warm,
        leader: env.dep.leader,
        sessions_on: (0..SESSIONS).map(|k| env.dep.follower_for(k)).collect(),
    };
    let correct = rep.emit(&prov, &problems, &args.run_root)?;
    env.dep.shutdown();
    Ok(correct)
}
