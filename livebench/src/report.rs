//! Metric computation and output: every metric by name with its unit on
//! its own line, then the one-line JSON result.

use std::path::Path;
use std::time::Duration;

use crate::deploy::LeaderProbe;
use crate::trace::{self, Breakdown, Layer};
use crate::workload::{Class, OpLog, Workload};
use crate::{median, Args, Window, SESSIONS};

const MIB: f64 = (1u64 << 20) as f64;
/// Length of one slice of the window, seconds.
const SLICE_S: f64 = 1.0;
/// Where on the favourable side the bounded figures are read: the rate is
/// the upper quartile of the slice rates, each latency the lower quartile
/// of the slice medians.
const FAVOURABLE: f64 = 0.25;

/// Where and how a result was produced.
pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Read the machine and build facts for this run.
    pub fn collect(args: &Args, run_dir: &Path) -> Provenance {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Provenance {
            fields: vec![
                ("workload", args.workload.as_str().to_string()),
                ("seed", args.seed.to_string()),
                ("seconds", args.seconds.to_string()),
                ("nproc", nproc.to_string()),
                ("kernel", kernel),
                ("run_dir_fs", fs_type(run_dir)),
                ("rev", args.rev.clone()),
                (
                    "wal_flush",
                    "coord_server default: fsync per ZAB batch (max_batch 1, flush 2 ms)".into(),
                ),
                ("store_flush", "store_server --fsync group".into()),
                ("read_consistency", "SyncThenLocal, leases on, one shared cache".into()),
            ],
        }
    }
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn pct_us(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64 / 1_000.0
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = v.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    div(sum, n as f64)
}

/// Everything one run measured.
pub struct Report<'a> {
    /// The workload's inputs.
    pub wl: &'a Workload,
    /// Median set-up time.
    pub setup_s: f64,
    /// Time to leader and the probes behind it, per set-up.
    pub elections: &'a [(Duration, Vec<LeaderProbe>)],
    /// The untraced window.
    pub main: &'a Window,
    /// The traced window, in a traced run.
    pub traced: Option<&'a Window>,
    /// Warm-up operations (checked, not timed).
    pub warm: &'a OpLog,
    /// Index of the leader.
    pub leader: usize,
    /// Member each session is pinned to.
    pub sessions_on: Vec<usize>,
}

struct Out(Vec<(String, f64, &'static str)>);

/// One slice of the timed window.
struct Slice {
    /// Share of the machine's CPU time stolen by the hypervisor.
    steal: f64,
    /// Operations completed per second.
    rate: f64,
    /// Read p50 and write p50 (µs); 0 when the slice holds no sample of
    /// the class.
    lat: [f64; 2],
}

/// Rate and latencies read from a set of slices.
struct Figures {
    rate: f64,
    lat: [f64; 2],
}

/// The value at `share` of the way up the sorted `v` (nearest rank).
fn quantile(mut v: Vec<f64>, share: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((share * v.len() as f64) as usize).min(v.len() - 1)]
}

impl Figures {
    /// Medians over every slice.
    fn median(slices: &[Slice]) -> Figures {
        Figures::at(slices, 0.5, 0.5)
    }

    /// The favourable quartile: the upper quartile of the rates, the lower
    /// quartile of the latencies.
    fn favourable(slices: &[Slice]) -> Figures {
        Figures::at(slices, 1.0 - FAVOURABLE, FAVOURABLE)
    }

    fn at(slices: &[Slice], rate_share: f64, lat_share: f64) -> Figures {
        let lat = std::array::from_fn(|j| {
            quantile(slices.iter().map(|s| s.lat[j]).filter(|&v| v > 0.0).collect(), lat_share)
        });
        Figures { rate: quantile(slices.iter().map(|s| s.rate).collect(), rate_share), lat }
    }
}

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

impl Report<'_> {
    /// The bounded end-to-end figures into `out`; the tail latencies,
    /// which this benchmark reports but does not bound, into `tails`.
    ///
    /// The window is cut into 1 s slices. On a VM that shares its host,
    /// neighbours take CPU (hypervisor steal), disk and memory bandwidth in
    /// bursts of seconds to minutes, and every timing follows them. A
    /// slowed slice is slow; an unhindered one is not made fast. So the
    /// rate is the upper quartile of the slice rates and each p50 the
    /// lower quartile of the slice p50s: figures that hold while at least
    /// a quarter of the window ran unhindered. The medians over all slices
    /// are printed too. The tails are whole-window percentiles.
    fn end_to_end(&self, out: &mut Out, tails: &mut Out) {
        let w = self.main;
        out.put("setup_s", self.setup_s, "s");
        let n = ((w.secs / SLICE_S).round() as usize).max(1);
        let len_us = (w.secs * 1e6 / n as f64).ceil() as u64;
        let ticks_at = |t: u64| {
            w.log.cpu.iter().rev().find(|c| c.0 <= t).or(w.log.cpu.first()).map_or((0, 0), |c| c.1)
        };
        let slices: Vec<Slice> = (0..n as u64)
            .map(|i| {
                let (from, to) = (i * len_us, (i + 1) * len_us);
                let ops =
                    w.log.samples.iter().filter(|s| s.end_us >= from && s.end_us < to).count();
                let r = w.log.latencies(Class::Read, from, to);
                let wr = w.log.latencies(Class::Write, from, to);
                let ((s0, t0), (s1, t1)) = (ticks_at(from), ticks_at(to));
                Slice {
                    steal: div(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64),
                    rate: ops as f64 / (len_us as f64 / 1e6),
                    lat: [pct_us(&r, 0.50), pct_us(&wr, 0.50)],
                }
            })
            .collect();
        let show = |v: Vec<f64>| v.iter().map(|x| x.round()).collect::<Vec<_>>();
        println!(
            "slices {n} of {:.3} s after {:.1} s of settling, steal % {:?}, ops/s {:?}",
            len_us as f64 / 1e6,
            w.settle_s,
            show(slices.iter().map(|s| s.steal * 100.0).collect()),
            show(slices.iter().map(|s| s.rate).collect())
        );
        let all = Figures::median(&slices);
        let fav = Figures::favourable(&slices);
        println!(
            "all-slice medians ops_per_s {} read_p50_us {} write_p50_us {}",
            all.rate, all.lat[0], all.lat[1]
        );
        out.put("ops_per_s", fav.rate, "1/s");
        out.put("read_p50_us", fav.lat[0], "us");
        out.put("write_p50_us", fav.lat[1], "us");
        let whole = |c: Class| w.log.latencies(c, 0, u64::MAX);
        tails.put("read_p99_us", pct_us(&whole(Class::Read), 0.99), "us");
        tails.put("write_p99_us", pct_us(&whole(Class::Write), 0.99), "us");
        // Peak after set-up and the fixed-count warm-up: the populated
        // namespace, the warm shared cache and the sessions. The in-process
        // back-end mounts keep one directory chain per file ever created,
        // so the peak grows with the work done; the peak at the end of the
        // window is printed as `client_rss_end_mb`.
        out.put("client_rss_mb", w.warm_rss_peak as f64 / MIB, "MB");
        tails.put("client_rss_end_mb", w.after.me.rss_peak as f64 / MIB, "MB");
        let server: u64 = w.after.coord.iter().map(|p| p.rss_peak).sum();
        out.put("server_rss_mb", server as f64 / MIB, "MB");
    }

    /// End-to-end figures that apply to one workload only, or are counts.
    fn unbounded(&self, out: &mut Out) {
        let w = self.main;
        // Aggregate bandwidth while checkpointing (restarting): payload
        // bytes over the time each session spent in those phases.
        let phase_s = |c: Class| {
            w.log.latencies(c, 0, u64::MAX).iter().sum::<u64>() as f64 / 1e9 / SESSIONS as f64
        };
        out.put(
            "ckpt_write_mb_s",
            div(w.log.bytes_written as f64 / MIB, phase_s(Class::Write)),
            "MB/s",
        );
        out.put("ckpt_read_mb_s", div(w.log.bytes_read as f64 / MIB, phase_s(Class::Read)), "MB/s");
        out.put("failed_ratio", div(w.log.failed as f64, w.log.attempted as f64), "ratio");
    }

    fn per_layer(&self, t: &Window, bd: &Breakdown, out: &mut Out) {
        let ops = t.log.ops() as f64;
        let (b, a) = (&t.before, &t.after);
        let writes = bd.coord_write_ns.len() as f64;
        let leader = self.leader;
        let d = |f: fn(&crate::Edge) -> u64| f(a).saturating_sub(f(b)) as f64;

        out.put("core.self_us.p50", pct_us(bd.self_of(Layer::Core), 0.50), "us");
        out.put("core.self_us.p99", pct_us(bd.self_of(Layer::Core), 0.99), "us");
        out.put("core.coord_calls_per_op", div(bd.calls_of(Layer::Cache) as f64, ops), "count");
        out.put(
            "core.backend_calls_per_op",
            div(bd.calls_of(Layer::Backendfs) as f64, ops),
            "count",
        );
        out.put("backendfs.call_us.p50", pct_us(&bd.backend_call_ns, 0.50), "us");

        let hits = d(|e| e.cache.hits);
        let misses = d(|e| e.cache.misses);
        out.put("cache.hit_ratio", div(hits, hits + misses), "ratio");
        out.put("cache.self_us.p50", pct_us(bd.self_of(Layer::Cache), 0.50), "us");
        out.put("cache.negative_hits_per_op", div(d(|e| e.cache.negative_hits), ops), "count");
        let inval = d(|e| {
            e.cache.watch_invalidations
                + e.cache.local_invalidations
                + e.cache.reconnect_invalidations
        });
        out.put("cache.invalidations_per_op", div(inval, ops), "count");
        out.put("cache.lease_renewals_per_s", div(d(|e| e.cache.lease_renewals), t.secs), "1/s");
        out.put(
            "cache.barriers_skipped_per_op",
            div(d(|e| e.cache.barriers_skipped), ops),
            "count",
        );

        out.put("coord.write_rpc_us.p50", pct_us(&bd.coord_write_ns, 0.50), "us");
        out.put("coord.write_rpc_us.p99", pct_us(&bd.coord_write_ns, 0.99), "us");
        out.put("coord.read_rpc_us.p50", pct_us(&bd.coord_read_ns, 0.50), "us");
        out.put("coord.read_rpc_us.p99", pct_us(&bd.coord_read_ns, 0.99), "us");
        out.put("coord.rpc_per_op", div(bd.calls_of(Layer::Coord) as f64, ops), "count");
        out.put("coord.sync_per_op", div(bd.coord_syncs as f64, ops), "count");
        out.put("coord.retries", bd.retries as f64, "count");
        out.put("coord.reconnects", d(|e| e.reconnects), "count");

        out.put(
            "net.frames_per_op",
            div(d(|e| e.net.frames_sent + e.net.frames_recv), ops),
            "count",
        );
        out.put("net.bytes_per_op", div(d(|e| e.net.bytes_sent + e.net.bytes_recv), ops), "B");
        out.put(
            "net.frames_per_flush",
            div(d(|e| e.net.frames_flushed), d(|e| e.net.writev_batches)),
            "count",
        );
        out.put("net.heartbeat_misses", d(|e| e.net.heartbeat_misses), "count");

        let cpu = |i: usize| a.coord[i].cpu_us.saturating_sub(b.coord[i].cpu_us) as f64;
        let followers = (0..a.coord.len()).filter(|&i| i != leader);
        out.put("server.leader.cpu_us_per_op", div(cpu(leader), ops), "us");
        out.put("server.follower.cpu_us_per_op", div(mean(followers.map(cpu)), ops), "us");
        let ctx = a.coord[leader].ctx_switches.saturating_sub(b.coord[leader].ctx_switches);
        out.put("server.leader.ctx_switches_per_op", div(ctx as f64, ops), "count");

        let zxids = a.status[leader].last_applied.saturating_sub(b.status[leader].last_applied);
        out.put("zab.txns_per_write", div(zxids as f64, writes), "count");
        let election_ms =
            median(self.elections.iter().map(|(e, _)| e.as_secs_f64() * 1e3).collect());
        out.put("zab.election_ms", election_ms, "ms");

        let n = a.coord.len();
        let disk = mean(
            (0..n).map(|i| a.coord[i].write_bytes.saturating_sub(b.coord[i].write_bytes) as f64),
        );
        // Signed: a checkpoint that drops old segments shrinks the directory.
        let dir = mean((0..n).map(|i| a.wal_bytes[i] as f64 - b.wal_bytes[i] as f64));
        out.put("wal.disk_bytes_per_write", div(disk, writes), "B");
        out.put("wal.dir_bytes_per_write", div(dir, writes), "B");
        println!("samples wal_dir_bytes before {:?} after {:?}", b.wal_bytes, a.wal_bytes);

        let nodes = a.status[leader].node_count as f64;
        out.put("zkstore.node_count", nodes, "count");
        out.put(
            "zkstore.rss_bytes_per_znode",
            div(mean(a.coord.iter().map(|p| p.rss as f64)), nodes),
            "B",
        );

        let moved_mb = (t.log.bytes_written + t.log.bytes_read) as f64 / MIB;
        out.put("store.write_rpc_us.p50", pct_us(&bd.store_write_ns, 0.50), "us");
        out.put("store.write_rpc_us.p99", pct_us(&bd.store_write_ns, 0.99), "us");
        out.put("store.read_rpc_us.p50", pct_us(&bd.store_read_ns, 0.50), "us");
        out.put("store.read_rpc_us.p99", pct_us(&bd.store_read_ns, 0.99), "us");
        out.put("store.rpcs_per_mb", div(bd.store_rpcs as f64, moved_mb), "count");
        let sum_store = |f: fn(&crate::deploy::ProcSample) -> u64| {
            (0..a.store.len()).map(|i| f(&a.store[i]).saturating_sub(f(&b.store[i]))).sum::<u64>()
                as f64
        };
        let user = t.log.bytes_written as f64;
        let store_dir: f64 = (0..a.store_bytes.len())
            .map(|i| a.store_bytes[i] as f64 - b.store_bytes[i] as f64)
            .sum();
        out.put("store_server.cpu_us_per_mb", div(sum_store(|p| p.cpu_us), moved_mb), "us");
        out.put(
            "store_server.disk_bytes_per_user_byte",
            div(sum_store(|p| p.write_bytes), user),
            "ratio",
        );
        out.put("store_server.dir_bytes_per_user_byte", div(store_dir, user), "ratio");

        // Load-generator CPU in the untraced window of this run.
        let m = self.main;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let gen_cpu = m.after.me.cpu_us.saturating_sub(m.before.me.cpu_us) as f64;
        out.put("gen.cpu_util", div(gen_cpu / 1e6, m.secs * nproc), "ratio");
        let traced_rate = div(t.log.ops() as f64, t.secs);
        out.put("trace.overhead_ratio", div(traced_rate, div(m.log.ops() as f64, m.secs)), "ratio");

        for l in Layer::ALL {
            out.put(
                format!("{}.self_share", l.name()),
                div(bd.total_of(l) as f64, bd.op_total as f64),
                "ratio",
            );
        }
    }

    /// Print the report and the JSON result line; return whether every
    /// answer was right.
    pub fn emit(
        &self,
        prov: &Provenance,
        problems: &[String],
        run_root: &Path,
    ) -> Result<bool, String> {
        let mut problems = problems.to_vec();
        let w = self.main;
        let logs: Vec<&OpLog> = [Some(&w.log), self.traced.map(|t| &t.log), Some(self.warm)]
            .into_iter()
            .flatten()
            .collect();
        let wrong: u64 = logs.iter().map(|l| l.wrong).sum();
        let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
        let failed: u64 = logs.iter().map(|l| l.failed).sum();

        let mut e2e = Out(Vec::new());
        let mut extra = Out(Vec::new());
        self.end_to_end(&mut e2e, &mut extra);
        self.unbounded(&mut extra);
        let mut layers = Out(Vec::new());
        if let Some(t) = self.traced {
            let mut bd = Breakdown::default();
            for tr in &t.traces {
                bd.absorb(tr);
            }
            if bd.max_residual_ns > 1_000 {
                problems
                    .push(format!("layer self times miss an op span by {} ns", bd.max_residual_ns));
            }
            self.per_layer(t, &bd, &mut layers);
            layers.0.extend(extra.0.iter().cloned());
            let dump = run_root.join(format!("spans-{}.tsv", self.wl.name.as_str()));
            trace::dump(&dump, &t.traces).map_err(|e| format!("{}: {e}", dump.display()))?;
            println!(
                "trace ops {} spans {} max_residual_ns {} dump {}",
                bd.ops,
                t.traces.iter().map(|t| t.spans.len()).sum::<usize>(),
                bd.max_residual_ns,
                dump.display()
            );
            println!(
                "samples coord_read_rpcs {} coord_write_rpcs {} backend_calls {} store_read_rpcs {} \
                 store_write_rpcs {}",
                bd.coord_read_ns.len(),
                bd.coord_write_ns.len(),
                bd.backend_call_ns.len(),
                bd.store_read_ns.len(),
                bd.store_write_ns.len()
            );
        }

        let fields: Vec<String> = prov.fields.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        println!("provenance {}", fields.join(" "));
        for (i, (e, probes)) in self.elections.iter().enumerate() {
            let longest = probes.iter().map(|p| p.took).max().unwrap_or_default();
            let silent = probes.iter().filter(|p| !p.answered).count();
            let last = probes.last().map_or(Duration::ZERO, |p| p.at);
            println!(
                "election setup {i} time_to_leader_ms {:.1} probes {} unanswered {silent} \
                 longest_probe_ms {:.1} last_probe_at_ms {:.1}",
                e.as_secs_f64() * 1e3,
                probes.len(),
                longest.as_secs_f64() * 1e3,
                last.as_secs_f64() * 1e3
            );
        }
        println!("placement leader {} sessions on members {:?}", self.leader, self.sessions_on);
        println!(
            "samples window_s {:.3} ops {} reads {} writes {} attempted {attempted} failed {failed} wrong {wrong}",
            w.secs,
            w.log.ops(),
            w.log.latencies(Class::Read, 0, u64::MAX).len(),
            w.log.latencies(Class::Write, 0, u64::MAX).len()
        );
        for (name, v, unit) in e2e.0.iter().chain(&extra.0).chain(&layers.0) {
            println!("metric {name} {v} {unit}");
        }
        for l in &logs {
            for p in &l.problems {
                println!("op {p}");
            }
        }
        for p in &problems {
            println!("problem {p}");
        }

        let correct = problems.is_empty() && wrong == 0;
        let shown = if self.traced.is_some() { &layers.0 } else { &e2e.0 };
        let metrics: Vec<String> = shown
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        );
        Ok(correct)
    }
}
