//! In-memory span recording for the traced run, and the timing wrappers
//! that record spans around each layer's public API.
//!
//! Every session runs on its own thread and every layer below it is called
//! synchronously, so a thread-local stack of open spans gives each span its
//! parent. Spans stay in a per-thread vector until the window ends; the
//! benchmark then computes self times from them and writes them out.
//!
//! When tracing is off the wrappers are not in the call path at all (the
//! untraced run uses the unwrapped types); only [`op`] and [`span`] run,
//! and they reduce to one thread-local flag test.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dufs_coord::runtime::{ClientEvent, ClientTransport};
use dufs_coord::tcp::TcpTransport;
use dufs_coord::{LeaseGrant, ZkRequest, ZkResponse};
use dufs_core::plan::{BackendReq, BackendResp};
use dufs_core::{BackendSet, CoordService};
use dufs_net::NetStatsSnapshot;
use dufs_store::{StoreError, StoreRep, StoreReq, StoreTarget};
use dufs_zkstore::ZkError;

/// The layer a span belongs to. `Op` is the whole user-visible operation;
/// its self time is the load generator's own work between layer calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark operation (self time: the `gen` layer).
    Op,
    /// A `Dufs` call (self time: VFS + planner).
    Core,
    /// A `CoordService` request into `CachedClient` (self time: cache and
    /// session bookkeeping).
    Cache,
    /// One coordination round trip, send to matching reply (network and
    /// servers included).
    Coord,
    /// One `BackendSet::call` into `LocalBackends`.
    Backendfs,
    /// A `StoreClient` call (self time: striping and copying).
    Store,
    /// A blocking `StoreTarget` submit or receive on a `TcpTarget`.
    StoreWait,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Op,
        Layer::Core,
        Layer::Cache,
        Layer::Coord,
        Layer::Backendfs,
        Layer::Store,
        Layer::StoreWait,
    ];

    /// Name used in the span dump and the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "gen",
            Layer::Core => "core",
            Layer::Cache => "cache",
            Layer::Coord => "coord",
            Layer::Backendfs => "backendfs",
            Layer::Store => "store",
            Layer::StoreWait => "store_wait",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("layer listed in ALL")
    }
}

/// What a span's operation or request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A read (stat, open, lookup, data read).
    Read,
    /// A mutation.
    Write,
    /// A `sync` barrier.
    Sync,
    /// A lease ping.
    Ping,
    /// Anything else.
    Other,
}

impl Kind {
    fn of_zk(req: &ZkRequest) -> Kind {
        match req {
            ZkRequest::Sync { .. } => Kind::Sync,
            ZkRequest::Ping => Kind::Ping,
            ZkRequest::Connect | ZkRequest::CloseSession => Kind::Other,
            r if r.is_read() => Kind::Read,
            _ => Kind::Write,
        }
    }

    fn of_store(req: &StoreReq) -> Kind {
        match req {
            StoreReq::Write { .. } => Kind::Write,
            StoreReq::Read { .. } => Kind::Read,
            _ => Kind::Other,
        }
    }

    /// Short name for the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Sync => "sync",
            Kind::Ping => "ping",
            Kind::Other => "other",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the process-wide
/// trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: u32,
    /// Operation id shared by every span of one operation.
    pub op: u32,
    /// Layer.
    pub layer: Layer,
    /// Request kind.
    pub kind: Kind,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Everything one thread recorded in a traced window.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Per-request store latencies (submit to reply), which overlap each
    /// other because `StoreClient` pipelines its stripes.
    pub store_rpcs: Vec<(Kind, u64)>,
    /// `on_retry` calls seen by the timing transport.
    pub retries: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    trace: ThreadTrace,
    stack: Vec<u32>,
    next_op: u32,
}

impl Recorder {
    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    fn begin(&mut self, layer: Layer, kind: Kind) -> u32 {
        let idx = self.trace.spans.len() as u32;
        let span =
            Span { start: now_ns(), end: 0, parent: self.parent(), op: self.next_op, layer, kind };
        self.trace.spans.push(span);
        self.stack.push(idx);
        idx
    }

    fn end(&mut self, idx: u32) {
        self.trace.spans[idx as usize].end = now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for the calling thread, discarding anything
/// recorded so far.
pub fn enable(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        *r = Recorder { on, ..Recorder::default() };
    });
}

/// Stop recording on the calling thread, keeping what was recorded.
pub fn pause() {
    REC.with(|r| r.borrow_mut().on = false);
}

/// Take the calling thread's recording and switch recording off.
pub fn take() -> ThreadTrace {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()).trace)
}

fn begin(layer: Layer, kind: Kind) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on.then(|| r.begin(layer, kind))
    })
}

fn end(idx: Option<u32>) {
    if let Some(i) = idx {
        REC.with(|r| r.borrow_mut().end(i));
    }
}

/// Record a finished interval under the innermost open span.
fn record(layer: Layer, kind: Kind, start: u64, end: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            let span = Span { start, end, parent: r.parent(), op: r.next_op, layer, kind };
            r.trace.spans.push(span);
        }
    });
}

fn is_on() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` as one benchmark operation: a fresh op id and an `Op` span.
pub fn op<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        r.next_op += 1;
        Some(r.begin(Layer::Op, kind))
    });
    let out = f();
    end(idx);
    out
}

/// Run `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, kind: Kind, f: impl FnOnce() -> R) -> R {
    let idx = begin(layer, kind);
    let out = f();
    end(idx);
    out
}

/// Timing wrapper over one layer's public trait: `CoordService` (the cache
/// span), `ClientTransport` (the coordination round trip), `BackendSet`
/// and `StoreTarget`.
pub struct Timed<X> {
    inner: X,
    /// Requests sent and not yet answered: `(req_id, start, kind)`.
    pending: VecDeque<(u64, u64, Kind)>,
}

impl<X> Timed<X> {
    /// Wrap `inner`.
    pub fn new(inner: X) -> Self {
        Timed { inner, pending: VecDeque::new() }
    }

    /// The wrapped value.
    pub fn inner(&self) -> &X {
        &self.inner
    }

    /// The wrapped value, mutably.
    pub fn inner_mut(&mut self) -> &mut X {
        &mut self.inner
    }
}

impl<C: CoordService> CoordService for Timed<C> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        let kind = Kind::of_zk(&req);
        let inner = &mut self.inner;
        span(Layer::Cache, kind, || inner.request(req))
    }

    fn drain_watches(&mut self) -> Vec<dufs_coord::WatchNotification> {
        self.inner.drain_watches()
    }
}

impl<B: BackendSet> BackendSet for Timed<B> {
    fn n_backends(&self) -> usize {
        self.inner.n_backends()
    }

    fn call(&mut self, backend: usize, req: BackendReq) -> BackendResp {
        let inner = &mut self.inner;
        span(Layer::Backendfs, Kind::Other, || inner.call(backend, req))
    }
}

impl<T: ClientTransport> ClientTransport for Timed<T> {
    fn send(&mut self, req_id: u64, session: u64, req: ZkRequest) -> Result<(), ZkError> {
        let start = now_ns();
        let kind = Kind::of_zk(&req);
        let r = self.inner.send(req_id, session, req);
        if r.is_ok() && is_on() {
            self.pending.push_back((req_id, start, kind));
        }
        r
    }

    fn recv(&mut self, timeout: Duration) -> Option<ClientEvent> {
        let ev = self.inner.recv(timeout);
        if let Some(ClientEvent::Resp { req_id, .. }) = &ev {
            // Replies arrive in request order; anything older than this
            // reply timed out and will never be answered.
            while let Some(&(id, start, kind)) = self.pending.front() {
                if id > *req_id {
                    break;
                }
                self.pending.pop_front();
                if id == *req_id {
                    record(Layer::Coord, kind, start, now_ns());
                }
            }
        }
        ev
    }

    fn on_retry(&mut self) {
        REC.with(|r| r.borrow_mut().trace.retries += 1);
        self.pending.clear();
        self.inner.on_retry()
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }

    fn pushed_lease(&mut self) -> Option<LeaseGrant> {
        self.inner.pushed_lease()
    }
}

impl<T: StoreTarget> StoreTarget for Timed<T> {
    fn submit(&mut self, req: StoreReq) -> Result<(), StoreError> {
        let start = now_ns();
        let kind = Kind::of_store(&req);
        let r = self.inner.submit(req);
        record(Layer::StoreWait, kind, start, now_ns());
        self.pending.push_back((0, start, kind));
        r
    }

    fn recv(&mut self) -> Result<StoreRep, StoreError> {
        let start = now_ns();
        let r = self.inner.recv();
        let end = now_ns();
        record(Layer::StoreWait, Kind::Other, start, end);
        if let Some((_, sent, kind)) = self.pending.pop_front() {
            REC.with(|rec| {
                let mut rec = rec.borrow_mut();
                if rec.on {
                    rec.trace.store_rpcs.push((kind, end - sent));
                }
            });
        }
        r
    }
}

/// Client transport counters, read through any wrapping.
pub trait NetProbe {
    /// The session's `dufs-net` counters.
    fn net_stats(&self) -> NetStatsSnapshot;
}

impl NetProbe for TcpTransport {
    fn net_stats(&self) -> NetStatsSnapshot {
        self.stats()
    }
}

impl<T: NetProbe> NetProbe for Timed<T> {
    fn net_stats(&self) -> NetStatsSnapshot {
        self.inner.net_stats()
    }
}

/// Per-layer time of one traced window, computed from its spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Operations traced.
    pub ops: u64,
    /// Per-op self time of each layer (ns), indexed like [`Layer::ALL`];
    /// only ops that entered the layer contribute.
    pub self_ns: Vec<Vec<u64>>,
    /// Summed self time per layer over all ops (ns).
    pub self_total: Vec<u64>,
    /// Summed op duration (ns).
    pub op_total: u64,
    /// Spans per layer.
    pub calls: Vec<u64>,
    /// Durations of backend calls (ns).
    pub backend_call_ns: Vec<u64>,
    /// Coordination read round trips (ns).
    pub coord_read_ns: Vec<u64>,
    /// Coordination write round trips (ns).
    pub coord_write_ns: Vec<u64>,
    /// Coordination sync round trips.
    pub coord_syncs: u64,
    /// Store read request latencies (ns).
    pub store_read_ns: Vec<u64>,
    /// Store write request latencies (ns).
    pub store_write_ns: Vec<u64>,
    /// All store requests.
    pub store_rpcs: u64,
    /// `on_retry` calls.
    pub retries: u64,
    /// Largest |sum of self times - op span| over all ops (ns): zero when
    /// every span nests inside its parent.
    pub max_residual_ns: u64,
}

impl Breakdown {
    /// Fold one thread's recording in.
    pub fn absorb(&mut self, t: &ThreadTrace) {
        let n = Layer::ALL.len();
        if self.self_ns.is_empty() {
            self.self_ns = vec![Vec::new(); n];
            self.self_total = vec![0; n];
            self.calls = vec![0; n];
        }
        // Self time = own duration minus the children's. Children of one
        // span run one after another on this thread, so they never overlap.
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut per_op = vec![0u64; n];
        let mut cur_op: Option<(u32, u64)> = None;
        let flush = |per_op: &mut Vec<u64>, cur: Option<(u32, u64)>, me: &mut Breakdown| {
            if let Some((_, dur)) = cur {
                let sum: u64 = per_op.iter().sum();
                me.max_residual_ns = me.max_residual_ns.max(sum.abs_diff(dur));
                for (i, v) in per_op.iter_mut().enumerate() {
                    // Every op has an op span; other layers only when entered.
                    if *v > 0 || i == Layer::Op.index() {
                        me.self_ns[i].push(*v);
                    }
                    *v = 0;
                }
            }
        };
        for (i, s) in t.spans.iter().enumerate() {
            if s.layer == Layer::Op {
                flush(&mut per_op, cur_op, self);
                cur_op = Some((s.op, s.dur()));
                self.ops += 1;
                self.op_total += s.dur();
            }
            if cur_op.map(|(id, _)| id) != Some(s.op) {
                continue; // outside any op (setup traffic)
            }
            let own = s.dur().saturating_sub(child_ns[i]);
            let l = s.layer.index();
            per_op[l] += own;
            self.self_total[l] += own;
            self.calls[l] += 1;
            match (s.layer, s.kind) {
                (Layer::Backendfs, _) => self.backend_call_ns.push(s.dur()),
                (Layer::Coord, Kind::Read) => self.coord_read_ns.push(s.dur()),
                (Layer::Coord, Kind::Write) => self.coord_write_ns.push(s.dur()),
                (Layer::Coord, Kind::Sync) => self.coord_syncs += 1,
                _ => {}
            }
        }
        flush(&mut per_op, cur_op, self);
        for &(kind, ns) in &t.store_rpcs {
            self.store_rpcs += 1;
            match kind {
                Kind::Read => self.store_read_ns.push(ns),
                Kind::Write => self.store_write_ns.push(ns),
                _ => {}
            }
        }
        self.retries += t.retries;
    }

    /// Per-op self times of `layer` (ns).
    pub fn self_of(&self, layer: Layer) -> &[u64] {
        &self.self_ns[layer.index()]
    }

    /// Total self time of `layer` (ns).
    pub fn total_of(&self, layer: Layer) -> u64 {
        self.self_total[layer.index()]
    }

    /// Spans recorded for `layer`.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }
}

/// Operations per thread whose spans [`dump`] writes out; self times are
/// computed from every span regardless.
pub const DUMP_OPS: u32 = 20_000;

/// Write the spans of each thread's first [`DUMP_OPS`] operations as
/// tab-separated text: thread, op, layer, kind, start, end, parent index
/// (`-` for none).
pub fn dump(path: &std::path::Path, threads: &[ThreadTrace]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\top\tlayer\tkind\tstart_ns\tend_ns\tparent")?;
    for (t, tr) in threads.iter().enumerate() {
        for s in tr.spans.iter().take_while(|s| s.op <= DUMP_OPS) {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(
                w,
                "{t}\t{}\t{}\t{}\t{}\t{}\t{parent}",
                s.op,
                s.layer.name(),
                s.kind.name(),
                s.start,
                s.end
            )?;
        }
    }
    w.flush()
}
