//! The client stack one load-generating thread drives: a `Dufs` instance
//! whose coordination session is a `dufs-cache` `CachedClient` over a TCP
//! `ZkClient`, and (for the data workload) a `StoreClient`.

use std::net::SocketAddr;

use dufs_cache::{CacheStats, CachedClient, SharedCache};
use dufs_coord::runtime::{ClientTransport, ZkClient};
use dufs_coord::{ReadConsistency, ZkRequest, ZkResponse};
use dufs_core::{CoordService, Dufs, LocalBackends};
use dufs_net::NetStatsSnapshot;
use dufs_store::{StoreClient, StoreTarget, TcpTarget};
use dufs_zkstore::ZkError;

use crate::trace::{NetProbe, Timed};

/// The one adapter `Dufs` needs to run on a `CachedClient`: it forwards
/// each planner request to the matching cached call.
pub struct CacheCoord<T: ClientTransport>(pub CachedClient<T>);

fn reply<V>(r: Result<V, ZkError>, ok: impl FnOnce(V) -> ZkResponse) -> ZkResponse {
    r.map_or_else(ZkResponse::Error, ok)
}

impl<T: ClientTransport> CoordService for CacheCoord<T> {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        let c = &mut self.0;
        match req {
            ZkRequest::GetData { path, .. } => {
                reply(c.get_data(&path), |(data, stat)| ZkResponse::Data { data, stat })
            }
            ZkRequest::Exists { path, .. } => reply(c.exists(&path), ZkResponse::ExistsResult),
            ZkRequest::GetChildren { path, .. } => {
                reply(c.get_children(&path), |(names, stat)| ZkResponse::Children { names, stat })
            }
            ZkRequest::GetChildrenData { path } => {
                reply(c.get_children_data(&path), |entries| ZkResponse::ChildrenData { entries })
            }
            ZkRequest::Create { path, data, mode } => {
                reply(c.create(&path, data, mode), |path| ZkResponse::Created { path })
            }
            ZkRequest::Delete { path, version } => {
                reply(c.delete(&path, version), |()| ZkResponse::Deleted)
            }
            ZkRequest::SetData { path, data, version } => {
                reply(c.set_data(&path, data, version), ZkResponse::Stat)
            }
            ZkRequest::Multi { ops } => reply(c.multi(ops), ZkResponse::MultiResults),
            other => {
                panic!("the DUFS planner issued a request the adapter does not map: {other:?}")
            }
        }
    }
}

/// Session counters, read through any wrapping of the coordination side.
pub trait Probe {
    /// This session's cache counters.
    fn cache_stats(&self) -> CacheStats;
    /// This session's transport counters.
    fn net_stats(&self) -> NetStatsSnapshot;
    /// Transport reconnects so far.
    fn reconnects(&self) -> u64;
    /// Sync barrier on the session (used before the convergence check).
    fn sync(&mut self) -> Result<u64, ZkError>;
}

impl<T: ClientTransport + NetProbe> Probe for CacheCoord<T> {
    fn cache_stats(&self) -> CacheStats {
        self.0.stats()
    }

    fn net_stats(&self) -> NetStatsSnapshot {
        self.0.inner().transport().net_stats()
    }

    fn reconnects(&self) -> u64 {
        self.0.inner().reconnects()
    }

    fn sync(&mut self) -> Result<u64, ZkError> {
        self.0.sync()
    }
}

impl<C: Probe> Probe for Timed<C> {
    fn cache_stats(&self) -> CacheStats {
        self.inner().cache_stats()
    }

    fn net_stats(&self) -> NetStatsSnapshot {
        self.inner().net_stats()
    }

    fn reconnects(&self) -> u64 {
        self.inner().reconnects()
    }

    fn sync(&mut self) -> Result<u64, ZkError> {
        // Barriers issued outside a traced op are not part of the trace.
        self.inner_mut().sync()
    }
}

/// One load-generating session: the DUFS client plus, in the data
/// workload, its data-path client.
pub struct Session<C, B> {
    /// Index of the session (0 or 1).
    pub k: usize,
    /// The DUFS client instance.
    pub fs: Dufs<C, B>,
    /// Data-path client, keyed by the FIDs `fs` returns.
    pub store: Option<StoreClient>,
}

/// Stripe size of the data path.
pub const STRIPE: usize = 64 << 10;

/// Open a coordination session pinned to `addr` at `SyncThenLocal`,
/// attached to the process's shared cache.
pub fn cached_session<T: ClientTransport>(
    transport: T,
    shared: &SharedCache,
) -> Result<CachedClient<T>, String> {
    let mut zk = ZkClient::establish(transport).map_err(|e| format!("open session: {e:?}"))?;
    zk.set_consistency(ReadConsistency::SyncThenLocal);
    Ok(shared.session(zk))
}

/// Build a data-path client over `store_addrs`, each target wrapped by
/// `wrap`; `None` when there are no data servers.
pub fn store_client(
    store_addrs: &[SocketAddr],
    id: u64,
    wrap: impl Fn(TcpTarget) -> Box<dyn StoreTarget>,
) -> Result<Option<StoreClient>, String> {
    if store_addrs.is_empty() {
        return Ok(None);
    }
    let targets = store_addrs
        .iter()
        .map(|&a| TcpTarget::connect(a, id).map(&wrap).map_err(|e| format!("store dial {a}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(StoreClient::new(targets, STRIPE)))
}

/// Untraced session stack.
pub type PlainSession = Session<CacheCoord<dufs_coord::tcp::TcpTransport>, LocalBackends>;

/// Traced session stack: every layer boundary wrapped in a timing wrapper.
pub type TracedSession =
    Session<Timed<CacheCoord<Timed<dufs_coord::tcp::TcpTransport>>>, Timed<LocalBackends>>;
