//! One replicated ViewMap cell: a durable `vm_repl::Primary` with one
//! loopback `Follower`, and a `VmService` front-end on the primary.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::server::ViewMapServer;
use viewmap_core::viewmap::ViewmapConfig;
use vm_crypto::RsaKeyPair;
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::{ServiceConfig, ServiceHandle, VmService};
use vm_store::{Fsync, StoreConfig};

/// Session workers: the load generator opens at most two connections.
pub const SERVICE_WORKERS: usize = 2;

/// The store policy every cell runs under.
pub fn store_cfg() -> StoreConfig {
    StoreConfig {
        fsync: Fsync::Never,
    }
}

pub struct Cell {
    // Field order is drop order: front-end first, then the replica,
    // then the primary whose hub the replica dials.
    service: ServiceHandle,
    follower: Follower,
    primary: Primary,
    dir: PathBuf,
}

impl Cell {
    /// Bring up a fresh cell under `dir` (which must not exist yet).
    pub fn open(dir: &Path, key: &RsaKeyPair) -> std::io::Result<Cell> {
        let cfg = ViewmapConfig::default();
        let (primary, _) = Primary::open(
            dir.join("primary"),
            key.clone(),
            cfg,
            store_cfg(),
            ReplicationConfig::default(),
            "127.0.0.1:0",
        )?;
        let (follower, _) = Follower::open(
            dir.join("follower"),
            key.clone(),
            cfg,
            store_cfg(),
            primary.repl_addr(),
            FollowerConfig::default(),
        )?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary.hub().follower_count() == 0 {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("follower never attached"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let service = VmService::spawn(
            Arc::clone(primary.server()),
            "127.0.0.1:0",
            ServiceConfig {
                workers: SERVICE_WORKERS,
                ..ServiceConfig::default()
            },
        )?;
        Ok(Cell {
            service,
            follower,
            primary,
            dir: dir.to_path_buf(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.service.addr()
    }

    pub fn server(&self) -> &Arc<ViewMapServer> {
        self.primary.server()
    }

    pub fn replica(&self) -> &Arc<ViewMapServer> {
        self.follower.server()
    }

    /// Ops shipped but not yet acknowledged by the follower.
    pub fn lag_ops(&self) -> u64 {
        let hub = self.primary.hub();
        hub.shipped_ops().saturating_sub(hub.watermark())
    }

    /// Wait until the follower has acknowledged every shipped op.
    pub fn drain(&self) -> Result<Duration, String> {
        let start = Instant::now();
        let hub = self.primary.hub();
        let target = hub.shipped_ops();
        while hub.watermark() < target {
            if start.elapsed() > Duration::from_secs(60) {
                return Err(format!(
                    "follower stuck at op {} of {target}",
                    hub.watermark()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(start.elapsed())
    }

    /// Drained primary and follower hold the same state.
    pub fn check_replica(&self) -> Result<(), String> {
        self.drain()?;
        let (p, f) = (self.server(), self.replica());
        if p.total_vps() != f.total_vps() || p.state_digest() != f.state_digest() {
            return Err(format!(
                "replica diverged: primary {} VPs / {:#x}, follower {} VPs / {:#x}",
                p.total_vps(),
                p.state_digest(),
                f.total_vps(),
                f.state_digest()
            ));
        }
        Ok(())
    }

    /// Drop the whole cell without cleaning up; returns the primary's
    /// store directory, left as the crash found it.
    pub fn crash(self) -> PathBuf {
        let primary_dir = self.dir.join("primary");
        drop(self);
        primary_dir
    }

    /// Drop the cell and delete its directories.
    pub fn destroy(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reopen a crashed primary directory and time it until the recovered
/// server holds `total` VPs with state digest `digest`.
pub fn recover(dir: &Path, key: &RsaKeyPair, total: usize, digest: u64) -> Result<f64, String> {
    let start = Instant::now();
    let (primary, report) = Primary::open(
        dir,
        key.clone(),
        ViewmapConfig::default(),
        store_cfg(),
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("reopen failed: {e}"))?;
    let srv = primary.server();
    let (got_total, got_digest) = (srv.total_vps(), srv.state_digest());
    let secs = start.elapsed().as_secs_f64();
    if got_total != total || got_digest != digest {
        return Err(format!(
            "recovery mismatch: {got_total} VPs / {got_digest:#x}, expected {total} / {digest:#x}"
        ));
    }
    if !report.warnings().is_empty() {
        return Err(format!(
            "recovery warnings on a clean crash: {:?}",
            report.warnings()
        ));
    }
    Ok(secs)
}
