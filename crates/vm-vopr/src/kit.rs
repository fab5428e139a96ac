//! The oracle kit both fault harnesses share: `vm-vopr`'s seeded
//! torture runs and `vm-scenario`'s city-in-a-box workloads.
//!
//! A harness drives a served cell with one synchronous client that
//! settles each op ([`settle_submit`], [`settle_investigate`]) before
//! issuing the next, so per-minute accepted order equals issue order no
//! matter how the wire behaves. It then feeds exactly the accepted
//! operations to an in-process oracle ([`build_oracle`]) and holds the
//! served server to it with the one equivalence definition
//! ([`check_equivalence`]), after a clean restart too
//! ([`reopen_clean`]). Every check fails the run with an `Err(String)`
//! through [`ensure!`]; [`failure_telemetry`] appends the last opened
//! server's metrics snapshot to the failure report.

use crate::proxy::{ChaosProxy, WireFaults};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{MinuteId, VpId};
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::worlds::viewmap_checksum;
use vm_obs::Registry;
use vm_service::proto::ErrorCode;
use vm_service::{
    ClientConfig, ClientError, RoleCell, ServiceConfig, ServiceHandle, VmClient, VmService,
};
use vm_store::{PersistentServer, StoreConfig};

/// RSA modulus width for harness servers and oracles: the smallest the
/// crypto layer accepts, because the harnesses test fault tolerance and
/// equivalence, not key strength.
pub const KEY_BITS: usize = 64;

/// Cap on attempts for one op to settle before the run is declared
/// wedged (generous: the fault rates leave each attempt likely to
/// succeed).
const MAX_ATTEMPTS: usize = 50;

/// How many journal events a failure report carries.
const FAILURE_JOURNAL_TAIL: usize = 16;

/// Fail the enclosing `Result<_, String>` function with a formatted
/// message unless `$cond` holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        // `if cond {} else { .. }` rather than `if !cond` so float
        // comparisons at call sites don't trip neg_cmp_op_on_partial_ord.
        if $cond {
        } else {
            return Err(format!($($arg)*));
        }
    };
}
pub use crate::ensure;

thread_local! {
    /// The most recently opened server's telemetry registry. A registry
    /// outlives its server (it is `Arc`'d), so a failing run can dump
    /// the final metrics snapshot and journal tail beside the repro
    /// line even after the server under test has been torn down.
    static LAST_OBS: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Remember `obs` as the registry a failure report should dump.
pub fn track_obs(obs: &Arc<Registry>) {
    LAST_OBS.with(|cell| *cell.borrow_mut() = Some(Arc::clone(obs)));
}

/// The telemetry appendix for a failed run: the tracked registry's
/// full text snapshot plus the last few journal events. Empty when no
/// server ever opened (the failure predates any telemetry).
pub fn failure_telemetry() -> String {
    LAST_OBS.with(|cell| {
        let borrow = cell.borrow();
        let Some(obs) = borrow.as_ref() else {
            return String::new();
        };
        let mut out = String::from("\n--- metrics snapshot at failure ---\n");
        out.push_str(&obs.snapshot().render_text());
        out.push_str("--- journal tail ---\n");
        let tail = obs.journal().tail(FAILURE_JOURNAL_TAIL);
        if tail.is_empty() {
            out.push_str("(no events)\n");
        }
        for event in tail {
            out.push_str(&format!("{event}\n"));
        }
        out
    })
}

/// A per-run store directory under the system temp dir, removed on
/// drop. The name carries the harness, scenario, seed and process id,
/// so concurrent runs never share a store.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// A fresh (emptied) directory for one `(harness, scenario, seed)`.
    pub fn new(harness: &str, scenario: &str, seed: u64) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "{harness}_{scenario}_{seed}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How a submit settled.
pub enum Settled {
    /// The service accepted the op on this settle.
    Accepted,
    /// The service reports the op already present (a re-drive, or a
    /// retry whose earlier attempt was accepted but its reply lost).
    Present,
}

/// Submit `vp` until the service accepts it or reports it present,
/// reconnecting after every wire failure (each one counted in
/// `retries`). Any other rejection fails the run.
pub fn settle_submit(
    client: &mut VmClient,
    vp: &StoredVp,
    retries: &mut usize,
) -> Result<Settled, String> {
    for _ in 0..MAX_ATTEMPTS {
        match client.submit(vp) {
            Ok(()) => return Ok(Settled::Accepted),
            Err(ClientError::Remote(ErrorCode::Duplicate, _)) => return Ok(Settled::Present),
            Err(ClientError::Remote(code, detail)) => {
                return Err(format!("unexpected rejection {code}: {detail}"))
            }
            Err(_) => {
                *retries += 1;
                let _ = client.reconnect_with_backoff(5, Duration::from_millis(2));
            }
        }
    }
    Err(format!("submit of {:?} never settled", vp.id))
}

/// Investigate `minute` around `site` over the wire, retrying like
/// [`settle_submit`]. Returns the posted ids.
pub fn settle_investigate(
    client: &mut VmClient,
    minute: MinuteId,
    site: Site,
    retries: &mut usize,
) -> Result<Vec<VpId>, String> {
    for _ in 0..MAX_ATTEMPTS {
        match client.investigate(minute, site) {
            Ok(ids) => return Ok(ids),
            Err(ClientError::Remote(code, detail)) => {
                return Err(format!("investigation rejected {code}: {detail}"))
            }
            Err(_) => {
                *retries += 1;
                let _ = client.reconnect_with_backoff(5, Duration::from_millis(2));
            }
        }
    }
    Err(format!("investigation of {minute:?} never settled"))
}

/// Investigate every minute over the wire and require the oracle's
/// answer. Returns the ops settled.
pub fn check_wire_investigations(
    client: &mut VmClient,
    oracle: &ViewMapServer,
    minutes: &[MinuteId],
    site: Site,
    label: &str,
    retries: &mut usize,
) -> Result<usize, String> {
    for &minute in minutes {
        let ids = settle_investigate(client, minute, site, retries)?;
        ensure!(
            ids == oracle.investigate(minute, site),
            "{label}: wire investigation diverged at {minute:?}"
        );
    }
    Ok(minutes.len())
}

/// A fresh in-process oracle holding exactly the given minutes, each
/// replayed in accepted order with trusted flags preserved.
pub fn build_oracle(
    minutes: &[(MinuteId, &[StoredVp])],
    key_bits: usize,
    cfg: ViewmapConfig,
) -> Result<ViewMapServer, String> {
    let mut orng = StdRng::seed_from_u64(0xACE5);
    let oracle = ViewMapServer::new(&mut orng, key_bits, cfg);
    for (minute, vps) in minutes {
        let results = oracle.submit_replay_batch(vps.to_vec());
        ensure!(
            results.iter().all(|r| r.is_ok()),
            "oracle replay rejected a VP in {minute:?}: {results:?}"
        );
    }
    Ok(oracle)
}

/// Assert `srv` and `oracle` are observably the same system over
/// `minutes`: stored minutes, state digest, totals, bucket orders,
/// viewmap checksums and investigation outcomes at `site`, id-index
/// routing, and (after the investigations this check runs itself) the
/// solicitation board. Telemetry must agree with the state it
/// describes — stored minus evicted equals resident on each side, and
/// the two sides' counter-derived totals match.
pub fn check_equivalence(
    srv: &ViewMapServer,
    oracle: &ViewMapServer,
    minutes: &[MinuteId],
    site: Site,
    label: &str,
) -> Result<(), String> {
    ensure!(
        srv.stored_minutes() == minutes,
        "{label}: server minutes {:?}, expected {minutes:?}",
        srv.stored_minutes()
    );
    ensure!(
        oracle.stored_minutes() == minutes,
        "{label}: oracle minutes {:?}",
        oracle.stored_minutes()
    );
    ensure!(
        srv.state_digest() == oracle.state_digest(),
        "{label}: state digest diverged"
    );
    ensure!(
        srv.total_vps() == oracle.total_vps(),
        "{label}: total {} != oracle {}",
        srv.total_vps(),
        oracle.total_vps()
    );
    for &minute in minutes {
        let s_ids: Vec<VpId> = srv.minute_vps(minute).iter().map(|vp| vp.id).collect();
        let o_ids: Vec<VpId> = oracle.minute_vps(minute).iter().map(|vp| vp.id).collect();
        ensure!(
            s_ids == o_ids,
            "{label}: bucket order diverged at {minute:?}"
        );
        ensure!(
            viewmap_checksum(&srv.build_viewmap(minute, site))
                == viewmap_checksum(&oracle.build_viewmap(minute, site)),
            "{label}: viewmap checksum diverged at {minute:?}"
        );
        ensure!(
            srv.investigate(minute, site) == oracle.investigate(minute, site),
            "{label}: investigation diverged at {minute:?}"
        );
        for id in s_ids {
            for (who, side) in [("server", srv), ("oracle", oracle)] {
                ensure!(
                    side.lookup_vp(id).map(|vp| vp.id) == Some(id),
                    "{label}: {who} index lost {id:?}"
                );
            }
        }
    }
    ensure!(
        srv.solicitation_board() == oracle.solicitation_board(),
        "{label}: solicitation boards diverged"
    );
    // Registries are recreated at every reopen and replay re-counts
    // through the same ingest path, so this holds across recovery too.
    let mut counted = [0i64; 2];
    for (slot, (who, side)) in [("server", srv), ("oracle", oracle)]
        .into_iter()
        .enumerate()
    {
        let snap = side.obs().snapshot();
        let stored = snap.counter("vm_core_vps_stored_total").unwrap_or(0) as i64;
        let evicted = snap.counter("vm_core_vps_evicted_total").unwrap_or(0) as i64;
        counted[slot] = stored - evicted;
        ensure!(
            counted[slot] == side.total_vps() as i64,
            "{label}: {who} counters say {stored} stored - {evicted} evicted, \
             but {} VPs are resident",
            side.total_vps()
        );
    }
    ensure!(
        counted[0] == counted[1],
        "{label}: counter-derived VP totals diverged: server {} vs oracle {}",
        counted[0],
        counted[1]
    );
    Ok(())
}

/// Reopen the durable store in `dir` after a clean shutdown and hold
/// it to `oracle`: exactly `want_records` recovered, no torn tail, no
/// fresh signing key (the keyfile persists beside the segments), then
/// [`check_equivalence`]. Opens with the default viewmap and store
/// configs, as both harnesses run. Returns the reopened server.
pub fn reopen_clean(
    dir: &Path,
    want_records: usize,
    oracle: &ViewMapServer,
    minutes: &[MinuteId],
    site: Site,
    label: &str,
) -> Result<ViewMapServer, String> {
    // The keyfile supplies the signing key, so the rng goes unused
    // unless the check below is about to fail.
    let mut rng = StdRng::seed_from_u64(0xf17a1);
    let (back, rep) = ViewMapServer::open(
        &mut rng,
        KEY_BITS,
        ViewmapConfig::default(),
        dir,
        StoreConfig::default(),
    )
    .map_err(|e| format!("{label}: reopen: {e}"))?;
    track_obs(back.obs());
    ensure!(
        rep.records == want_records && rep.torn_segments == 0 && rep.truncated_bytes == 0,
        "{label}: reopened {} records ({} torn, {}B truncated), expected {want_records} clean",
        rep.records,
        rep.torn_segments,
        rep.truncated_bytes
    );
    ensure!(
        !rep.fresh_signing_key,
        "{label}: reopen minted a fresh key over the persisted keyfile"
    );
    check_equivalence(&back, oracle, minutes, site, label)?;
    Ok(back)
}

/// A served cell as the harnesses drive it. Fields drop in declaration
/// order — client, proxy, service (which joins its workers) — the
/// teardown order both a crash and a clean stop need.
pub struct Served {
    /// The connected client (through the proxy when there is one).
    pub client: VmClient,
    /// The chaos proxy between client and service, if any.
    pub proxy: Option<ChaosProxy>,
    /// The service front-end.
    pub handle: ServiceHandle,
}

/// Serve `srv` on an ephemeral loopback port with `cfg`, gated by
/// `role` when given; put a chaos proxy seeded with `faults.1` in
/// front when `faults` is set; and connect one client whose backoff
/// jitter replays from `backoff_seed`.
pub fn serve(
    srv: &Arc<ViewMapServer>,
    cfg: ServiceConfig,
    role: Option<Arc<RoleCell>>,
    faults: Option<(WireFaults, u64)>,
    backoff_seed: u64,
) -> Result<Served, String> {
    let handle = VmService::spawn_with_role(Arc::clone(srv), "127.0.0.1:0", cfg, role)
        .map_err(|e| format!("spawn service: {e}"))?;
    let proxy = match faults {
        Some((faults, seed)) => Some(
            ChaosProxy::spawn(handle.addr(), seed, faults)
                .map_err(|e| format!("spawn proxy: {e}"))?,
        ),
        None => None,
    };
    let addr = proxy.as_ref().map_or(handle.addr(), |p| p.addr());
    let client = VmClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            backoff_seed: Some(backoff_seed),
        },
    )
    .map_err(|e| format!("connect: {e}"))?;
    Ok(Served {
        client,
        proxy,
        handle,
    })
}
