//! `incident-queries`: read-only investigations, closed loop.
//!
//! Set-up preloads two 50k-VP minutes. Minute D has dense anchors (one
//! per 4 km²), so a 200 m site's coverage area stays local and the
//! viewmap admits a few hundred members. Minute S has one anchor at the
//! centre (the shape of `vm-bench`'s SynthWorld), so the coverage radius
//! reaches the lone anchor and viewmaps hold thousands to all 50k
//! members. One session runs 10 local queries on D for every wide
//! query on S. Local queries are dominated by the O(minute) snapshot and
//! admission scans; wide ones by build phases, CSR construction and
//! TrustRank. Ingest, store and replication do no work while measured.
//! The measured phase is cut into slices with quiet reward rounds on
//! the same session between them ([`QuietRounds`]); the query metrics
//! and `rate_per_s` cover the slices only.

use crate::common::*;
use crate::gen::{Anchors, CityParams, MinuteSpec};
use crate::layers::{self, LayerInputs, Query};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use std::time::Instant;
use viewmap_core::types::MinuteId;
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Viewmap, ViewmapConfig};
use vm_service::VmClient;

const VPS: usize = 50_000;
const DENSE: CityParams = CityParams {
    vps_per_minute: VPS,
    anchors: Anchors::PerKm2(4.0),
    late_share: 0.0,
    planted: 12,
};
const SPARSE: CityParams = CityParams {
    vps_per_minute: VPS,
    anchors: Anchors::Centre,
    late_share: 0.0,
    planted: 0,
};
/// Every this-many-th query is a wide one.
const WIDE_EVERY: u64 = 11;
/// Wide sites' distances from the centre, as fractions of the way to
/// the edge.
const WIDE_DISTANCES: [f64; 3] = [0.25, 0.55, 0.85];
/// Queries whose answers are checked against the cold in-process oracle.
const ORACLE_LOCAL: usize = 20;
const ORACLE_WIDE: usize = 1;
/// Preload batch size (in-process, like a bulk import).
const PRELOAD_BATCH: usize = 8192;

/// Preload one minute in-process: anchors first, then every upload in
/// generator order, so bucket order is known to the oracle.
fn preload(cell: &crate::cell::Cell, spec: &MinuteSpec) -> Result<(), String> {
    let srv = cell.server();
    if srv
        .submit_trusted_batch(spec.anchors())
        .iter()
        .any(|r| r.is_err())
    {
        return Err("anchor rejected".into());
    }
    let order: Vec<usize> = spec.on_time.iter().chain(&spec.late).copied().collect();
    for chunk in order.chunks(PRELOAD_BATCH) {
        let subs = chunk.iter().map(|&i| AnonymousSubmission {
            session_id: 0,
            vp: spec.vp(i),
        });
        if srv.submit_batch_warm(subs).iter().any(|r| r.is_err()) {
            return Err("preloaded VP rejected".into());
        }
    }
    let planted = spec.planted.iter().map(|p| AnonymousSubmission {
        session_id: 0,
        vp: p.vp.clone(),
    });
    if srv.submit_batch_warm(planted).iter().any(|r| r.is_err()) {
        return Err("planted recording rejected".into());
    }
    Ok(())
}

/// The ids a preloaded minute must hold, in bucket order.
fn expected_ids(spec: &MinuteSpec) -> Vec<viewmap_core::types::VpId> {
    spec.anchor_idx
        .iter()
        .chain(&spec.on_time)
        .chain(&spec.late)
        .map(|&i| spec.id(i))
        .chain(spec.planted.iter().map(|p| p.vp.id))
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let (d, s) = std::thread::scope(|sc| {
        let d = sc.spawn(|| MinuteSpec::generate(&DENSE, MinuteId(1), ctx.seed));
        let s = MinuteSpec::generate(&SPARSE, MinuteId(2), ctx.seed);
        (d.join().expect("generator thread panicked"), s)
    });
    println!(
        "cellbench gen: minutes D (dense anchors) and S (one anchor) of {VPS} VPs in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let Some(cell) = timed_setups(ctx, &mut out, |cell| {
        preload(cell, &d)?;
        preload(cell, &s)?;
        cell.drain()?;
        // Warm-up: one local query over the wire.
        let mut client = VmClient::connect(cell.addr()).map_err(|e| e.to_string())?;
        let mut rng = ctx.rng(0x3a);
        client
            .investigate(d.minute, d.local_site(0, &mut rng))
            .map_err(|e| e.to_string())?;
        Ok(())
    }) else {
        return out;
    };
    for spec in [&d, &s] {
        let stored: Vec<_> = cell
            .server()
            .minute_vps(spec.minute)
            .iter()
            .map(|v| v.id)
            .collect();
        out.check(stored == expected_ids(spec), || {
            format!(
                "minute {} does not hold the generated VPs in order",
                spec.minute.0
            )
        });
    }

    // ── Measured phase: slices of queries, quiet reward rounds between ──
    let mut tracer = Tracer::new(ctx.epoch, ctx.trace);
    let mut queries: Vec<Query> = Vec::new();
    let mut answers = Vec::new();
    let (mut local, mut wide) = (Samples::default(), Samples::default());
    let mut obs = ObsDelta::default();
    let mut rounds = QuietRounds::new(ctx);
    let planted: Vec<_> = d.planted.iter().collect();
    let Some(mut client) = out.op(VmClient::connect(cell.addr())) else {
        return out;
    };
    let mut rng = ctx.rng(2);
    let mut elapsed = 0.0;
    let mut q = 0u64;
    for _ in 0..PAUSES {
        let deadline = Instant::now() + slice_len(ctx);
        let before = cell.server().obs().snapshot();
        let from = Instant::now();
        while Instant::now() < deadline {
            let is_wide = q % WIDE_EVERY == WIDE_EVERY - 1;
            let spec = if is_wide { &s } else { &d };
            // Wide sites cycle through three distances from the lone
            // anchor, so every run mixes mid-size and whole-minute
            // viewmaps in the same proportions.
            let site = if is_wide {
                let k = (q / WIDE_EVERY) as usize;
                s.site_at(WIDE_DISTANCES[k % WIDE_DISTANCES.len()], &mut rng)
            } else {
                d.local_site(q as usize, &mut rng)
            };
            let t = Instant::now();
            let r = tracer.span("vm-service.investigate", q, None, || {
                client.investigate(spec.minute, site)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(ids) = out.op(r) {
                if is_wide {
                    wide.push(ms)
                } else {
                    local.push(ms)
                }
                queries.push(Query {
                    minute: spec.minute,
                    site,
                    wide: is_wide,
                    client_ms: ms,
                });
                answers.push(ids);
            }
            q += 1;
        }
        elapsed += from.elapsed().as_secs_f64();
        obs.add(before, cell.server().obs().snapshot());
        rounds.take(
            ROUNDS_PER_PAUSE,
            &mut client,
            &cell,
            &planted,
            &mut out,
            &mut tracer,
        );
    }
    drop(client);
    println!(
        "cellbench incident-queries: {} local and {} wide queries in {elapsed:.2} s",
        local.len(),
        wide.len()
    );
    println!("cellbench incident-queries: local ms {}", local.profile());
    println!("cellbench incident-queries: wide ms {}", wide.profile());
    out.e2e(
        "rate_per_s",
        (local.len() + wide.len()) as f64 / elapsed,
        "1/s",
        local.len() + wide.len(),
    );
    out.e2e("main_p50_ms", local.quantile(0.5), "ms", local.len());
    out.e2e("main_tail_ms", local.quantile(0.9), "ms", local.len());
    out.e2e("side_p50_ms", wide.quantile(0.5), "ms", wide.len());

    // ── Correctness: seeded answers against the cold oracle ─────────
    let cfg = ViewmapConfig::default();
    let (mut checked_local, mut checked_wide) = (0, 0);
    for (qr, ids) in queries.iter().zip(&answers) {
        let budget = if qr.wide {
            &mut checked_wide
        } else {
            &mut checked_local
        };
        if *budget >= if qr.wide { ORACLE_WIDE } else { ORACLE_LOCAL } {
            continue;
        }
        *budget += 1;
        let cands = cell.server().minute_vps(qr.minute);
        let vm = Viewmap::build(&cands, qr.site, qr.minute, &cfg);
        let (_, oracle) = vm.verify(&qr.site, &cfg);
        out.check(&oracle == ids, || {
            format!(
                "INVESTIGATE minute {} at ({:.0}, {:.0}) answered {} ids, the cold oracle {}",
                qr.minute.0,
                qr.site.center.x,
                qr.site.center.y,
                ids.len(),
                oracle.len()
            )
        });
    }
    println!("cellbench oracle: {checked_local} local and {checked_wide} wide answers checked");
    if let Err(e) = cell.check_replica() {
        out.check(false, || e);
    }
    let (rss, _) = rss_bytes();
    let resident = cell.server().total_vps() + cell.replica().total_vps();
    let live = ctx
        .trace
        .then(|| layers::snapshot_replay(cell.server(), &queries, &mut tracer));

    // ── Epilogue: crash/recover ──────────────────────────────────────
    rounds.report(&mut out);
    let dir = crash_and_recover(cell, ctx, &mut out);

    if ctx.trace {
        let inputs = LayerInputs {
            windows: &[],
            queries,
            rounds: rounds.records,
            obs: Some(obs),
            evict_ms: Samples::default(),
            drain_ms: None,
            lag_ops_max: None,
            gen_lag: None,
            crashed_dir: dir,
            resident_vps: resident,
            rss_bytes: rss,
        };
        layers::compute(&inputs, ctx, live, &mut tracer, &mut out);
    }
    out.tracer = Some(tracer);
    out
}
