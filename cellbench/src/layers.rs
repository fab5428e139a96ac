//! Per-layer numbers for the traced run.
//!
//! Two sources. "obs Δ" is the difference of the primary's `vm-obs`
//! snapshot across the measured phase — the same instruments a STATS
//! scrape reads. "replay" pushes the run's recorded inputs (upload
//! windows, queried `(minute, site)` pairs, reward rounds, the crashed
//! store) through one layer's public function on in-process instances,
//! one span per call, after the measured phase so it never perturbs it.

use crate::common::{Ctx, Outcome, RoundRecord, Window};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::trustrank::{verify_site_csr_iter, CsrGraph};
use viewmap_core::types::MinuteId;
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_service::proto::OP_SUBMIT;
use vm_service::Request;

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("vm-service.decode_us_per_vp", "us/VP"),
    ("vm-service.submit_us_per_vp", "us/VP"),
    ("vm-service.coalesce_frames_mean", "frames"),
    ("vm-service.investigate_wait_ms", "ms"),
    ("core.server.ingest_us_per_vp", "us/VP"),
    ("core.server.accepted_ratio", "ratio"),
    ("core.server.evict_ms", "ms"),
    ("core.server.snapshot_ms", "ms"),
    ("core.viewmap.admitted_ratio", "ratio"),
    ("core.viewmap.admit_ms", "ms"),
    ("core.viewmap.phase_ms.tables", "ms"),
    ("core.viewmap.phase_ms.candidates", "ms"),
    ("core.viewmap.phase_ms.keys", "ms"),
    ("core.viewmap.phase_ms.linkage", "ms"),
    ("core.maintained.create_ms", "ms"),
    ("core.maintained.extract_ms", "ms"),
    ("core.maintained.splice_us_per_vp", "us/VP"),
    ("core.trustrank.csr_ms", "ms"),
    ("core.trustrank.iterate_ms", "ms"),
    ("core.trustrank.iterations", "count"),
    ("core.reward.blind_sign_ms_per_unit", "ms/unit"),
    ("core.reward.redeem_us", "us"),
    ("core.upload.validate_ms", "ms"),
    ("vm-store.encode_us_per_vp", "us/VP"),
    ("vm-store.bytes_per_vp", "B/VP"),
    ("vm-store.append_us_per_batch", "us"),
    ("vm-store.batch_records_mean", "records"),
    ("vm-store.open_scan_ms", "ms"),
    ("vm-store.replay_ms", "ms"),
    ("vm-repl.ship_us_per_op", "us"),
    ("vm-repl.apply_us_per_vp", "us/VP"),
    ("vm-repl.drain_ms", "ms"),
    ("vm-repl.lag_ops_max", "ops"),
    ("proc.rss_bytes_per_resident_vp", "B/VP"),
    ("gen.lag_p99_ms", "ms"),
];

/// Upload windows replayed per layer (the first ones sent).
pub const REPLAY_WINDOWS: usize = 200;
/// Queries replayed per kind (the first ones answered).
const REPLAY_LOCAL: usize = 30;
const REPLAY_WIDE: usize = 3;

/// One answered investigation.
pub struct Query {
    pub minute: MinuteId,
    pub site: Site,
    pub wide: bool,
    /// Client round trip, ms.
    pub client_ms: f64,
}

/// What the query replays need from the live cell.
pub struct LiveReplay {
    snapshot_ms: Samples,
    minutes: BTreeMap<u64, Vec<Arc<StoredVp>>>,
    /// Indices of the replayed queries.
    picked: Vec<usize>,
}

/// The recorded run, as the replays consume it.
pub struct LayerInputs<'a> {
    /// The first windows sent, in order.
    pub windows: &'a [Window],
    pub queries: Vec<Query>,
    pub rounds: Vec<RoundRecord>,
    pub obs: Option<ObsDelta>,
    pub evict_ms: Samples,
    pub drain_ms: Option<f64>,
    pub lag_ops_max: Option<u64>,
    /// Open-loop send lateness, ms.
    pub gen_lag: Option<Samples>,
    pub crashed_dir: PathBuf,
    pub resident_vps: usize,
    pub rss_bytes: u64,
}

/// Time the O(minute) snapshot (`minute_vps`) on the live primary for
/// the first queries of each kind whose minute is still stored, and
/// keep the snapshots for the build replays.
pub fn snapshot_replay(srv: &ViewMapServer, queries: &[Query], tracer: &mut Tracer) -> LiveReplay {
    let mut live = LiveReplay {
        snapshot_ms: Samples::default(),
        minutes: BTreeMap::new(),
        picked: Vec::new(),
    };
    let (mut locals, mut wides) = (0, 0);
    for (i, q) in queries.iter().enumerate() {
        let quota = if q.wide { &mut wides } else { &mut locals };
        if *quota >= if q.wide { REPLAY_WIDE } else { REPLAY_LOCAL } || srv.vp_count(q.minute) == 0
        {
            continue;
        }
        *quota += 1;
        let t = Instant::now();
        let vps = tracer.span("core.server.minute_vps", i as u64, None, || {
            srv.minute_vps(q.minute)
        });
        live.snapshot_ms.push(ms_since(t));
        live.minutes.entry(q.minute.0).or_insert(vps);
        live.picked.push(i);
    }
    live
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Fill `out.layers` with every metric of [`LAYER_METRICS`].
pub fn compute(
    inp: &LayerInputs,
    ctx: &Ctx,
    live: Option<LiveReplay>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut why: BTreeMap<&'static str, String> = BTreeMap::new();
    let cfg = ViewmapConfig::default();

    // ── Write path replays over the recorded windows ─────────────────
    let windows = &inp.windows[..inp.windows.len().min(REPLAY_WINDOWS)];
    if windows.is_empty() {
        for k in [
            "vm-service.decode_us_per_vp",
            "core.server.ingest_us_per_vp",
            "vm-store.encode_us_per_vp",
            "vm-store.bytes_per_vp",
            "vm-repl.apply_us_per_vp",
        ] {
            why.insert(k, "no uploads in the measured phase".into());
        }
    } else {
        let ingest = ViewMapServer::with_key(ctx.key.clone(), cfg);
        let apply = ViewMapServer::with_key(ctx.key.clone(), cfg);
        let (mut decode_us, mut ingest_us, mut encode_us, mut apply_us) = (0.0, 0.0, 0.0, 0.0);
        let (mut vps_n, mut bytes) = (0usize, 0usize);
        for (i, w) in windows.iter().enumerate() {
            let req = i as u64;
            let vps = w.vps();
            vps_n += vps.len();
            let payloads: Vec<Vec<u8>> = vps
                .iter()
                .map(|vp| Request::Submit(vp.clone()).encode_payload())
                .collect();
            let t = Instant::now();
            for p in &payloads {
                let r = tracer.span("vm-service.Request::decode", req, None, || {
                    Request::decode(OP_SUBMIT, p)
                });
                out.check(r.is_ok(), || {
                    "a recorded SUBMIT payload failed to decode".into()
                });
            }
            decode_us += ms_since(t) * 1e3;

            let refs: Vec<&StoredVp> = vps.iter().collect();
            let t = Instant::now();
            let frames = tracer.span("vm-store.frame_records", req, None, || {
                vm_store::frame_records(&refs)
            });
            encode_us += ms_since(t) * 1e3;
            bytes += frames.iter().map(|f| f.len()).sum::<usize>();

            // Follower apply: validate each minute's frames, then the
            // cold replay — what the applier does per shipped op.
            let mut by_minute: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
            for (frame, it) in frames.into_iter().zip(&w.items) {
                by_minute.entry(it.minute() as u64).or_default().push(frame);
            }
            let t = Instant::now();
            for (minute, frames) in &by_minute {
                let (valid, err) =
                    tracer.span("vm-repl.validate_segment_frames", req, None, || {
                        vm_repl::validate_segment_frames(frames, MinuteId(*minute))
                    });
                out.check(err.is_none() && valid.len() == frames.len(), || {
                    "a recorded batch failed frame validation".into()
                });
                tracer.span("core.server.submit_replay_batch_cold", req, None, || {
                    apply.submit_replay_batch_cold(valid)
                });
            }
            apply_us += ms_since(t) * 1e3;

            let t = Instant::now();
            let subs = vps
                .into_iter()
                .map(|vp| AnonymousSubmission { session_id: 0, vp });
            tracer.span("core.server.submit_batch_warm", req, None, || {
                ingest.submit_batch_warm(subs)
            });
            ingest_us += ms_since(t) * 1e3;
        }
        let n = vps_n as f64;
        m.insert("vm-service.decode_us_per_vp", decode_us / n);
        m.insert("core.server.ingest_us_per_vp", ingest_us / n);
        m.insert("vm-store.encode_us_per_vp", encode_us / n);
        m.insert("vm-store.bytes_per_vp", bytes as f64 / n);
        m.insert("vm-repl.apply_us_per_vp", apply_us / n);
        println!("cellbench replay: {} windows, {vps_n} VPs", windows.len());
    }

    // ── obs Δ over the measured phase ────────────────────────────────
    if let Some(d) = &inp.obs {
        let frames = d.hist("vm_service_coalesce_run_frames");
        let submit = d.hist("vm_service_request_us{op=\"submit\"}");
        if frames.1 > 0 {
            m.insert(
                "vm-service.submit_us_per_vp",
                submit.1 as f64 / frames.1 as f64,
            );
            m.insert(
                "vm-service.coalesce_frames_mean",
                d.hist_mean("vm_service_coalesce_run_frames"),
            );
        } else {
            why.insert(
                "vm-service.submit_us_per_vp",
                "no SUBMIT frames in the measured phase".into(),
            );
            why.insert(
                "vm-service.coalesce_frames_mean",
                "no SUBMIT frames in the measured phase".into(),
            );
        }
        let stored = d.counter("vm_core_vps_stored_total");
        let rejected = d.counter("vm_core_vps_rejected_total");
        if stored + rejected > 0 {
            m.insert(
                "core.server.accepted_ratio",
                stored as f64 / (stored + rejected) as f64,
            );
        } else {
            why.insert(
                "core.server.accepted_ratio",
                "no ingest in the measured phase".into(),
            );
        }
        let investigate = d.hist("vm_service_request_us{op=\"investigate\"}");
        if investigate.0 > 0 && !inp.queries.is_empty() {
            let client =
                inp.queries.iter().map(|q| q.client_ms).sum::<f64>() / inp.queries.len() as f64;
            let server = investigate.1 as f64 / investigate.0 as f64 / 1e3;
            m.insert("vm-service.investigate_wait_ms", client - server);
        } else {
            why.insert(
                "vm-service.investigate_wait_ms",
                "no investigations in the measured phase".into(),
            );
        }
        // Zero today: the wire answers INVESTIGATE on the cold path,
        // so no maintained graph is ever created, extracted or spliced.
        m.insert(
            "core.maintained.create_ms",
            d.hist_mean("vm_core_maintained_create_us") / 1e3,
        );
        m.insert(
            "core.maintained.extract_ms",
            d.hist_mean("vm_core_maintained_extract_us") / 1e3,
        );
        let splice = d.hist("vm_core_maintained_splice_us");
        m.insert(
            "core.maintained.splice_us_per_vp",
            if stored > 0 {
                splice.1 as f64 / stored as f64
            } else {
                0.0
            },
        );
        let append = d.hist("vm_store_append_us");
        if append.0 > 0 {
            m.insert(
                "vm-store.append_us_per_batch",
                d.hist_mean("vm_store_append_us"),
            );
            m.insert(
                "vm-store.batch_records_mean",
                d.hist_mean("vm_store_batch_records"),
            );
        } else {
            why.insert(
                "vm-store.append_us_per_batch",
                "no WAL appends in the measured phase".into(),
            );
            why.insert(
                "vm-store.batch_records_mean",
                "no WAL appends in the measured phase".into(),
            );
        }
        if d.hist("vm_repl_ship_us").0 > 0 {
            m.insert("vm-repl.ship_us_per_op", d.hist_mean("vm_repl_ship_us"));
        } else {
            why.insert(
                "vm-repl.ship_us_per_op",
                "nothing shipped in the measured phase".into(),
            );
        }
    }

    if inp.evict_ms.len() > 0 {
        m.insert("core.server.evict_ms", inp.evict_ms.mean());
    } else {
        why.insert(
            "core.server.evict_ms",
            "no minute boundary in the measured phase".into(),
        );
    }

    // ── Investigation replays on the live snapshots ──────────────────
    match &live {
        Some(live) if live.snapshot_ms.len() > 0 => {
            m.insert("core.server.snapshot_ms", live.snapshot_ms.mean());
            let any_wide = inp.queries.iter().any(|q| q.wide);
            let (mut admitted, mut admit, mut tables, mut cands, mut keys, mut linkage) = (
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
            );
            let (mut csr_ms, mut iter_ms, mut iters) =
                (Samples::default(), Samples::default(), Samples::default());
            for &i in &live.picked {
                let (q, req) = (&inp.queries[i], i as u64);
                let pop = &live.minutes[&q.minute.0];
                let t = Instant::now();
                let (vm, p) = tracer.span("core.viewmap.build_profiled", req, None, || {
                    Viewmap::build_profiled(pop, q.site, q.minute, &cfg, 0)
                });
                let total = ms_since(t);
                let phases = p.tables_ms + p.candidates_ms + p.keys_ms + p.linkage_ms;
                if !q.wide {
                    admitted.push(vm.len() as f64 / pop.len() as f64);
                    admit.push((total - phases).max(0.0));
                }
                // Phase, CSR and TrustRank costs are taken where they
                // dominate: wide queries when the workload has them.
                if q.wide != any_wide {
                    continue;
                }
                tables.push(p.tables_ms);
                cands.push(p.candidates_ms);
                keys.push(p.keys_ms);
                linkage.push(p.linkage_ms);
                if vm.trusted.is_empty() {
                    continue;
                }
                let t = Instant::now();
                let csr = tracer.span("core.trustrank.CsrGraph::from_adj", req, None, || {
                    CsrGraph::from_adj(&vm.adj)
                });
                csr_ms.push(ms_since(t));
                let site_idx = vm.site_members(&q.site);
                let t = Instant::now();
                let (_, n) = tracer.span("core.trustrank.verify_site_csr_iter", req, None, || {
                    verify_site_csr_iter(&csr, &vm.trusted, &site_idx, cfg.damping)
                });
                iter_ms.push(ms_since(t));
                iters.push(n as f64);
            }
            m.insert("core.viewmap.admitted_ratio", admitted.mean());
            m.insert("core.viewmap.admit_ms", admit.mean());
            m.insert("core.viewmap.phase_ms.tables", tables.mean());
            m.insert("core.viewmap.phase_ms.candidates", cands.mean());
            m.insert("core.viewmap.phase_ms.keys", keys.mean());
            m.insert("core.viewmap.phase_ms.linkage", linkage.mean());
            m.insert("core.trustrank.csr_ms", csr_ms.mean());
            m.insert("core.trustrank.iterate_ms", iter_ms.mean());
            m.insert("core.trustrank.iterations", iters.mean());
            println!(
                "cellbench replay: {} queries (phase, CSR and TrustRank numbers from the {} ones)",
                admitted.len() + if any_wide { tables.len() } else { 0 },
                if any_wide { "wide" } else { "local" }
            );
        }
        _ => {
            for k in [
                "core.server.snapshot_ms",
                "core.viewmap.admitted_ratio",
                "core.viewmap.admit_ms",
                "core.viewmap.phase_ms.tables",
                "core.viewmap.phase_ms.candidates",
                "core.viewmap.phase_ms.keys",
                "core.viewmap.phase_ms.linkage",
                "core.trustrank.csr_ms",
                "core.trustrank.iterate_ms",
                "core.trustrank.iterations",
            ] {
                why.insert(k, "no investigations in the measured phase".into());
            }
        }
    }

    // ── Reward replays ──────────────────────────────────────────────
    if inp.rounds.is_empty() {
        for k in [
            "core.reward.blind_sign_ms_per_unit",
            "core.reward.redeem_us",
            "core.upload.validate_ms",
        ] {
            why.insert(k, "no reward rounds".into());
        }
    } else {
        let srv = ViewMapServer::with_key(ctx.key.clone(), cfg);
        let (mut sign_ms, mut units) = (0.0, 0usize);
        let (mut redeem, mut validate) = (Samples::default(), Samples::default());
        for (i, r) in inp.rounds.iter().enumerate() {
            let req = i as u64;
            let t = Instant::now();
            let sigs = tracer.span("core.reward.sign_blinded_batch", req, None, || {
                viewmap_core::reward::sign_blinded_batch(&ctx.key, &r.blinded)
            });
            sign_ms += ms_since(t);
            units += sigs.len();
            for cash in &r.cash {
                let t = Instant::now();
                let ok = tracer.span("core.server.redeem", req, None, || srv.redeem(cash));
                redeem.push(ms_since(t) * 1e3);
                out.check(ok.is_ok(), || {
                    "replayed cash failed its first redeem".into()
                });
            }
            let _ = srv.submit(AnonymousSubmission {
                session_id: 0,
                vp: r.planted.vp.clone(),
            });
            srv.solicit(r.planted.vp.id);
            let upload = VideoUpload {
                vp_id: r.planted.vp.id,
                chunks: r.planted.chunks.clone(),
            };
            let t = Instant::now();
            let ok = tracer.span("core.server.upload_video", req, None, || {
                srv.upload_video(&upload)
            });
            validate.push(ms_since(t));
            out.check(ok.is_ok(), || {
                "a replayed video upload failed validation".into()
            });
        }
        m.insert(
            "core.reward.blind_sign_ms_per_unit",
            sign_ms / units.max(1) as f64,
        );
        m.insert("core.reward.redeem_us", redeem.mean());
        m.insert("core.upload.validate_ms", validate.mean());
    }

    // ── Recovery replays on the crashed primary directory ────────────
    let t = Instant::now();
    match tracer.span("vm-store.VpStore::open", 0, None, || {
        vm_store::VpStore::open(&inp.crashed_dir, crate::cell::store_cfg())
    }) {
        Ok((store, vps, _)) => {
            m.insert("vm-store.open_scan_ms", ms_since(t));
            drop(store);
            let srv = ViewMapServer::with_key(ctx.key.clone(), cfg);
            let t = Instant::now();
            tracer.span("core.server.submit_replay_batch", 0, None, || {
                srv.submit_replay_batch(vps)
            });
            m.insert("vm-store.replay_ms", ms_since(t));
        }
        Err(e) => out.check(false, || format!("reopening the crashed store failed: {e}")),
    }

    match inp.drain_ms {
        Some(v) => {
            m.insert("vm-repl.drain_ms", v);
        }
        None => {
            why.insert(
                "vm-repl.drain_ms",
                "nothing replicated in the measured phase".into(),
            );
        }
    }
    match inp.lag_ops_max {
        Some(v) => {
            m.insert("vm-repl.lag_ops_max", v as f64);
        }
        None => {
            why.insert(
                "vm-repl.lag_ops_max",
                "nothing replicated in the measured phase".into(),
            );
        }
    }
    if inp.resident_vps > 0 {
        m.insert(
            "proc.rss_bytes_per_resident_vp",
            inp.rss_bytes as f64 / inp.resident_vps as f64,
        );
    }
    match &inp.gen_lag {
        Some(s) if s.len() > 0 => {
            m.insert("gen.lag_p99_ms", s.quantile(0.99));
        }
        _ => {
            why.insert("gen.lag_p99_ms", "closed loop: nothing is due".into());
        }
    }

    for (name, unit) in LAYER_METRICS {
        match m.get(name) {
            Some(&v) if v.is_finite() => {
                println!("cellbench layer {name} = {v:.4} {unit}");
                out.layer(name, v, unit);
            }
            _ => {
                let reason = why
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| "no samples".into());
                println!("cellbench layer {name} absent (reported as 0): {reason}");
                out.layer(name, 0.0, unit);
            }
        }
    }
    for (name, (n, total, own)) in tracer.summary() {
        println!("cellbench span {name}: n={n} total {total:.1} ms self {own:.1} ms");
    }
}
