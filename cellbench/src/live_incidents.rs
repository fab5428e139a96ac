//! `live-incidents`: uploads, investigations and rewards on one cell,
//! open loop.
//!
//! The upload session offers 6,000 VP/s in 128-VP windows (20k-VP
//! minutes, dense anchors, 10% late). The investigator session offers
//! 4 local queries/s on the latest completed minute — the minute that
//! is still taking late uploads — and follows every 4th query with a
//! reward round on a real recording planted near the site. Every
//! request is timed from when it was due, so a stall shows in the
//! requests queued behind it. This is the only workload where uploads
//! and investigations share a minute shard, and the only one that
//! exercises RSA, cascade validation and the ledger under load.

use crate::common::*;
use crate::gen::{generate_minutes, Anchors, CityParams};
use crate::layers::{self, LayerInputs, Query};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vm_service::VmClient;

const PARAMS: CityParams = CityParams {
    vps_per_minute: 20_000,
    anchors: Anchors::PerKm2(4.0),
    late_share: 0.1,
    planted: 12,
};
/// Offered upload load, VPs per second.
const OFFERED_VPS: f64 = 6000.0;
/// Offered investigations per second.
const OFFERED_QUERIES: f64 = 4.0;
/// Reward rounds in the quiet epilogue.
const EPILOGUE_ROUNDS: usize = 12;
/// Every this-many-th query is followed by a reward round.
const REWARD_EVERY: u64 = 4;
/// Reported tail of the window latency from due. The tail of an open
/// loop on two shared cores grows faster than the median when the host
/// slows (p95 doubled between runs minutes apart); p90 (~94 of ~940
/// windows beyond it at 20 s) is the highest that stayed steady. A lock
/// holder stalling many windows, such as a maintained-graph create,
/// moves it.
const WINDOW_TAIL: f64 = 0.90;

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The investigator session's results.
#[derive(Default)]
struct Investigator {
    out: Outcome,
    local: Samples,
    rounds: Samples,
    records: Vec<RoundRecord>,
    queries: Vec<Query>,
    lateness: Samples,
    boundaries: UploadTally,
    /// Recordings of each minute already rewarded.
    used: Vec<usize>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let minutes = (ctx.seconds * OFFERED_VPS / PARAMS.vps_per_minute as f64).ceil() as usize + 2;
    let t = Instant::now();
    let specs = generate_minutes(&PARAMS, minutes, ctx.seed);
    println!(
        "cellbench gen: {minutes} minutes of {} VPs in {:.2} s",
        PARAMS.vps_per_minute,
        t.elapsed().as_secs_f64()
    );
    let mut rng = ctx.rng(1);
    let warm = plan_windows(&specs[..1], 0, &mut rng);
    let windows = plan_windows(&specs, 1, &mut rng);

    let Some(cell) = timed_setups(ctx, &mut out, |cell| stream_all(cell, &warm)) else {
        return out;
    };

    // ── Measured phase ───────────────────────────────────────────────
    let before = cell.server().obs().snapshot();
    // The minute the upload session is sending; the investigator works
    // the one before it.
    let current = AtomicU64::new(1);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let window_gap = Duration::from_secs_f64(crate::common::WINDOW as f64 / OFFERED_VPS);
    let query_gap = Duration::from_secs_f64(1.0 / OFFERED_QUERIES);
    let (upload, upload_lateness, upload_tracer, inv) = std::thread::scope(|s| {
        let up = s.spawn(|| {
            let mut tally = UploadTally::default();
            let mut lateness = Samples::default();
            let mut tracer = Tracer::new(ctx.epoch, ctx.trace);
            let mut client = match VmClient::connect(cell.addr()) {
                Ok(c) => c,
                Err(e) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    eprintln!("cellbench: connect failed: {e}");
                    return (tally, lateness, tracer);
                }
            };
            for (k, w) in windows.iter().enumerate() {
                let due = start + window_gap * k as u32;
                if due >= deadline {
                    break;
                }
                sleep_until(due);
                lateness.push(due.elapsed().as_secs_f64() * 1e3);
                if w.opens_minute {
                    current.store(w.minute as u64, Ordering::Release);
                }
                send_window(&mut client, w, &mut tally, &mut tracer, k as u64);
                tally.windows.push(due.elapsed().as_secs_f64() * 1e3);
                if ctx.trace && k % LAG_SAMPLE_EVERY == 0 {
                    tally.lag_ops_max = tally.lag_ops_max.max(cell.lag_ops());
                }
            }
            (tally, lateness, tracer)
        });
        let inv = s.spawn(|| {
            let mut inv = Investigator::default();
            let mut tracer = Tracer::new(ctx.epoch, ctx.trace);
            let mut rng = ctx.rng(3);
            inv.used = vec![0usize; specs.len()];
            // Minute 0 was entered by the set-up's warm-up stream.
            let mut entered = 0usize;
            let Some(mut client) = inv.out.op(VmClient::connect(cell.addr())) else {
                return (inv, tracer);
            };
            let Some(pk) = inv.out.op(client.public_key()) else {
                return (inv, tracer);
            };
            let mut q = 0u64;
            loop {
                let due = start + query_gap * q as u32;
                if due >= deadline {
                    break;
                }
                sleep_until(due);
                inv.lateness.push(due.elapsed().as_secs_f64() * 1e3);
                // The authority's minute boundaries (anchors in, old
                // minutes out) run on this session, off the upload
                // schedule: a window waits on an eviction only through
                // the cell's locks, never behind the sender's own call.
                let cur = current.load(Ordering::Acquire) as usize;
                while entered < cur {
                    entered += 1;
                    enter_minute(
                        cell.server(),
                        &specs[entered],
                        &mut inv.boundaries,
                        &mut tracer,
                        q,
                    );
                }
                let m = cur - 1;
                let spec = &specs[m];
                let reward =
                    q % REWARD_EVERY == REWARD_EVERY - 1 && inv.used[m] < spec.planted.len();
                let site = if reward {
                    spec.planted[inv.used[m]].site()
                } else {
                    spec.local_site(q as usize, &mut rng)
                };
                let sent = Instant::now();
                let r = tracer.span("vm-service.investigate", q, None, || {
                    client.investigate(spec.minute, site)
                });
                let rtt = sent.elapsed().as_secs_f64() * 1e3;
                if inv.out.op(r).is_some() {
                    inv.local.push(due.elapsed().as_secs_f64() * 1e3);
                    inv.queries.push(Query {
                        minute: spec.minute,
                        site,
                        wide: false,
                        client_ms: rtt,
                    });
                }
                if reward {
                    let planted = &spec.planted[inv.used[m]];
                    inv.used[m] += 1;
                    if let Some((ms, rec)) = reward_round(
                        &mut client,
                        cell.server(),
                        &pk,
                        planted,
                        &mut rng,
                        &mut inv.out,
                        &mut tracer,
                        q,
                    ) {
                        inv.rounds.push(ms);
                        inv.records.push(rec);
                    }
                }
                q += 1;
            }
            (inv, tracer)
        });
        let (tally, lateness, tracer) = up.join().expect("upload session panicked");
        let (inv, inv_tracer) = inv.join().expect("investigator session panicked");
        let mut tracer = tracer;
        tracer.absorb(inv_tracer);
        (tally, lateness, tracer, inv)
    });
    let drain = cell.drain();
    let elapsed = start.elapsed().as_secs_f64();
    let after = cell.server().obs().snapshot();
    let mut tracer = upload_tracer;
    let Investigator {
        out: inv_out,
        local,
        rounds,
        records,
        queries,
        lateness: inv_lateness,
        boundaries,
        used,
    } = inv;
    let mut upload = upload;
    upload.merge(boundaries);
    out.attempted += upload.attempted + inv_out.attempted;
    out.failed += upload.failed + inv_out.failed;
    out.wrong.extend(inv_out.wrong);
    out.check(upload.rejected == 0, || {
        format!("the cell refused {} generated VPs", upload.rejected)
    });
    let drain_ms = match drain {
        Ok(d) => d.as_secs_f64() * 1e3,
        Err(e) => {
            out.check(false, || e);
            0.0
        }
    };
    println!(
        "cellbench live-incidents: {} VPs accepted in {elapsed:.2} s, {} windows, {} queries, {} reward rounds",
        upload.accepted,
        upload.windows.len(),
        local.len(),
        rounds.len()
    );
    println!(
        "cellbench live-incidents: investigate_local p50 {:.2} ms p90 {:.2} ms (n={}), upload_window p50 {:.2} ms p99 {:.2} ms",
        local.quantile(0.5),
        local.quantile(0.9),
        local.len(),
        upload.windows.quantile(0.5),
        upload.windows.quantile(0.99)
    );
    println!(
        "cellbench live-incidents: upload_window ms from due {}",
        upload.windows.profile()
    );
    out.e2e(
        "rate_per_s",
        upload.accepted as f64 / elapsed,
        "1/s",
        upload.accepted as usize,
    );
    out.e2e(
        "main_p50_ms",
        upload.windows.quantile(0.5),
        "ms",
        upload.windows.len(),
    );
    out.e2e(
        "main_tail_ms",
        upload.windows.quantile(WINDOW_TAIL),
        "ms",
        upload.windows.len(),
    );
    out.e2e("side_p50_ms", local.quantile(0.5), "ms", local.len());
    println!(
        "cellbench live-incidents: reward_round under load ms {}",
        rounds.profile()
    );

    // ── Correctness ─────────────────────────────────────────────────
    if let Err(e) = cell.check_replica() {
        out.check(false, || e);
    }
    let (rss, _) = rss_bytes();
    let resident = cell.server().total_vps() + cell.replica().total_vps();
    let sent_windows = &windows[..upload.windows.len().min(windows.len())];
    let live = ctx
        .trace
        .then(|| layers::snapshot_replay(cell.server(), &queries, &mut tracer));

    // ── Epilogue: reward rounds on the quiet cell, then crash/recover ──
    // `reward_round_trimmed_mean_ms` is taken on a quiet cell in every
    // workload, so it compares across them; the rounds under load above
    // shape this workload's other metrics and are printed. An open loop
    // cannot pause, so here the quiet rounds follow it back to back
    // instead of being spread over the measured phase.
    let planted: Vec<_> = (0..specs.len())
        .rev()
        .flat_map(|m| {
            specs[m]
                .planted
                .iter()
                .skip(used.get(m).copied().unwrap_or(0))
        })
        .filter(|p| cell.server().lookup_vp(p.vp.id).is_some())
        .take(EPILOGUE_ROUNDS)
        .collect();
    let mut quiet = QuietRounds::new(ctx);
    if let Some(mut client) = out.op(VmClient::connect(cell.addr())) {
        quiet.take(
            EPILOGUE_ROUNDS,
            &mut client,
            &cell,
            &planted,
            &mut out,
            &mut tracer,
        );
    }
    quiet.report(&mut out);
    let dir = crash_and_recover(cell, ctx, &mut out);

    if ctx.trace {
        let mut lateness = upload_lateness;
        lateness.extend(&inv_lateness);
        let inputs = LayerInputs {
            windows: sent_windows,
            queries,
            rounds: records,
            obs: Some(ObsDelta::new(before, after)),
            evict_ms: upload.evict_ms.clone(),
            drain_ms: Some(drain_ms),
            lag_ops_max: Some(upload.lag_ops_max),
            gen_lag: Some(lateness),
            crashed_dir: dir,
            resident_vps: resident,
            rss_bytes: rss,
        };
        layers::compute(&inputs, ctx, live, &mut tracer, &mut out);
    }
    out.tracer = Some(tracer);
    out
}
