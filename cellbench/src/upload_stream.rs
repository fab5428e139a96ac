//! `upload-stream`: the whole write path, closed loop.
//!
//! Two pipelined sessions send 128-VP windows back to back. Minutes
//! hold 20k VPs with one anchor per 4 km²; 10% of each minute arrives
//! during the next one (delayed anonymous upload). At each minute
//! boundary the authority's anchors go in and `evict_minutes_before`
//! keeps the last three minutes. The stream is decode, coalesce, batch
//! ingest, WAL append, ship, follower apply and ack; afterwards the cell
//! is dropped and its primary directory reopened. Viewmaps, the
//! maintained graph and TrustRank do no work while it is measured.
//! The measured phase is cut into slices with quiet reward rounds
//! between them ([`QuietRounds`]); the stream's metrics cover the
//! slices only.

use crate::cell::Cell;
use crate::common::*;
use crate::gen::{Anchors, CityParams, MinuteSpec};
use crate::layers::{self, LayerInputs, REPLAY_WINDOWS};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use viewmap_core::types::MinuteId;
use vm_service::VmClient;

const PARAMS: CityParams = CityParams {
    vps_per_minute: 20_000,
    anchors: Anchors::PerKm2(4.0),
    late_share: 0.1,
    planted: 4,
};
/// Generated minutes the feed keeps: the newest (generated ahead of the
/// stream) and the retained ones behind it, whose recordings the
/// epilogue rewards.
const HELD_MINUTES: usize = KEEP_MINUTES as usize + 1;
/// Reported tail of the window latency. Each eviction stalls about two
/// windows (~1.3% of them), so p99 sits on the knee between ordinary
/// windows and eviction-stalled ones and swings from run to run, and
/// p98 still moved twice as much as the median when the host slowed;
/// p95 is the ordinary tail. The stall itself is `side_p50_ms`.
const WINDOW_TAIL: f64 = 0.95;

/// The measured stream's input. Each minute is generated when the
/// stream enters the one before it, by the session that enters it, so
/// the process holds only the minutes in flight (at most
/// [`HELD_MINUTES`] plus the one being generated) and the generator's
/// share of `peak_rss_mb` does not grow with the run's length. The
/// generation time is load-generator work inside the measured phase,
/// like materialising each window's VPs.
struct Feed {
    state: Mutex<FeedState>,
    ready: Condvar,
    seed: u64,
    keep_for_replay: bool,
}

struct FeedState {
    /// Planned windows not yet claimed, in upload order.
    queue: VecDeque<Window>,
    /// Index of the next window claimed (its request id).
    next: usize,
    /// The last generated minutes, newest last.
    recent: VecDeque<Arc<MinuteSpec>>,
    /// A session is generating the minute after the newest.
    generating: bool,
    /// The current slice has stopped; cleared when the next one starts.
    done: bool,
    /// Newest minute entered.
    entered: u32,
    /// The first windows claimed, kept for the traced replays.
    kept: Vec<Window>,
    rng: StdRng,
}

impl Feed {
    /// Windows are claimed under one lock so the stop decision is made
    /// once per slice: after the deadline the stream finishes the
    /// minute it is in and stops before the next one opens, so every
    /// slice ends with whole minutes stored. A claim that opens a minute
    /// returns `true`: its session then generates the next minute.
    fn claim(&self, deadline: Instant) -> Option<(usize, Window, bool)> {
        let mut g = self.state.lock().expect("feed lock poisoned");
        loop {
            if g.done {
                return None;
            }
            if let Some(front) = g.queue.front() {
                if front.opens_minute && Instant::now() >= deadline {
                    g.done = true;
                    self.ready.notify_all();
                    return None;
                }
                let w = g.queue.pop_front().expect("front exists");
                let k = g.next;
                g.next += 1;
                if self.keep_for_replay && g.kept.len() < REPLAY_WINDOWS {
                    g.kept.push(w.clone());
                }
                let opens = w.opens_minute;
                if opens {
                    g.entered = w.minute;
                    g.generating = true;
                }
                return Some((k, w, opens));
            }
            if !g.generating {
                g.done = true;
                return None;
            }
            g = self.ready.wait(g).expect("feed lock poisoned");
        }
    }

    /// Generate and plan the minute after the newest; returns the
    /// generation time in ms.
    fn extend(&self) -> f64 {
        let newest = {
            let g = self.state.lock().expect("feed lock poisoned");
            g.recent
                .back()
                .expect("the feed starts with two minutes")
                .clone()
        };
        let t = Instant::now();
        let next = Arc::new(MinuteSpec::generate(
            &PARAMS,
            MinuteId(newest.minute.0 + 1),
            self.seed,
        ));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut g = self.state.lock().expect("feed lock poisoned");
        let plan = plan_minute(Some(&newest), &next, &mut g.rng);
        g.queue.extend(plan);
        g.recent.push_back(next);
        while g.recent.len() > HELD_MINUTES {
            g.recent.pop_front();
        }
        g.generating = false;
        self.ready.notify_all();
        ms
    }
}

/// One slice of the stream: two sessions upload windows until the first
/// minute boundary after `deadline`. Returns each session's tally,
/// spans and minute generation times.
fn stream_slice(
    ctx: &Ctx,
    cell: &Cell,
    feed: &Feed,
    deadline: Instant,
) -> Vec<(UploadTally, Tracer, Samples)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = UploadTally::default();
                    let mut tracer = Tracer::new(ctx.epoch, ctx.trace);
                    let mut gen_ms = Samples::default();
                    let mut client = match VmClient::connect(cell.addr()) {
                        Ok(c) => c,
                        Err(e) => {
                            tally.attempted += 1;
                            tally.failed += 1;
                            eprintln!("cellbench: connect failed: {e}");
                            return (tally, tracer, gen_ms);
                        }
                    };
                    while let Some((k, w, generate_next)) = feed.claim(deadline) {
                        if w.opens_minute {
                            enter_minute(cell.server(), &w.cur, &mut tally, &mut tracer, k as u64);
                        }
                        let ms = send_window(&mut client, &w, &mut tally, &mut tracer, k as u64);
                        tally.windows.push(ms);
                        if generate_next {
                            gen_ms.push(feed.extend());
                        }
                        if ctx.trace && k % LAG_SAMPLE_EVERY == 0 {
                            tally.lag_ops_max = tally.lag_ops_max.max(cell.lag_ops());
                        }
                    }
                    (tally, tracer, gen_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("upload session panicked"))
            .collect()
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let first: Vec<Arc<MinuteSpec>> = (0..2)
        .map(|m| Arc::new(MinuteSpec::generate(&PARAMS, MinuteId(m), ctx.seed)))
        .collect();
    let minute_mb = first[1].bytes() as f64 / (1u64 << 20) as f64;
    println!(
        "cellbench gen: minutes 0 and 1 of {} VPs in {:.2} s, {minute_mb:.1} MB each; the stream generates the rest a minute ahead and holds at most {} ({:.0} MB); process RSS before set-up {:.0} MB",
        PARAMS.vps_per_minute,
        t.elapsed().as_secs_f64(),
        HELD_MINUTES + 1,
        (HELD_MINUTES + 1) as f64 * minute_mb,
        rss_bytes().0 as f64 / (1u64 << 20) as f64
    );
    let mut rng = ctx.rng(1);
    let warm = plan_minute(None, &first[0], &mut rng);
    let Some(cell) = timed_setups(ctx, &mut out, |cell| stream_all(cell, &warm)) else {
        return out;
    };
    drop(warm);
    let feed = Feed {
        state: Mutex::new(FeedState {
            queue: plan_minute(Some(&first[0]), &first[1], &mut rng).into(),
            next: 0,
            recent: first.into(),
            generating: false,
            done: false,
            entered: 0,
            kept: Vec::new(),
            rng,
        }),
        ready: Condvar::new(),
        seed: ctx.seed,
        keep_for_replay: ctx.trace,
    };

    // ── Measured phase: slices of the stream, quiet reward rounds between ──
    let mut tally = UploadTally::default();
    let mut tracer = Tracer::new(ctx.epoch, ctx.trace);
    let mut gen_ms = Samples::default();
    let mut drain_ms = Samples::default();
    let mut obs = ObsDelta::default();
    let mut rounds = QuietRounds::new(ctx);
    let mut elapsed = 0.0;
    for _ in 0..PAUSES {
        let deadline = Instant::now() + slice_len(ctx);
        feed.state.lock().expect("feed lock poisoned").done = false;
        let before = cell.server().obs().snapshot();
        let from = Instant::now();
        let results = stream_slice(ctx, &cell, &feed, deadline);
        for (t, tr, g) in results {
            tally.merge(t);
            tracer.absorb(tr);
            gen_ms.extend(&g);
        }
        // A slice ends when the follower has applied all it was shipped.
        match cell.drain() {
            Ok(d) => drain_ms.push(d.as_secs_f64() * 1e3),
            Err(e) => out.check(false, || e),
        }
        elapsed += from.elapsed().as_secs_f64();
        obs.add(before, cell.server().obs().snapshot());

        // The retained minutes' recordings, newest first.
        let recent: Vec<Arc<MinuteSpec>> = feed
            .state
            .lock()
            .expect("feed lock poisoned")
            .recent
            .iter()
            .cloned()
            .collect();
        let planted: Vec<_> = recent
            .iter()
            .rev()
            .flat_map(|spec| spec.planted.iter())
            .filter(|p| cell.server().lookup_vp(p.vp.id).is_some())
            .collect();
        if let Some(mut client) = out.op(VmClient::connect(cell.addr())) {
            rounds.take(
                ROUNDS_PER_PAUSE,
                &mut client,
                &cell,
                &planted,
                &mut out,
                &mut tracer,
            );
        }
    }
    let feed = feed.state.into_inner().expect("feed lock poisoned");
    println!(
        "cellbench gen: {} minutes generated during the stream, {:.1} ms each (median)",
        gen_ms.len(),
        gen_ms.quantile(0.5)
    );
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.check(tally.rejected == 0, || {
        format!("the cell refused {} generated VPs", tally.rejected)
    });
    let rate = tally.accepted as f64 / elapsed;
    println!(
        "cellbench upload-stream: {} VPs accepted in {elapsed:.2} s ({} windows, {} minutes entered)",
        tally.accepted,
        tally.windows.len(),
        tally.minutes_entered
    );
    println!(
        "cellbench upload-stream: upload_window ms {}",
        tally.windows.profile()
    );
    out.e2e("rate_per_s", rate, "1/s", tally.accepted as usize);
    out.e2e(
        "main_p50_ms",
        tally.windows.quantile(0.5),
        "ms",
        tally.windows.len(),
    );
    out.e2e(
        "main_tail_ms",
        tally.windows.quantile(WINDOW_TAIL),
        "ms",
        tally.windows.len(),
    );
    out.e2e(
        "side_p50_ms",
        tally.evict_ms.quantile(0.5),
        "ms",
        tally.evict_ms.len(),
    );

    // ── Correctness ─────────────────────────────────────────────────
    if let Err(e) = cell.check_replica() {
        out.check(false, || e);
    }
    // The newest minute entered, and the retained window behind it.
    let last = feed.entered as u64;
    if last >= KEEP_MINUTES {
        let retained = (last + 1 - KEEP_MINUTES)..=last;
        let expected: u64 = retained
            .clone()
            .map(|m| tally.per_minute.get(m as usize).copied().unwrap_or(0))
            .sum();
        let stored = cell.server().total_vps() as u64;
        out.check(stored == expected, || {
            format!("primary stores {stored} VPs, the retained minutes {retained:?} were sent {expected}")
        });
    }
    let (rss, _) = rss_bytes();

    // ── Traced layer numbers that need the live cell ────────────────
    let resident = cell.server().total_vps() + cell.replica().total_vps();

    // ── Epilogue: crash/recover ──────────────────────────────────────
    rounds.report(&mut out);
    let dir = crash_and_recover(cell, ctx, &mut out);

    if ctx.trace {
        let inputs = LayerInputs {
            windows: &feed.kept,
            queries: Vec::new(),
            rounds: rounds.records,
            obs: Some(obs),
            evict_ms: tally.evict_ms.clone(),
            drain_ms: Some(drain_ms.quantile(0.5)),
            lag_ops_max: Some(tally.lag_ops_max),
            gen_lag: None,
            crashed_dir: dir,
            resident_vps: resident,
            rss_bytes: rss,
        };
        layers::compute(&inputs, ctx, None, &mut tracer, &mut out);
    }
    out.tracer = Some(tracer);
    out
}
