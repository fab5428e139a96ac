//! Pieces every workload shares: the run context and outcome, window
//! uploads, minute boundaries, the reward round, and the crash/recover
//! epilogue.

use crate::cell::{self, Cell};
use crate::gen::{MinuteSpec, Planted};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::reward::Wallet;
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::types::MinuteId;
use viewmap_core::vp::StoredVp;
use vm_crypto::{RsaKeyPair, RsaPublicKey};
use vm_service::{ClientError, ErrorCode, VmClient};

/// In a traced run, replication lag is sampled after every this-many-th
/// window (each sample takes the hub's stream lock).
pub const LAG_SAMPLE_EVERY: usize = 16;
/// VPs per upload window.
pub const WINDOW: usize = 128;
/// Minutes the cell retains: entering minute `m` evicts everything
/// before `m - (KEEP_MINUTES - 1)`.
pub const KEEP_MINUTES: u64 = 3;
/// Cell set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Reopens of the crashed primary per run; `recover_s` is their median.
pub const RECOVERIES: usize = 3;
/// Cash units each reward round mints and redeems.
pub const REWARD_UNITS: usize = 4;
/// Pauses for quiet reward rounds spread over the measured phase, and
/// rounds per pause (see [`QuietRounds`]).
pub const PAUSES: usize = 10;
pub const ROUNDS_PER_PAUSE: usize = 4;
/// Share of the quiet rounds dropped from each end before averaging.
pub const TRIM: f64 = 0.1;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub key: RsaKeyPair,
    /// Root of this run's cell directories.
    pub base: PathBuf,
    pub epoch: Instant,
}

impl Ctx {
    /// A fresh directory for set-up number `i`.
    pub fn setup_dir(&self, i: usize) -> PathBuf {
        self.base.join(format!("setup{i}"))
    }

    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers; any one fails the run.
    pub wrong: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        println!("cellbench e2e {name} = {value:.4} {unit} (n={n})");
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count one operation; `Err` marks it failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("cellbench: operation failed: {e}");
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("cellbench: WRONG: {msg}");
            self.wrong.push(msg);
        }
    }
}

/// Per-session tallies of a window stream.
#[derive(Default)]
pub struct UploadTally {
    pub windows: Samples,
    pub accepted: u64,
    pub attempted: u64,
    pub failed: u64,
    /// VPs the cell refused (counted in `failed` too). The generator's
    /// VPs all pass the server's screen, so any is a wrong answer.
    pub rejected: u64,
    /// Accepted VPs per minute id.
    pub per_minute: Vec<u64>,
    pub minutes_entered: usize,
    pub evict_ms: Samples,
    pub lag_ops_max: u64,
}

impl UploadTally {
    pub fn merge(&mut self, o: UploadTally) {
        self.windows.extend(&o.windows);
        self.accepted += o.accepted;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rejected += o.rejected;
        if self.per_minute.len() < o.per_minute.len() {
            self.per_minute.resize(o.per_minute.len(), 0);
        }
        for (a, b) in self.per_minute.iter_mut().zip(&o.per_minute) {
            *a += b;
        }
        self.minutes_entered += o.minutes_entered;
        self.evict_ms.extend(&o.evict_ms);
        self.lag_ops_max = self.lag_ops_max.max(o.lag_ops_max);
    }
}

/// One VP of a window: a synthetic vehicle or a planted recording.
#[derive(Clone, Copy, Debug)]
pub enum Item {
    Synth { minute: u32, idx: u32 },
    Planted { minute: u32, k: u32 },
}

impl Item {
    pub fn minute(&self) -> u32 {
        match *self {
            Item::Synth { minute, .. } | Item::Planted { minute, .. } => minute,
        }
    }
}

/// One upload window, holding the generated minutes its VPs come from:
/// its own minute and, for the late share, the one before.
#[derive(Clone)]
pub struct Window {
    pub minute: u32,
    /// The first window of its minute: the sender runs the boundary
    /// (anchors in, old minutes out) before sending it.
    pub opens_minute: bool,
    pub items: Vec<Item>,
    pub cur: Arc<MinuteSpec>,
    pub prev: Option<Arc<MinuteSpec>>,
}

impl Window {
    /// The full VPs of the window, in upload order.
    pub fn vps(&self) -> Vec<StoredVp> {
        self.items
            .iter()
            .map(|it| {
                let spec = if it.minute() == self.minute {
                    &self.cur
                } else {
                    self.prev.as_ref().expect("late VP without its minute")
                };
                match *it {
                    Item::Synth { idx, .. } => spec.vp(idx as usize),
                    Item::Planted { k, .. } => spec.planted[k as usize].vp.clone(),
                }
            })
            .collect()
    }
}

/// Upload plan for minute `cur`: its on-time share and recordings plus
/// the late share of `prev`, shuffled, in windows of [`WINDOW`].
pub fn plan_minute(
    prev: Option<&Arc<MinuteSpec>>,
    cur: &Arc<MinuteSpec>,
    rng: &mut StdRng,
) -> Vec<Window> {
    let m32 = cur.minute.0 as u32;
    let mut items: Vec<Item> = cur
        .on_time
        .iter()
        .map(|&i| Item::Synth {
            minute: m32,
            idx: i as u32,
        })
        .chain((0..cur.planted.len() as u32).map(|k| Item::Planted { minute: m32, k }))
        .collect();
    if let Some(p) = prev {
        items.extend(p.late.iter().map(|&i| Item::Synth {
            minute: p.minute.0 as u32,
            idx: i as u32,
        }));
    }
    crate::gen::shuffle(rng, &mut items);
    items
        .chunks(WINDOW)
        .enumerate()
        .map(|(w, chunk)| Window {
            minute: m32,
            opens_minute: w == 0,
            items: chunk.to_vec(),
            cur: cur.clone(),
            prev: prev.cloned(),
        })
        .collect()
}

/// Upload plan for minutes `first..specs.len()` (minute ids are their
/// indices), in order.
pub fn plan_windows(specs: &[Arc<MinuteSpec>], first: usize, rng: &mut StdRng) -> Vec<Window> {
    (first..specs.len())
        .flat_map(|m| plan_minute(m.checked_sub(1).map(|p| &specs[p]), &specs[m], rng))
        .collect()
}

/// Minute boundary, run in-process before the minute's first window:
/// the authority submits the minute's anchors, then the oldest minute
/// beyond the retention window is evicted.
pub fn enter_minute(
    srv: &ViewMapServer,
    spec: &MinuteSpec,
    tally: &mut UploadTally,
    tracer: &mut Tracer,
    req: u64,
) {
    let m = spec.minute.0 as usize;
    let anchors = spec.anchors();
    let n = anchors.len() as u64;
    let results = tracer.span("core.server.submit_trusted_batch", req, None, || {
        srv.submit_trusted_batch(anchors)
    });
    let rejected = results.iter().filter(|r| r.is_err()).count() as u64;
    tally.attempted += n;
    tally.failed += rejected;
    tally.rejected += rejected;
    bump(&mut tally.per_minute, m, n - rejected);
    if m as u64 >= KEEP_MINUTES {
        let cutoff = MinuteId(m as u64 + 1 - KEEP_MINUTES);
        let t = Instant::now();
        tracer.span("core.server.evict", req, None, || {
            srv.evict_minutes_before(cutoff)
        });
        tally.evict_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    tally.minutes_entered += 1;
}

fn bump(v: &mut Vec<u64>, i: usize, n: u64) {
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += n;
}

/// Send one window as a pipelined run of SUBMIT frames; returns its
/// round-trip time in ms.
pub fn send_window(
    client: &mut VmClient,
    w: &Window,
    tally: &mut UploadTally,
    tracer: &mut Tracer,
    req: u64,
) -> f64 {
    let vps = w.vps();
    let start = Instant::now();
    let r = tracer.span("vm-service.submit_window", req, None, || {
        client.submit_pipelined(&vps)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tally.attempted += vps.len() as u64;
    match r {
        Ok(outcomes) => {
            for (it, o) in w.items.iter().zip(&outcomes) {
                match o {
                    Ok(()) => {
                        tally.accepted += 1;
                        bump(&mut tally.per_minute, it.minute() as usize, 1);
                    }
                    Err(code) => {
                        tally.failed += 1;
                        tally.rejected += 1;
                        eprintln!("cellbench: VP rejected: {code}");
                    }
                }
            }
        }
        Err(e) => {
            tally.failed += vps.len() as u64;
            eprintln!("cellbench: window failed: {e}");
        }
    }
    ms
}

/// Stream `windows` over two pipelined sessions until they run out
/// (no clock): the warm-up every streaming set-up runs.
pub fn stream_all(cell: &Cell, windows: &[Window]) -> Result<(), String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let tallies: Vec<UploadTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = UploadTally::default();
                    let mut tracer = Tracer::new(Instant::now(), false);
                    let mut client = match VmClient::connect(cell.addr()) {
                        Ok(c) => c,
                        Err(e) => {
                            tally.failed += 1;
                            eprintln!("cellbench: connect failed: {e}");
                            return tally;
                        }
                    };
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(w) = windows.get(k) else { break };
                        if w.opens_minute {
                            enter_minute(cell.server(), &w.cur, &mut tally, &mut tracer, k as u64);
                        }
                        send_window(&mut client, w, &mut tally, &mut tracer, k as u64);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up session panicked"))
            .collect()
    });
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} warm-up uploads failed"));
    }
    cell.drain().map(|_| ())
}

/// What a reward round left behind, for the traced replay.
pub struct RoundRecord {
    pub planted: Planted,
    pub blinded: Vec<vm_crypto::BlindedMessage>,
    pub cash: Vec<viewmap_core::reward::Cash>,
}

/// One reward round on a planted recording: SOLICIT, UPLOAD_VIDEO,
/// in-process `post_reward`, CLAIM_REWARD, BLIND_SIGN, REDEEM × units,
/// then a replayed REDEEM that must come back `DoubleSpend`. Returns
/// the round trip from SOLICIT to the last REDEEM reply, in ms.
#[allow(clippy::too_many_arguments)]
pub fn reward_round(
    client: &mut VmClient,
    srv: &ViewMapServer,
    pk: &RsaPublicKey,
    planted: &Planted,
    rng: &mut StdRng,
    out: &mut Outcome,
    tracer: &mut Tracer,
    req: u64,
) -> Option<(f64, RoundRecord)> {
    let id = planted.vp.id;
    let start = Instant::now();
    let round = tracer.open("reward.round", req, None);
    out.op(tracer.span("vm-service.solicit", req, round, || client.solicit(id)))?;
    let upload = VideoUpload {
        vp_id: id,
        chunks: planted.chunks.clone(),
    };
    out.op(tracer.span("vm-service.upload_video", req, round, || {
        client.upload_video(&upload)
    }))?;
    tracer.span("core.server.post_reward", req, round, || {
        srv.post_reward(id, REWARD_UNITS)
    });
    let units = out.op(tracer.span("vm-service.claim_reward", req, round, || {
        client.claim_reward(id, &planted.secret)
    }))?;
    out.check(units == REWARD_UNITS, || {
        format!("claim returned {units} units, posted {REWARD_UNITS}")
    });
    let mut wallet = Wallet::new();
    let (pending, blinded) = wallet.prepare(rng, pk, units);
    let sigs = out.op(tracer.span("vm-service.blind_sign", req, round, || {
        client.blind_sign(id, &planted.secret, &blinded)
    }))?;
    let minted = wallet.accept_signed(pk, pending, &sigs);
    out.check(minted == units, || {
        format!("{minted} of {units} blind signatures unblinded to valid cash")
    });
    // Each unit must redeem exactly once: a refused first redeem is a
    // wrong answer, not just a failed operation.
    for cash in &wallet.cash {
        out.attempted += 1;
        if let Err(e) = tracer.span("vm-service.redeem", req, round, || client.redeem(cash)) {
            out.check(false, || format!("a fresh cash unit was refused: {e}"));
            return None;
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.close(round);
    // The replay is an expected typed rejection: a success here.
    out.attempted += 1;
    match client.redeem(&wallet.cash[0]) {
        Err(ClientError::Remote(ErrorCode::DoubleSpend, _)) => {}
        Ok(()) => out.check(false, || "a replayed cash unit redeemed twice".into()),
        Err(e) => out.check(false, || {
            format!("a replayed cash unit returned {e}, not DoubleSpend")
        }),
    }
    Some((
        ms,
        RoundRecord {
            planted: planted.clone(),
            blinded,
            cash: wallet.cash,
        },
    ))
}

/// Quiet reward rounds, taken in pauses spread over the measured phase.
///
/// RSA signing dominates a round, and on a shared host its speed
/// changes for seconds at a time while other code runs at its usual
/// speed, so rounds taken back to back sample a single such spell and
/// their median moved by a third between runs. The measured phase is
/// therefore cut into [`PAUSES`] slices, each followed by
/// [`ROUNDS_PER_PAUSE`] rounds on the quiet cell (nothing else in
/// flight). The rounds then fall into a fast and a slow cluster whose
/// shares vary from run to run; a median jumps between the clusters
/// as the shares cross one half, a mean moves in proportion to them.
/// `reward_round_trimmed_mean_ms` is the mean of the rounds left after
/// dropping the fastest and the slowest [`TRIM`] of them.
pub struct QuietRounds {
    samples: Samples,
    pub records: Vec<RoundRecord>,
    rng: StdRng,
    /// Rounds started, the next one's request id.
    next: usize,
}

impl QuietRounds {
    pub fn new(ctx: &Ctx) -> Self {
        QuietRounds {
            samples: Samples::default(),
            records: Vec::new(),
            rng: ctx.rng(0x4e3a),
            next: 0,
        }
    }

    /// `n` rounds over `client`, cycling through `planted` (a recording
    /// can be rewarded again: each round mints fresh cash).
    pub fn take(
        &mut self,
        n: usize,
        client: &mut VmClient,
        cell: &Cell,
        planted: &[&Planted],
        out: &mut Outcome,
        tracer: &mut Tracer,
    ) {
        if planted.is_empty() {
            out.check(false, || "no stored recording to reward".into());
            return;
        }
        let Some(pk) = out.op(client.public_key()) else {
            return;
        };
        for _ in 0..n {
            let p = planted[self.next % planted.len()];
            let req = self.next as u64;
            self.next += 1;
            let round = reward_round(
                client,
                cell.server(),
                &pk,
                p,
                &mut self.rng,
                out,
                tracer,
                req,
            );
            if let Some((ms, rec)) = round {
                self.samples.push(ms);
                self.records.push(rec);
            }
        }
    }

    /// Reports `reward_round_trimmed_mean_ms` and prints the rounds'
    /// profile.
    pub fn report(&self, out: &mut Outcome) {
        println!(
            "cellbench quiet reward_round ms {} mean {:.2}",
            self.samples.profile(),
            self.samples.mean()
        );
        out.e2e(
            "reward_round_trimmed_mean_ms",
            self.samples.trimmed_mean(TRIM),
            "ms",
            self.samples.len(),
        );
    }
}

/// How long each of the [`PAUSES`] slices of the measured phase runs.
pub fn slice_len(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds / PAUSES as f64)
}

/// Crash the cell and reopen its primary directory [`RECOVERIES`]
/// times; reports `recover_s`.
pub fn crash_and_recover(cell: Cell, ctx: &Ctx, out: &mut Outcome) -> PathBuf {
    let srv = cell.server();
    let (total, digest) = (srv.total_vps(), srv.state_digest());
    let dir = cell.crash();
    let mut secs = Vec::new();
    for _ in 0..RECOVERIES {
        match cell::recover(&dir, &ctx.key, total, digest) {
            Ok(s) => secs.push(s),
            Err(e) => out.check(false, || e),
        }
    }
    let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "cellbench recoveries: {} VPs in {} s",
        total,
        each.join(", ")
    );
    out.e2e("recover_s", median(&secs), "s", secs.len());
    dir
}

/// Resident and peak memory of this process, bytes.
pub fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Set up a cell [`SETUPS`] times with `prepare`, keep the last and
/// report the median as `setup_s`.
pub fn timed_setups(
    ctx: &Ctx,
    out: &mut Outcome,
    mut prepare: impl FnMut(&Cell) -> Result<(), String>,
) -> Option<Cell> {
    let mut secs = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let cell = match Cell::open(&ctx.setup_dir(i), &ctx.key) {
            Ok(c) => c,
            Err(e) => {
                out.check(false, || format!("cell set-up failed: {e}"));
                return None;
            }
        };
        if let Err(e) = prepare(&cell) {
            out.check(false, || format!("cell set-up failed: {e}"));
            return None;
        }
        secs.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            cell.destroy();
        } else {
            kept = Some(cell);
        }
    }
    out.e2e("setup_s", median(&secs), "s", secs.len());
    kept
}
