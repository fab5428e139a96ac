//! cellbench: end-to-end benchmark of one replicated ViewMap cell.
//!
//! ```text
//! cellbench --workload <upload-stream|incident-queries|live-incidents>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Brings up a durable `vm_repl::Primary` with one loopback `Follower`
//! and a `VmService` front-end, drives it over loopback TCP with inputs
//! generated from `--seed`, checks every answer, and prints one JSON
//! object as the last line of standard output: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones of a traced
//! run. See README.md for the workloads and metrics.

mod cell;
mod common;
mod gen;
mod incident_queries;
mod layers;
mod live_incidents;
mod stats;
mod trace;
mod upload_stream;

use common::{Ctx, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every end-to-end metric, in report order, with its unit.
const E2E_METRICS: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recover_s", "s"),
    ("reward_round_trimmed_mean_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("side_p50_ms", "ms"),
];
const KEY_BITS: usize = 2048;
const KEY_SEED: u64 = 0x6b65_7973;
/// Scratch root for cell stores and span logs, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir()
                .unwrap_or_default()
                .parent()
                .unwrap_or(Path::new("/")),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Milliseconds a fixed single-threaded SHA-256 chain takes (median of
/// three): a yardstick for how fast this host runs at the moment, so a
/// spread across runs can be set against the host's own.
fn reference_loop_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut h = [0u8; 32];
            for _ in 0..200_000 {
                h = vm_crypto::sha256(&h).0;
            }
            std::hint::black_box(h);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

fn print_stamp(base: &Path) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!(
        "cellbench host: available_parallelism={} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\" commit={} reference_loop_ms={:.2}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line(&rustc, &["-V"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        reference_loop_ms(),
    );
    println!(
        "cellbench store: dir={} fs={} fsync=never key_bits={KEY_BITS}",
        base.display(),
        filesystem_of(base)
    );
}

fn json_metrics(metrics: &[common::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cellbench: {e}");
            std::process::exit(2);
        }
    };
    let base = PathBuf::from(OUT_DIR).join(format!("cell-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&base) {
        eprintln!("cellbench: cannot create {}: {e}", base.display());
        std::process::exit(2);
    }
    print_stamp(&base);
    let t = Instant::now();
    // The signing key is the cell's identity, not workload input: one
    // fixed key for every seed keeps RSA costs comparable across runs.
    let key = vm_crypto::RsaKeyPair::generate(&mut StdRng::seed_from_u64(KEY_SEED), KEY_BITS);
    println!(
        "cellbench key: {KEY_BITS}-bit signing key in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        key,
        base: base.clone(),
        epoch: Instant::now(),
    };
    let mut out: Outcome = match args.workload.as_str() {
        "upload-stream" => upload_stream::run(&ctx),
        "incident-queries" => incident_queries::run(&ctx),
        "live-incidents" => live_incidents::run(&ctx),
        w => {
            eprintln!("cellbench: unknown workload {w}");
            let _ = std::fs::remove_dir_all(&base);
            std::process::exit(2);
        }
    };
    let (_, hwm) = common::rss_bytes();
    out.e2e("peak_rss_mb", hwm as f64 / (1u64 << 20) as f64, "MB", 1);
    let _ = std::fs::remove_dir_all(&base);

    if let Some(tracer) = out.tracer.take().filter(|t| t.on()) {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "cellbench spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cellbench: writing spans failed: {e}"),
        }
    }

    // Every end-to-end metric must be present and finite.
    let mut e2e = Vec::new();
    for (name, unit) in E2E_METRICS {
        match out.e2e.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && m.unit == unit => e2e.push(common::Metric {
                name: m.name.clone(),
                value: m.value,
                unit: m.unit,
            }),
            _ => out
                .wrong
                .push(format!("end-to-end metric {name} was not measured")),
        }
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "cellbench op_error_ratio = {ratio:.6} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    println!("cellbench e2e-json {}", json_metrics(&e2e));
    let correct = out.wrong.is_empty();
    let metrics = if args.trace { &out.layers } else { &e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
