//! Debug-profile smoke: every catalog scenario at a few seeds (CI
//! sweeps `--seeds 25` in release through the binary), plus the
//! determinism pin for a direct-connection scenario, whose report must
//! replay counter for counter from the seed.

use vm_scenario::{run_seed, Scenario};

#[test]
fn every_scenario_smoke() {
    for scenario in Scenario::all() {
        for seed in 0..3u64 {
            if let Err(e) = run_seed(scenario, seed) {
                panic!("{e}");
            }
        }
    }
}

/// Rush-hour drives a direct connection (no chaos proxy), so nothing
/// in its run depends on wire timing: the same seed must produce the
/// same report.
#[test]
fn rush_hour_reports_are_deterministic() {
    let a = run_seed(Scenario::RushHour, 7).expect("seed 7 passes");
    let b = run_seed(Scenario::RushHour, 7).expect("seed 7 passes again");
    assert_eq!(a, b, "identical seed, identical run");
    assert!(a.final_vps > 0, "rush-hour stores its platoon");
}
