//! Cross-crate integration tests: the full system assembled through the
//! `regshare` facade.

use regshare::bench::{measure_program, RunWindow};
use regshare::core::{CoreConfig, DistancePredictorKind, Simulator, TrackerKind};
use regshare::distance::NosqConfig;
use regshare::refcount::IsrbConfig;
use regshare::types::stats::speedup_pct;
use regshare::workloads::{mini, suite};

const WINDOW: RunWindow = RunWindow {
    warmup: 20_000,
    measure: 80_000,
};

fn ipc(program: &regshare::isa::Program, cfg: CoreConfig) -> f64 {
    measure_program("", program, cfg, WINDOW).ipc()
}

#[test]
fn whole_suite_runs_on_baseline() {
    // Every workload must run without deadlock and with a sane IPC.
    for wl in suite() {
        let program = wl.build();
        let mut sim = Simulator::new(&program, CoreConfig::hpca16());
        let s = sim.run(30_000);
        assert!(
            s.ipc() > 0.01 && s.ipc() <= 8.0,
            "{}: IPC {}",
            wl.name,
            s.ipc()
        );
        sim.audit_registers()
            .unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    }
}

#[test]
fn sharing_never_hurts_architecture_across_suite_sample() {
    for name in ["crafty", "hmmer", "astar", "mgrid", "gamess"] {
        let wl = suite().into_iter().find(|w| w.name == name).unwrap();
        let program = wl.build();
        let mut a = Simulator::new(&program, CoreConfig::hpca16());
        a.run(60_000);
        let mut b = Simulator::new(
            &program,
            CoreConfig::hpca16()
                .with_me()
                .with_smb()
                .with_isrb_entries(16),
        );
        b.run(60_000);
        assert_eq!(a.arch_digest(), b.arch_digest(), "{name} diverged");
    }
}

#[test]
fn move_elimination_gains_on_move_heavy_workload() {
    let wl = suite().into_iter().find(|w| w.name == "vortex").unwrap();
    let program = wl.build();
    let base = ipc(&program, CoreConfig::hpca16());
    let me = ipc(&program, CoreConfig::hpca16().with_me());
    assert!(
        speedup_pct(base, me) > 0.5,
        "ME should speed up vortex: base {base:.3}, me {me:.3}"
    );
}

#[test]
fn smb_gains_on_spill_heavy_workload() {
    let wl = suite().into_iter().find(|w| w.name == "astar").unwrap();
    let program = wl.build();
    let base = ipc(&program, CoreConfig::hpca16());
    let smb = ipc(&program, CoreConfig::hpca16().with_smb());
    assert!(
        speedup_pct(base, smb) > 2.0,
        "SMB should speed up astar: base {base:.3}, smb {smb:.3}"
    );
}

#[test]
fn isrb_size_ordering_is_monotonicish() {
    // More ISRB entries can only enable more sharing; allow small noise but
    // the unlimited configuration must beat a 2-entry one on a workload
    // that uses both mechanisms heavily.
    let wl = suite().into_iter().find(|w| w.name == "hmmer").unwrap();
    let program = wl.build();
    let tiny = ipc(
        &program,
        CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_isrb_entries(2),
    );
    let unl = ipc(
        &program,
        CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_isrb_entries(0),
    );
    assert!(
        unl >= tiny * 0.995,
        "unlimited ISRB ({unl:.3}) should not lose to 2-entry ({tiny:.3})"
    );
}

#[test]
fn tage_distance_competitive_with_nosq_across_workloads() {
    // The paper's claim is aggregate ("our TAGE-like scheme outperforms the
    // more conventional predictor in most cases"): compare geomeans over
    // several history-correlated, spill-heavy workloads.
    let mut tage_ipcs = Vec::new();
    let mut nosq_ipcs = Vec::new();
    for name in ["twolf", "sjeng", "hmmer", "zeusmp", "mgrid"] {
        let wl = suite().into_iter().find(|w| w.name == name).unwrap();
        let program = wl.build();
        tage_ipcs.push(ipc(
            &program,
            CoreConfig::hpca16().with_smb().with_isrb_entries(0),
        ));
        let mut nosq_cfg = CoreConfig::hpca16().with_smb().with_isrb_entries(0);
        nosq_cfg.distance_predictor = DistancePredictorKind::Nosq(NosqConfig::hpca16());
        nosq_ipcs.push(ipc(&program, nosq_cfg));
    }
    let g = |v: &[f64]| v.iter().map(|x| x.ln()).sum::<f64>().exp();
    let (tg, ng) = (g(&tage_ipcs), g(&nosq_ipcs));
    // Our synthetic workloads' distance-history correlations are short
    // enough that NoSQ's hashed table captures most of them too; across the
    // full 36-workload suite the TAGE-like predictor is slightly ahead (see
    // EXPERIMENTS.md), and on this subset the two must stay within a few
    // percent of each other.
    assert!(
        tg >= ng * 0.95,
        "TAGE-like geomean ({tg:.3}) fell too far behind NoSQ-style ({ng:.3})"
    );
}

#[test]
fn mit_cannot_bypass_but_still_eliminates_moves() {
    let program = mini().build();
    let cfg = CoreConfig::hpca16()
        .with_me()
        .with_smb()
        .with_tracker(TrackerKind::Mit { entries: 8 });
    let mut sim = Simulator::new(&program, cfg);
    let s = sim.run(60_000);
    assert!(s.moves_eliminated > 0, "MIT should support ME");
    assert_eq!(s.loads_bypassed, 0, "MIT must reject SMB shares");
    assert!(s.tracker.shares_rejected_kind > 0);
}

#[test]
fn counter_width_three_bits_is_close_to_wide() {
    let wl = suite().into_iter().find(|w| w.name == "applu").unwrap();
    let program = wl.build();
    let narrow = ipc(
        &program,
        CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_tracker(TrackerKind::Isrb(IsrbConfig {
                entries: 32,
                counter_bits: 3,
                ..IsrbConfig::hpca16()
            })),
    );
    let wide = ipc(
        &program,
        CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_tracker(TrackerKind::Isrb(IsrbConfig {
                entries: 32,
                counter_bits: 31,
                ..IsrbConfig::hpca16()
            })),
    );
    let delta = (wide / narrow - 1.0) * 100.0;
    assert!(
        delta.abs() < 3.0,
        "3-bit counters should be near 31-bit: {delta:.2}%"
    );
}

#[test]
fn storage_hierarchy_matches_paper_argument() {
    // ISRB ≪ matrix; ISRB checkpoints ≪ MIT checkpoints (per entry).
    let isrb = TrackerKind::Isrb(IsrbConfig::hpca16()).build(256, 192);
    let matrix = TrackerKind::RothMatrix.build(168, 192);
    assert!(isrb.storage().main_bits * 50 < matrix.storage().main_bits);
    let mit = TrackerKind::Mit { entries: 32 }.build(256, 192);
    assert!(
        isrb.storage().per_checkpoint_bits < mit.storage().per_checkpoint_bits,
        "ISRB checkpoints must be smaller than MIT checkpoints"
    );
}
