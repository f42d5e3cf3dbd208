//! Why checkpointability matters (§4): compare the ISRB's single-cycle
//! checkpoint restore against conventional per-register counters, whose
//! recovery must walk the squashed µ-ops sequentially, on a branchy
//! workload.
//!
//! ```sh
//! cargo run --release --example recovery_cost
//! ```

use regshare::bench::{measure_program, RunWindow};
use regshare::core::{CoreConfig, TrackerKind};
use regshare::refcount::IsrbConfig;
use regshare::types::stats::speedup_pct;
use regshare::workloads::suite;

fn run(program: &regshare::isa::Program, cfg: CoreConfig) -> (f64, u64, u64) {
    let window = RunWindow {
        warmup: 40_000,
        measure: 160_000,
    };
    let s = measure_program("", program, cfg, window).stats;
    (s.ipc(), s.branch_mispredicts, s.tracker_recovery_stalls)
}

fn main() {
    let wl = suite()
        .into_iter()
        .find(|w| w.name == "gobmk")
        .expect("known workload");
    let program = wl.build();
    let base = run(&program, CoreConfig::hpca16());
    println!(
        "workload {}: baseline IPC {:.3}, {} mispredicts",
        wl.name, base.0, base.1
    );
    println!(
        "{:<28} {:>8} {:>13} {:>12}",
        "tracker", "IPC", "vs baseline", "walk stalls"
    );
    for (name, kind, walk) in [
        (
            "isrb-32 (checkpointed)",
            TrackerKind::Isrb(IsrbConfig::hpca16()),
            0usize,
        ),
        (
            "counters, walk 8/cycle",
            TrackerKind::PerRegCounters { walk_width: 8 },
            8,
        ),
        (
            "counters, walk 4/cycle",
            TrackerKind::PerRegCounters { walk_width: 4 },
            4,
        ),
        (
            "counters, walk 2/cycle",
            TrackerKind::PerRegCounters { walk_width: 2 },
            2,
        ),
    ] {
        let _ = walk;
        let cfg = CoreConfig::hpca16().with_me().with_smb().with_tracker(kind);
        let (ipc, _, stalls) = run(&program, cfg);
        println!(
            "{name:<28} {ipc:>8.3} {:>12.2}% {stalls:>12}",
            speedup_pct(base.0, ipc)
        );
    }
    println!("\nThe ISRB restores in a single cycle (zero walk stalls); counter");
    println!("schemes serialize recovery behind a walk of the squashed µ-ops.");
}
