//! Quickstart: simulate a workload on the Table 1 machine, with and without
//! physical register sharing, and print what the ISRB did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use regshare::core::{CoreConfig, Simulator};
use regshare::types::stats::speedup_pct;
use regshare::workloads;

fn main() {
    // Pick a workload from the 36-entry suite by name.
    let workload = workloads::find("crafty").expect("known workload");
    let program = workload.build();

    // Baseline: Table 1 machine, no sharing optimizations.
    let mut base = Simulator::new(&program, CoreConfig::hpca16());
    base.run(50_000); // warm caches and predictors
    let b0 = base.stats();
    base.run(200_000);
    let base_stats = base.stats().delta_since(&b0);

    // Move elimination + speculative memory bypassing over a 32-entry ISRB.
    let mut opt = Simulator::new(&program, CoreConfig::hpca16().with_me().with_smb());
    let o0 = opt.run(50_000);
    // `run` returns a snapshot including tracker-internal statistics.
    let opt_stats = opt.run(200_000).delta_since(&o0);

    println!("workload: {}", workload.name);
    println!("baseline IPC:  {:.3}", base_stats.ipc());
    println!(
        "ME+SMB IPC:    {:.3}  ({:+.2}%)",
        opt_stats.ipc(),
        speedup_pct(base_stats.ipc(), opt_stats.ipc())
    );
    println!(
        "moves eliminated:   {} ({:.1}% of renamed µ-ops)",
        opt_stats.moves_eliminated,
        opt_stats.pct_renamed_eliminated()
    );
    println!(
        "loads bypassed:     {} ({:.1}% of loads)",
        opt_stats.loads_bypassed,
        opt_stats.pct_loads_bypassed()
    );
    println!(
        "bypass validations failed: {}",
        opt_stats.bypass_mispredictions
    );
    println!(
        "ISRB peak occupancy:       {}",
        opt_stats.tracker.peak_occupancy
    );
    println!(
        "ISRB shares accepted:      {}",
        opt_stats.tracker.shares_accepted
    );

    // The optimizations must not change architectural state.
    assert_eq!(
        base.arch_digest(),
        opt.arch_digest(),
        "architectural state diverged!"
    );
    println!("architectural digests match ✓");
}
