//! Speculative memory bypassing under the hood: watch the TAGE-like
//! Instruction Distance predictor learn spill/reload pairs and collapse
//! memory dependencies into register dependencies.
//!
//! ```sh
//! cargo run --release --example memory_bypassing
//! ```

use regshare::core::{CoreConfig, Simulator};
use regshare::types::stats::speedup_pct;
use regshare::workloads::suite;

fn main() {
    let wl = suite()
        .into_iter()
        .find(|w| w.name == "hmmer")
        .expect("known workload");
    let program = wl.build();

    let mut base = Simulator::new(&program, CoreConfig::hpca16());
    base.run(40_000);
    let b0 = base.stats();
    base.run(160_000);
    let b = base.stats().delta_since(&b0);

    let mut smb = Simulator::new(&program, CoreConfig::hpca16().with_smb());
    // Observe the predictor warming up: bypass rate per 20K-µ-op epoch.
    println!("epoch  bypassed-loads  bypass-misses  traps  false-deps");
    let mut last = smb.stats();
    for epoch in 0..10 {
        smb.run(20_000);
        let d = smb.stats().delta_since(&last);
        last = smb.stats();
        println!(
            "{epoch:>5}  {:>14}  {:>13}  {:>5}  {:>10}",
            d.loads_bypassed, d.bypass_mispredictions, d.memory_traps, d.false_dependencies
        );
    }
    let s0 = smb.stats();
    smb.run(160_000);
    let s = smb.stats().delta_since(&s0);
    println!(
        "\nbaseline: IPC {:.3}, {} traps, {} false deps",
        b.ipc(),
        b.memory_traps,
        b.false_dependencies
    );
    println!(
        "SMB:      IPC {:.3} ({:+.2}%), {} traps, {} false deps, {:.1}% of loads bypassed",
        s.ipc(),
        speedup_pct(b.ipc(), s.ipc()),
        s.memory_traps,
        s.false_dependencies,
        s.pct_loads_bypassed()
    );
}
