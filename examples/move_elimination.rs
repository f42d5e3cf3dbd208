//! Move elimination study: how many ISRB entries does ME need?
//!
//! Reproduces the shape of the paper's Figure 5 on one move-heavy workload:
//! a handful of entries captures nearly all of the potential.
//!
//! ```sh
//! cargo run --release --example move_elimination
//! ```

use regshare::bench::{measure_program, RunWindow};
use regshare::core::CoreConfig;
use regshare::types::stats::speedup_pct;
use regshare::workloads::suite;

fn run(program: &regshare::isa::Program, cfg: CoreConfig) -> f64 {
    let window = RunWindow {
        warmup: 40_000,
        measure: 160_000,
    };
    measure_program("", program, cfg, window).ipc()
}

fn main() {
    let wl = suite()
        .into_iter()
        .find(|w| w.name == "vortex")
        .expect("known workload");
    let program = wl.build();
    let base = run(&program, CoreConfig::hpca16());
    println!("workload {}, baseline IPC {:.3}", wl.name, base);
    println!("{:>10}  {:>9}", "ISRB", "speedup");
    for entries in [1usize, 2, 4, 8, 16, 32, 0] {
        let ipc = run(
            &program,
            CoreConfig::hpca16().with_me().with_isrb_entries(entries),
        );
        let label = if entries == 0 {
            "unlimited".to_string()
        } else {
            entries.to_string()
        };
        println!("{label:>10}  {:+8.2}%", speedup_pct(base, ipc));
    }
}
