//! **Figure 5**: move elimination.
//!
//! (a) Speedup over baseline as a function of ISRB entries (8/16/32/∞).
//! (b) Percentage of renamed µ-ops eliminated with an unlimited ISRB.
//!
//! Paper shape: a handful of entries suffice (8 reasonable, 16 generally
//! enough, 32 ≈ unlimited); gains are limited (~1% gmean, up to ~5%);
//! elimination rate does not correlate strongly with speedup.
//!
//! The matrix is the `fig5_me` preset scenario (base + `me` preset at each
//! ISRB size, declared in `scenarios/fig5_me.scenario`).

use regshare_bench::{preset, Table};

const SIZES: [(usize, &str); 4] = [(8, "me8"), (16, "me16"), (32, "me32"), (0, "meUnl")];

fn main() {
    let scenario = preset("fig5_me").expect("built-in scenario");
    let grid = scenario
        .to_sweep()
        .expect("preset validates")
        .run()
        .expect("sweep completes");

    let mut t = Table::new(vec![
        "bench",
        "base_ipc",
        "me8%",
        "me16%",
        "me32%",
        "meUnl%",
        "pct_renamed_elim",
    ]);
    for row in grid.rows() {
        let mut cells = vec![
            row.workload().name.clone(),
            format!("{:.3}", row.get("base").expect("declared label").ipc()),
        ];
        for (_, label) in SIZES {
            cells.push(format!(
                "{:+.2}",
                row.speedup("base", label).expect("declared label")
            ));
        }
        cells.push(format!(
            "{:.2}%",
            row.get("meUnl")
                .expect("declared label")
                .stats
                .pct_renamed_eliminated()
        ));
        t.row(cells);
    }
    for (n, label) in SIZES {
        let pretty = if n == 0 {
            "unlimited".into()
        } else {
            n.to_string()
        };
        t.footer(format!(
            "geomean speedup, ISRB {pretty}: {:+.2}%",
            grid.geomean_speedup("base", label).expect("declared label")
        ));
    }
    println!("# Figure 5(a)+(b): move elimination vs ISRB size\n");
    t.print();
}
