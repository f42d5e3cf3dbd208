//! The sweep engine's headline guarantee: the rendered table and `csv:`
//! block of a sweep are byte-identical regardless of worker count, because
//! jobs are pure and the grid is merged in spec order.

use regshare_bench::{RunWindow, SweepGrid, SweepSpec, Table};
use regshare_core::CoreConfig;
use regshare_workloads::by_names;

fn representative_spec(window: RunWindow) -> impl Fn(usize) -> SweepGrid {
    move |jobs| {
        let workloads = by_names(&["crafty", "hmmer", "astar", "applu"]);
        SweepSpec::new(workloads, window)
            .variant("base", CoreConfig::hpca16())
            .variant("me", CoreConfig::hpca16().with_me())
            .variant(
                "both32",
                CoreConfig::hpca16()
                    .with_me()
                    .with_smb()
                    .with_isrb_entries(32),
            )
            .jobs(jobs)
            .run()
            .expect("sweep completes")
    }
}

/// Renders the grid the way the bench targets do: aligned table + `csv:`
/// block + geomean footers.
fn render(grid: &SweepGrid) -> String {
    let mut t = Table::new(vec!["bench", "base_ipc", "me%", "both32%", "traps"]);
    for row in grid.rows() {
        t.row(vec![
            row.workload().name.to_string(),
            format!("{:.3}", row.get("base").unwrap().ipc()),
            format!("{:+.2}", row.speedup("base", "me").unwrap()),
            format!("{:+.2}", row.speedup("base", "both32").unwrap()),
            format!("{}", row.get("base").unwrap().stats.memory_traps),
        ]);
    }
    for label in ["me", "both32"] {
        t.footer(format!(
            "geomean speedup, {label}: {:+.2}%",
            grid.geomean_speedup("base", label).unwrap()
        ));
    }
    t.render()
}

#[test]
fn sweep_output_is_byte_identical_across_job_counts() {
    let spec = representative_spec(RunWindow {
        warmup: 2_000,
        measure: 6_000,
    });
    let serial = render(&spec(1));
    let sharded = render(&spec(4));
    assert!(serial.contains("csv:bench"), "render lost its csv block");
    assert_eq!(serial, sharded, "4-job output differs from 1-job output");
    // Oversubscription (more workers than jobs) must not change anything
    // either — the pool clamps to the job count.
    let oversubscribed = render(&spec(64));
    assert_eq!(serial, oversubscribed);
}

#[test]
fn full_measurements_are_identical_across_job_counts() {
    // Byte-identical tables could in principle hide rounding-level drift;
    // the underlying stats structs must match exactly too.
    let spec = representative_spec(RunWindow {
        warmup: 1_000,
        measure: 3_000,
    });
    let (a, b) = (spec(1), spec(3));
    for (ra, rb) in a.rows().zip(b.rows()) {
        for label in ["base", "me", "both32"] {
            assert_eq!(
                ra.get(label).unwrap().stats,
                rb.get(label).unwrap().stats,
                "{}/{label} diverged across job counts",
                ra.workload().name
            );
        }
    }
}
