//! Simulation statistics: everything the paper's figures report.

use regshare_refcount::TrackerStats;
use regshare_types::stats::RunningMean;

/// Counters collected over a measured simulation window.
///
/// Plain counters all the way down (`Copy`): snapshotting stats — as
/// [`Simulator::run`](crate::Simulator::run) does at every call — is a
/// flat memcpy, never a heap allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// µ-ops committed (architectural instructions; includes eliminated
    /// moves, which retire without executing).
    pub committed: u64,
    /// µ-ops renamed (correct and wrong path), the denominator of
    /// Figure 5(b).
    pub renamed: u64,

    // --- branches ---
    /// Conditional branches committed.
    pub branches: u64,
    /// Branch mispredictions recovered (resolution-time squashes).
    pub branch_mispredicts: u64,
    /// µ-ops squashed by branch recoveries.
    pub squashed_uops: u64,
    /// Extra rename-stall cycles charged by the tracker's recovery model
    /// (zero for checkpointed schemes, the walk cost for counters).
    pub tracker_recovery_stalls: u64,

    // --- memory ordering (Figure 4 / 6(b)) ---
    /// Memory-order violations (traps → commit-time flush).
    pub memory_traps: u64,
    /// False dependencies imposed by Store Sets (load waited on a
    /// non-overlapping store).
    pub false_dependencies: u64,
    /// Loads renamed with a live Store Sets dependence.
    pub loads_with_dep: u64,
    /// µ-ops whose issue was delayed at least one cycle by a Store Sets
    /// dependence.
    pub dep_waits: u64,
    /// Waited loads whose dependence store really overlapped.
    pub dep_true: u64,
    /// Waited loads whose dependence store had already left the ROB.
    pub dep_gone: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Store-to-load forwards performed.
    pub stlf_forwards: u64,

    // --- move elimination (Figure 5) ---
    /// Moves eliminated at rename.
    pub moves_eliminated: u64,
    /// Eliminable moves that could not be eliminated (tracker full/ports).
    pub moves_not_eliminated: u64,

    // --- SMB (Figures 6/7) ---
    /// Loads that bypassed through the PRF.
    pub loads_bypassed: u64,
    /// Bypassed loads whose validation failed (commit-time flush).
    pub bypass_mispredictions: u64,
    /// Bypasses aborted: tracker refused (full/saturated/kind).
    pub bypass_aborted_tracker: u64,
    /// Bypasses aborted: predicted producer not reachable in the ROB.
    pub bypass_no_producer: u64,
    /// Bypasses from committed-but-unreleased entries (lazy reclaim).
    pub bypass_from_committed: u64,
    /// Confident distance predictions issued.
    pub distance_predictions: u64,

    // --- ISRB traffic (§6.3) ---
    /// Mean µ-op distance between consecutive tracker share-allocations.
    pub share_distance: RunningMean,
    /// Mean µ-op distance between consecutive reclaim CAM checks at commit.
    pub reclaim_check_distance: RunningMean,
    /// Commits whose reclaim skipped the CAM under the §4.3.4 flag filter.
    pub reclaims_flag_filtered: u64,
    /// Commits whose reclaim performed the CAM.
    pub reclaims_cam_checked: u64,
    /// Commit stall cycles due to exhausted reclaim CAM ports.
    pub reclaim_port_stalls: u64,
    /// Bypasses aborted due to exhausted rename CAM ports.
    pub bypass_aborted_ports: u64,

    // --- recovery bookkeeping ---
    /// Commit-time flushes (memory traps + bypass validation failures).
    pub commit_flushes: u64,
    /// Peak simultaneously live checkpoints.
    pub peak_checkpoints: usize,

    /// Tracker-internal statistics snapshot.
    pub tracker: TrackerStats,
}

regshare_types::impl_snap!(SimStats {
    cycles,
    committed,
    renamed,
    branches,
    branch_mispredicts,
    squashed_uops,
    tracker_recovery_stalls,
    memory_traps,
    false_dependencies,
    loads_with_dep,
    dep_waits,
    dep_true,
    dep_gone,
    loads,
    stores,
    stlf_forwards,
    moves_eliminated,
    moves_not_eliminated,
    loads_bypassed,
    bypass_mispredictions,
    bypass_aborted_tracker,
    bypass_no_producer,
    bypass_from_committed,
    distance_predictions,
    share_distance,
    reclaim_check_distance,
    reclaims_flag_filtered,
    reclaims_cam_checked,
    reclaim_port_stalls,
    bypass_aborted_ports,
    commit_flushes,
    peak_checkpoints,
    tracker
});

impl SimStats {
    /// Committed µ-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Percentage of renamed µ-ops that were eliminated (Figure 5(b)).
    pub fn pct_renamed_eliminated(&self) -> f64 {
        regshare_types::stats::pct(self.moves_eliminated, self.renamed)
    }

    /// Percentage of committed loads that bypassed (§6.2 quotes 32.3% /
    /// 35.7% averages).
    pub fn pct_loads_bypassed(&self) -> f64 {
        regshare_types::stats::pct(self.loads_bypassed, self.loads)
    }

    /// Branch MPKI over the committed window.
    pub fn branch_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 * 1000.0 / self.committed as f64
        }
    }

    /// Subtracts a warmup snapshot from an end-of-run snapshot so the
    /// measured window excludes warmup activity — for the monotonic
    /// counters only. `tracker`, `share_distance`, `reclaim_check_distance`
    /// and `peak_checkpoints` are carried over as end-of-run values, so
    /// they include the warmup.
    pub fn delta_since(&self, warm: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles - warm.cycles,
            committed: self.committed - warm.committed,
            renamed: self.renamed - warm.renamed,
            branches: self.branches - warm.branches,
            branch_mispredicts: self.branch_mispredicts - warm.branch_mispredicts,
            squashed_uops: self.squashed_uops - warm.squashed_uops,
            tracker_recovery_stalls: self.tracker_recovery_stalls - warm.tracker_recovery_stalls,
            memory_traps: self.memory_traps - warm.memory_traps,
            false_dependencies: self.false_dependencies - warm.false_dependencies,
            loads_with_dep: self.loads_with_dep - warm.loads_with_dep,
            dep_waits: self.dep_waits - warm.dep_waits,
            dep_true: self.dep_true - warm.dep_true,
            dep_gone: self.dep_gone - warm.dep_gone,
            loads: self.loads - warm.loads,
            stores: self.stores - warm.stores,
            stlf_forwards: self.stlf_forwards - warm.stlf_forwards,
            moves_eliminated: self.moves_eliminated - warm.moves_eliminated,
            moves_not_eliminated: self.moves_not_eliminated - warm.moves_not_eliminated,
            loads_bypassed: self.loads_bypassed - warm.loads_bypassed,
            bypass_mispredictions: self.bypass_mispredictions - warm.bypass_mispredictions,
            bypass_aborted_tracker: self.bypass_aborted_tracker - warm.bypass_aborted_tracker,
            bypass_no_producer: self.bypass_no_producer - warm.bypass_no_producer,
            bypass_from_committed: self.bypass_from_committed - warm.bypass_from_committed,
            distance_predictions: self.distance_predictions - warm.distance_predictions,
            share_distance: self.share_distance,
            reclaim_check_distance: self.reclaim_check_distance,
            reclaims_flag_filtered: self.reclaims_flag_filtered - warm.reclaims_flag_filtered,
            reclaims_cam_checked: self.reclaims_cam_checked - warm.reclaims_cam_checked,
            reclaim_port_stalls: self.reclaim_port_stalls - warm.reclaim_port_stalls,
            bypass_aborted_ports: self.bypass_aborted_ports - warm.bypass_aborted_ports,
            commit_flushes: self.commit_flushes - warm.commit_flushes,
            peak_checkpoints: self.peak_checkpoints,
            tracker: self.tracker,
        }
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {:>12}   committed {:>12}   IPC {:.3}",
            self.cycles,
            self.committed,
            self.ipc()
        )?;
        writeln!(
            f,
            "branches {} (mispredicts {}, {:.2} MPKI)   squashed {}",
            self.branches,
            self.branch_mispredicts,
            self.branch_mpki(),
            self.squashed_uops
        )?;
        writeln!(
            f,
            "loads {} / stores {}   STLF {}   traps {}   false deps {}",
            self.loads, self.stores, self.stlf_forwards, self.memory_traps, self.false_dependencies
        )?;
        writeln!(
            f,
            "ME: {} eliminated ({:.2}% of renamed), {} not eliminated",
            self.moves_eliminated,
            self.pct_renamed_eliminated(),
            self.moves_not_eliminated
        )?;
        write!(
            f,
            "SMB: {} bypassed ({:.1}% of loads), {} validation failures, {} aborted (tracker)",
            self.loads_bypassed,
            self.pct_loads_bypassed(),
            self.bypass_mispredictions,
            self.bypass_aborted_tracker
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn derived_percentages() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            renamed: 300,
            moves_eliminated: 30,
            loads: 50,
            loads_bypassed: 10,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.pct_renamed_eliminated(), 10.0);
        assert_eq!(s.pct_loads_bypassed(), 20.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = SimStats {
            cycles: 10,
            committed: 25,
            loads: 3,
            ..SimStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("IPC 2.500"));
        assert!(text.contains("loads 3"));
    }

    #[test]
    fn delta_subtracts_counters() {
        let warm = SimStats {
            cycles: 10,
            committed: 20,
            ..SimStats::default()
        };
        let end = SimStats {
            cycles: 110,
            committed: 270,
            ..SimStats::default()
        };
        let d = end.delta_since(&warm);
        assert_eq!(d.cycles, 100);
        assert_eq!(d.committed, 250);
    }
}
