//! Host-side readings from `/proc`: peak memory and the noise record
//! (hypervisor steal time, involuntary context switches) printed beside
//! every run so a drifting run is explained rather than silently averaged
//! in. Missing files read as zero.

use std::fs;

/// One reading of the host-noise counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    /// `steal` ticks summed over all CPUs (`/proc/stat`, eighth field of
    /// the `cpu` line).
    pub steal_ticks: u64,
    /// This process's `nonvoluntary_ctxt_switches` (`/proc/self/status`).
    pub nonvoluntary_ctxt_switches: u64,
}

impl Noise {
    /// Reads the counters now.
    pub fn read() -> Noise {
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("cpu "))?;
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        Noise {
            steal_ticks,
            nonvoluntary_ctxt_switches: status_field("nonvoluntary_ctxt_switches").unwrap_or(0),
        }
    }

    /// Counter growth from `start` to `self`.
    pub fn since(&self, start: &Noise) -> Noise {
        Noise {
            steal_ticks: self.steal_ticks.saturating_sub(start.steal_ticks),
            nonvoluntary_ctxt_switches: self
                .nonvoluntary_ctxt_switches
                .saturating_sub(start.nonvoluntary_ctxt_switches),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// The leading integer of a `/proc/self/status` field.
fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split(':')
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
