//! Memory hierarchy timing model: L1I/L1D, unified L2 with a stride
//! prefetcher, MSHRs, and a DDR3-1600-like DRAM bank/row-buffer model.
//!
//! Reproduces Table 1 of the paper: 32KB 8-way L1s (L1I 1 cycle, L1D 4
//! cycles, 64 MSHRs), 1MB 16-way unified L2 (12 cycles, stride prefetcher
//! degree 8 distance 1), 64B lines, LRU, and DRAM with 75–185 cycle load
//! latency over a 64B bus.
//!
//! The model is *latency-analytic*: an access computes its completion cycle
//! immediately (including MSHR merging, bank/row-buffer state and bus
//! queueing) rather than being driven by a discrete event queue. This keeps
//! the out-of-order core's writeback scheduling simple while preserving the
//! contention behaviour the experiments need.
//!
//! # Examples
//!
//! ```
//! use regshare_mem::{MemConfig, MemorySystem, MemResult};
//! use regshare_types::Cycle;
//!
//! let mut mem = MemorySystem::new(MemConfig::hpca16());
//! // Cold miss goes to DRAM...
//! let c1 = match mem.load(0x400000, 0x10000, Cycle(0)) {
//!     MemResult::Done(c) => c,
//!     MemResult::Retry => unreachable!(),
//! };
//! assert!(c1.0 >= 75);
//! // ...and the line is then L1-resident.
//! let c2 = match mem.load(0x400000, 0x10000, c1) {
//!     MemResult::Done(c) => c,
//!     MemResult::Retry => unreachable!(),
//! };
//! assert_eq!(c2.0, c1.0 + 4);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod dram;
pub mod mshr;
pub mod prefetch;

pub use cache::{Cache, CacheConfig};
pub use dram::{DramConfig, DramModel};
pub use mshr::MshrFile;
pub use prefetch::{StridePrefetcher, StridePrefetcherConfig};

use regshare_types::{Addr, Cycle};

/// Result of a timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResult {
    /// Access completes at the given cycle.
    Done(Cycle),
    /// All MSHRs are busy; retry next cycle.
    Retry,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// L1D MSHR count.
    pub l1d_mshrs: usize,
    /// L2 MSHR count.
    pub l2_mshrs: usize,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// L2 stride prefetcher (None disables it).
    pub prefetcher: Option<StridePrefetcherConfig>,
}

impl MemConfig {
    /// Table 1 configuration.
    pub fn hpca16() -> MemConfig {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 12,
            },
            l1d_mshrs: 64,
            l2_mshrs: 64,
            dram: DramConfig::ddr3_1600(),
            prefetcher: Some(StridePrefetcherConfig::hpca16()),
        }
    }
}

/// Aggregate hierarchy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1I hits.
    pub l1i_hits: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Prefetches issued to DRAM.
    pub prefetches_issued: u64,
    /// Demand accesses that hit a prefetched L2 line.
    pub prefetch_hits: u64,
    /// Accesses rejected for lack of MSHRs.
    pub mshr_rejects: u64,
}

/// The complete memory hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    dram: DramModel,
    prefetcher: Option<StridePrefetcher>,
    stats: MemStats,
}

impl MemorySystem {
    /// Builds the hierarchy from a configuration.
    pub fn new(cfg: MemConfig) -> MemorySystem {
        MemorySystem {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l1d_mshrs: MshrFile::new(cfg.l1d_mshrs),
            l2_mshrs: MshrFile::new(cfg.l2_mshrs),
            dram: DramModel::new(cfg.dram),
            prefetcher: cfg.prefetcher.map(StridePrefetcher::new),
            cfg,
            stats: MemStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn line_of(&self, addr: Addr) -> Addr {
        addr & !(self.cfg.l1d.line_bytes as u64 - 1)
    }

    /// L2-and-below access shared by data and instruction paths. Returns the
    /// cycle at which the line is available at L2's output.
    fn access_l2(&mut self, pc: Addr, line: Addr, now: Cycle, is_demand: bool) -> Cycle {
        let l2_lat = self.cfg.l2.latency;
        if self.l2.probe(line) {
            self.stats.l2_hits += 1;
            if is_demand && self.l2.was_prefetched(line) {
                self.stats.prefetch_hits += 1;
                self.l2.clear_prefetched(line);
            }
            self.train_prefetcher(pc, line, now);
            return now.plus(l2_lat);
        }
        // L2 miss → DRAM, with MSHR merging at the L2 level.
        self.stats.l2_misses += 1;
        if let Some(ready) = self.l2_mshrs.pending(line, now) {
            return Cycle(ready.0.max(now.0)).plus(l2_lat);
        }
        let done = self.dram.access(line, now.plus(l2_lat));
        // An L2 MSHR tracks the in-flight line; if none is free the access
        // still proceeds (demand misses are not dropped) but merging is lost.
        let _ = self.l2_mshrs.allocate(line, done, now);
        self.l2.fill(line, false);
        self.train_prefetcher(pc, line, now);
        done.plus(l2_lat)
    }

    fn train_prefetcher(&mut self, pc: Addr, line: Addr, now: Cycle) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        let line_bytes = self.cfg.l2.line_bytes as u64;
        let requests = pf.observe(pc, line, line_bytes);
        for target in requests {
            // Prefetch fills L2 only; needs a free L2 MSHR, silently dropped
            // otherwise (prefetches are best-effort).
            if self.l2.probe_silent(target) {
                continue;
            }
            if self.l2_mshrs.pending(target, now).is_some() {
                continue;
            }
            let done = self.dram.access(target, now);
            if self.l2_mshrs.allocate(target, done, now) {
                self.l2.fill(target, true);
                self.stats.prefetches_issued += 1;
            }
        }
    }

    /// Timed data load. `pc` is the load's PC (prefetcher training).
    pub fn load(&mut self, pc: Addr, addr: Addr, now: Cycle) -> MemResult {
        let line = self.line_of(addr);
        let l1_lat = self.cfg.l1d.latency;
        if self.l1d.probe(line) {
            self.stats.l1d_hits += 1;
            return MemResult::Done(now.plus(l1_lat));
        }
        self.stats.l1d_misses += 1;
        // Merge into an in-flight miss if one exists.
        if let Some(ready) = self.l1d_mshrs.pending(line, now) {
            return MemResult::Done(Cycle(ready.0.max(now.0)).plus(l1_lat));
        }
        if !self.l1d_mshrs.has_free(now) {
            self.stats.mshr_rejects += 1;
            return MemResult::Retry;
        }
        let l2_done = self.access_l2(pc, line, now.plus(l1_lat), true);
        self.l1d_mshrs.allocate(line, l2_done, now);
        self.l1d.fill(line, false);
        MemResult::Done(l2_done.plus(l1_lat))
    }

    /// Committed store: writes through the post-commit write buffer, never
    /// stalls commit. Misses still occupy MSHRs/DRAM bandwidth.
    pub fn store_commit(&mut self, pc: Addr, addr: Addr, now: Cycle) {
        let line = self.line_of(addr);
        if self.l1d.probe(line) {
            self.stats.l1d_hits += 1;
            return;
        }
        self.stats.l1d_misses += 1;
        if self.l1d_mshrs.pending(line, now).is_some() {
            return;
        }
        // Write-allocate in the background; ignore MSHR pressure beyond
        // occupying an entry if available.
        let l2_done = self.access_l2(pc, line, now, true);
        let _ = self.l1d_mshrs.allocate(line, l2_done, now);
        self.l1d.fill(line, false);
    }

    /// Timed instruction fetch of the line containing `pc`.
    pub fn ifetch(&mut self, pc: Addr, now: Cycle) -> Cycle {
        let line = pc & !(self.cfg.l1i.line_bytes as u64 - 1);
        let l1_lat = self.cfg.l1i.latency;
        if self.l1i.probe(line) {
            self.stats.l1i_hits += 1;
            return now.plus(l1_lat);
        }
        self.stats.l1i_misses += 1;
        let l2_done = self.access_l2(pc, line, now.plus(l1_lat), true);
        self.l1i.fill(line, false);
        l2_done.plus(l1_lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(r: MemResult) -> Cycle {
        match r {
            MemResult::Done(c) => c,
            MemResult::Retry => panic!("unexpected retry"),
        }
    }

    #[test]
    fn l1_hit_is_four_cycles() {
        let mut mem = MemorySystem::new(MemConfig::hpca16());
        let warm = done(mem.load(0x400000, 0x8000, Cycle(0)));
        let hit = done(mem.load(0x400000, 0x8010, warm)); // same line
        assert_eq!(hit.0 - warm.0, 4);
    }

    #[test]
    fn cold_miss_pays_dram_latency() {
        let mut mem = MemorySystem::new(MemConfig::hpca16());
        let cold = done(mem.load(0x400000, 0x20000, Cycle(0)));
        assert!(cold.0 >= 75, "cold miss too fast: {cold}");
        let warm = done(mem.load(0x400000, 0x20000, cold));
        assert_eq!(warm.0 - cold.0, 4);
    }

    #[test]
    fn mshr_merging_shares_latency() {
        let mut mem = MemorySystem::new(MemConfig::hpca16());
        let a = done(mem.load(0x400000, 0x30000, Cycle(0)));
        // Second access to the same missing line while in flight merges.
        let b = done(mem.load(0x400004, 0x30008, Cycle(1)));
        assert!(b.0 <= a.0 + 4, "merge did not share the miss: {a} vs {b}");
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut cfg = MemConfig::hpca16();
        cfg.l1d_mshrs = 2;
        cfg.prefetcher = None;
        let mut mem = MemorySystem::new(cfg);
        assert!(matches!(
            mem.load(0x1, 0x100000, Cycle(0)),
            MemResult::Done(_)
        ));
        assert!(matches!(
            mem.load(0x2, 0x200000, Cycle(0)),
            MemResult::Done(_)
        ));
        assert_eq!(mem.load(0x3, 0x300000, Cycle(0)), MemResult::Retry);
        assert_eq!(mem.stats().mshr_rejects, 1);
        // After the misses resolve, MSHRs free up.
        assert!(matches!(
            mem.load(0x3, 0x300000, Cycle(1000)),
            MemResult::Done(_)
        ));
    }

    #[test]
    fn streaming_trains_prefetcher() {
        let mut mem = MemorySystem::new(MemConfig::hpca16());
        let pc = 0x400100;
        let mut now = Cycle(0);
        // Stream with a fixed 64B stride from one PC.
        for i in 0..64u64 {
            now = done(mem.load(pc, 0x100000 + i * 64, now));
        }
        assert!(mem.stats().prefetches_issued > 0, "no prefetches issued");
        assert!(mem.stats().prefetch_hits > 0, "no prefetch hits");
    }

    #[test]
    fn store_commit_never_blocks() {
        let mut cfg = MemConfig::hpca16();
        cfg.l1d_mshrs = 1;
        let mut mem = MemorySystem::new(cfg);
        for i in 0..32 {
            mem.store_commit(0x400000, 0x500000 + i * 4096, Cycle(i));
        }
        // All stores accepted; stats reflect the misses.
        assert!(mem.stats().l1d_misses >= 31);
    }

    #[test]
    fn ifetch_hits_after_warmup() {
        let mut mem = MemorySystem::new(MemConfig::hpca16());
        let c0 = mem.ifetch(0x400000, Cycle(0));
        let c1 = mem.ifetch(0x400000, c0);
        assert_eq!(c1.0 - c0.0, 1);
        assert_eq!(mem.stats().l1i_hits, 1);
        assert_eq!(mem.stats().l1i_misses, 1);
    }
}
