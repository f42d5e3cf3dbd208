//! The cycle-level simulator: fetch → rename (+ME/+SMB) → dispatch → issue
//! → execute → writeback → commit, with checkpoint-based recovery.
//!
//! See the crate docs for the modelled machine. The per-cycle stage order is
//! commit, writeback (event processing), load-queue pump, issue,
//! rename/dispatch, fetch — i.e. reverse pipeline order, so values produced
//! in a cycle are visible to younger stages one cycle later.

use crate::config::{CoreConfig, DistancePredictorKind};
use crate::lsq::{LoadAction, LoadQueue, LqEntry, SqEntry, StoreQueue};
use crate::rename::{FreeList, RenameMap};
use crate::rob::{BranchInfo, BypassInfo, DstInfo, Rob, RobCold, RobEntry, RobHot, TrapKind};
use crate::stats::SimStats;
use regshare_distance::{CsnMap, Ddt, DistancePredictor, NosqDistance, TageDistance};
use regshare_isa::op::{BranchKind, DynUop, ExecClass, Op, UopKind};
use regshare_isa::program::Program;
use regshare_isa::FetchStream;
use regshare_mem::{MemResult, MemorySystem};
use regshare_predictors::tage::{TageHistory, TagePrediction};
use regshare_predictors::{Btb, ReturnAddressStack, StoreSets, Tage};
use regshare_refcount::{
    CheckpointStack, ReclaimDecision, ReclaimRequest, ShareKind, ShareRequest, SharingTracker,
};
use regshare_types::hasher::mix64;
use regshare_types::{
    Addr, Cycle, HistorySnapshot, PhysReg, RegClass, SeqNum, ARCH_REGS_PER_CLASS,
};
use std::collections::VecDeque;
use std::sync::Arc;

const WHEEL: usize = 8192;
/// Pipelined issue pools counted per cycle by `claim_unit`: ALU, integer
/// multiply, FP add, FP multiply, shared memory port, store-only port.
const POOLS: usize = 6;
const NOT_READY: u64 = u64::MAX;

/// Execution latencies per functional-unit class (Table 1).
fn latency(class: ExecClass) -> u64 {
    match class {
        ExecClass::IntAlu => 1,
        ExecClass::IntMul => 3,
        ExecClass::IntDiv => 25,
        ExecClass::FpAdd => 3,
        ExecClass::FpMul => 5,
        ExecClass::FpDiv => 10,
        ExecClass::Load | ExecClass::Store => 1, // AGU; memory time follows
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Address generation finished for a load/store.
    Agu { seq: SeqNum, uid: u64 },
    /// µ-op execution finished.
    Complete { seq: SeqNum, uid: u64 },
}

#[derive(Debug, Clone, Copy)]
struct IqEntry {
    seq: SeqNum,
    class: ExecClass,
    /// Flat scoreboard indices (`class * pregs_per_class + preg`): the
    /// per-cycle wakeup check is a single indexed load per source.
    srcs: [u32; 4],
    n_srcs: u8,
    /// Store Sets ordering dependence (store the µ-op must wait on).
    dep_store: Option<SeqNum>,
    /// The dependence actually delayed issue at least once.
    waited_dep: bool,
}

/// Fetch-time predictor state captured per mispredictable branch.
#[derive(Debug, Clone)]
struct FetchSnap {
    tage: TageHistory,
    ras: ReturnAddressStack,
    hist: HistorySnapshot,
}

/// Rename-time checkpoint (merged with the fetch snapshot).
///
/// The rename map is tiny (two 16-entry classes), so a flat copy *is* the
/// compact checkpoint — it carries no heap. The fetch snapshot keeps the
/// `Box` it was predicted into; dead checkpoints return it to the
/// simulator's snapshot pool, which also serves `PredInfo`.
#[derive(Debug)]
struct Checkpoint {
    rm: RenameMap,
    fl_heads: [u64; 2],
    tracker: u64,
    fetch: Box<FetchSnap>,
}

/// Reusable buffers for the per-cycle and per-recovery work lists. Each is
/// filled and drained in place, or `mem::take`n out while a `&mut self`
/// method runs over it and put back drained — so once grown they stop
/// allocating.
#[derive(Debug, Default)]
struct Scratch {
    /// Squashed µ-ops' accepted shares (squash-walk pass 1).
    shares: Vec<(RegClass, PhysReg)>,
    /// Squashed µ-ops' fresh allocations (squash-walk pass 2).
    allocs: Vec<(RegClass, PhysReg)>,
    /// Registers freed by a tracker restore.
    freed: Vec<(RegClass, PhysReg)>,
    /// Parked loads to re-pump this cycle.
    retry: Vec<SeqNum>,
    /// IQ indices issued this cycle (ascending).
    issued: Vec<usize>,
    /// Event list of the wheel slot being drained.
    events: Vec<Event>,
}

impl Scratch {
    /// Collects a squashed entry's tracker events.
    fn collect_squash(&mut self, e: &RobCold) {
        if let Some(s) = e.share.as_ref() {
            self.shares.push((s.class, s.preg));
        }
        if let Some(d) = e.dst.filter(|d| d.fresh_alloc) {
            self.allocs.push((d.arch.class(), d.new_preg));
        }
    }
}

/// Upper bound on pooled fetch snapshots: enough for every live checkpoint
/// plus the whole fetch pipe; beyond that, retiring snapshots simply drop.
const SNAP_POOL_CAP: usize = 256;

/// Hands a retired fetch snapshot back to the pool (bounded).
#[allow(clippy::vec_box)]
fn pool_snap(pool: &mut Vec<Box<FetchSnap>>, snap: Box<FetchSnap>) {
    if pool.len() < SNAP_POOL_CAP {
        pool.push(snap);
    }
}

/// Bound on the retired TAGE-prediction box pool (see `tage_pool`).
const TAGE_POOL_CAP: usize = 256;

#[derive(Debug)]
struct PipeUop {
    ready: u64,
    uop: DynUop,
    pred: Option<PredInfo>,
}

#[derive(Debug)]
struct PredInfo {
    pred_next: u32,
    pred_taken: bool,
    /// Boxed: ~150 B inline, and it rides every pipe/ROB move otherwise.
    tage_pred: Option<Box<TagePrediction>>,
    snap: Option<Box<FetchSnap>>,
}

/// The simulator. Construct with [`Simulator::new`], drive with
/// [`Simulator::run`] or [`Simulator::step`], read [`Simulator::stats`].
pub struct Simulator {
    cfg: CoreConfig,
    program: Arc<Program>,
    stream: FetchStream,
    mem: MemorySystem,

    // predictors
    tage: Tage,
    btb: Btb,
    ras: ReturnAddressStack,
    store_sets: StoreSets,
    dist_pred: Box<dyn DistancePredictor>,
    ddt: Ddt,
    csn: CsnMap,

    // rename state
    tracker: Box<dyn SharingTracker>,
    rm: RenameMap,
    crm: RenameMap,
    fl: [FreeList; 2],
    /// Physical register values and ready cycles, both classes in one
    /// stride-indexed lane each (index = `class * pregs_per_class + preg`).
    prf_value: Vec<u64>,
    prf_ready: Vec<u64>,

    // backend
    rob: Rob,
    iq: Vec<IqEntry>,
    /// Parallel to `iq`: the cycle before which the entry provably cannot
    /// have all sources ready. `NOT_READY` parks an entry blocked on a
    /// source with no scheduled wakeup yet; it is registered in `waiters`
    /// for that source and re-evaluated when the source gets a finite
    /// ready cycle. The per-cycle scan reads this one word per entry and
    /// only touches the entry itself once the hint expires.
    iq_wait: Vec<u64>,
    /// Per flat-scoreboard-index lists of IQ entry seqs parked on that
    /// source (see `iq_wait`). Entries are self-validating at wake time
    /// (looked up by seq and re-checked against `prf_ready`), so stale
    /// seqs left behind by squashes are harmless and simply skipped.
    waiters: Vec<Vec<SeqNum>>,
    lq: LoadQueue,
    sq: StoreQueue,
    wheel: Vec<Vec<Event>>,
    int_div_busy: Vec<u64>,
    fp_div_busy: Vec<u64>,

    // frontend
    pipe: VecDeque<PipeUop>,
    pending_fetch: Option<DynUop>,
    fetch_stall_until: u64,
    rename_stall_until: u64,
    last_fetch_line: Addr,
    spec_hist: HistorySnapshot,

    // architectural history images (for commit-time flush recovery)
    arch_tage: TageHistory,
    arch_ras: ReturnAddressStack,
    arch_hist: HistorySnapshot,

    /// Rename checkpoints of the in-flight predicted branches.
    ckpts: CheckpointStack<Checkpoint>,

    // hot-loop buffer reuse
    scratch: Scratch,
    /// Pool of retired fetch snapshots. Deliberately boxed: the boxes move
    /// whole into `PredInfo`/`Checkpoint` and back, so reuse costs a
    /// pointer, not a `FetchSnap` copy.
    #[allow(clippy::vec_box)]
    snap_pool: Vec<Box<FetchSnap>>,
    /// Pool of retired TAGE prediction boxes (same rationale).
    #[allow(clippy::vec_box)]
    tage_pool: Vec<Box<TagePrediction>>,
    /// Whether any load may be parked (AGU done, completion not yet
    /// scheduled) — lets the pump skip its ROB scan on quiet cycles.
    loads_parked: bool,
    /// After a bypass-mispredict flush, the refetched instance of the
    /// trapping load executes conservatively (no re-bypass). Without this,
    /// a stably wrong prediction — e.g. a DDT alias whose observed distance
    /// *reinforces* the mispredicting entry at flush-training time —
    /// livelocks under lazy reclaim, where committed producers stay
    /// bypassable across the flush (found by regshare-fuzz).
    no_bypass_seq: Option<SeqNum>,

    now: u64,
    next_uid: u64,
    /// Exact stop point for [`Simulator::run`] (commit stops mid-cycle).
    commit_budget: Option<u64>,
    stats: SimStats,
    arch_digest: u64,
    last_share_seq: Option<u64>,
    last_cam_commit: Option<u64>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("committed", &self.stats.committed)
            .field("tracker", &self.tracker.name())
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator for `program` under `cfg`.
    pub fn new(program: &Program, cfg: CoreConfig) -> Simulator {
        let program = Arc::new(program.clone());
        let pregs = cfg.pregs_per_class;
        let mut tracker = cfg.tracker.build(pregs, cfg.rob_entries);
        // The initial architectural mappings (arch i → preg i) are live
        // single-reference registers; walk-based trackers count them.
        for class in RegClass::ALL {
            for i in 0..ARCH_REGS_PER_CLASS {
                tracker.on_alloc(class, PhysReg::new(i));
            }
        }
        let dist_pred: Box<dyn DistancePredictor> = match &cfg.distance_predictor {
            DistancePredictorKind::TageLike(c) => Box::new(TageDistance::new(c.clone())),
            DistancePredictorKind::Nosq(c) => Box::new(NosqDistance::new(*c)),
        };
        let tage = Tage::new(cfg.tage.clone());
        let arch_tage = tage.snapshot();
        let ras = ReturnAddressStack::new(cfg.ras_entries);
        let mut prf_ready = vec![NOT_READY; 2 * pregs];
        for ci in 0..2 {
            for i in 0..ARCH_REGS_PER_CLASS {
                prf_ready[ci * pregs + i] = 0; // initial mappings are ready
            }
        }
        Simulator {
            stream: FetchStream::with_fetch_key(Arc::clone(&program), cfg.fetch_path_digest()),
            mem: MemorySystem::new(cfg.mem.clone()),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            arch_ras: ras.clone(),
            ras,
            store_sets: StoreSets::new(cfg.store_sets),
            dist_pred,
            ddt: Ddt::new(cfg.ddt),
            csn: CsnMap::new(),
            tracker,
            rm: RenameMap::identity(),
            crm: RenameMap::identity(),
            fl: [
                FreeList::new(pregs, ARCH_REGS_PER_CLASS),
                FreeList::new(pregs, ARCH_REGS_PER_CLASS),
            ],
            prf_value: vec![0; 2 * pregs],
            prf_ready,
            rob: Rob::new(cfg.rob_entries),
            iq: Vec::with_capacity(cfg.iq_entries),
            iq_wait: Vec::with_capacity(cfg.iq_entries),
            waiters: vec![Vec::new(); 2 * pregs],
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_entries),
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            int_div_busy: vec![0; cfg.muldiv_units],
            fp_div_busy: vec![0; cfg.fpmuldiv_units],
            pipe: VecDeque::new(),
            pending_fetch: None,
            fetch_stall_until: 0,
            rename_stall_until: 0,
            last_fetch_line: Addr::MAX,
            spec_hist: HistorySnapshot::default(),
            arch_tage,
            arch_hist: HistorySnapshot::default(),
            ckpts: CheckpointStack::default(),
            scratch: Scratch::default(),
            snap_pool: Vec::new(),
            tage_pool: Vec::new(),
            loads_parked: false,
            no_bypass_seq: None,
            now: 0,
            next_uid: 0,
            commit_budget: None,
            stats: SimStats::default(),
            arch_digest: 0,
            last_share_seq: None,
            last_cam_commit: None,
            tage,
            program,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far (cycles/committed are running totals; use
    /// [`SimStats::delta_since`] for warmup-excluded windows), with the
    /// tracker's live counters spliced in. `SimStats` is `Copy` (plain
    /// counters), so this is a flat copy — no heap clone.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.tracker = self.tracker.stats();
        s
    }

    /// A digest of the committed architectural trace (pc, result) — two
    /// runs of the same program must produce identical digests regardless
    /// of ME/SMB/tracker configuration, or the optimizations broke
    /// architectural state.
    pub fn arch_digest(&self) -> u64 {
        self.arch_digest
    }

    /// Correct-path µ-ops the front end decoded live (not served by the
    /// stream cache). Zero for a run fully covered by a cached stream.
    /// Deliberately not part of [`SimStats`]: cache warmth
    /// is invisible to the simulated architecture.
    pub fn frontend_decodes(&self) -> u64 {
        self.stream.oracle_decodes()
    }

    /// Runs until `uops` more µ-ops have committed; returns a stats
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no commit for a very long time) —
    /// that is a simulator bug, caught loudly.
    pub fn run(&mut self, uops: u64) -> SimStats {
        let target = self.stats.committed + uops;
        self.commit_budget = Some(target);
        let mut last_commit_cycle = self.now;
        let mut last_committed = self.stats.committed;
        while self.stats.committed < target {
            self.step();
            if self.stats.committed != last_committed {
                last_committed = self.stats.committed;
                last_commit_cycle = self.now;
            }
            assert!(
                self.now - last_commit_cycle < 100_000,
                "pipeline deadlock at cycle {} (committed {})",
                self.now,
                self.stats.committed
            );
        }
        self.commit_budget = None;
        self.stats()
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.commit();
        self.process_events();
        self.lsq_pump();
        self.issue();
        self.rename_dispatch();
        self.fetch();
        self.now += 1;
        self.stats.cycles = self.now;
    }

    /// Flat scoreboard index of `(class, preg)` in `prf_value`/`prf_ready`.
    #[inline]
    fn prf(&self, class: RegClass, preg: PhysReg) -> usize {
        class.index() * self.cfg.pregs_per_class + preg.index()
    }

    /// Computes the `iq_wait` hint for a new (or restored) IQ entry and
    /// registers it on every source that has no scheduled ready cycle yet.
    /// Returns `NOT_READY` when parked on at least one such source, else
    /// the max scheduled ready cycle over the sources.
    fn park_or_bound(&mut self, q: &IqEntry) -> u64 {
        let mut bound = 0u64;
        let mut parked = false;
        for k in 0..q.n_srcs as usize {
            let idx = q.srcs[k] as usize;
            let r = self.prf_ready[idx];
            if r == NOT_READY {
                self.waiters[idx].push(q.seq);
                parked = true;
            } else {
                bound = bound.max(r);
            }
        }
        if parked {
            NOT_READY
        } else {
            bound
        }
    }

    /// Schedules scoreboard index `idx` ready at cycle `at` and
    /// re-evaluates the entries parked on it. Parked seqs are looked up in
    /// the (sorted) IQ; vanished or reused seqs fail the lookup or the
    /// recheck and are dropped — the hint is recomputed from `prf_ready`
    /// alone, so a stale wake can never mis-time an entry.
    fn set_ready(&mut self, idx: usize, at: u64) {
        self.prf_ready[idx] = at;
        if self.waiters[idx].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.waiters[idx]);
        for seq in list.drain(..) {
            let Ok(pos) = self.iq.binary_search_by_key(&seq, |q| q.seq) else {
                continue;
            };
            let q = &self.iq[pos];
            let mut bound = 0u64;
            for k in 0..q.n_srcs as usize {
                bound = bound.max(self.prf_ready[q.srcs[k] as usize]);
            }
            // A still-pending other source keeps the entry parked; its
            // registration on that source is still in place.
            if bound != NOT_READY {
                self.iq_wait[pos] = bound;
            }
        }
        self.waiters[idx] = list;
    }

    /// Returns `preg` to its class's free list. Its scoreboard slot reads
    /// not-ready until the next allocation of the register writes it.
    fn free_preg(&mut self, class: RegClass, preg: PhysReg) {
        let i = self.prf(class, preg);
        self.prf_ready[i] = NOT_READY;
        self.fl[class.index()].push(preg);
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let mut reclaim_cams = 0usize;
        for _ in 0..self.cfg.commit_width {
            if self
                .commit_budget
                .is_some_and(|b| self.stats.committed >= b)
            {
                break; // exact-measurement boundary for digest comparisons
            }
            let Some((head, head_cold)) = self.rob.head() else {
                break;
            };
            if !head.completed {
                break;
            }
            debug_assert!(!head.wrong_path, "wrong-path µ-op reached commit");
            if head.trap.is_some() {
                self.commit_flush();
                break;
            }
            // Reclaim CAM port pressure (§4.3.4): a committing µ-op whose
            // reclaim must CAM the tracker consumes a port; stall when out.
            let needs_cam = head_cold.dst.is_some_and(|d| d.needs_cam);
            if self.cfg.tracker_reclaim_ports > 0
                && needs_cam
                && reclaim_cams >= self.cfg.tracker_reclaim_ports
            {
                self.stats.reclaim_port_stalls += 1;
                break;
            }
            if needs_cam {
                reclaim_cams += 1;
            }
            self.commit_one();
        }
        // Lazy release scan: reclaim deferred registers when resources run
        // low (§3.3) — or continuously in eager mode.
        if self.cfg.smb_from_committed {
            let fl_low = self.fl[0].free_count() < 2 * self.cfg.frontend_width
                || self.fl[1].free_count() < 2 * self.cfg.frontend_width;
            let rob_high = self.rob.occupancy() + 2 * self.cfg.frontend_width > self.rob.capacity();
            if fl_low || rob_high {
                for _ in 0..2 * self.cfg.commit_width {
                    if !self.release_one() {
                        break;
                    }
                }
            }
        } else {
            while self.release_one() {}
        }
        self.stream.retire_upto(self.rob.head_seq());
    }

    /// Commits the head µ-op (must be completed and trap-free).
    fn commit_one(&mut self) {
        let (hot, cold) = self.rob.commit_head();
        let (seq, kind, pc) = (hot.seq, hot.kind, cold.pc);

        self.stats.committed += 1;
        self.arch_digest = mix64(self.arch_digest ^ pc).wrapping_add(mix64(cold.result));

        // Branch: train predictors, advance architectural history.
        if let Some(b) = &cold.branch {
            let conditional = b.kind == BranchKind::Conditional;
            if conditional {
                self.stats.branches += 1;
            }
            let taken = b.taken || !conditional;
            self.tage.advance_snapshot(&mut self.arch_tage, taken, pc);
            self.arch_hist = self.arch_hist.push(taken, pc);
            match b.kind {
                BranchKind::Call => self.arch_ras.push(b.fallthrough),
                BranchKind::Return => {
                    let _ = self.arch_ras.pop();
                }
                _ => {}
            }
            if let Some(ck) = b.ckpt.and_then(|id| self.ckpts.release(id)) {
                self.tracker.release_checkpoint(ck.tracker);
                pool_snap(&mut self.snap_pool, ck.fetch);
            }
            // TAGE direction training for conditionals.
            let tage_pred = conditional.then(|| self.rob.take_tage_pred(seq));
            if let Some(tp) = tage_pred.flatten() {
                self.tage.train(pc, &tp, b.taken);
                if self.tage_pool.len() < TAGE_POOL_CAP {
                    self.tage_pool.push(tp);
                }
            }
        }

        // Sharer commit (architectural reference image).
        if let Some(s) = &cold.share {
            self.tracker.on_sharer_commit(s);
        }

        // Memory side.
        if kind == UopKind::Store {
            self.stats.stores += 1;
            let m = cold.mem.expect("store has memref");
            self.mem.store_commit(pc, m.addr, Cycle(self.now));
            // DDT: record the CSN of the instruction that produced the data.
            // Full-width stores only: a sub-word store's data register does
            // not carry the memory value a later load would read, so a
            // bypass built on it can never validate (§3 models compiler
            // spill/reload pairs, which are register-width by construction).
            if let Some(data_reg) = cold.store_data {
                if m.size == 8 {
                    if let Some(producer) = self.csn.producer(data_reg) {
                        self.ddt.store_commit(m.addr, producer);
                    }
                }
            }
            if let Some(i) = cold.sq {
                self.sq.free(i);
            }
        }
        if kind == UopKind::Load {
            self.stats.loads += 1;
            let m = cold.mem.expect("load has memref");
            self.train_distance(seq, pc, cold.history, m.addr);
            if self.cfg.smb_load_load && m.size == 8 {
                // Load-load generalization: deposit own CSN (full-width
                // loads only, same width rule as stores above).
                self.ddt.store_commit(m.addr, seq);
            }
            if let Some(b) = cold.bypass {
                self.stats.loads_bypassed += 1;
                if b.from_committed {
                    self.stats.bypass_from_committed += 1;
                }
            }
            if let Some(i) = cold.lq {
                self.lq.free(i);
            }
        }

        // Register side: CRM update; the reclaim itself is processed at
        // release (immediately in eager mode).
        if let Some(d) = cold.dst {
            self.csn.define(d.arch, seq);
            let crm_old = self.crm.remap(d.arch, d.new_preg);
            debug_assert_eq!(crm_old, d.old_preg, "CRM/rename old-mapping mismatch");
            // Maintain CRM shared flags with the same §4.3.4 rules.
            let flag = match kind {
                UopKind::Move { .. } => cold.share.is_some(),
                UopKind::Load => self.cfg.smb,
                _ => false,
            };
            self.crm.set_shared_flag(d.arch, flag);
            if d.fresh_alloc {
                self.fl[d.arch.class().index()].commit_pop();
            }
        }
        if kind == UopKind::Store && self.cfg.smb {
            if let Some(data_reg) = cold.store_data {
                self.crm.set_shared_flag(data_reg, true);
            }
        }
    }

    /// Trains the distance predictor for the load `seq` at `pc` with its
    /// observed distance to the last producer the DDT saw at `addr` (§3.1).
    fn train_distance(&mut self, seq: SeqNum, pc: Addr, history: HistorySnapshot, addr: Addr) {
        let observed = self
            .ddt
            .load_lookup(addr)
            .and_then(|p| seq.distance_from(p))
            .filter(|&d| d >= 1);
        self.dist_pred.train(pc, history, observed);
    }

    /// Releases one committed entry, processing its register reclaim.
    /// Returns false when release has caught up.
    fn release_one(&mut self) -> bool {
        let Some((hot, cold)) = self.rob.release_next() else {
            return false;
        };
        if let Some(d) = cold.dst {
            self.reclaim(d, hot.seq);
        }
        true
    }

    /// Processes the reclaim of one overwritten mapping.
    fn reclaim(&mut self, d: DstInfo, seq: SeqNum) {
        // Flag-filter statistics (§4.3.4). The CAM is always performed for
        // correctness; the filter is evaluated as the paper describes.
        if d.needs_cam {
            self.stats.reclaims_cam_checked += 1;
            if let Some(last) = self.last_cam_commit {
                self.stats
                    .reclaim_check_distance
                    .add(seq.0.saturating_sub(last));
            }
            self.last_cam_commit = Some(seq.0);
        } else {
            self.stats.reclaims_flag_filtered += 1;
        }
        let class = d.arch.class();
        let req = ReclaimRequest {
            class,
            preg: d.old_preg,
            arch: d.arch,
            renews: d.new_preg == d.old_preg,
        };
        if self.tracker.on_reclaim(&req) == ReclaimDecision::Free {
            self.free_preg(class, d.old_preg);
        }
    }

    /// Commit-time flush: memory-order trap or bypass validation failure at
    /// the head (§4.1: restore the CRM and committed free-list pointers; no
    /// checkpoint involved).
    fn commit_flush(&mut self) {
        let (head, head_cold) = self.rob.head().expect("flush with no head");
        let seq = head.seq;
        let trap = head.trap.expect("flush without trap");
        let pc = head_cold.pc;
        let history = head_cold.history;
        let mem = head_cold.mem;
        self.stats.commit_flushes += 1;
        match trap {
            TrapKind::MemOrder => self.stats.memory_traps += 1,
            TrapKind::BypassMispredict => {
                self.stats.bypass_mispredictions += 1;
                // The refetched instance of this load must not bypass
                // again: training below cannot guarantee the prediction
                // flips (a DDT alias re-observes the same wrong distance),
                // and under lazy reclaim the wrong producer stays in reach.
                self.no_bypass_seq = Some(seq);
                // Train toward the architecturally correct distance so
                // later instances predict better.
                if let Some(m) = mem {
                    self.train_distance(seq, pc, history, m.addr);
                }
            }
        }

        // Squash everything in flight.
        let scratch = &mut self.scratch;
        let squashed = self
            .rob
            .squash_all_inflight(|_, cold| scratch.collect_squash(cold));
        self.iq.clear();
        self.iq_wait.clear();
        // A full flush empties the IQ, so every parked registration is
        // stale; dropping them here keeps the lists from accumulating.
        for w in &mut self.waiters {
            w.clear();
        }
        self.lq.clear();
        self.sq.clear();

        // Restore architectural register state.
        self.rm.clone_from(&self.crm);
        for c in 0..2 {
            self.fl[c].restore_to_committed();
        }
        self.undo_squashed();
        // Every live checkpoint belonged to a squashed branch.
        let pool = &mut self.snap_pool;
        self.ckpts.drain(|ck| pool_snap(pool, ck.fetch));
        self.restore_tracker(None);

        // Restore front-end state from the architectural images.
        self.tage.restore(&self.arch_tage);
        self.ras.restore(&self.arch_ras);
        self.spec_hist = self.arch_hist;
        self.redirect_fetch(seq, squashed);
    }

    /// Undoes the squashed µ-ops collected in `scratch`: drives the
    /// tracker's squash walk in two passes (shares first, then
    /// allocations — see `SharingTracker::on_squash_share`) and frees any
    /// registers the walk uncovers.
    fn undo_squashed(&mut self) {
        let mut shares = std::mem::take(&mut self.scratch.shares);
        for (c, p) in shares.drain(..) {
            if let Some((fc, fp)) = self.tracker.on_squash_share(c, p) {
                self.free_preg(fc, fp);
            }
        }
        self.scratch.shares = shares;
        for (c, p) in self.scratch.allocs.drain(..) {
            self.tracker.on_squash_alloc(c, p);
        }
    }

    /// Rolls the tracker back to checkpoint `ckpt` (the committed state
    /// for `None`) and frees every register the rollback releases.
    fn restore_tracker(&mut self, ckpt: Option<u64>) {
        let mut freed = std::mem::take(&mut self.scratch.freed);
        match ckpt {
            Some(id) => self.tracker.restore(id, &mut freed),
            None => self.tracker.restore_to_committed(&mut freed),
        }
        for (class, preg) in freed.drain(..) {
            self.free_preg(class, preg);
        }
        self.scratch.freed = freed;
    }

    /// The front-end tail of every recovery: empties the fetch pipe,
    /// refetches from `resume` next cycle, and holds rename for the
    /// tracker's repair of the `squashed` µ-ops.
    fn redirect_fetch(&mut self, resume: SeqNum, squashed: usize) {
        self.clear_pipe();
        self.pending_fetch = None;
        self.last_fetch_line = Addr::MAX;
        self.stream.recover_to(resume);
        self.fetch_stall_until = self.now + 1;
        let stall = self.tracker.recovery_stall_cycles(squashed);
        self.rename_stall_until = self.rename_stall_until.max(self.now + stall);
        self.stats.tracker_recovery_stalls += stall;
        self.stats.squashed_uops += squashed as u64;
    }

    /// Empties the fetch pipe, recycling any snapshots it still carries so
    /// recovery paths return them to the pool instead of freeing them.
    fn clear_pipe(&mut self) {
        while let Some(p) = self.pipe.pop_front() {
            if let Some(snap) = p.pred.and_then(|pr| pr.snap) {
                pool_snap(&mut self.snap_pool, snap);
            }
        }
    }

    // ------------------------------------------------------------------
    // writeback / resolution
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: u64, ev: Event) {
        debug_assert!(at >= self.now, "event in the past");
        debug_assert!(at - self.now < WHEEL as u64, "event beyond wheel horizon");
        let slot = (at % WHEEL as u64) as usize;
        self.wheel[slot].push(ev);
    }

    fn process_events(&mut self) {
        let slot = (self.now % WHEEL as u64) as usize;
        if self.wheel[slot].is_empty() {
            return;
        }
        // Swap the slot's buffer with the (empty) scratch list and swap it
        // back drained: both allocations survive the cycle, but buffers
        // rotate between slots, so a slot may still grow the one it gets.
        let mut events = std::mem::take(&mut self.scratch.events);
        std::mem::swap(&mut events, &mut self.wheel[slot]);
        for ev in events.drain(..) {
            match ev {
                Event::Agu { seq, uid } => self.on_agu(seq, uid),
                Event::Complete { seq, uid } => self.on_complete(seq, uid),
            }
        }
        self.scratch.events = events;
    }

    fn on_agu(&mut self, seq: SeqNum, uid: u64) {
        let Some(hot) = self.rob.hot_mut(seq) else {
            return;
        };
        if hot.committed || hot.uid != uid {
            return; // stale event from a squashed incarnation
        }
        hot.agu_done = true;
        let kind = hot.kind;
        match kind {
            UopKind::Store => {
                let cold = self.rob.cold(seq).expect("just checked");
                let pc = cold.pc;
                let m = cold.mem.expect("store memref");
                let sq_idx = cold.sq.expect("store has SQ slot");
                if let Some(s) = self.sq.get_mut(sq_idx) {
                    if s.seq == seq {
                        s.executed = true;
                    }
                }
                self.store_sets.store_executed(pc, seq);
                // Memory-order violation check.
                if let Some(victim) = self.lq.violation(seq, &m) {
                    if let Some((lh, lc)) = self.rob.get_mut(victim) {
                        if lh.trap.is_none() {
                            lh.trap = Some(TrapKind::MemOrder);
                        }
                        let load_pc = lc.pc;
                        self.store_sets.train_violation(load_pc, pc);
                    }
                }
                // The store has executed (address known): it completes.
                if let Some(hot) = self.rob.hot_mut(seq) {
                    hot.completed = true;
                }
            }
            UopKind::Load => {
                self.resolve_load(seq);
                // Parked (forward blocked or MSHRs exhausted): flag the pump
                // so its ROB scan runs only when there is work to retry.
                if self.rob.hot(seq).is_some_and(|h| !h.read_scheduled) {
                    self.loads_parked = true;
                }
            }
            _ => unreachable!("AGU event for non-memory µ-op"),
        }
    }

    /// Tries to obtain the load's value: forward, wait, or access the cache.
    fn resolve_load(&mut self, seq: SeqNum) {
        let Some(cold) = self.rob.cold(seq) else {
            return;
        };
        let m = cold.mem.expect("load memref");
        let pc = cold.pc;
        let lq_idx = cold.lq.expect("load has LQ slot");
        match self.sq.load_action(seq, &m) {
            LoadAction::Forward { store_seq } => {
                self.stats.stlf_forwards += 1;
                let done = self.now + self.cfg.stlf_latency;
                self.finish_load(seq, lq_idx, Some(store_seq), done);
            }
            LoadAction::WaitStoreCommit { .. } => {
                // Parked: the pump retries next cycle (the blocking store
                // will commit, be squashed, or execute further).
            }
            LoadAction::Cache => match self.mem.load(pc, m.addr, Cycle(self.now)) {
                MemResult::Done(t) => self.finish_load(seq, lq_idx, None, t.0),
                MemResult::Retry => {
                    // MSHRs exhausted: parked, pump retries.
                }
            },
        }
    }

    /// Starts the load's read (forwarded from the store `fwd_from`, or
    /// from the cache), schedules its completion at `done` and wakes its
    /// dependents.
    fn finish_load(&mut self, seq: SeqNum, lq_idx: usize, fwd_from: Option<SeqNum>, done: u64) {
        if let Some(l) = self.lq.get_mut(lq_idx) {
            l.read_started = true;
            l.fwd_from = fwd_from;
        }
        let Some((hot, cold)) = self.rob.get_mut(seq) else {
            return;
        };
        hot.read_scheduled = true;
        let uid = hot.uid;
        // Normal load: its register becomes ready at completion.
        if let Some(d) = cold.dst.filter(|_| cold.bypass.is_none()) {
            self.set_ready(self.prf(d.arch.class(), d.new_preg), done);
        }
        self.schedule(done.max(self.now + 1), Event::Complete { seq, uid });
    }

    fn on_complete(&mut self, seq: SeqNum, uid: u64) {
        let Some((hot, cold)) = self.rob.get_mut(seq) else {
            return;
        };
        if hot.committed || hot.completed || hot.uid != uid {
            return;
        }
        hot.completed = true;
        // SMB validation at writeback (§3.2): compare the bypassed register
        // against the memory data.
        if let Some(b) = cold.bypass {
            if !b.correct && hot.trap.is_none() {
                hot.trap = Some(TrapKind::BypassMispredict);
            }
        }
        let mispredicted = cold.branch.as_ref().is_some_and(|b| b.mispredicted);
        if mispredicted {
            self.recover_branch(seq);
        }
    }

    /// Branch misprediction recovery: checkpoint restore (§4.1/§4.3).
    fn recover_branch(&mut self, seq: SeqNum) {
        self.stats.branch_mispredicts += 1;
        let (hot, cold) = self.rob.get(seq).expect("branch entry");
        let b = cold.branch.expect("branch info");
        let pc = cold.pc;
        debug_assert!(
            !hot.wrong_path,
            "wrong-path branches never trigger recovery"
        );

        // 1. Squash younger µ-ops.
        let scratch = &mut self.scratch;
        let squashed = self
            .rob
            .squash_younger(seq, |_, victim| scratch.collect_squash(victim));
        // Every IQ entry is in flight and paired with a ROB entry, so the
        // squashed set is exactly the suffix younger than the branch: one
        // ordered retain, not an O(IQ × squashed) membership scan.
        self.iq.retain(|q| q.seq <= seq);
        // Sorted-by-seq means the retain kept a prefix: truncate the
        // parallel hint lane to match. Registrations of squashed entries
        // go stale in `waiters`; wake-time rechecks skip them.
        self.iq_wait.truncate(self.iq.len());
        self.lq.squash_younger(seq);
        self.sq.squash_younger(seq);
        self.undo_squashed();

        // 2. Restore rename state from the branch's checkpoint; the younger
        // ones belonged to squashed branches.
        let id = b.ckpt.expect("mispredicted branch carries a checkpoint");
        let pool = &mut self.snap_pool;
        let ck = self
            .ckpts
            .restore_with(id, |dead| pool_snap(pool, dead.fetch));
        self.rm = ck.rm;
        for c in 0..2 {
            self.fl[c].restore_head(ck.fl_heads[c]);
        }
        self.restore_tracker(Some(ck.tracker));

        // 3. Restore front-end history and push the *actual* outcome.
        let taken = b.taken || b.kind != BranchKind::Conditional;
        self.tage.restore(&ck.fetch.tage);
        self.tage.update_history(taken, pc);
        self.ras.restore(&ck.fetch.ras);
        if b.kind == BranchKind::Return {
            let _ = self.ras.pop();
        }
        self.spec_hist = ck.fetch.hist.push(taken, pc);
        self.btb.update(pc, b.actual_next);
        pool_snap(&mut self.snap_pool, ck.fetch);

        // 4. Redirect fetch past the branch.
        self.redirect_fetch(seq.next(), squashed);

        // 5. The branch itself is now resolved.
        if let Some(cold) = self.rob.cold_mut(seq) {
            if let Some(bi) = &mut cold.branch {
                bi.mispredicted = false;
                bi.ckpt = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // load-queue pump: retry parked loads
    // ------------------------------------------------------------------

    fn lsq_pump(&mut self) {
        // The scan below walks the whole ROB; `loads_parked` is a
        // conservative flag (set whenever a load fails to schedule its
        // read, cleared only by a scan that leaves nothing parked), so
        // skipping when it is unset can never strand a load.
        if !self.loads_parked {
            return;
        }
        // Collect loads that have issued (AGU done) but not yet started
        // reading and have no scheduled completion: retry them.
        let parked = |hot: &RobHot, cold: &RobCold| {
            hot.kind == UopKind::Load
                && !hot.completed
                && !hot.committed
                && hot.agu_done
                && cold.lq.is_some()
                && !hot.read_scheduled
        };
        let mut retry = std::mem::take(&mut self.scratch.retry);
        retry.extend(
            self.rob
                .iter()
                .filter(|(h, c)| parked(h, c))
                .map(|(h, _)| h.seq),
        );
        for &seq in &retry {
            self.resolve_load(seq);
        }
        // Still-parked retries keep the flag up for the next cycle.
        self.loads_parked = retry
            .iter()
            .any(|&seq| self.rob.get(seq).is_some_and(|(h, c)| parked(h, c)));
        retry.clear();
        self.scratch.retry = retry;
    }

    // ------------------------------------------------------------------
    // issue
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        if self.iq.is_empty() {
            return;
        }
        // The IQ is sorted by sequence number by construction: rename
        // appends monotonically increasing seqs, squashes retain an ordered
        // prefix, and issue compacts in order below — so oldest-first
        // selection needs no per-cycle sort.
        debug_assert!(self.iq.windows(2).all(|w| w[0].seq < w[1].seq));
        let mut issued = 0usize;
        let mut used = [0usize; POOLS];
        let mut remove = std::mem::take(&mut self.scratch.issued);

        for i in 0..self.iq.len() {
            if issued >= self.cfg.issue_width {
                break;
            }
            // Hint says not ready (scheduled bound in the future, or
            // parked on a source with no scheduled wakeup yet): skip
            // without touching the entry or the scoreboard.
            if self.iq_wait[i] > self.now {
                continue;
            }
            let q = &self.iq[i];
            // Register operands ready?
            let mut max_ready = 0u64;
            for k in 0..q.n_srcs as usize {
                max_ready = max_ready.max(self.prf_ready[q.srcs[k] as usize]);
            }
            if max_ready > self.now {
                // Refresh the hint only with a scheduled bound. Parking
                // (`NOT_READY`) happens at dispatch/restore where the
                // waiter registration goes with it; an unscheduled source
                // seen here (a freed register's slot) just re-checks.
                if max_ready != NOT_READY {
                    self.iq_wait[i] = max_ready;
                }
                continue;
            }
            // Store Sets ordering: wait until the predicted store executed.
            if let Some(dep) = q.dep_store {
                if self.sq.is_unexecuted(dep) {
                    if !self.iq[i].waited_dep {
                        self.stats.dep_waits += 1;
                        self.iq[i].waited_dep = true;
                    }
                    continue;
                }
            }
            if !self.claim_unit(self.iq[i].class, &mut used) {
                continue;
            }
            issued += 1;
            remove.push(i);
            let q = self.iq[i];
            self.dispatch_execution(&q);
        }
        // Order-preserving compaction (`remove` is ascending), keeping the
        // sorted-by-seq invariant that lets the next cycle skip sorting.
        if !remove.is_empty() {
            let mut keep = 0usize;
            let mut r = 0usize;
            for i in 0..self.iq.len() {
                if r < remove.len() && remove[r] == i {
                    r += 1;
                    continue;
                }
                self.iq[keep] = self.iq[i];
                self.iq_wait[keep] = self.iq_wait[i];
                keep += 1;
            }
            self.iq.truncate(keep);
            self.iq_wait.truncate(keep);
        }
        remove.clear();
        self.scratch.issued = remove;
    }

    /// Claims a functional unit for a µ-op of `class` issuing this cycle.
    /// `used` counts the slots already taken in each pipelined pool (see
    /// `POOLS`); a multiply may issue on each mul/div unit that is not
    /// busy dividing, and a divide books a free unit for its whole latency.
    fn claim_unit(&mut self, class: ExecClass, used: &mut [usize; POOLS]) -> bool {
        let now = self.now;
        let mut take = |pool: usize, cap: usize| {
            let ok = used[pool] < cap;
            used[pool] += usize::from(ok);
            ok
        };
        let idle = |busy: &[u64]| busy.iter().filter(|&&b| b <= now).count();
        let book = |busy: &mut [u64]| {
            let unit = busy.iter_mut().find(|b| **b <= now);
            unit.map(|u| *u = now + latency(class)).is_some()
        };
        match class {
            ExecClass::IntAlu => take(0, self.cfg.alu_units),
            ExecClass::IntMul => take(1, idle(&self.int_div_busy)),
            ExecClass::FpAdd => take(2, self.cfg.fp_units),
            ExecClass::FpMul => take(3, idle(&self.fp_div_busy)),
            ExecClass::Load => take(4, self.cfg.mem_ports),
            ExecClass::Store => take(5, self.cfg.store_ports) || take(4, self.cfg.mem_ports),
            ExecClass::IntDiv => book(&mut self.int_div_busy),
            ExecClass::FpDiv => book(&mut self.fp_div_busy),
        }
    }

    /// Schedules execution events for an issued µ-op.
    fn dispatch_execution(&mut self, q: &IqEntry) {
        let seq = q.seq;
        match q.class {
            ExecClass::Load | ExecClass::Store => {
                // False-dependency accounting: the µ-op waited on a store
                // that turned out not to overlap (only decidable while the
                // store's address is still visible).
                if q.class == ExecClass::Load && q.waited_dep {
                    if let (Some(dep), Some(cold)) = (q.dep_store, self.rob.cold(seq)) {
                        let lm = cold.mem.expect("load memref");
                        match self.rob.cold(dep).and_then(|s| s.mem) {
                            Some(sm) if !sm.overlaps(&lm) => self.stats.false_dependencies += 1,
                            Some(_) => self.stats.dep_true += 1,
                            None => self.stats.dep_gone += 1,
                        }
                    }
                }
                let uid = self.rob.hot(seq).map(|h| h.uid).unwrap_or(0);
                self.schedule(self.now + latency(q.class), Event::Agu { seq, uid });
            }
            c => {
                let done = self.now + latency(c);
                let (uid, dst) = self.rob.get(seq).map_or((0, None), |(hot, cold)| {
                    (hot.uid, cold.dst.filter(|_| !hot.eliminated))
                });
                if let Some(d) = dst {
                    self.set_ready(self.prf(d.arch.class(), d.new_preg), done);
                }
                self.schedule(done, Event::Complete { seq, uid });
            }
        }
    }

    // ------------------------------------------------------------------
    // rename / dispatch
    // ------------------------------------------------------------------

    fn rename_dispatch(&mut self) {
        if self.now < self.rename_stall_until {
            return;
        }
        let mut rename_cams = 0usize;
        for _ in 0..self.cfg.frontend_width {
            let Some(front) = self.pipe.front() else {
                break;
            };
            if front.ready > self.now {
                break;
            }
            let uop = &front.uop;
            // Structural hazards: stall (leave in the pipe).
            if !self.rob.has_space() {
                break;
            }
            if self.iq.len() >= self.cfg.iq_entries {
                break;
            }
            if uop.is_load() && !self.lq.has_space() {
                break;
            }
            if uop.is_store() && !self.sq.has_space() {
                break;
            }
            if let Some(dst) = uop.dst {
                if self.fl[dst.class().index()].free_count() == 0 {
                    break;
                }
            }
            let PipeUop { uop, pred, .. } = self.pipe.pop_front().expect("peeked");
            self.rename_one(uop, pred, &mut rename_cams);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn rename_one(&mut self, uop: DynUop, pred: Option<PredInfo>, rename_cams: &mut usize) {
        self.stats.renamed += 1;
        let seq = self.rob.next_seq();
        debug_assert_eq!(seq, uop.seq, "fetch/rename sequence mismatch");

        // Resolve sources through the current map (before remapping dst —
        // merge moves legitimately read their old destination).
        let mut srcs = [0u32; 4];
        let mut n_srcs = 0u8;
        for s in uop.sources() {
            srcs[n_srcs as usize] = self.prf(s.class(), self.rm.lookup(s)) as u32;
            n_srcs += 1;
        }

        // Store Sets.
        let mut dep_store = None;
        if uop.is_load() {
            dep_store = self.store_sets.load_dependence(uop.pc).filter(|&s| s < seq);
            if dep_store.is_some() {
                self.stats.loads_with_dep += 1;
            }
        } else if uop.is_store() {
            dep_store = self
                .store_sets
                .store_renamed(uop.pc, seq)
                .filter(|&s| s < seq);
        }

        // --- Move elimination (§2) ---
        let mut eliminated = false;
        let mut share: Option<ShareRequest> = None;
        let fp_move = matches!(
            uop.kind,
            UopKind::Move {
                class: RegClass::Fp,
                ..
            }
        );
        if self.cfg.move_elimination
            && uop.kind.eliminable_move()
            && (self.cfg.me_fp_moves || !fp_move)
        {
            let dst = uop.dst.expect("move has dst");
            let src = uop.srcs[0].expect("move has src");
            let req = ShareRequest {
                class: dst.class(),
                preg: self.rm.lookup(src),
                kind: ShareKind::MoveElim {
                    arch_dst: dst,
                    arch_src: src,
                },
            };
            if self.share_at_rename(&req, seq, rename_cams) {
                eliminated = true;
                share = Some(req);
                self.stats.moves_eliminated += 1;
                self.rm.set_shared_flag(src, true);
            } else {
                self.stats.moves_not_eliminated += 1;
            }
        }

        // --- Speculative memory bypassing (§3) ---
        // Full-width loads only: a sub-word load zero-extends part of the
        // forwarded value, so no register bypass can reproduce its result.
        // Without this gate a mispredicted sub-word bypass livelocks under
        // lazy reclaim: the flush retrains toward the same (correct!)
        // distance, the committed producer stays bypassable, and the
        // refetched load traps again forever (found by regshare-fuzz).
        let full_width_load = uop.is_load() && uop.mem.is_some_and(|m| m.size == 8);
        // One-shot conservative refetch after a bypass-mispredict flush.
        let bypass_suppressed = self.no_bypass_seq == Some(seq);
        let mut bypass: Option<BypassInfo> = None;
        if let (true, Some(dst)) = (
            self.cfg.smb && full_width_load && !eliminated && !bypass_suppressed,
            uop.dst,
        ) {
            if let Some(d) = self.dist_pred.predict(uop.pc, uop.history) {
                self.stats.distance_predictions += 1;
                if d >= 1 && d <= seq.0 {
                    let producer_seq = SeqNum(seq.0 - d);
                    let candidate = self.rob.get(producer_seq).and_then(|(ph, pc_)| {
                        let pd = pc_.dst?;
                        if pd.arch.class() != dst.class() {
                            return None;
                        }
                        if ph.committed && !self.cfg.smb_from_committed {
                            return None;
                        }
                        Some((pd.new_preg, ph.committed))
                    });
                    match candidate {
                        Some((preg, from_committed)) => {
                            let req = ShareRequest {
                                class: dst.class(),
                                preg,
                                kind: ShareKind::Bypass { arch_dst: dst },
                            };
                            if self.share_at_rename(&req, seq, rename_cams) {
                                bypass = Some(BypassInfo {
                                    preg,
                                    class: dst.class(),
                                    correct: self.prf_value[self.prf(dst.class(), preg)]
                                        == uop.result,
                                    from_committed,
                                });
                                share = Some(req);
                            }
                        }
                        None => self.stats.bypass_no_producer += 1,
                    }
                }
            }
        }

        // --- Destination renaming ---
        let mut dst_info: Option<DstInfo> = None;
        if let Some(dst) = uop.dst {
            let class = dst.class();
            let preg = match share {
                Some(s) => s.preg,
                None => {
                    let p = self.fl[class.index()].pop().expect("FL checked nonempty");
                    self.tracker.on_alloc(class, p);
                    let i = self.prf(class, p);
                    self.prf_value[i] = uop.result;
                    self.prf_ready[i] = NOT_READY;
                    p
                }
            };
            let needs_cam = self.rm.shared_flag(dst);
            let old = self.rm.remap(dst, preg);
            // §4.3.4 flag maintenance: ME set flags above; loads (under SMB)
            // flag their destination; everything else clears it.
            self.rm
                .set_shared_flag(dst, eliminated || (uop.is_load() && self.cfg.smb));
            dst_info = Some(DstInfo {
                arch: dst,
                new_preg: preg,
                old_preg: old,
                fresh_alloc: share.is_none(),
                needs_cam,
            });
        }
        if uop.is_store() && self.cfg.smb {
            if let Some(data) = uop.store_data_reg() {
                self.rm.set_shared_flag(data, true);
            }
        }

        // --- Branch checkpointing ---
        let mut branch_info: Option<BranchInfo> = None;
        let mut tage_pred: Option<Box<TagePrediction>> = None;
        if let Some(b) = uop.branch {
            let (pred_next, pred_taken, tp, snap) = match pred {
                Some(p) => (p.pred_next, p.pred_taken, p.tage_pred, p.snap),
                None => (b.next_sidx, b.taken, None, None),
            };
            tage_pred = tp;
            let mispredicted = !uop.wrong_path && pred_next != b.next_sidx;
            let ckpt = snap.map(|snap| {
                let id = self.ckpts.push(Checkpoint {
                    rm: self.rm.clone(),
                    fl_heads: [self.fl[0].head(), self.fl[1].head()],
                    tracker: self.tracker.checkpoint(),
                    fetch: snap,
                });
                self.stats.peak_checkpoints = self.stats.peak_checkpoints.max(self.ckpts.len());
                id
            });
            branch_info = Some(BranchInfo {
                kind: b.kind,
                pred_next,
                actual_next: b.next_sidx,
                fallthrough: b.fallthrough_sidx,
                taken: b.taken,
                pred_taken,
                mispredicted,
                ckpt,
            });
        }

        // A bypassed load communicates through the register file: it no
        // longer needs the Store Sets ordering (§3.1 — this is how SMB
        // removes false dependencies), and a *correct* bypass is immune to
        // memory-order violations (§3.1 — how SMB removes traps).
        if bypass.is_some() {
            dep_store = None;
        }

        // --- Queue allocation ---
        let lq_idx = uop.is_load().then(|| {
            self.lq.alloc(LqEntry {
                seq,
                rob_slot: 0,
                mem: uop.mem.expect("load memref"),
                read_started: false,
                fwd_from: None,
                bypassed_ok: bypass.is_some_and(|b| b.correct),
            })
        });
        let sq_idx = uop.is_store().then(|| {
            self.sq.alloc(SqEntry {
                seq,
                rob_slot: 0,
                mem: uop.mem.expect("store memref"),
                executed: false,
            })
        });

        // --- ROB allocation ---
        self.next_uid += 1;
        let entry = RobEntry {
            hot: RobHot {
                seq,
                uid: self.next_uid,
                kind: uop.kind,
                wrong_path: uop.wrong_path,
                completed: eliminated,
                committed: false,
                eliminated,
                agu_done: false,
                read_scheduled: false,
                trap: None,
            },
            cold: RobCold {
                pc: uop.pc,
                sidx: uop.sidx,
                dst: dst_info,
                share,
                bypass,
                mem: uop.mem,
                lq: lq_idx,
                sq: sq_idx,
                store_data: uop.store_data_reg(),
                branch: branch_info,
                history: uop.history,
                result: uop.result,
            },
            tage_pred,
        };
        self.rob.alloc(entry);

        // --- IQ ---
        if !eliminated {
            if let Some(b) = bypass {
                // The bypassed register is an extra source (validation read).
                srcs[n_srcs as usize] = self.prf(b.class, b.preg) as u32;
                n_srcs += 1;
            }
            let entry = IqEntry {
                seq,
                class: uop.kind.exec_class(),
                srcs,
                n_srcs,
                dep_store,
                waited_dep: false,
            };
            let wait = self.park_or_bound(&entry);
            self.iq.push(entry);
            self.iq_wait.push(wait);
        }
    }

    /// One rename-time sharing attempt, ME or SMB alike: claims a tracker
    /// rename CAM port (§4.3.4), asks the tracker to share `req.preg`, and
    /// counts why the attempt aborted. Returns whether the share was taken.
    fn share_at_rename(
        &mut self,
        req: &ShareRequest,
        seq: SeqNum,
        rename_cams: &mut usize,
    ) -> bool {
        let ports = self.cfg.tracker_rename_ports;
        if ports != 0 && *rename_cams >= ports {
            self.stats.bypass_aborted_ports += 1;
            return false;
        }
        *rename_cams += 1;
        if !self.tracker.try_share(req) {
            self.stats.bypass_aborted_tracker += 1;
            return false;
        }
        if let Some(last) = self.last_share_seq {
            self.stats.share_distance.add(seq.0.saturating_sub(last));
        }
        self.last_share_seq = Some(seq.0);
        true
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if self.now < self.fetch_stall_until {
            return;
        }
        let pipe_cap = self.cfg.fetch_pipe_capacity();
        let mut taken_branches = 0usize;
        for _ in 0..self.cfg.frontend_width {
            if self.pipe.len() >= pipe_cap {
                break;
            }
            let mut uop = match self.pending_fetch.take() {
                Some(u) => u,
                None => self.stream.next_uop(),
            };
            // Instruction cache.
            let line = uop.pc & !63;
            if line != self.last_fetch_line {
                let t = self.mem.ifetch(uop.pc, Cycle(self.now));
                self.last_fetch_line = line;
                if t.0 > self.now + 1 {
                    self.pending_fetch = Some(uop);
                    self.fetch_stall_until = t.0;
                    break;
                }
            }
            uop.history = self.spec_hist;

            let mut pred = None;
            let mut stop_group = false;
            if let Some(b) = uop.branch {
                let (pred_next, pred_taken, tp, snap) = self.predict_branch(&uop, b.kind);
                if pred_taken {
                    taken_branches += 1;
                    if taken_branches >= 2 {
                        stop_group = true; // over at most one taken branch
                    }
                }
                // Wrong direction/target on the correct path: fork the
                // genuine wrong path.
                if !uop.wrong_path && pred_next != b.next_sidx {
                    self.stream.mispredict_fork(uop.seq, pred_next);
                }
                pred = Some(PredInfo {
                    pred_next,
                    pred_taken,
                    tage_pred: tp,
                    snap,
                });
            }
            self.pipe.push_back(PipeUop {
                ready: self.now + self.cfg.frontend_depth,
                uop,
                pred,
            });
            if stop_group || self.now < self.fetch_stall_until {
                break;
            }
        }
    }

    /// Predicts a branch at fetch; updates speculative history/RAS/BTB.
    fn predict_branch(
        &mut self,
        uop: &DynUop,
        kind: BranchKind,
    ) -> (
        u32,
        bool,
        Option<Box<TagePrediction>>,
        Option<Box<FetchSnap>>,
    ) {
        let b = uop.branch.expect("branch outcome");
        let pc = uop.pc;
        let fallthrough = b.fallthrough_sidx;
        // Snapshot (pre-update) for mispredictable kinds. Reuses a pooled
        // box when one is available — `snapshot_into` and the RAS restore
        // overwrite in place, so the steady state takes no allocations.
        let snap = if matches!(kind, BranchKind::Conditional | BranchKind::Return) {
            Some(match self.snap_pool.pop() {
                Some(mut s) => {
                    self.tage.snapshot_into(&mut s.tage);
                    s.ras.restore(&self.ras);
                    s.hist = self.spec_hist;
                    s
                }
                None => Box::new(FetchSnap {
                    tage: self.tage.snapshot(),
                    ras: self.ras.clone(),
                    hist: self.spec_hist,
                }),
            })
        } else {
            None
        };

        let (pred_next, pred_taken, tp) = match kind {
            BranchKind::Conditional => {
                let tp = self.tage.predict(pc);
                // On the wrong path, fetch follows the forked machine's own
                // outcomes (nested forks are second-order).
                let taken = if uop.wrong_path { b.taken } else { tp.taken };
                let target = self.cond_target(uop.sidx).unwrap_or(fallthrough);
                let next = if taken { target } else { fallthrough };
                let boxed = match self.tage_pool.pop() {
                    Some(mut bx) => {
                        *bx = tp;
                        bx
                    }
                    None => Box::new(tp),
                };
                (next, taken, Some(boxed))
            }
            BranchKind::Direct | BranchKind::Call => {
                // Direct transfers: target known at decode; a BTB miss costs
                // a fetch bubble but never a wrong path.
                if self.btb.lookup(pc) != Some(b.next_sidx) {
                    self.fetch_stall_until =
                        (self.now + self.cfg.btb_miss_bubble).max(self.fetch_stall_until);
                    self.btb.update(pc, b.next_sidx);
                }
                if kind == BranchKind::Call {
                    self.ras.push(fallthrough);
                }
                (b.next_sidx, true, None)
            }
            BranchKind::Return => {
                let predicted = self.ras.pop().unwrap_or(0);
                (predicted, true, None)
            }
        };
        // Speculative history advances by the *predicted* direction.
        self.tage.update_history(pred_taken, pc);
        self.spec_hist = self.spec_hist.push(pred_taken, pc);
        (pred_next, pred_taken, tp, snap)
    }

    /// Taken target of the conditional branch at `sidx`.
    fn cond_target(&self, sidx: u32) -> Option<u32> {
        match self.program.op(sidx) {
            Op::CondBranch { target, .. } => Some(*target),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // invariants
    // ------------------------------------------------------------------

    /// One-line pipeline state summary for deadlock diagnostics.
    pub fn debug_state(&self) -> String {
        let head = self.rob.head().map(|(h, _)| {
            format!(
                "seq={} kind={:?} completed={} agu={} sched={} trap={:?} wp={}",
                h.seq, h.kind, h.completed, h.agu_done, h.read_scheduled, h.trap, h.wrong_path
            )
        });
        format!(
            "now={} head={:?} rob={}/{} iq={} lq={} sq={} fl=({},{}) pipe={} fstall={} rstall={} shared={}",
            self.now,
            head,
            self.rob.occupancy(),
            self.rob.in_flight(),
            self.iq.len(),
            self.lq.len(),
            self.sq.len(),
            self.fl[0].free_count(),
            self.fl[1].free_count(),
            self.pipe.len(),
            self.fetch_stall_until,
            self.rename_stall_until,
            self.tracker.shared_count(),
        )
    }

    /// Audits register-file accounting: every physical register must be
    /// either free or reachable (RM, CRM, or a live ROB entry), never both,
    /// and the free list must hold no duplicates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn audit_registers(&self) -> Result<(), String> {
        for class in RegClass::ALL {
            let ci = class.index();
            let pregs = self.cfg.pregs_per_class;
            let mut free = vec![false; pregs];
            for p in self.fl[ci].iter_free() {
                if free[p.index()] {
                    return Err(format!("{class}: {p} appears twice in the free list"));
                }
                free[p.index()] = true;
            }
            let mut reachable = vec![false; pregs];
            for (a, p) in self.rm.iter().chain(self.crm.iter()) {
                if a.class() == class {
                    reachable[p.index()] = true;
                }
            }
            for (_, cold) in self.rob.iter() {
                if let Some(d) = cold.dst {
                    if d.arch.class() == class {
                        reachable[d.new_preg.index()] = true;
                        reachable[d.old_preg.index()] = true;
                    }
                }
            }
            for p in 0..pregs {
                if free[p] && reachable[p] && !self.tracker.is_shared(class, PhysReg::new(p)) {
                    // A freed register may still be named by a *committed*
                    // CRM entry only if sharing semantics freed it early —
                    // that would be a tracker bug.
                    return Err(format!(
                        "{class}: p{p} is simultaneously free and reachable"
                    ));
                }
                if !free[p] && !reachable[p] {
                    return Err(format!("{class}: p{p} leaked (neither free nor reachable)"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Between a call's commit and its return's, the architectural RAS holds
    /// the call's return address (its fall-through), as the speculative RAS
    /// does after fetch, so a commit-time flush inside the callee restores a
    /// return prediction that is right.
    #[test]
    fn committed_call_pushes_its_return_address() {
        let ops = vec![Op::Call { target: 2 }, Op::Halt, Op::Ret];
        let mut sim = Simulator::new(&Program::validated(ops).unwrap(), CoreConfig::hpca16());
        sim.run(1); // the call commits; `run` stops before the return does
        assert_eq!(sim.arch_ras.snapshot().pop(), Some(1));
    }
}
