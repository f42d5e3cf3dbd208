//! The fetch stream: what the out-of-order front-end actually consumes.
//!
//! A [`FetchStream`] serves micro-ops in fetch order. On the correct path it
//! steps the oracle [`Machine`] and buffers everything not yet retired so
//! that pipeline flushes (branch mispredictions resolved at execute, memory
//! traps and bypass-validation failures resolved at commit) can *replay*
//! already-fetched micro-ops without rewinding the interpreter. Branch
//! micro-ops additionally capture a [`ForkState`] so that a later
//! misprediction of a replayed branch can still enter a genuine wrong path.

use crate::interp::{ForkState, Machine, TracedStep, WrongPath};
use crate::op::DynUop;
use crate::program::Program;
use regshare_types::hasher::FastMap;
use regshare_types::SeqNum;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

struct BufEntry {
    uop: DynUop,
    /// Post-branch fork state, captured only for branches.
    fork: Option<Box<ForkState>>,
}

/// Longest correct-path prefix recorded per stream, in µ-ops. Streams that
/// run past the cap replay the cached prefix and continue live from the
/// exact replayed machine state, so the cap only bounds memory, never
/// changes behavior.
pub const RECORD_CAP: usize = 1 << 16;

/// Maximum cached streams. When full the whole cache is cleared before the
/// next publish (generational eviction): fuzz soaks and sweeps are
/// program-major, so by the time the cache fills, older entries are dead.
const CACHE_CAP: usize = 32;

/// Content-addressed cache of cracked micro-op streams, keyed by
/// `(program digest, fetch-path key)`. The correct-path stream is a pure
/// function of the program, so every simulator over the same key replays the
/// recorded prefix instead of re-decoding through the interpreter.
type StreamCache = FastMap<(u64, u64), Arc<Vec<TracedStep>>>;

static STREAM_CACHE: OnceLock<Mutex<StreamCache>> = OnceLock::new();

static ORACLE_DECODES: AtomicU64 = AtomicU64::new(0);
static REPLAYED_UOPS: AtomicU64 = AtomicU64::new(0);
static STREAM_HITS: AtomicU64 = AtomicU64::new(0);
static STREAM_MISSES: AtomicU64 = AtomicU64::new(0);
static STREAMS_PUBLISHED: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<StreamCache> {
    STREAM_CACHE.get_or_init(|| Mutex::new(FastMap::default()))
}

/// Process-wide stream-cache counters (monotonic since process start).
///
/// Deliberately *not* part of [`crate::Machine`] or any run's statistics:
/// whether a run was served from the cache is invisible to the simulated
/// architecture, and folding these into its results would make the same
/// run report differently depending on whether the cache is warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCacheStats {
    /// Correct-path µ-ops decoded live by the interpreter. Flushed from each
    /// stream when it is dropped.
    pub oracle_decodes: u64,
    /// Correct-path µ-ops served by replaying a cached stream.
    pub replayed_uops: u64,
    /// Stream constructions that found a cached stream for their key.
    pub stream_hits: u64,
    /// Stream constructions that found nothing and started recording.
    pub stream_misses: u64,
    /// Recorded streams published into the cache.
    pub streams_published: u64,
}

/// Reads the process-wide [`StreamCacheStats`].
///
/// Per-stream decode/replay tallies are flushed when the stream (or the
/// simulator owning it) is dropped, so compare snapshots taken *between*
/// runs, not mid-run.
pub fn stream_cache_stats() -> StreamCacheStats {
    StreamCacheStats {
        oracle_decodes: ORACLE_DECODES.load(Ordering::Relaxed),
        replayed_uops: REPLAYED_UOPS.load(Ordering::Relaxed),
        stream_hits: STREAM_HITS.load(Ordering::Relaxed),
        stream_misses: STREAM_MISSES.load(Ordering::Relaxed),
        streams_published: STREAMS_PUBLISHED.load(Ordering::Relaxed),
    }
}

/// Fetch-order micro-op source with wrong-path execution and replay.
///
/// # Examples
///
/// ```
/// use regshare_isa::program::ProgramBuilder;
/// use regshare_isa::op::Op;
/// use regshare_isa::FetchStream;
/// use regshare_types::ArchReg;
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new();
/// b.push(Op::LoadImm { dst: ArchReg::int(0), imm: 1 });
/// b.push(Op::Jump { target: 0 });
/// let mut fs = FetchStream::new(Arc::new(b.build()));
/// let u0 = fs.next_uop();
/// let _u1 = fs.next_uop();
/// // A commit-time flush replays from an earlier sequence number:
/// fs.recover_to(u0.seq);
/// assert_eq!(fs.next_uop().seq, u0.seq);
/// ```
pub struct FetchStream {
    machine: Machine,
    buf: VecDeque<BufEntry>,
    /// Sequence number of `buf.front()`.
    base_seq: u64,
    /// Next correct-path sequence number to deliver.
    cursor: u64,
    wrong: Option<WrongPath>,
    /// Cache key: `(program digest, fetch-path key)`.
    key: (u64, u64),
    /// Cached stream for `key`, indexed by absolute sequence number.
    cached: Option<Arc<Vec<TracedStep>>>,
    /// Recording buffer on a cache miss; `None` once published, once the
    /// machine state stops being a cold-start prefix (snapshot restore), or
    /// while a cache-hit stream is still inside the cached prefix. A warm
    /// stream that runs past the prefix re-arms this with a copy of the
    /// prefix so the extended stream can be republished (longest wins).
    rec: Option<Vec<TracedStep>>,
    /// Correct-path µ-ops decoded live by this stream.
    decodes: u64,
    /// Correct-path µ-ops replayed from the cache by this stream.
    replays: u64,
}

impl std::fmt::Debug for FetchStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchStream")
            .field("base_seq", &self.base_seq)
            .field("cursor", &self.cursor)
            .field("buffered", &self.buf.len())
            .field("on_wrong_path", &self.wrong.is_some())
            .finish()
    }
}

impl FetchStream {
    /// Creates a stream over `program`, positioned at its entry, using the
    /// default fetch-path key (see [`FetchStream::with_fetch_key`]).
    pub fn new(program: Arc<Program>) -> FetchStream {
        FetchStream::with_fetch_key(program, 0)
    }

    /// Creates a stream over `program` under an explicit fetch-path key.
    ///
    /// The key partitions the stream cache: streams recorded under one
    /// fetch-path configuration are never replayed under another, even for
    /// the same program. Callers whose front-end configuration shapes the
    /// fetched stream pass a digest of those knobs here.
    pub fn with_fetch_key(program: Arc<Program>, fetch_key: u64) -> FetchStream {
        let key = (program.digest(), fetch_key);
        let cached = cache()
            .lock()
            .expect("stream cache poisoned")
            .get(&key)
            .cloned();
        let rec = if cached.is_some() {
            STREAM_HITS.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            STREAM_MISSES.fetch_add(1, Ordering::Relaxed);
            Some(Vec::new())
        };
        FetchStream {
            machine: Machine::new(program),
            buf: VecDeque::new(),
            base_seq: 0,
            cursor: 0,
            wrong: None,
            key,
            cached,
            rec,
            decodes: 0,
            replays: 0,
        }
    }

    /// Correct-path µ-ops this stream decoded live (not served by the
    /// stream cache). Zero for a fully warm run.
    pub fn oracle_decodes(&self) -> u64 {
        self.decodes
    }

    /// Correct-path µ-ops this stream replayed from the stream cache.
    pub fn replayed_uops(&self) -> u64 {
        self.replays
    }

    /// Publishes the recorded prefix into the process-wide cache. The
    /// longest recording for a key wins: concurrent recorders produce
    /// identical content over their common prefix (the stream is a pure
    /// function of the program), so keeping the longer one only widens
    /// warm coverage — it can never change replayed content.
    fn publish_recording(&mut self) {
        let Some(rec) = self.rec.take() else { return };
        if rec.is_empty() {
            return;
        }
        let mut map = cache().lock().expect("stream cache poisoned");
        if let Some(existing) = map.get(&self.key) {
            if existing.len() >= rec.len() {
                return;
            }
        } else if map.len() >= CACHE_CAP {
            map.clear();
        }
        map.insert(self.key, Arc::new(rec));
        STREAMS_PUBLISHED.fetch_add(1, Ordering::Relaxed);
    }

    /// The program being fetched.
    pub fn program(&self) -> &Arc<Program> {
        self.machine.program()
    }

    /// Whether fetch is currently on a mispredicted path.
    pub fn on_wrong_path(&self) -> bool {
        self.wrong.is_some()
    }

    /// Whether the oracle has executed a `Halt`.
    pub fn is_halted(&self) -> bool {
        self.machine.is_halted()
    }

    /// Delivers the next micro-op in fetch order (wrong path if active).
    pub fn next_uop(&mut self) -> DynUop {
        if let Some(wp) = &mut self.wrong {
            return wp.step(self.machine.memory());
        }
        debug_assert!(self.cursor >= self.base_seq);
        let idx = (self.cursor - self.base_seq) as usize;
        if idx < self.buf.len() {
            // Replay after a flush.
            let uop = self.buf[idx].uop.clone();
            self.cursor += 1;
            return uop;
        }
        debug_assert_eq!(self.cursor, self.machine.next_seq().0);
        let pos = self.cursor as usize;
        let replayable = matches!(&self.cached, Some(steps) if pos < steps.len());
        let uop = if replayable {
            // Cache hit: apply the recorded step's effects to the oracle
            // machine (keeping its state byte-identical to a live decode)
            // and hand out the recorded µ-op.
            let steps = self.cached.as_ref().expect("checked above");
            let step = &steps[pos];
            self.machine.replay_step(step);
            self.replays += 1;
            step.uop.clone()
        } else {
            let was_halted = self.machine.is_halted();
            if !was_halted && self.rec.is_none() {
                if let Some(steps) = &self.cached {
                    if pos == steps.len() {
                        // Ran off the end of the cached prefix (this run
                        // speculates deeper than the one that recorded it).
                        // Resume recording on top of the prefix so the
                        // longer stream replaces the cached one on publish
                        // and the next warm run never decodes this tail.
                        self.rec = Some(steps.as_ref().clone());
                    }
                }
            }
            let step = self.machine.step_traced();
            if was_halted {
                // Post-halt Nop spins decode nothing and are never recorded:
                // the cached stream ends at the halting step and a warm
                // replay regenerates the spins from the halted machine.
                self.rec = None;
            } else {
                self.decodes += 1;
                if let Some(rec) = self.rec.as_mut() {
                    debug_assert_eq!(rec.len() as u64, step.uop.seq.0);
                    rec.push(step.clone());
                    if step.halted || rec.len() >= RECORD_CAP {
                        self.publish_recording();
                    }
                }
            }
            step.uop
        };
        let fork = uop.branch.map(|b| {
            // Capture post-branch state so this branch can later fork either
            // direction (actual target for replay bookkeeping; the core
            // overrides the start index with the predicted one).
            Box::new(self.machine.fork_state(b.next_sidx))
        });
        self.buf.push_back(BufEntry {
            uop: uop.clone(),
            fork,
        });
        self.cursor += 1;
        uop
    }

    /// Enters the wrong path after the (correct-path) branch `branch_seq`,
    /// starting at static index `predicted_sidx`. Subsequent [`Self::next_uop`]
    /// calls yield genuinely executed wrong-path micro-ops numbered from
    /// `branch_seq + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `branch_seq` is not a buffered branch.
    pub fn mispredict_fork(&mut self, branch_seq: SeqNum, predicted_sidx: u32) {
        let idx = branch_seq
            .0
            .checked_sub(self.base_seq)
            .expect("branch older than retire point") as usize;
        let entry = self
            .buf
            .get(idx)
            .unwrap_or_else(|| panic!("branch {branch_seq} not buffered"));
        let mut state = entry
            .fork
            .as_deref()
            .cloned()
            .unwrap_or_else(|| panic!("{branch_seq} is not a branch"));
        let max = self.program().len() as u32 - 1;
        state.ip = predicted_sidx.min(max);
        self.wrong = Some(WrongPath::new(
            Arc::clone(self.machine.program()),
            state,
            branch_seq.next(),
        ));
    }

    /// Recovers fetch to the correct path at `next_seq` after a squash
    /// (branch misprediction: `branch_seq + 1`; commit-time trap: the
    /// faulting micro-op's own sequence number, which is then re-fetched).
    ///
    /// # Panics
    ///
    /// Panics if `next_seq` predates the retire point.
    pub fn recover_to(&mut self, next_seq: SeqNum) {
        assert!(
            next_seq.0 >= self.base_seq,
            "cannot recover to retired seq {next_seq} (base {})",
            self.base_seq
        );
        self.wrong = None;
        self.cursor = next_seq.0;
    }

    /// Releases replay state for micro-ops with `seq < upto` (they have
    /// committed and can never be re-fetched).
    pub fn retire_upto(&mut self, upto: SeqNum) {
        while self.base_seq < upto.0 && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base_seq += 1;
        }
    }

    /// Number of buffered (un-retired) correct-path micro-ops.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl Drop for FetchStream {
    fn drop(&mut self) {
        // A stream dropped mid-program still publishes its prefix: later
        // streams replay it and continue live from the exact machine state.
        self.publish_recording();
        ORACLE_DECODES.fetch_add(self.decodes, Ordering::Relaxed);
        REPLAYED_UOPS.fetch_add(self.replays, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluOp, Cond, Op, Operand};
    use crate::program::ProgramBuilder;
    use regshare_types::ArchReg;

    fn r(i: usize) -> ArchReg {
        ArchReg::int(i)
    }

    /// Alternating-taken loop: r0 toggles between 0 and 1.
    fn toggle_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        // 0: r0 ^= 1
        b.push(Op::IntAlu {
            op: AluOp::Xor,
            dst: r(0),
            src1: r(0),
            src2: Operand::Imm(1),
        });
        // 1: if r0 bit set goto 3
        b.push(Op::CondBranch {
            cond: Cond::BitSet,
            src1: r(0),
            src2: Operand::Imm(0),
            target: 3,
        });
        // 2: r1 += 2
        b.push(Op::IntAlu {
            op: AluOp::Add,
            dst: r(1),
            src1: r(1),
            src2: Operand::Imm(2),
        });
        // 3: r2 += 1 ; 4: jump 0
        b.push(Op::IntAlu {
            op: AluOp::Add,
            dst: r(2),
            src1: r(2),
            src2: Operand::Imm(1),
        });
        b.push(Op::Jump { target: 0 });
        Arc::new(b.build())
    }

    #[test]
    fn sequential_delivery_is_program_order() {
        let mut fs = FetchStream::new(toggle_program());
        let seqs: Vec<u64> = (0..20).map(|_| fs.next_uop().seq.0).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn replay_after_recover_yields_identical_uops() {
        let mut fs = FetchStream::new(toggle_program());
        let first: Vec<DynUop> = (0..10).map(|_| fs.next_uop()).collect();
        fs.recover_to(first[4].seq);
        for want in &first[4..] {
            let got = fs.next_uop();
            assert_eq!(got.seq, want.seq);
            assert_eq!(got.sidx, want.sidx);
            assert_eq!(got.result, want.result);
        }
        // Continues seamlessly past the previously fetched region.
        assert_eq!(fs.next_uop().seq.0, 10);
    }

    #[test]
    fn wrong_path_fork_and_recovery() {
        let mut fs = FetchStream::new(toggle_program());
        // Find the first conditional branch.
        let br = loop {
            let u = fs.next_uop();
            if let Some(b) = u.branch {
                if b.kind == crate::op::BranchKind::Conditional {
                    break u;
                }
            }
        };
        let b = br.branch.unwrap();
        let wrong_sidx = if b.taken { b.fallthrough_sidx } else { 3 };
        fs.mispredict_fork(br.seq, wrong_sidx);
        assert!(fs.on_wrong_path());
        let w1 = fs.next_uop();
        assert!(w1.wrong_path);
        assert_eq!(w1.seq, br.seq.next());
        assert_eq!(w1.sidx, wrong_sidx);
        let _w2 = fs.next_uop();
        // Resolve: recover to the correct path.
        fs.recover_to(br.seq.next());
        assert!(!fs.on_wrong_path());
        let c = fs.next_uop();
        assert!(!c.wrong_path);
        assert_eq!(c.seq, br.seq.next());
        assert_eq!(c.sidx, b.next_sidx);
    }

    #[test]
    fn retire_prunes_buffer() {
        let mut fs = FetchStream::new(toggle_program());
        for _ in 0..50 {
            fs.next_uop();
        }
        assert_eq!(fs.buffered(), 50);
        fs.retire_upto(SeqNum(30));
        assert_eq!(fs.buffered(), 20);
        // Can still recover to un-retired seqs.
        fs.recover_to(SeqNum(30));
        assert_eq!(fs.next_uop().seq.0, 30);
    }

    #[test]
    #[should_panic]
    fn recover_before_retire_point_panics() {
        let mut fs = FetchStream::new(toggle_program());
        for _ in 0..10 {
            fs.next_uop();
        }
        fs.retire_upto(SeqNum(5));
        fs.recover_to(SeqNum(3));
    }

    #[test]
    fn debug_format_mentions_state() {
        let fs = FetchStream::new(toggle_program());
        let s = format!("{fs:?}");
        assert!(s.contains("FetchStream"));
    }
}
