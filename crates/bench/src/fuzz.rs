//! The differential conformance harness behind `regshare-fuzz`.
//!
//! Every generated program ([`regshare_workloads::fuzz`]) is run through
//! the out-of-order simulator under **all five tracker presets**
//! ([`crate::scenario::CONFIG_PRESETS`]: baseline, ME, SMB, ME+SMB, lazy
//! reclaim) and cross-checked against the in-order oracle on two axes:
//!
//! - the **architectural digest** ([`regshare_isa::Machine::run_digest`] vs
//!   `Simulator::arch_digest`) — the committed trace must be the in-order
//!   trace, µ-op for µ-op;
//! - the **register audit** (`Simulator::audit_registers`) — the tracker
//!   must never have freed a physical register with live consumers, which
//!   is the paper's core safety claim.
//!
//! A simulator panic (an internal assert, or `Simulator::run`'s deadlock
//! check) is caught per preset and counts as a divergence too.
//!
//! A divergence is minimized by a **greedy shrinker** over the generated
//! plan: blocks are removed one at a time and trip counts capped while the
//! failure persists. Because each block's code is emitted from its own
//! salt-seeded RNG, removals never perturb the survivors, so the final
//! [`ShrinkSpec`] plus the original `(profile, seed)` is a complete, small
//! reproducer — exactly what the failure report prints as a command line.
//!
//! [`run_cases`] fans a case list across the sweep engine's worker pool
//! (`sweep::par_map`): results merge by case index, so reports are
//! byte-identical at any parallelism level.

use crate::options::RunOptions;
use crate::scenario::{VariantSpec, CONFIG_PRESETS};
use crate::sweep::panic_detail;
use regshare_core::{CoreConfig, Simulator};
use regshare_isa::interp::Machine;
use regshare_isa::Program;
use regshare_workloads::fuzz::{FuzzPlan, FuzzSpec, ShrinkSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The preset used for deterministic fault injection (the most aggressive
/// sharing point — also the last one checked, so real divergences in the
/// other presets still surface first under injection).
pub const INJECT_PRESET: &str = "lazy_reclaim";

/// The five tracker presets every generated program is checked under, in
/// [`CONFIG_PRESETS`] order.
pub fn tracker_presets() -> Vec<(&'static str, CoreConfig)> {
    CONFIG_PRESETS
        .iter()
        .map(|(name, _)| {
            let cfg = VariantSpec::preset(*name)
                .to_config()
                .expect("built-in presets are valid");
            cfg.validate().expect("built-in presets validate");
            (*name, cfg)
        })
        .collect()
}

/// How one preset diverged from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The simulator panicked (an internal assert, or a deadlock); the
    /// payload is the rendered panic message.
    Panicked(String),
    /// The committed trace differs from the in-order trace.
    DigestMismatch {
        /// Oracle digest.
        expected: u64,
        /// Simulator digest.
        got: u64,
    },
    /// Register accounting failed after the run.
    AuditFailed(String),
}

/// A divergence: which preset failed, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Preset label (see [`CONFIG_PRESETS`]).
    pub preset: String,
    /// Failure detail.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DivergenceKind::Panicked(detail) => {
                write!(f, "preset {}: simulator panicked: {detail}", self.preset)
            }
            DivergenceKind::DigestMismatch { expected, got } => write!(
                f,
                "preset {}: digest mismatch (oracle {expected:#018x}, sim {got:#018x})",
                self.preset
            ),
            DivergenceKind::AuditFailed(msg) => {
                write!(f, "preset {}: register audit failed: {msg}", self.preset)
            }
        }
    }
}

/// Knobs for one differential pass.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// µ-ops run per (program, preset) — and per oracle replay.
    pub uops: u64,
    /// Worker threads for [`run_cases`] (does not affect results).
    pub jobs: usize,
    /// Deterministic self-test fault: flips the computed digest of
    /// [`INJECT_PRESET`] so the divergence → shrink → reproduce pipeline
    /// can be exercised end to end without a real simulator bug.
    pub inject_fault: bool,
    /// Budget of differential checks a single shrink may spend.
    pub max_shrink_checks: usize,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            uops: 4_000,
            jobs: RunOptions::default().job_count(),
            inject_fault: false,
            max_shrink_checks: 200,
        }
    }
}

/// Differentially checks one plan under every tracker preset. `None` means
/// the plan conforms.
pub fn check_plan(plan: &FuzzPlan, opts: &FuzzOptions) -> Option<Divergence> {
    let program = plan.build();
    let expected = Machine::new(Arc::new(program.clone())).run_digest(opts.uops);
    tracker_presets()
        .into_iter()
        .find_map(|(preset, cfg)| check_preset(&program, expected, preset, cfg, opts))
}

/// Runs `program` under one preset and checks it against the oracle
/// digest `expected`. A panic inside the simulator is caught and reported
/// as [`DivergenceKind::Panicked`], so it is shrunk and reproduced like
/// any other divergence instead of killing the whole run.
fn check_preset(
    program: &Program,
    expected: u64,
    preset: &str,
    cfg: CoreConfig,
    opts: &FuzzOptions,
) -> Option<Divergence> {
    // Nothing outlives the closure but its result, so a panic cannot leave
    // shared state half-updated.
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(program, cfg);
        sim.run(opts.uops);
        let mut got = sim.arch_digest();
        if opts.inject_fault && preset == INJECT_PRESET {
            got ^= 1;
        }
        if got != expected {
            return Some(DivergenceKind::DigestMismatch { expected, got });
        }
        sim.audit_registers().err().map(DivergenceKind::AuditFailed)
    }));
    let kind =
        checked.unwrap_or_else(|payload| Some(DivergenceKind::Panicked(panic_detail(payload))))?;
    Some(Divergence {
        preset: preset.to_string(),
        kind,
    })
}

/// Differentially checks one spec with an optional shrink applied.
pub fn check_spec(spec: &FuzzSpec, shrink: &ShrinkSpec, opts: &FuzzOptions) -> Option<Divergence> {
    check_plan(&spec.plan().apply(shrink), opts)
}

/// The outcome of shrinking a failing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkReport {
    /// The minimizing spec (replayable via `--shrink`).
    pub spec: ShrinkSpec,
    /// Blocks in the original plan.
    pub blocks_before: usize,
    /// Blocks surviving the shrink.
    pub blocks_after: usize,
    /// Differential checks spent.
    pub checks: usize,
}

/// Greedily minimizes a failing case: one pass loop removing blocks while
/// the divergence persists, then the smallest power-of-two trip cap that
/// still fails. Returns `None` if the unshrunk case does not fail (nothing
/// to minimize).
pub fn shrink(spec: &FuzzSpec, opts: &FuzzOptions) -> Option<ShrinkReport> {
    let plan = spec.plan();
    check_plan(&plan, opts)?;
    Some(shrink_failing_plan(&plan, opts))
}

/// The shrink search proper, for a plan already known to fail — callers
/// that just observed the divergence (the batch runner) skip the redundant
/// full re-check [`shrink`] performs as its entry gate.
fn shrink_failing_plan(plan: &FuzzPlan, opts: &FuzzOptions) -> ShrinkReport {
    let mut checks = 0usize;
    fn check(
        plan: &FuzzPlan,
        opts: &FuzzOptions,
        checks: &mut usize,
        shrink_spec: &ShrinkSpec,
    ) -> Option<Divergence> {
        *checks += 1;
        check_plan(&plan.apply(shrink_spec), opts)
    }
    let blocks_before = plan.blocks.len();

    let mut keep: Vec<usize> = plan.blocks.iter().map(|b| b.index).collect();
    let mut changed = true;
    while changed && checks < opts.max_shrink_checks {
        changed = false;
        let mut i = 0;
        while i < keep.len() && checks < opts.max_shrink_checks {
            let mut candidate = keep.clone();
            candidate.remove(i);
            let spec_try = ShrinkSpec {
                keep: Some(candidate.clone()),
                trip_cap: None,
            };
            if check(plan, opts, &mut checks, &spec_try).is_some() {
                keep = candidate; // removal keeps the failure: leave it out
                changed = true;
            } else {
                i += 1;
            }
        }
    }

    let mut trip_cap = None;
    for cap in [1u64, 2, 4, 8, 16] {
        if checks >= opts.max_shrink_checks {
            break;
        }
        let spec_try = ShrinkSpec {
            keep: Some(keep.clone()),
            trip_cap: Some(cap),
        };
        if check(plan, opts, &mut checks, &spec_try).is_some() {
            trip_cap = Some(cap);
            break;
        }
    }

    let blocks_after = keep.len();
    ShrinkReport {
        spec: ShrinkSpec {
            keep: (blocks_after < blocks_before).then_some(keep),
            trip_cap,
        },
        blocks_before,
        blocks_after,
        checks,
    }
}

/// One fuzzed case's outcome: conforming, or a divergence with its shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// The case.
    pub spec: FuzzSpec,
    /// The divergence of the *unshrunk* case, with the shrink report, when
    /// the case failed.
    pub failure: Option<(Divergence, ShrinkReport)>,
}

impl CaseResult {
    /// The `fuzz` binary argument string that replays this failure (shrunk
    /// when the shrinker found a smaller plan).
    pub fn repro_args(&self, opts: &FuzzOptions) -> String {
        let (_, shrink_report) = self.failure.as_ref().expect("repro of a failing case");
        let mut args = format!(
            "--profile {} --seed {} --uops {}",
            self.spec.profile, self.spec.seed, opts.uops
        );
        if !shrink_report.spec.is_noop() {
            args.push_str(&format!(" --shrink \"{}\"", shrink_report.spec));
        }
        if opts.inject_fault {
            args.push_str(" --inject-fault");
        }
        args
    }
}

/// Checks every case on the sweep engine's worker pool (`sweep::par_map`),
/// shrinking failures in place; results merge **by case index**, so the
/// output — and therefore [`render_report`] — is byte-identical at any
/// `jobs` level.
pub fn run_cases(specs: &[FuzzSpec], opts: &FuzzOptions) -> Vec<CaseResult> {
    crate::sweep::par_map(specs.len(), opts.jobs, |i| {
        let spec = specs[i].clone();
        let plan = spec.plan();
        let failure = check_plan(&plan, opts)
            .map(|divergence| (divergence, shrink_failing_plan(&plan, opts)));
        CaseResult { spec, failure }
    })
}

/// Renders the stable differential report: a per-profile tally, then one
/// block per failure (divergence, shrink summary, repro command line).
/// Depends only on the case list and options — never on timing or worker
/// count.
pub fn render_report(results: &[CaseResult], opts: &FuzzOptions) -> String {
    let presets = tracker_presets().len();
    let mut out = String::new();
    out.push_str("# regshare-fuzz differential\n");
    out.push_str(&format!(
        "programs: {}  presets: {presets}  uops/run: {}\n",
        results.len(),
        opts.uops
    ));
    if opts.inject_fault {
        out.push_str("fault injection: ON (self-test of the divergence pipeline)\n");
    }
    // Per-profile tally in first-seen order.
    let mut profiles: Vec<(String, usize, usize)> = Vec::new();
    for r in results {
        match profiles.iter_mut().find(|(p, _, _)| *p == r.spec.profile) {
            Some((_, total, failed)) => {
                *total += 1;
                *failed += usize::from(r.failure.is_some());
            }
            None => profiles.push((r.spec.profile.clone(), 1, usize::from(r.failure.is_some()))),
        }
    }
    for (profile, total, failed) in &profiles {
        if *failed == 0 {
            out.push_str(&format!("  {profile:<10} {total:>5} programs ok\n"));
        } else {
            out.push_str(&format!(
                "  {profile:<10} {total:>5} programs, {failed} DIVERGED\n"
            ));
        }
    }
    let failures: Vec<&CaseResult> = results.iter().filter(|r| r.failure.is_some()).collect();
    if failures.is_empty() {
        out.push_str("all programs conform to the in-order oracle\n");
    } else {
        out.push_str(&format!("\n{} failing case(s):\n", failures.len()));
        for r in &failures {
            let (divergence, shrink_report) = r.failure.as_ref().expect("filtered");
            out.push_str(&format!("FAIL {}: {divergence}\n", r.spec.name()));
            out.push_str(&format!(
                "  shrunk {} -> {} blocks{}  ({} checks)\n",
                shrink_report.blocks_before,
                shrink_report.blocks_after,
                match shrink_report.spec.trip_cap {
                    Some(cap) => format!(", trips<={cap}"),
                    None => String::new(),
                },
                shrink_report.checks
            ));
            out.push_str(&format!("  repro: fuzz {}\n", r.repro_args(opts)));
        }
    }
    out
}

/// The repro lines for every failing case — one per line, each a complete
/// `fuzz` argument string. This is the failing-seed artifact CI uploads.
pub fn failure_artifact(results: &[CaseResult], opts: &FuzzOptions) -> String {
    results
        .iter()
        .filter(|r| r.failure.is_some())
        .map(|r| format!("{}\n", r.repro_args(opts)))
        .collect()
}

/// Expands `(profiles × seeds)` into a case list in deterministic order:
/// profiles in registry order, seeds ascending within each profile.
pub fn case_matrix(profiles: &[String], seed_base: u64, seeds_per_profile: u64) -> Vec<FuzzSpec> {
    let mut specs = Vec::new();
    for profile in profiles {
        for i in 0..seeds_per_profile {
            specs.push(FuzzSpec {
                profile: profile.clone(),
                seed: seed_base.wrapping_add(i),
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FuzzOptions {
        FuzzOptions {
            uops: 1_500,
            jobs: 2,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn presets_cover_the_paper_matrix() {
        let presets = tracker_presets();
        assert_eq!(presets.len(), 5);
        assert!(presets.iter().any(|(n, _)| *n == INJECT_PRESET));
        let lazy = &presets
            .iter()
            .find(|(n, _)| *n == "lazy_reclaim")
            .unwrap()
            .1;
        assert!(lazy.smb && lazy.smb_from_committed);
    }

    #[test]
    fn conforming_case_passes_and_injected_fault_fails() {
        let spec = FuzzSpec::new("balanced", 5).unwrap();
        let opts = quick_opts();
        assert_eq!(check_plan(&spec.plan(), &opts), None);

        let inject = FuzzOptions {
            inject_fault: true,
            ..opts
        };
        let d = check_plan(&spec.plan(), &inject).expect("injected fault diverges");
        assert_eq!(d.preset, INJECT_PRESET);
        assert!(matches!(d.kind, DivergenceKind::DigestMismatch { .. }));
    }

    #[test]
    fn a_simulator_panic_is_a_divergence_not_an_abort() {
        let program = FuzzSpec::new("balanced", 5).unwrap().plan().build();
        // A PRF smaller than the architectural register file trips
        // rename's internal assert (no preset can produce this config).
        let mut cfg = VariantSpec::hpca16().to_config().unwrap();
        cfg.pregs_per_class = 1;
        let d = check_preset(&program, 0, "tiny_prf", cfg, &quick_opts())
            .expect("a panic is reported as a divergence");
        assert_eq!(d.preset, "tiny_prf");
        match &d.kind {
            DivergenceKind::Panicked(detail) => assert!(!detail.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.to_string().contains("simulator panicked"), "{d}");
    }

    #[test]
    fn shrink_minimizes_and_the_spec_replays() {
        let spec = FuzzSpec::new("memory", 3).unwrap();
        let opts = FuzzOptions {
            inject_fault: true,
            ..quick_opts()
        };
        assert!(shrink(&spec, &quick_opts()).is_none(), "healthy case");
        let report = shrink(&spec, &opts).expect("injected failure shrinks");
        assert!(report.blocks_after <= report.blocks_before);
        assert!(report.checks <= opts.max_shrink_checks);
        // The printed spec round-trips and still reproduces the failure.
        let replayed: ShrinkSpec = report.spec.to_string().parse().unwrap();
        assert_eq!(replayed, report.spec);
        assert!(check_spec(&spec, &replayed, &opts).is_some());
    }

    #[test]
    fn run_cases_is_deterministic_across_jobs() {
        let specs = case_matrix(&["balanced".into(), "branchy".into()], 1, 3);
        assert_eq!(specs.len(), 6);
        let a = run_cases(
            &specs,
            &FuzzOptions {
                jobs: 1,
                ..quick_opts()
            },
        );
        let b = run_cases(
            &specs,
            &FuzzOptions {
                jobs: 4,
                ..quick_opts()
            },
        );
        assert_eq!(a, b);
        assert_eq!(
            render_report(&a, &quick_opts()),
            render_report(&b, &quick_opts())
        );
        assert!(failure_artifact(&a, &quick_opts()).is_empty());
    }
}
