//! Content-addressing digests shared by checkpoint images and the serve
//! daemon's result cache.
//!
//! Two on-disk subsystems pin their files to the experiment that produced
//! them: checkpoint images (`crate::checkpoint`, whole-scenario
//! granularity) and the `regshare-serve` result cache (per-cell
//! granularity). Both must key results **identically**, or a checkpointed
//! run and a served run of the same scenario could disagree about what
//! "the same experiment" means. This module is the one definition of that
//! discipline:
//!
//! - [`normalized`] — the canonical form of a scenario for digest
//!   purposes: the window resolved to concrete µ-op counts, and the one
//!   key that may legitimately differ between two equivalent invocations
//!   (parallelism) cleared. Where the window *came from* (flags, file,
//!   defaults) can never change an identity.
//! - [`scenario_digest`] — hash of the normalized canonical rendering;
//!   pins whole-scenario artifacts (checkpoint images).
//! - [`cell_digest`] — content address of one (workload × configuration ×
//!   window) cell; pins per-cell artifacts (serve cache entries). Keyed
//!   by the *resolved* [`CoreConfig::digest`], so two variants spelled
//!   differently but simulating identically share one address.
//!
//! All digests are process-local identities, not cross-build promises:
//! every file format embedding one also carries a format version.

use crate::harness::RunWindow;
use crate::options::RunOptions;
use crate::scenario::Scenario;
use regshare_core::CoreConfig;
use regshare_types::hasher::FastHasher;
use std::hash::Hasher;

/// The canonical form of a scenario for digest purposes: window resolved,
/// parallelism cleared.
pub fn normalized(scenario: &Scenario) -> Scenario {
    let window = scenario.options.window();
    let mut normalized = scenario.clone();
    normalized.options = RunOptions::default()
        .warmup(window.warmup)
        .measure(window.measure);
    normalized
}

/// The digest pinning a whole-scenario artifact (a checkpoint image) to
/// its scenario: a hash of [`normalized`]'s canonical rendering.
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    let mut h = FastHasher::default();
    h.write(normalized(scenario).render().as_bytes());
    h.finish()
}

/// The content address of one simulation cell: the workload's registry
/// name, the resolved configuration digest, and the concrete window.
///
/// This is what makes served results cacheable by construction — the
/// deterministic sweep engine guarantees a cell is a pure function of
/// exactly these three inputs, so a cell computed once under this address
/// is correct forever (for this build; see the cache format version).
pub fn cell_digest(workload: &str, cfg: &CoreConfig, window: RunWindow) -> u64 {
    let mut h = FastHasher::default();
    // Domain-separate from scenario_digest streams and make the
    // (name, config, window) framing unambiguous.
    h.write(b"regshare-cell/1\0");
    h.write(workload.as_bytes());
    h.write_u8(0);
    h.write_u64(cfg.digest());
    h.write_u64(window.warmup);
    h.write_u64(window.measure);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::VariantSpec;

    fn tiny() -> Scenario {
        Scenario::builder("digest_unit")
            .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
            .workloads(&["crafty", "hmmer"])
            .variant("base", VariantSpec::hpca16())
            .variant("both", VariantSpec::preset("me_smb"))
            .build()
            .unwrap()
    }

    #[test]
    fn scenario_digest_ignores_plumbing_but_not_identity() {
        let s = tiny();
        let d = scenario_digest(&s);

        // Parallelism is not identity.
        let mut replumbed = s.clone();
        replumbed.options.jobs = Some(7);
        assert_eq!(scenario_digest(&replumbed), d);

        // The window is identity, wherever it came from.
        let mut other_window = s.clone();
        other_window.options = RunOptions::default().warmup(600).measure(1_500);
        assert_ne!(scenario_digest(&other_window), d);

        // So are the variants and the workload list.
        let mut other_variant = s.clone();
        other_variant.variants[1].1 = VariantSpec::preset("me");
        assert_ne!(scenario_digest(&other_variant), d);
        let mut other_workloads = s.clone();
        other_workloads.workloads.pop();
        assert_ne!(scenario_digest(&other_workloads), d);
    }

    #[test]
    fn normalized_resolves_the_window_to_concrete_counts() {
        let s = tiny();
        let n = normalized(&s);
        assert_eq!(n.options.warmup, Some(500));
        assert_eq!(n.options.measure, Some(1_500));
        assert_eq!(n.options.jobs, None);
        // Normalizing is idempotent.
        assert_eq!(normalized(&n), n);
    }

    #[test]
    fn cell_digest_keys_on_workload_config_and_window() {
        let window = RunWindow {
            warmup: 500,
            measure: 1_500,
        };
        let base = CoreConfig::hpca16();
        let d = cell_digest("crafty", &base, window);
        // Stable for equal inputs.
        assert_eq!(cell_digest("crafty", &base.clone(), window), d);
        // Sensitive to each component.
        assert_ne!(cell_digest("hmmer", &base, window), d);
        assert_ne!(cell_digest("crafty", &base.clone().with_me(), window), d);
        assert_ne!(
            cell_digest(
                "crafty",
                &base,
                RunWindow {
                    warmup: 501,
                    measure: 1_500
                }
            ),
            d
        );
        assert_ne!(
            cell_digest(
                "crafty",
                &base,
                RunWindow {
                    warmup: 500,
                    measure: 1_501
                }
            ),
            d
        );
    }

    #[test]
    fn equivalent_variant_spellings_share_one_cell_address() {
        // `preset = "me_smb"` and `preset = "hpca16"` + explicit toggles
        // resolve to the same machine, so they must share a cache cell.
        let window = RunWindow {
            warmup: 500,
            measure: 1_500,
        };
        let a = VariantSpec::preset("me_smb").to_config().unwrap();
        let b = VariantSpec::hpca16()
            .me(true)
            .smb(true)
            .to_config()
            .unwrap();
        assert_eq!(
            cell_digest("crafty", &a, window),
            cell_digest("crafty", &b, window)
        );
    }
}
