//! The content address of one simulation cell.
//!
//! [`cell_digest`] keys every finished (workload × configuration × window)
//! cell in the [`crate::cache`] directory that the serve daemon and the
//! cached batch sweep share. It is keyed by the *resolved*
//! [`CoreConfig::digest`], so two variants spelled differently but
//! simulating identically share one address.
//!
//! The digest is a process-local identity, not a cross-build promise: the
//! cache entry embedding it also carries a format version.

use crate::harness::RunWindow;
use regshare_core::CoreConfig;
use regshare_types::hasher::FastHasher;
use std::hash::Hasher;

/// The content address of one simulation cell: the workload's registry
/// name, the resolved configuration digest, and the concrete window.
///
/// This is what makes served results cacheable by construction — the
/// deterministic sweep engine guarantees a cell is a pure function of
/// exactly these three inputs, so a cell computed once under this address
/// is correct forever (for this build; see the cache format version).
pub fn cell_digest(workload: &str, cfg: &CoreConfig, window: RunWindow) -> u64 {
    let mut h = FastHasher::default();
    // Domain-separate from other digest streams and make the
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
