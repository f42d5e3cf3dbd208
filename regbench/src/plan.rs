//! The three workloads, generated from the seed.
//!
//! Every workload runs the same two phases, one after the other, on its
//! own inputs, so that every end-to-end metric is measured on every
//! workload:
//!
//! - a **batch** phase: timed rounds of one scenario through
//!   `SweepSpec::run` + `render_report` with `jobs = nproc`;
//! - a **serve** phase: a closed loop of `nproc` client connections to an
//!   in-process daemon over TCP loopback, mixing warm requests (repeats of
//!   a prefilled scenario, all cache hits) with cold requests (fresh
//!   cells, all computed and stored).
//!
//! What differs is the inputs and how the run's seconds are split.

use crate::rng::SplitMix;
use regshare_bench::{RunOptions, Scenario, VariantSpec, CONFIG_PRESETS};
use regshare_workloads::{asm, fuzz, profile};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep_headline", "cells_short", "serve_mixed"];

/// Warm scenarios prefilled into the daemon's cache during set-up.
const WARM_POOL: usize = 8;

/// Cold requests per warmup step in [`Cold::FreshWindow`], so windows
/// stay small for any request index.
const WINDOW_SPAN: u64 = 100_000;

/// Seed base of the generated programs in the batch scenarios. Fixed, so
/// the batch phase does the same work under every `--seed` and its
/// spread across runs is host noise only; the seed picks the serve
/// phase's warm pool and fresh cold programs.
const BATCH_FUZZ_BASE: u64 = 1;

/// One workload's inputs.
#[derive(Debug)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// The timed batch scenario (window and jobs pinned).
    pub batch: Scenario,
    /// Baseline and ME+SMB labels of `batch`, for the model record.
    pub model_labels: (&'static str, &'static str),
    /// Share of `--seconds` given to the batch phase; the serve phase
    /// gets the rest.
    pub batch_share: f64,
    /// Whether the traced run checks every batch cell against the
    /// in-order oracle and the register audit.
    pub oracle_check: bool,
    /// Scenarios prefilled in set-up; warm requests repeat them.
    pub warm: Vec<Scenario>,
    /// How cold requests get fresh cells.
    pub cold: Cold,
}

/// Source of fresh cells for cold requests.
#[derive(Debug)]
pub enum Cold {
    /// One new `fuzz-<profile>-<seed>` program under `variants`.
    Fuzz {
        /// Seed base for the generated programs.
        base: u64,
        /// Labelled variants.
        variants: Vec<(String, VariantSpec)>,
        /// Window.
        options: RunOptions,
    },
    /// One of `workloads` under `variants`, at a window no other request
    /// uses: request `k` adds `k / WINDOW_SPAN` to the warmup and
    /// `k % WINDOW_SPAN + 1` to the measured µ-ops.
    FreshWindow {
        /// Seeds the choice of workload per request.
        salt: u64,
        /// Candidate workloads.
        workloads: Vec<String>,
        /// Labelled variants.
        variants: Vec<(String, VariantSpec)>,
        /// Warmup µ-ops.
        warmup: u64,
        /// Measured µ-ops before the offset.
        measure: u64,
    },
}

impl Plan {
    /// Builds the named workload for `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64, nproc: usize) -> Option<Plan> {
        let mut rng = SplitMix::new(seed);
        let base = 1_000_000 + (rng.next() >> 25);
        let suite = profile::names();
        match name {
            "sweep_headline" => {
                let mut batch = regshare_bench::preset("headline").expect("headline preset");
                batch.options = window(10_000, 60_000).jobs(nproc);
                let variants: Vec<_> = batch
                    .variants
                    .iter()
                    .filter(|(label, _)| label == "base" || label == "both32")
                    .cloned()
                    .collect();
                let opts = window(1_000, 4_000);
                let warm = rng
                    .sample(&suite, 3 * WARM_POOL)
                    .chunks(3)
                    .enumerate()
                    .map(|(i, ws)| scenario(&format!("warm{i}"), ws, &variants, opts))
                    .collect();
                Some(Plan {
                    name: "sweep_headline",
                    batch,
                    model_labels: ("base", "both32"),
                    batch_share: 0.6,
                    oracle_check: false,
                    warm,
                    cold: Cold::FreshWindow {
                        salt: base,
                        workloads: suite,
                        variants,
                        warmup: 1_000,
                        measure: 4_000,
                    },
                })
            }
            "cells_short" => {
                let mut family = suite;
                family.extend(
                    asm::CORPUS
                        .iter()
                        .map(|(k, _)| format!("{}{k}", asm::NAME_PREFIX)),
                );
                family.extend((0..12).map(|k| fuzz_name(BATCH_FUZZ_BASE, k)));
                let variants = tracker_presets();
                let opts = window(500, 2_500);
                let batch = scenario("cells_short", &family, &variants, opts.jobs(nproc));
                let warm = rng
                    .sample(&family, WARM_POOL)
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| scenario(&format!("warm{i}"), &[w], &variants, opts))
                    .collect();
                Some(Plan {
                    name: "cells_short",
                    batch,
                    model_labels: ("hpca16", "me_smb"),
                    batch_share: 0.6,
                    oracle_check: true,
                    warm,
                    cold: Cold::Fuzz {
                        base,
                        variants,
                        options: opts,
                    },
                })
            }
            "serve_mixed" => {
                let variants = vec![
                    ("base".to_string(), VariantSpec::hpca16()),
                    ("both".to_string(), VariantSpec::preset("me_smb")),
                ];
                let opts = window(2_000, 8_000);
                // Few enough programs for the stream memo to hold them
                // all, so batch rounds replay from a warm memo.
                let family = &suite[..24];
                let warm = rng
                    .sample(family, 3 * WARM_POOL)
                    .chunks(3)
                    .enumerate()
                    .map(|(i, ws)| scenario(&format!("warm{i}"), ws, &variants, opts))
                    .collect();
                let batch = scenario("serve_mixed", family, &variants, opts.jobs(nproc));
                Some(Plan {
                    name: "serve_mixed",
                    batch,
                    model_labels: ("base", "both"),
                    batch_share: 0.4,
                    oracle_check: false,
                    warm,
                    cold: Cold::Fuzz {
                        base,
                        variants,
                        options: opts,
                    },
                })
            }
            _ => None,
        }
    }

    /// The `k`-th cold request's scenario. Distinct `k` give disjoint
    /// cells, none of them in the warm pool.
    pub fn cold(&self, k: u64) -> Scenario {
        let name = format!("cold{k}");
        match &self.cold {
            Cold::Fuzz {
                base,
                variants,
                options,
            } => scenario(&name, &[fuzz_name(*base, k)], variants, *options),
            Cold::FreshWindow {
                salt,
                workloads,
                variants,
                warmup,
                measure,
            } => {
                let w = &workloads[SplitMix::new(salt ^ k).below(workloads.len())];
                scenario(
                    &name,
                    std::slice::from_ref(w),
                    variants,
                    window(warmup + k / WINDOW_SPAN, measure + k % WINDOW_SPAN + 1),
                )
            }
        }
    }
}

/// The five tracker presets, labelled by preset name.
fn tracker_presets() -> Vec<(String, VariantSpec)> {
    CONFIG_PRESETS
        .iter()
        .map(|(name, _)| (name.to_string(), VariantSpec::preset(*name)))
        .collect()
}

/// `fuzz-<profile>-<base + k>`, cycling through all six profiles.
fn fuzz_name(base: u64, k: u64) -> String {
    let profiles = fuzz::profile_names();
    let profile = profiles[(k % profiles.len() as u64) as usize];
    format!("fuzz-{profile}-{}", base + k)
}

fn window(warmup: u64, measure: u64) -> RunOptions {
    RunOptions::default().warmup(warmup).measure(measure)
}

fn scenario(
    name: &str,
    workloads: &[String],
    variants: &[(String, VariantSpec)],
    options: RunOptions,
) -> Scenario {
    let names: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let mut b = Scenario::builder(name).options(options).workloads(&names);
    for (label, spec) in variants {
        b = b.variant(label.clone(), spec.clone());
    }
    b.build().expect("benchmark scenarios are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(p: &Plan) -> Vec<String> {
        std::iter::once(&p.batch)
            .chain(&p.warm)
            .map(Scenario::render)
            .collect()
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        for name in WORKLOADS {
            let (a, b) = (
                Plan::new(name, 7, 2).unwrap(),
                Plan::new(name, 7, 2).unwrap(),
            );
            assert_eq!(texts(&a), texts(&b), "{name}");
            assert_eq!(a.cold(3).render(), b.cold(3).render(), "{name}");
        }
        assert!(Plan::new("nope", 7, 2).is_none());
    }

    #[test]
    fn batch_is_seed_independent_and_serve_inputs_are_not() {
        for name in WORKLOADS {
            let (a, b) = (
                Plan::new(name, 1, 2).unwrap(),
                Plan::new(name, 2, 2).unwrap(),
            );
            assert_eq!(a.batch.render(), b.batch.render(), "{name}");
            assert_ne!(texts(&a)[1..], texts(&b)[1..], "{name}");
            assert_ne!(a.cold(0).render(), b.cold(0).render(), "{name}");
        }
    }

    #[test]
    fn cold_requests_name_fresh_cells() {
        for name in WORKLOADS {
            let p = Plan::new(name, 5, 2).unwrap();
            let warm: Vec<String> = p.warm.iter().map(body_key).collect();
            let mut seen = std::collections::HashSet::new();
            for k in (0..200).chain(1_000_000..1_000_020) {
                let key = body_key(&p.cold(k));
                assert!(
                    !warm.contains(&key),
                    "{name}: cold {k} repeats a warm scenario"
                );
                assert!(seen.insert(key), "{name}: cold {k} repeats an earlier one");
            }
        }
    }

    /// The scenario's cells: its rendering without the name line.
    fn body_key(s: &Scenario) -> String {
        s.render()
            .lines()
            .filter(|l| !l.starts_with("name ="))
            .collect::<Vec<_>>()
            .join("\n")
    }
}
