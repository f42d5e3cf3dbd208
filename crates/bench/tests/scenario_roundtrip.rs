//! Property test: the `.scenario` text format round-trips.
//!
//! For arbitrary scenarios `s`: `parse(render(s)) == s` (value identity)
//! and `render(parse(render(s))) == render(s)` (byte-identical canonical
//! form — the acceptance bar for checked-in scenario files).
//!
//! Scenarios are decoded from a vector of raw `u64`s (the vendored
//! proptest has no struct derives): each draw decides one field's
//! presence and value, covering every optional key, both string-ish
//! pools and arbitrary identifier names.

use proptest::prelude::*;
use regshare_bench::{RunOptions, Scenario, ScenarioError, VariantSpec, WorkloadSource};

const IDENT_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
const NOTE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.,:+%()= -";
const PRESETS: [&str; 6] = ["hpca16", "me", "smb", "me_smb", "lazy_reclaim", "custom0"];
const TRACKERS: [&str; 6] = ["isrb", "unlimited", "counters", "roth", "mit", "rda"];
const DISTANCES: [&str; 2] = ["tage", "nosq"];
const DDTS: [&str; 3] = ["base16k", "opt1k", "unlimited"];

/// A deterministic cursor over the raw draws (wraps around, so any vector
/// length yields a full scenario).
struct Draws<'a> {
    raw: &'a [u64],
    i: usize,
}

impl<'a> Draws<'a> {
    fn next(&mut self) -> u64 {
        let v = self.raw[self.i % self.raw.len()];
        self.i += 1;
        v ^ (self.i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn ident(&mut self) -> String {
        let len = 1 + (self.next() % 12) as usize;
        (0..len)
            .map(|_| IDENT_CHARS[(self.next() % IDENT_CHARS.len() as u64) as usize] as char)
            .collect()
    }

    /// Note text: printable, no quotes/backslashes/newlines, and trimmed
    /// ends (the line-based parser trims around `=`).
    fn note(&mut self) -> String {
        let len = (self.next() % 30) as usize;
        let s: String = (0..len)
            .map(|_| NOTE_CHARS[(self.next() % NOTE_CHARS.len() as u64) as usize] as char)
            .collect();
        s.trim().to_string()
    }

    fn pick(&mut self, pool: &[&str]) -> String {
        pool[(self.next() % pool.len() as u64) as usize].to_string()
    }

    fn opt_bool(&mut self) -> Option<bool> {
        match self.next() % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        }
    }

    fn opt_usize(&mut self, bound: u64) -> Option<usize> {
        if self.next().is_multiple_of(2) {
            None
        } else {
            Some((self.next() % bound) as usize)
        }
    }

    fn variant(&mut self) -> VariantSpec {
        let mut v = VariantSpec::preset(self.pick(&PRESETS));
        v.me = self.opt_bool();
        v.me_fp_moves = self.opt_bool();
        v.smb = self.opt_bool();
        v.smb_load_load = self.opt_bool();
        v.smb_from_committed = self.opt_bool();
        if self.next().is_multiple_of(2) {
            v.tracker = Some(self.pick(&TRACKERS));
        }
        v.isrb_entries = self.opt_usize(512);
        v.counter_bits = self.opt_usize(40).map(|n| n as u32);
        v.rename_ports = self.opt_usize(8);
        v.reclaim_ports = self.opt_usize(8);
        v.walk_width = self.opt_usize(16);
        v.tracker_entries = self.opt_usize(64);
        if self.next().is_multiple_of(3) {
            v.distance = Some(self.pick(&DISTANCES));
        }
        if self.next().is_multiple_of(3) {
            v.ddt = Some(self.pick(&DDTS));
        }
        v.frontend_width = self.opt_usize(16);
        v.issue_width = self.opt_usize(16);
        v.commit_width = self.opt_usize(16);
        v.rob_entries = self.opt_usize(512);
        v.iq_entries = self.opt_usize(128);
        v.lq_entries = self.opt_usize(128);
        v.sq_entries = self.opt_usize(128);
        v.pregs_per_class = self.opt_usize(512);
        v
    }
}

fn scenario_from(raw: &[u64]) -> Scenario {
    let mut d = Draws { raw, i: 0 };
    let mut options = RunOptions::default();
    if d.next().is_multiple_of(2) {
        options.warmup = Some(d.next() % 1_000_000);
    }
    if d.next().is_multiple_of(2) {
        options.measure = Some(d.next() % 1_000_000);
    }
    if d.next().is_multiple_of(2) {
        options.jobs = Some(1 + (d.next() % 64) as usize);
    }
    // A scenario draws a workload list, a fuzz family, or an asm source.
    let workloads = match d.next() % 8 {
        0 | 1 => WorkloadSource::Fuzz {
            profile: d.ident(),
            seed: d.next(),
            programs: 1 + (d.next() % 64) as u32,
        },
        2 | 3 => match d.next() % 3 {
            0 => WorkloadSource::AsmCorpus,
            1 => WorkloadSource::AsmKernel(d.ident()),
            _ => WorkloadSource::AsmPath(format!("{}/{}.asm", d.ident(), d.ident())),
        },
        _ => {
            let n_workloads = (d.next() % 4) as usize;
            WorkloadSource::Suite((0..n_workloads).map(|_| d.ident()).collect())
        }
    };
    let n_variants = 1 + (d.next() % 4) as usize;
    let variants = (0..n_variants)
        // Index prefix guarantees label uniqueness without a dedup pass.
        .map(|i| (format!("v{i}{}", d.ident()), d.variant()))
        .collect();
    Scenario {
        name: d.ident(),
        note: d.note(),
        options,
        workloads,
        variants,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_render_parse_is_identity(raw in proptest::collection::vec(any::<u64>(), 8..64)) {
        let scenario = scenario_from(&raw);
        let text = scenario.render();
        let parsed = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("rendered scenario failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(&parsed, &scenario);
        // Canonical form is byte-stable.
        prop_assert_eq!(parsed.render(), text);
    }

    #[test]
    fn duplicated_keys_are_rejected_not_last_write_wins(
        raw in proptest::collection::vec(any::<u64>(), 8..64)
    ) {
        // Take a valid rendered scenario, duplicate one `key = value` line
        // immediately after itself (same scope by construction), and the
        // parser must fail with DuplicateKey naming that key — never
        // silently keep either occurrence.
        let scenario = scenario_from(&raw);
        let pick = raw[0] ^ raw[raw.len() - 1];
        let text = scenario.render();
        let lines: Vec<&str> = text.lines().collect();
        // Every render has at least its `name = "..."` line, so `keyed`
        // is never empty.
        let keyed: Vec<usize> = (0..lines.len())
            .filter(|&i| {
                let l = lines[i].trim();
                !l.is_empty() && !l.starts_with('#') && !l.starts_with('[') && l.contains('=')
            })
            .collect();
        let at = keyed[(pick % keyed.len() as u64) as usize];
        let key = lines[at].split('=').next().unwrap().trim().to_string();
        let mut doubled: Vec<&str> = Vec::with_capacity(lines.len() + 1);
        doubled.extend_from_slice(&lines[..=at]);
        doubled.push(lines[at]);
        doubled.extend_from_slice(&lines[at + 1..]);
        let err = Scenario::parse(&doubled.join("\n"))
            .expect_err("duplicated key must not parse");
        prop_assert_eq!(err, ScenarioError::DuplicateKey { line: at + 2, key });
    }
}
