//! The `.scenario` text format: a dependency-free TOML subset.
//!
//! ```text
//! # comment
//! name = "isrb_sizing"
//! note = "free text"
//! warmup = 1000
//! measure = 4000
//! jobs = 2
//! workloads = ["crafty", "hmmer"]
//! ```
//!
//! Generated (fuzz) scenarios replace `workloads` with a family spec:
//!
//! ```text
//! kind = "fuzz"
//! profile = "balanced"
//! seed = 1
//! programs = 8
//!
//! [variant.base]
//! preset = "hpca16"
//!
//! [variant.both24]
//! preset = "me_smb"
//! isrb_entries = 24
//! ```
//!
//! Assembled-kernel scenarios (`kind = "asm"`) run the embedded
//! `programs/*.asm` corpus, one of its kernels (`kernel = "quicksort"`),
//! or an external assembly file (`path = "my.asm"`).
//!
//! Supported values: unsigned integers, `true`/`false`, quoted strings
//! (identifier charset plus spaces for `note`), and arrays of quoted
//! strings. [`render`] emits keys in one canonical order and only when
//! set, so `render(parse(text))` is a canonical form and
//! `parse(render(scenario))` is the identity — the round-trip guarantees
//! the proptest in `tests/scenario_roundtrip.rs` pins down.

use super::{Scenario, ScenarioError, VariantSpec, WorkloadSource};
use crate::options::RunOptions;

/// One parsed right-hand-side value.
enum Value {
    Int(u64),
    Bool(bool),
    Str(String),
    StrArray(Vec<String>),
}

fn syntax(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Syntax {
        line,
        msg: msg.into(),
    }
}

/// Parses a quoted string; rejects embedded quotes/backslashes (the
/// renderer never emits them, keeping round trips unambiguous).
fn parse_quoted(line: usize, s: &str) -> Result<(String, &str), ScenarioError> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| syntax(line, format!("expected a quoted string at {s:?}")))?;
    let end = rest
        .find('"')
        .ok_or_else(|| syntax(line, "unterminated string"))?;
    let content = &rest[..end];
    if content.contains('\\') {
        return Err(syntax(line, "escape sequences are not supported"));
    }
    Ok((content.to_string(), &rest[end + 1..]))
}

fn parse_value(line: usize, s: &str) -> Result<Value, ScenarioError> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if s.starts_with('"') {
        let (v, rest) = parse_quoted(line, s)?;
        if !rest.trim().is_empty() {
            return Err(syntax(
                line,
                format!("trailing input after string: {rest:?}"),
            ));
        }
        return Ok(Value::Str(v));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| syntax(line, "unterminated array"))?
            .trim();
        let mut items = Vec::new();
        let mut rest = inner;
        while !rest.is_empty() {
            let (item, after) = parse_quoted(line, rest)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma.trim_start();
                if rest.is_empty() {
                    return Err(syntax(line, "trailing comma in array"));
                }
            } else if !rest.is_empty() {
                return Err(syntax(line, "expected `,` between array items"));
            }
        }
        return Ok(Value::StrArray(items));
    }
    if s.bytes().all(|b| b.is_ascii_digit()) && !s.is_empty() {
        return s
            .parse::<u64>()
            .map(Value::Int)
            .map_err(|e| syntax(line, format!("bad integer {s:?}: {e}")));
    }
    Err(syntax(line, format!("cannot parse value {s:?}")))
}

fn wrong_type(line: usize, key: &str, expected: &'static str) -> ScenarioError {
    ScenarioError::WrongType {
        line,
        key: key.to_string(),
        expected,
    }
}

/// An integer narrowed to its field's type with `try_from`: a value that
/// does not fit is a [`ScenarioError::WrongType`] saying `fits`, never a
/// silent wrap.
fn expect_int<T: TryFrom<u64>>(
    line: usize,
    key: &str,
    v: Value,
    fits: &'static str,
) -> Result<T, ScenarioError> {
    match v {
        Value::Int(n) => T::try_from(n).map_err(|_| wrong_type(line, key, fits)),
        _ => Err(wrong_type(line, key, "an integer")),
    }
}

fn expect_bool(line: usize, key: &str, v: Value) -> Result<bool, ScenarioError> {
    match v {
        Value::Bool(b) => Ok(b),
        _ => Err(wrong_type(line, key, "a boolean")),
    }
}

fn expect_str(line: usize, key: &str, v: Value) -> Result<String, ScenarioError> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(wrong_type(line, key, "a string")),
    }
}

/// Tracks duplicate keys within one scope (top level or one variant).
struct SeenKeys(Vec<String>);

impl SeenKeys {
    fn new() -> SeenKeys {
        SeenKeys(Vec::new())
    }

    fn check(&mut self, line: usize, key: &str) -> Result<(), ScenarioError> {
        if self.0.iter().any(|k| k == key) {
            return Err(ScenarioError::DuplicateKey {
                line,
                key: key.to_string(),
            });
        }
        self.0.push(key.to_string());
        Ok(())
    }
}

/// The typed field behind one optional variant key.
enum Slot<'a> {
    Bool(&'a mut Option<bool>),
    Str(&'a mut Option<String>),
    Size(&'a mut Option<usize>),
    Bits(&'a mut Option<u32>),
}

/// Every optional variant key with its field, in canonical render order
/// (after `preset`, which every variant has).
fn variant_slots(spec: &mut VariantSpec) -> [(&'static str, Slot<'_>); 22] {
    use Slot::{Bits, Bool, Size, Str};
    [
        ("me", Bool(&mut spec.me)),
        ("me_fp_moves", Bool(&mut spec.me_fp_moves)),
        ("smb", Bool(&mut spec.smb)),
        ("smb_load_load", Bool(&mut spec.smb_load_load)),
        ("smb_from_committed", Bool(&mut spec.smb_from_committed)),
        ("tracker", Str(&mut spec.tracker)),
        ("isrb_entries", Size(&mut spec.isrb_entries)),
        ("counter_bits", Bits(&mut spec.counter_bits)),
        ("rename_ports", Size(&mut spec.rename_ports)),
        ("reclaim_ports", Size(&mut spec.reclaim_ports)),
        ("walk_width", Size(&mut spec.walk_width)),
        ("tracker_entries", Size(&mut spec.tracker_entries)),
        ("distance", Str(&mut spec.distance)),
        ("ddt", Str(&mut spec.ddt)),
        ("frontend_width", Size(&mut spec.frontend_width)),
        ("issue_width", Size(&mut spec.issue_width)),
        ("commit_width", Size(&mut spec.commit_width)),
        ("rob_entries", Size(&mut spec.rob_entries)),
        ("iq_entries", Size(&mut spec.iq_entries)),
        ("lq_entries", Size(&mut spec.lq_entries)),
        ("sq_entries", Size(&mut spec.sq_entries)),
        ("pregs_per_class", Size(&mut spec.pregs_per_class)),
    ]
}

fn apply_variant_key(
    spec: &mut VariantSpec,
    line: usize,
    key: &str,
    value: Value,
) -> Result<(), ScenarioError> {
    if key == "preset" {
        spec.preset = expect_str(line, key, value)?;
        return Ok(());
    }
    let Some((_, slot)) = variant_slots(spec).into_iter().find(|(k, _)| *k == key) else {
        return Err(ScenarioError::UnknownKey {
            line,
            key: key.to_string(),
        });
    };
    match slot {
        Slot::Bool(v) => *v = Some(expect_bool(line, key, value)?),
        Slot::Str(v) => *v = Some(expect_str(line, key, value)?),
        Slot::Size(v) => *v = Some(expect_int(line, key, value, "a size that fits usize")?),
        Slot::Bits(v) => *v = Some(expect_int(line, key, value, "a width that fits 32 bits")?),
    }
    Ok(())
}

/// Parses `.scenario` text into a [`Scenario`].
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let mut name: Option<String> = None;
    let mut note = String::new();
    let mut options = RunOptions::default();
    let mut workloads: Vec<String> = Vec::new();
    let mut kind: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut profile: Option<String> = None;
    let mut programs: Option<u32> = None;
    let mut kernel: Option<String> = None;
    let mut path: Option<String> = None;
    let mut variants: Vec<(String, VariantSpec)> = Vec::new();
    // None = top level; Some(i) = inside variants[i].
    let mut current: Option<usize> = None;
    let mut top_seen = SeenKeys::new();
    let mut variant_seen = SeenKeys::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section
                .strip_suffix(']')
                .ok_or_else(|| syntax(lineno, "unterminated section header"))?
                .trim();
            let label = section.strip_prefix("variant.").ok_or_else(|| {
                syntax(
                    lineno,
                    format!("unknown section [{section}] (expected [variant.<label>])"),
                )
            })?;
            super::check_name("variant label", label)?;
            if variants.iter().any(|(l, _)| l == label) {
                return Err(ScenarioError::DuplicateVariant(label.to_string()));
            }
            variants.push((label.to_string(), VariantSpec::preset("hpca16")));
            current = Some(variants.len() - 1);
            variant_seen = SeenKeys::new();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| syntax(lineno, format!("expected `key = value`, got {line:?}")))?;
        let key = line[..eq].trim();
        let value = parse_value(lineno, &line[eq + 1..])?;
        match current {
            Some(v) => {
                variant_seen.check(lineno, key)?;
                apply_variant_key(&mut variants[v].1, lineno, key, value)?;
            }
            None => {
                top_seen.check(lineno, key)?;
                match key {
                    "name" => name = Some(expect_str(lineno, key, value)?),
                    "note" => note = expect_str(lineno, key, value)?,
                    "warmup" => {
                        options.warmup = Some(expect_int(lineno, key, value, "an integer")?)
                    }
                    "measure" => {
                        options.measure = Some(expect_int(lineno, key, value, "an integer")?)
                    }
                    "jobs" => {
                        let n = expect_int(lineno, key, value, "a size that fits usize")?;
                        // Typed, not a generic syntax error: the same
                        // ZeroJobs every other front door reports.
                        options = options.try_jobs(n).map_err(|_| ScenarioError::ZeroJobs)?;
                    }
                    "kind" => kind = Some(expect_str(lineno, key, value)?),
                    "seed" => seed = Some(expect_int(lineno, key, value, "an integer")?),
                    "profile" => profile = Some(expect_str(lineno, key, value)?),
                    "kernel" => kernel = Some(expect_str(lineno, key, value)?),
                    "path" => {
                        let p = expect_str(lineno, key, value)?;
                        if p.is_empty() || !super::valid_note(&p) {
                            return Err(ScenarioError::InvalidAsmPath(p));
                        }
                        path = Some(p);
                    }
                    "programs" => {
                        let fits = "a family size that fits 32 bits";
                        programs = Some(expect_int(lineno, key, value, fits)?);
                    }
                    "workloads" => match value {
                        Value::StrArray(items) => workloads = items,
                        _ => return Err(wrong_type(lineno, key, "an array of strings")),
                    },
                    _ => {
                        return Err(ScenarioError::UnknownKey {
                            line: lineno,
                            key: key.to_string(),
                        })
                    }
                }
            }
        }
    }

    // Kind-specific keys are meaningless under any other kind.
    let fuzz_keys = [
        ("seed", seed.is_some()),
        ("profile", profile.is_some()),
        ("programs", programs.is_some()),
    ];
    let asm_keys = [("kernel", kernel.is_some()), ("path", path.is_some())];
    let reject_fuzz_keys = || {
        fuzz_keys
            .iter()
            .find(|(_, set)| *set)
            .map_or(Ok(()), |(key, _)| {
                Err(ScenarioError::FuzzKeyWithoutKind { key })
            })
    };
    let reject_asm_keys = || {
        asm_keys
            .iter()
            .find(|(_, set)| *set)
            .map_or(Ok(()), |(key, _)| {
                Err(ScenarioError::AsmKeyWithoutKind { key })
            })
    };
    // A generated source *is* the workload list, and an asm source has
    // one selector at most.
    let workloads = match kind.as_deref() {
        None | Some("suite") => {
            reject_fuzz_keys()?;
            reject_asm_keys()?;
            WorkloadSource::Suite(workloads)
        }
        Some("fuzz") => {
            reject_asm_keys()?;
            if !workloads.is_empty() {
                return Err(ScenarioError::FuzzWithWorkloads);
            }
            WorkloadSource::Fuzz {
                profile: profile.unwrap_or_else(|| "balanced".to_string()),
                seed: seed.unwrap_or(1),
                programs: programs.unwrap_or(8),
            }
        }
        Some("asm") => {
            reject_fuzz_keys()?;
            if !workloads.is_empty() {
                return Err(ScenarioError::AsmWithWorkloads);
            }
            match (kernel, path) {
                (Some(_), Some(_)) => return Err(ScenarioError::AsmKernelAndPath),
                (Some(kernel), None) => WorkloadSource::AsmKernel(kernel),
                (None, Some(path)) => WorkloadSource::AsmPath(path),
                (None, None) => WorkloadSource::AsmCorpus,
            }
        }
        Some(other) => return Err(ScenarioError::UnknownKind(other.to_string())),
    };
    Ok(Scenario {
        name: name.ok_or(ScenarioError::MissingName)?,
        note,
        options,
        workloads,
        variants,
    })
}

/// Renders the canonical `.scenario` text for a scenario.
pub fn render(s: &Scenario) -> String {
    let mut out = String::new();
    out.push_str("# regshare scenario — see README \"Defining scenarios\".\n");
    out.push_str(&format!("name = \"{}\"\n", s.name));
    if !s.note.is_empty() {
        out.push_str(&format!("note = \"{}\"\n", s.note));
    }
    // The source's `kind` block goes above the run options, a suite list
    // below them.
    let mut list = String::new();
    match &s.workloads {
        WorkloadSource::Suite(names) if names.is_empty() => {}
        WorkloadSource::Suite(names) => {
            let quoted: Vec<String> = names.iter().map(|w| format!("\"{w}\"")).collect();
            list = format!("workloads = [{}]\n", quoted.join(", "));
        }
        WorkloadSource::Fuzz {
            profile,
            seed,
            programs,
        } => out.push_str(&format!(
            "kind = \"fuzz\"\nprofile = \"{profile}\"\nseed = {seed}\nprograms = {programs}\n"
        )),
        WorkloadSource::AsmCorpus => out.push_str("kind = \"asm\"\n"),
        WorkloadSource::AsmKernel(kernel) => {
            out.push_str(&format!("kind = \"asm\"\nkernel = \"{kernel}\"\n"))
        }
        WorkloadSource::AsmPath(path) => {
            out.push_str(&format!("kind = \"asm\"\npath = \"{path}\"\n"))
        }
    }
    if let Some(v) = s.options.warmup {
        out.push_str(&format!("warmup = {v}\n"));
    }
    if let Some(v) = s.options.measure {
        out.push_str(&format!("measure = {v}\n"));
    }
    if let Some(v) = s.options.jobs {
        out.push_str(&format!("jobs = {v}\n"));
    }
    out.push_str(&list);
    for (label, spec) in &s.variants {
        out.push_str(&format!("\n[variant.{label}]\n"));
        out.push_str(&format!("preset = \"{}\"\n", spec.preset));
        for (key, slot) in variant_slots(&mut spec.clone()) {
            let value = match slot {
                Slot::Bool(v) => v.map(|v| v.to_string()),
                Slot::Str(v) => v.as_ref().map(|v| format!("\"{v}\"")),
                Slot::Size(v) => v.map(|v| v.to_string()),
                Slot::Bits(v) => v.map(|v| v.to_string()),
            };
            if let Some(value) = value {
                out.push_str(&format!("{key} = {value}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{
        preset, Scenario, ScenarioError, VariantSpec, WorkloadSource, SCENARIO_PRESETS,
    };

    #[test]
    fn worked_example_parses() {
        let text = r#"
            # ISRB sizing sweep on two workloads.
            name = "isrb_sizing"
            warmup = 1000
            measure = 4000
            workloads = ["crafty", "hmmer"]

            [variant.base]
            preset = "hpca16"

            [variant.both24]
            preset = "me_smb"
            isrb_entries = 24
        "#;
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.name, "isrb_sizing");
        assert_eq!(
            s.workloads,
            WorkloadSource::Suite(vec!["crafty".into(), "hmmer".into()])
        );
        assert_eq!(s.variants.len(), 2);
        assert_eq!(s.variants[1].1.isrb_entries, Some(24));
        s.validate().unwrap();
    }

    #[test]
    fn every_preset_round_trips_exactly() {
        for (name, file) in SCENARIO_PRESETS {
            let s = preset(name).unwrap();
            let text = s.render();
            assert_eq!(text, file, "{name}.scenario is not in rendered form");
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, s, "value round trip for {name}");
            assert_eq!(back.render(), text, "byte-identical render for {name}");
        }
    }

    #[test]
    fn unknown_keys_duplicates_and_bad_types_are_typed_errors() {
        let base = "name = \"x\"\n[variant.v]\npreset = \"hpca16\"\n";
        assert_eq!(
            Scenario::parse(&format!("{base}isrb_size = 3\n")).unwrap_err(),
            ScenarioError::UnknownKey {
                line: 4,
                key: "isrb_size".into()
            }
        );
        // Where a run is checkpointed is a run plan (the CLI's
        // --cache-dir), not part of an experiment, so the removed keys are
        // unknown. (The first is spelled with concat! so a search of the
        // tree for it finds no live use.)
        for (key, value) in [
            (concat!("checkpoint", "_interval"), "5000"),
            ("resume_from", "\"x.ckpt\""),
        ] {
            assert_eq!(
                Scenario::parse(&format!("name = \"x\"\n{key} = {value}\n")).unwrap_err(),
                ScenarioError::UnknownKey {
                    line: 2,
                    key: key.into()
                }
            );
        }
        assert_eq!(
            Scenario::parse(&format!("{base}me = true\nme = false\n")).unwrap_err(),
            ScenarioError::DuplicateKey {
                line: 5,
                key: "me".into()
            }
        );
        assert_eq!(
            Scenario::parse(&format!("{base}me = 3\n")).unwrap_err(),
            ScenarioError::WrongType {
                line: 4,
                key: "me".into(),
                expected: "a boolean"
            }
        );
        // An integer too wide for its field is refused, never wrapped
        // (4294967299 would otherwise become 3).
        assert_eq!(
            Scenario::parse(&format!("{base}counter_bits = 4294967299\n")).unwrap_err(),
            ScenarioError::WrongType {
                line: 4,
                key: "counter_bits".into(),
                expected: "a width that fits 32 bits"
            }
        );
        assert_eq!(
            Scenario::parse("note = \"no name\"\n").unwrap_err(),
            ScenarioError::MissingName
        );
        assert!(matches!(
            Scenario::parse("name = \"x\"\n[section]\n").unwrap_err(),
            ScenarioError::Syntax { line: 2, .. }
        ));
        assert_eq!(
            Scenario::parse("name = \"x\"\n[variant.v]\n[variant.v]\n").unwrap_err(),
            ScenarioError::DuplicateVariant("v".into())
        );
        // jobs = 0 is rejected here just like the CLI rejects --jobs 0,
        // keeping the Some(n) => n >= 1 invariant from every front door —
        // with the same typed error scenario validation uses.
        assert_eq!(
            Scenario::parse("name = \"x\"\njobs = 0\n").unwrap_err(),
            ScenarioError::ZeroJobs
        );
    }

    #[test]
    fn fuzz_kind_parses_renders_and_is_guarded() {
        let text = "name = \"f\"\nkind = \"fuzz\"\nprofile = \"memory\"\nseed = 7\nprograms = 3\n\n[variant.base]\npreset = \"hpca16\"\n";
        let s = Scenario::parse(text).unwrap();
        let fuzz = |profile: &str, seed, programs| WorkloadSource::Fuzz {
            profile: profile.into(),
            seed,
            programs,
        };
        assert_eq!(s.workloads, fuzz("memory", 7, 3));
        s.validate().unwrap();
        // Canonical render round-trips.
        let rendered = s.render();
        assert_eq!(Scenario::parse(&rendered).unwrap(), s);
        assert_eq!(Scenario::parse(&rendered).unwrap().render(), rendered);
        // Omitted fuzz keys take documented defaults.
        let s = Scenario::parse("name = \"f\"\nkind = \"fuzz\"\n[variant.v]\n").unwrap();
        assert_eq!(s.workloads, fuzz("balanced", 1, 8));
        // kind = "suite" is the explicit spelling of the default.
        assert_eq!(
            Scenario::parse("name = \"x\"\nkind = \"suite\"\n[variant.v]\n")
                .unwrap()
                .workloads,
            WorkloadSource::default()
        );
        // Typed guards.
        assert_eq!(
            Scenario::parse("name = \"x\"\nkind = \"doom\"\n").unwrap_err(),
            ScenarioError::UnknownKind("doom".into())
        );
        assert_eq!(
            Scenario::parse("name = \"x\"\nseed = 3\n").unwrap_err(),
            ScenarioError::FuzzKeyWithoutKind { key: "seed" }
        );
        assert_eq!(
            Scenario::parse("name = \"x\"\nprograms = 3\n").unwrap_err(),
            ScenarioError::FuzzKeyWithoutKind { key: "programs" }
        );
        // A generated family is the workload list: naming both fails as
        // the file is parsed.
        let err = Scenario::parse("name = \"x\"\nkind = \"fuzz\"\nworkloads = [\"crafty\"]\n")
            .unwrap_err();
        assert_eq!(err, ScenarioError::FuzzWithWorkloads);
        assert_eq!(
            err.to_string(),
            "a fuzz scenario generates its workload list; drop `workloads = [...]`"
        );
        // Out-of-range family sizes are rejected, never silently clamped.
        assert_eq!(
            Scenario::parse("name = \"x\"\nkind = \"fuzz\"\nprograms = 4294967296\n").unwrap_err(),
            ScenarioError::WrongType {
                line: 3,
                key: "programs".into(),
                expected: "a family size that fits 32 bits"
            }
        );
    }

    #[test]
    fn asm_kind_parses_renders_and_is_guarded() {
        let text = "name = \"a\"\nkind = \"asm\"\nkernel = \"quicksort\"\n\n\
                    [variant.base]\npreset = \"hpca16\"\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.workloads, WorkloadSource::AsmKernel("quicksort".into()));
        s.validate().unwrap();
        // Canonical render round-trips.
        let rendered = s.render();
        assert_eq!(Scenario::parse(&rendered).unwrap(), s);
        assert_eq!(Scenario::parse(&rendered).unwrap().render(), rendered);
        // No selector keys = the whole embedded corpus.
        let s = Scenario::parse("name = \"a\"\nkind = \"asm\"\n[variant.v]\n").unwrap();
        assert_eq!(s.workloads, WorkloadSource::AsmCorpus);
        assert_eq!(s.resolve_workloads().unwrap().len(), 4);
        // A path key survives the round trip too.
        let s = Scenario::parse("name = \"a\"\nkind = \"asm\"\npath = \"k.asm\"\n[variant.v]\n")
            .unwrap();
        assert_eq!(s.host_path(), Some("k.asm"));
        assert_eq!(Scenario::parse(&s.render()).unwrap(), s);
        // Typed guards.
        assert_eq!(
            Scenario::parse("name = \"a\"\nkernel = \"quicksort\"\n").unwrap_err(),
            ScenarioError::AsmKeyWithoutKind { key: "kernel" }
        );
        assert_eq!(
            Scenario::parse("name = \"a\"\nkind = \"fuzz\"\npath = \"x.asm\"\n").unwrap_err(),
            ScenarioError::AsmKeyWithoutKind { key: "path" }
        );
        assert_eq!(
            Scenario::parse("name = \"a\"\nkind = \"asm\"\nseed = 1\n").unwrap_err(),
            ScenarioError::FuzzKeyWithoutKind { key: "seed" }
        );
        assert_eq!(
            Scenario::parse("name = \"a\"\nkind = \"asm\"\npath = \"\"\n").unwrap_err(),
            ScenarioError::InvalidAsmPath(String::new())
        );
        // One source, one selector: combinations fail as the file is
        // parsed.
        for (text, err, msg) in [
            (
                "name = \"a\"\nkind = \"asm\"\nworkloads = [\"crafty\"]\n",
                ScenarioError::AsmWithWorkloads,
                "an asm scenario selects its workload list; drop `workloads = [...]`",
            ),
            (
                "name = \"a\"\nkind = \"asm\"\nkernel = \"matmul\"\npath = \"x.asm\"\n",
                ScenarioError::AsmKernelAndPath,
                "an asm scenario takes `kernel` or `path`, not both",
            ),
        ] {
            let got = Scenario::parse(text).unwrap_err();
            assert_eq!(got, err);
            assert_eq!(got.to_string(), msg);
        }
    }

    #[test]
    fn default_spec_renders_only_its_preset() {
        let s = Scenario {
            name: "min".into(),
            note: String::new(),
            options: Default::default(),
            workloads: WorkloadSource::default(),
            variants: vec![("only".into(), VariantSpec::hpca16())],
        };
        let text = s.render();
        assert!(text.contains("[variant.only]\npreset = \"hpca16\"\n"));
        assert_eq!(Scenario::parse(&text).unwrap(), s);
    }
}
