//! `regshare-fuzz` front door: differential conformance fuzzing of the
//! out-of-order simulator against the in-order oracle.
//!
//! Three modes:
//!
//! - **smoke** (default): a fixed `(profiles × seeds)` matrix — 100 seeds
//!   per built-in profile, 5 tracker presets each — designed to gate PRs
//!   in under a minute. Output is byte-identical at any `--jobs` level.
//! - **soak** (`--soak --budget-secs N`): keeps drawing fresh seed batches
//!   until the time budget runs out; the nightly CI job runs this.
//! - **repro** (`--profile P --seed N [--shrink SPEC]`): replays one case,
//!   exactly as printed in a failure report.
//!
//! On divergence the process exits 1 after printing (and, with
//! `--artifact`, writing) one replayable repro line per failing seed.
//! `--inject-fault` flips the digest of one preset deterministically so CI
//! can prove the whole divergence → shrink → reproduce pipeline works.

use regshare_bench::fuzz::{
    case_matrix, check_spec, failure_artifact, render_report, run_cases, shrink, FuzzOptions,
};
use regshare_bench::RunOptions;
use regshare_workloads::fuzz::{profile_names, profiles, FuzzSpec, ShrinkSpec};

const USAGE: &str = "usage: fuzz [mode] [options]
modes:
  (default)                smoke: fixed seed matrix, PR gate
  --soak                   run until --budget-secs is spent (nightly)
  --profile P --seed N     repro one case (add --shrink \"SPEC\" from a report)
options:
  --profiles a,b,c   profiles to draw from (default: all built-ins)
  --seeds N          seeds per profile for smoke/soak batches (default 100)
  --seed-base B      first seed (default 1)
  --uops N           µ-ops per (program, preset) run (default 4000)
  --jobs N           worker threads (default: all cores)
  --budget-secs S    soak time budget (default 600)
  --resume PATH      soak: seed-cursor file; if it exists, continue from its
                     recorded seed instead of --seed-base, and rewrite it
                     after every batch so the next soak picks up where
                     this one ends
  --artifact PATH    write failing-seed repro lines to PATH
  --inject-fault     deterministic self-test fault (pipeline proof)
  --shrink SPEC      repro mode: apply a printed shrink spec
  --list-profiles    list generator profiles and exit
  --help             this text";

struct Args {
    profiles: Vec<String>,
    seeds: u64,
    seed_base: u64,
    uops: u64,
    jobs: usize,
    soak: bool,
    budget_secs: u64,
    resume: Option<String>,
    artifact: Option<String>,
    inject_fault: bool,
    repro: Option<(String, u64)>,
    shrink: Option<ShrinkSpec>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        profiles: profile_names().iter().map(|s| s.to_string()).collect(),
        seeds: 100,
        seed_base: 1,
        uops: 4_000,
        jobs: RunOptions::default().job_count(),
        soak: false,
        budget_secs: 600,
        resume: None,
        artifact: None,
        inject_fault: false,
        repro: None,
        shrink: None,
    };
    let mut repro_profile: Option<String> = None;
    let mut repro_seed: Option<u64> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--profiles" => {
                let v = value(&mut i)?;
                args.profiles = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--seeds" => {
                let v = value(&mut i)?;
                args.seeds = v.parse().map_err(|_| format!("bad --seeds {v:?}"))?;
            }
            "--seed-base" => {
                let v = value(&mut i)?;
                args.seed_base = v.parse().map_err(|_| format!("bad --seed-base {v:?}"))?;
            }
            "--uops" => {
                let v = value(&mut i)?;
                args.uops = v.parse().map_err(|_| format!("bad --uops {v:?}"))?;
            }
            "--jobs" => {
                let v = value(&mut i)?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs {v:?}"))?;
                // Same typed rejection as every other front door.
                args.jobs = RunOptions::default()
                    .try_jobs(n)
                    .map_err(|e| format!("--jobs: {e}"))?
                    .job_count();
            }
            "--soak" => args.soak = true,
            "--budget-secs" => {
                let v = value(&mut i)?;
                args.budget_secs = v.parse().map_err(|_| format!("bad --budget-secs {v:?}"))?;
            }
            "--resume" => args.resume = Some(value(&mut i)?),
            "--artifact" => args.artifact = Some(value(&mut i)?),
            "--inject-fault" => args.inject_fault = true,
            "--profile" => repro_profile = Some(value(&mut i)?),
            "--seed" => {
                let v = value(&mut i)?;
                repro_seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--shrink" => {
                let v = value(&mut i)?;
                args.shrink = Some(v.parse().map_err(|e| format!("bad --shrink: {e}"))?);
            }
            "--list-profiles" => {
                println!("fuzz generator profiles (workload names: fuzz-<profile>-<seed>):");
                for p in profiles() {
                    println!("  {:<10} {}", p.name, p.description);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    match (repro_profile, repro_seed) {
        (Some(p), Some(s)) => args.repro = Some((p, s)),
        (None, None) => {
            if args.shrink.is_some() {
                return Err("--shrink needs --profile and --seed".to_string());
            }
        }
        _ => return Err("repro mode needs both --profile and --seed".to_string()),
    }
    if args.uops == 0 {
        return Err("--uops must be at least 1".to_string());
    }
    if args.resume.is_some() && !args.soak {
        return Err("--resume only applies to --soak mode".to_string());
    }
    Ok(Some(args))
}

/// The soak seed cursor: where the next batch starts, plus a running
/// program count, persisted so a nightly soak continues the seed space
/// where the previous one stopped instead of re-fuzzing the same seeds.
struct Cursor {
    seed_base: u64,
    programs: u64,
}

/// Reads a cursor file. `Ok(None)` when the file does not exist (first
/// soak); malformed content is an error, never a silent restart.
fn load_cursor(path: &str) -> Result<Option<Cursor>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read cursor {path:?}: {e}")),
    };
    let mut seed_base: Option<u64> = None;
    let mut programs: Option<u64> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, v) = line
            .split_once('=')
            .ok_or_else(|| format!("cursor {path:?} line {}: expected key = value", lineno + 1))?;
        let v = v.trim();
        let parsed = v
            .parse::<u64>()
            .map_err(|_| format!("cursor {path:?} line {}: bad integer {v:?}", lineno + 1))?;
        match key.trim() {
            "seed_base" => seed_base = Some(parsed),
            "programs" => programs = Some(parsed),
            other => {
                return Err(format!(
                    "cursor {path:?} line {}: unknown key {other:?}",
                    lineno + 1
                ))
            }
        }
    }
    let seed_base = seed_base.ok_or_else(|| format!("cursor {path:?} has no seed_base"))?;
    Ok(Some(Cursor {
        seed_base,
        programs: programs.unwrap_or(0),
    }))
}

/// Writes the cursor atomically (`.tmp` + rename), so a kill mid-write
/// never leaves a torn cursor.
fn write_cursor(path: &str, cursor: &Cursor) -> Result<(), String> {
    let text = format!(
        "# regshare-fuzz seed cursor — next soak resumes here.\n\
         seed_base = {}\nprograms = {}\n",
        cursor.seed_base, cursor.programs
    );
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write cursor {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace cursor {path:?}: {e}"))
}

fn write_artifact(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("fuzz: cannot write artifact {path:?}: {e}");
    } else {
        eprintln!("fuzz: wrote failing-seed artifact {path:?}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(msg) => {
            eprintln!("fuzz: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let opts = FuzzOptions {
        uops: args.uops,
        jobs: args.jobs,
        inject_fault: args.inject_fault,
        ..FuzzOptions::default()
    };

    // Repro mode: one case, exactly as a report printed it.
    if let Some((profile, seed)) = &args.repro {
        let spec = match FuzzSpec::new(profile.clone(), *seed) {
            Ok(spec) => spec,
            Err(name) => {
                eprintln!(
                    "fuzz: unknown profile {name:?} (known: {})",
                    profile_names().join(", ")
                );
                std::process::exit(2);
            }
        };
        let shrink_spec = args.shrink.clone().unwrap_or_default();
        println!("# regshare-fuzz repro");
        println!(
            "case: {}  uops: {}  shrink: {}",
            spec.name(),
            opts.uops,
            if shrink_spec.is_noop() {
                "(none)".to_string()
            } else {
                shrink_spec.to_string()
            }
        );
        match check_spec(&spec, &shrink_spec, &opts) {
            None => println!("case conforms to the in-order oracle"),
            Some(divergence) => {
                println!("DIVERGED: {divergence}");
                if args.shrink.is_none() {
                    if let Some(report) = shrink(&spec, &opts) {
                        println!(
                            "shrunk {} -> {} blocks; minimal repro: fuzz --profile {} --seed {} \
                             --uops {} --shrink \"{}\"{}",
                            report.blocks_before,
                            report.blocks_after,
                            spec.profile,
                            spec.seed,
                            opts.uops,
                            report.spec,
                            if opts.inject_fault {
                                " --inject-fault"
                            } else {
                                ""
                            },
                        );
                    }
                }
                std::process::exit(1);
            }
        }
        return;
    }

    for profile in &args.profiles {
        if !profile_names().contains(&profile.as_str()) {
            eprintln!(
                "fuzz: unknown profile {profile:?} (known: {})",
                profile_names().join(", ")
            );
            std::process::exit(2);
        }
    }

    if args.soak {
        // Soak: fresh seed batches until the budget is spent. With
        // --resume, the seed cursor persists across soaks so consecutive
        // nightlies walk fresh seed space instead of restarting at
        // --seed-base every time.
        let start = std::time::Instant::now();
        let budget = std::time::Duration::from_secs(args.budget_secs);
        let mut cursor = Cursor {
            seed_base: args.seed_base,
            programs: 0,
        };
        if let Some(path) = &args.resume {
            match load_cursor(path) {
                Ok(Some(resumed)) => {
                    eprintln!(
                        "fuzz: resuming seed cursor from {path:?}: seed_base {} \
                         ({} programs fuzzed so far)",
                        resumed.seed_base, resumed.programs
                    );
                    cursor = resumed;
                }
                Ok(None) => eprintln!("fuzz: no cursor at {path:?} yet, starting fresh"),
                Err(msg) => {
                    eprintln!("fuzz: {msg}");
                    std::process::exit(2);
                }
            }
        }
        let mut total = 0usize;
        let mut all_failures = String::new();
        let mut failed = 0usize;
        while start.elapsed() < budget {
            let specs = case_matrix(&args.profiles, cursor.seed_base, args.seeds);
            let results = run_cases(&specs, &opts);
            total += results.len();
            let batch_failures = failure_artifact(&results, &opts);
            failed += results.iter().filter(|r| r.failure.is_some()).count();
            if !batch_failures.is_empty() {
                print!("{}", render_report(&results, &opts));
                all_failures.push_str(&batch_failures);
                // Rewrite the artifact after every failing batch: a CI
                // timeout mid-soak must not lose already-found repro lines.
                if let Some(path) = &args.artifact {
                    write_artifact(path, &all_failures);
                }
            }
            eprintln!(
                "fuzz: soak {total} programs, {failed} diverged, {:.0}s elapsed",
                start.elapsed().as_secs_f64()
            );
            cursor.seed_base = cursor.seed_base.wrapping_add(args.seeds);
            cursor.programs += results.len() as u64;
            if let Some(path) = &args.resume {
                if let Err(msg) = write_cursor(path, &cursor) {
                    eprintln!("fuzz: {msg}");
                }
            }
        }
        println!(
            "# regshare-fuzz soak: {total} programs x {} presets, {failed} diverged",
            regshare_bench::fuzz::tracker_presets().len()
        );
        if failed > 0 {
            std::process::exit(1);
        }
        return;
    }

    // Smoke: the fixed matrix, deterministic output.
    let specs = case_matrix(&args.profiles, args.seed_base, args.seeds);
    let results = run_cases(&specs, &opts);
    print!("{}", render_report(&results, &opts));
    eprintln!("[fuzz: {} jobs]", opts.jobs);
    let failures = failure_artifact(&results, &opts);
    if !failures.is_empty() {
        if let Some(path) = &args.artifact {
            write_artifact(path, &failures);
        }
        std::process::exit(1);
    }
}
