//! Run options: the one documented, programmatic knob set for warmup /
//! measurement window sizes and sweep parallelism.
//!
//! Scenario files and CLI flags set [`RunOptions`] explicitly; nothing is
//! read from the environment. Resolution order for each knob:
//!
//! 1. the explicit [`RunOptions`] value (scenario file or CLI flag),
//! 2. the built-in default (60 000 warmup / 240 000 measured µ-ops,
//!    all available cores).

use crate::harness::RunWindow;

/// Default warmup window (µ-ops) when the options leave it unset.
pub const DEFAULT_WARMUP: u64 = 60_000;
/// Default measured window (µ-ops).
pub const DEFAULT_MEASURE: u64 = 240_000;

/// Warmup / measurement window sizes and worker count for one experiment.
///
/// `None` fields defer to the defaults, so a scenario file only pins what
/// it cares about.
///
/// # Examples
///
/// ```
/// use regshare_bench::RunOptions;
///
/// let opts = RunOptions::default().warmup(1_000).measure(4_000).jobs(2);
/// let window = opts.window();
/// assert_eq!((window.warmup, window.measure), (1_000, 4_000));
/// assert_eq!(opts.job_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// µ-ops run before measurement starts (caches/predictors warm up).
    pub warmup: Option<u64>,
    /// µ-ops measured.
    pub measure: Option<u64>,
    /// Sweep worker threads.
    pub jobs: Option<usize>,
}

/// Typed rejection of a zero worker count — the shared error every front
/// door (`--jobs 0`, `jobs = 0` in a scenario file, [`RunOptions::try_jobs`])
/// reports instead of silently clamping or degenerating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroJobsError;

impl std::fmt::Display for ZeroJobsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "jobs must be at least 1 (leave it unset for available parallelism)"
        )
    }
}

impl std::error::Error for ZeroJobsError {}

impl RunOptions {
    /// Sets the warmup window (µ-ops).
    pub fn warmup(mut self, uops: u64) -> Self {
        self.warmup = Some(uops);
        self
    }

    /// Sets the measured window (µ-ops).
    pub fn measure(mut self, uops: u64) -> Self {
        self.measure = Some(uops);
        self
    }

    /// Sets the sweep worker count (clamped to at least one). Prefer
    /// [`RunOptions::try_jobs`] where a zero can come from user input —
    /// it reports the zero instead of papering over it.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Sets the sweep worker count, rejecting zero with a typed error —
    /// the validating twin of [`RunOptions::jobs`] used by the CLI and the
    /// scenario parser.
    pub fn try_jobs(mut self, jobs: usize) -> Result<Self, ZeroJobsError> {
        if jobs == 0 {
            return Err(ZeroJobsError);
        }
        self.jobs = Some(jobs);
        Ok(self)
    }

    /// Overlays `self` on top of `base`: explicit fields win, unset fields
    /// fall through (CLI flags over scenario-file options, say).
    pub fn over(self, base: RunOptions) -> RunOptions {
        RunOptions {
            warmup: self.warmup.or(base.warmup),
            measure: self.measure.or(base.measure),
            jobs: self.jobs.or(base.jobs),
        }
    }

    /// Resolves the measurement window, defaulting unset fields.
    pub fn window(&self) -> RunWindow {
        RunWindow {
            warmup: self.warmup.unwrap_or(DEFAULT_WARMUP),
            measure: self.measure.unwrap_or(DEFAULT_MEASURE),
        }
    }

    /// Resolves the worker count, defaulting to available parallelism.
    /// Always at least one, whatever a hand-constructed `jobs` field says.
    pub fn job_count(&self) -> usize {
        self.jobs.filter(|&n| n > 0).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_options_win_and_defaults_backstop() {
        let opts = RunOptions::default().warmup(123).measure(456);
        let w = opts.window();
        assert_eq!((w.warmup, w.measure), (123, 456));
        // jobs unset: available parallelism, which is at least 1.
        assert!(opts.job_count() >= 1);
    }

    #[test]
    fn over_prefers_the_overlay() {
        let file = RunOptions::default().warmup(10).jobs(3);
        let cli = RunOptions::default().warmup(99);
        let merged = cli.over(file);
        assert_eq!(merged.warmup, Some(99));
        assert_eq!(merged.jobs, Some(3));
        assert_eq!(merged.measure, None);
    }

    #[test]
    fn jobs_clamps_to_one() {
        assert_eq!(RunOptions::default().jobs(0).jobs, Some(1));
    }

    #[test]
    fn try_jobs_rejects_zero_with_a_typed_error() {
        assert_eq!(RunOptions::default().try_jobs(0), Err(ZeroJobsError));
        assert!(ZeroJobsError.to_string().contains("at least 1"));
        let ok = RunOptions::default().try_jobs(3).unwrap();
        assert_eq!(ok.jobs, Some(3));
        // The error is a std error so front doors can `?` it.
        let _: Box<dyn std::error::Error> = Box::new(ZeroJobsError);
    }

    #[test]
    fn job_count_never_returns_zero() {
        let zero = RunOptions {
            jobs: Some(0),
            ..RunOptions::default()
        };
        assert!(zero.job_count() >= 1, "hand-constructed 0 is ignored");
    }
}
