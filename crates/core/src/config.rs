//! Configuration of the test-suite, mirroring the CLI of the paper's
//! `test_suite.sh` wrapper plus the knobs its Python scripts hard-code.

use scion_sim::addr::IsdAsn;
use scion_sim::topology::scionlab::MY_AS;
use scion_tools::args::{Parsed, Spec};

/// Test-suite configuration.
///
/// Defaults reproduce the paper's invocation:
/// `./test_suite.sh <iterations>` with `scion showpaths --extended -m 40`,
/// path retention at `min_hops + 1`, `scion ping -c 30 --interval 0.1s`,
/// and `scion-bwtestclient -cs 3,{64,MTU},?,12Mbps`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// The local (client) AS the suite runs from.
    pub local_as: IsdAsn,
    /// `<iterations>`: how many times each path is measured.
    pub iterations: u32,
    /// `--skip`: bypass the path-collection phase (paths already stored).
    pub skip_collection: bool,
    /// `--some-only`: restrict testing to the first destination.
    pub some_only: bool,
    /// `showpaths -m`: maximum paths requested per destination.
    pub max_paths: usize,
    /// Retain only paths with `hops ≤ min_hops + hop_slack` (§5.2 uses 1).
    pub hop_slack: usize,
    /// Ping probes per path (`-c`).
    pub ping_count: u32,
    /// Ping inter-probe interval, ms (`--interval 0.1s`).
    pub ping_interval_ms: f64,
    /// Target bandwidth of the tests, Mbps (12 in the standard campaign,
    /// 150 in the stress campaign of Fig. 8).
    pub bw_target_mbps: f64,
    /// Run the bandwidth tests at all (latency-only campaigns are much
    /// faster; the Fig. 5/6/9 analyses only need ping data).
    pub run_bwtests: bool,
    /// Worker-pool size: the runner never holds more than this many
    /// destination measurements in flight, and 1 tests them one after
    /// the other on the caller's thread. Every size produces the
    /// identical `paths_stats` document set for the same seed: each
    /// destination runs on its own deterministic network fork and
    /// batches commit in destination order.
    pub workers: usize,
    /// Extra attempts per failed tool invocation (0 disables retry).
    pub retry_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub retry_base_ms: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub retry_multiplier: f64,
    /// Circuit breaker: after this many *consecutive* hard-failed paths
    /// on one destination, its remaining paths are skipped for the
    /// iteration and the destination is recorded in the report.
    pub breaker_threshold: usize,
    /// Cooldown before an open breaker admits a half-open trial probe,
    /// in simulated milliseconds. After a destination trips, it is held
    /// (paths skipped, no probes) until the cooldown — jittered by the
    /// seeded network RNG — elapses on the campaign clock; the next
    /// iteration then admits exactly one trial path, closing the
    /// breaker on success and re-opening it on failure.
    pub breaker_cooldown_ms: f64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            local_as: MY_AS,
            iterations: 1,
            skip_collection: false,
            some_only: false,
            max_paths: 40,
            hop_slack: 1,
            ping_count: 30,
            ping_interval_ms: 100.0,
            bw_target_mbps: 12.0,
            run_bwtests: true,
            workers: 1,
            retry_attempts: 2,
            retry_base_ms: 200.0,
            retry_multiplier: 2.0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 30_000.0,
        }
    }
}

impl SuiteConfig {
    /// Reject configurations no campaign can sensibly run with. Called
    /// by [`SuiteConfig::from_args`]; hand-built struct literals can
    /// bypass it, at their own risk.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.retry_attempts > 0 && self.retry_base_ms <= 0.0 {
            return Err(format!(
                "retries ({}) with a non-positive backoff ({} ms) would hammer \
                 failing destinations with no delay",
                self.retry_attempts, self.retry_base_ms
            ));
        }
        if self.retry_attempts > 0 && self.retry_multiplier < 1.0 {
            return Err(format!(
                "retry multiplier must be >= 1, got {}",
                self.retry_multiplier
            ));
        }
        if self.ping_count == 0 {
            return Err("ping count must be at least 1".into());
        }
        if self.ping_interval_ms < 0.0 {
            return Err("ping interval must not be negative".into());
        }
        if self.max_paths == 0 {
            return Err("max_paths must be at least 1".into());
        }
        if self.breaker_threshold > 0
            && !(self.breaker_cooldown_ms.is_finite() && self.breaker_cooldown_ms > 0.0)
        {
            return Err(format!(
                "the circuit breaker needs a positive cooldown, got {} ms",
                self.breaker_cooldown_ms
            ));
        }
        if self.run_bwtests && self.bw_target_mbps <= 0.0 {
            return Err("bandwidth tests need a positive target rate".into());
        }
        Ok(())
    }

    /// The wrapper script's option table:
    /// `test_suite.sh <iterations> [--skip] [--some-only] [--parallel]
    /// [--workers <n>] [--retries <n>]`.
    pub fn spec() -> Spec {
        crate::pool::options(Spec::new(1, 1).flag("skip").flag("some-only")).value("retries")
    }

    /// Parse the wrapper-script argument vector against
    /// [`SuiteConfig::spec`].
    pub fn from_args<I, S>(args: I) -> Result<SuiteConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        SuiteConfig::from_parsed(&SuiteConfig::spec().parse(args)?)
    }

    /// Read and validate a configuration from arguments parsed against
    /// [`SuiteConfig::spec`] (or a table extending it).
    pub fn from_parsed(p: &Parsed) -> Result<SuiteConfig, String> {
        let defaults = SuiteConfig::default();
        let iterations = &p.positional[0];
        let cfg = SuiteConfig {
            iterations: iterations
                .parse()
                .map_err(|_| format!("iterations must be an integer, got {iterations:?}"))?,
            skip_collection: p.flag("skip"),
            some_only: p.flag("some-only"),
            workers: crate::pool::workers_from(p)?,
            retry_attempts: p.get_or("retries", defaults.retry_attempts)?,
            ..defaults
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// The `-cs` parameter string for the small-packet test.
    pub fn small_spec(&self) -> String {
        format!(
            "{BW_DURATION_S},{BW_SMALL_BYTES},?,{}Mbps",
            self.bw_target_mbps
        )
    }

    /// The `-cs` parameter string for the MTU-sized test.
    pub fn mtu_spec(&self) -> String {
        format!("{BW_DURATION_S},MTU,?,{}Mbps", self.bw_target_mbps)
    }
}

/// Bandwidth-test duration per direction, seconds.
const BW_DURATION_S: f64 = 3.0;
/// Small-packet size for the first bandwidth test, bytes.
const BW_SMALL_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SuiteConfig::default();
        assert_eq!(c.max_paths, 40);
        assert_eq!(c.hop_slack, 1);
        assert_eq!(c.ping_count, 30);
        assert_eq!(c.ping_interval_ms, 100.0);
        assert_eq!(c.bw_target_mbps, 12.0);
        assert_eq!(c.small_spec(), "3,64,?,12Mbps");
        assert_eq!(c.mtu_spec(), "3,MTU,?,12Mbps");
    }

    #[test]
    fn parses_paper_example_invocation() {
        // `./test_suite.sh 100 --skip`
        let c = SuiteConfig::from_args(["100", "--skip"]).unwrap();
        assert_eq!(c.iterations, 100);
        assert!(c.skip_collection);
        assert!(!c.some_only);
    }

    #[test]
    fn parses_some_only() {
        let c = SuiteConfig::from_args(["5", "--some-only"]).unwrap();
        assert!(c.some_only);
        // The legacy underscore spelling was retired.
        let err = SuiteConfig::from_args(["5", "--some_only"]);
        assert!(err.is_err(), "{err:?}");
    }

    #[test]
    fn validate_rejects_nonsense_combinations() {
        let base = SuiteConfig::default;
        let bad = |cfg: SuiteConfig| cfg.validate().is_err();
        assert!(!bad(base()));
        assert!(bad(SuiteConfig {
            workers: 0,
            ..base()
        }));
        assert!(bad(SuiteConfig {
            iterations: 0,
            ..base()
        }));
        let retries = |retry_attempts, retry_base_ms, retry_multiplier| SuiteConfig {
            retry_attempts,
            retry_base_ms,
            retry_multiplier,
            ..base()
        };
        assert!(bad(retries(3, 0.0, 2.0)));
        assert!(bad(retries(3, 100.0, 0.5)));
        assert!(bad(SuiteConfig {
            ping_count: 0,
            ..base()
        }));
        assert!(bad(SuiteConfig {
            max_paths: 0,
            ..base()
        }));
        let breaker = |breaker_threshold, breaker_cooldown_ms| SuiteConfig {
            breaker_threshold,
            breaker_cooldown_ms,
            ..base()
        };
        assert!(bad(breaker(3, 0.0)));
        assert!(bad(breaker(3, f64::NAN)));
        // No breaker, no cooldown to validate.
        assert!(!bad(breaker(0, 0.0)));
        // The same combo is fine when the offending feature is off.
        assert!(!bad(retries(0, 0.0, 2.0)));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(SuiteConfig::from_args(["--skip"]).is_err());
        assert!(SuiteConfig::from_args(Vec::<&str>::new()).is_err());
        assert!(SuiteConfig::from_args(["0"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--wat"]).is_err());
        assert!(SuiteConfig::from_args(["3", "4"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--workers"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--workers", "0"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--retries", "x"]).is_err());
        // The database's crash-safety level is the session's to parse.
        assert!(SuiteConfig::from_args(["3", "--durability", "wal"]).is_err());
        // What the hand-written loop special-cased: a value missing at
        // the end, a value that is itself an option, a non-number, and
        // a leading-digit dash token, which stays positional.
        assert!(SuiteConfig::from_args(["3", "--retries"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--workers", "--parallel"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--workers", "lots"]).is_err());
        let err = SuiteConfig::from_args(["-5"]).unwrap_err();
        assert!(err.contains("iterations must be an integer"), "{err}");
        assert!(SuiteConfig::from_args(["3", "-5"]).is_err());
    }

    #[test]
    fn parses_runner_knobs() {
        let c = SuiteConfig::from_args(["7", "--parallel", "--workers", "2", "--retries", "5"])
            .unwrap();
        assert_eq!(c.workers, 2);
        assert_eq!(c.retry_attempts, 5);
        // One value decides the pool: `--workers N` means N with or
        // without `--parallel`, which alone asks for the default pool.
        let workers = |args: &[&str]| SuiteConfig::from_args(args).unwrap().workers;
        assert_eq!(workers(&["7", "--workers", "2"]), 2);
        assert_eq!(workers(&["7", "--parallel"]), crate::pool::PARALLEL_WORKERS);
        assert_eq!(workers(&["7"]), 1);
        // Defaults keep the runner conservative but self-healing.
        let d = SuiteConfig::default();
        assert_eq!(d.workers, 1);
        assert_eq!(d.retry_attempts, 2);
        assert_eq!(d.breaker_threshold, 3);
        assert_eq!(d.breaker_cooldown_ms, 30_000.0);
    }
}
