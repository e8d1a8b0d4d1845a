//! Configuration of the test-suite, mirroring the CLI of the paper's
//! `test_suite.sh` wrapper plus the knobs its Python scripts hard-code.

use pathdb::Durability;
use scion_sim::addr::IsdAsn;
use scion_sim::topology::scionlab::MY_AS;

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
    /// Bandwidth-test duration per direction, seconds.
    pub bw_duration_s: f64,
    /// Target bandwidth of the tests, Mbps (12 in the standard campaign,
    /// 150 in the stress campaign of Fig. 8).
    pub bw_target_mbps: f64,
    /// Small-packet size for the first bandwidth test, bytes.
    pub bw_small_bytes: u32,
    /// Run the bandwidth tests at all (latency-only campaigns are much
    /// faster; the Fig. 5/6/9 analyses only need ping data).
    pub run_bwtests: bool,
    /// Test destinations concurrently. Parallel and sequential runs
    /// produce the identical `paths_stats` document set for the same
    /// seed: each destination runs on its own deterministic network
    /// fork and batches commit in destination order.
    pub parallel: bool,
    /// Worker-pool size for `--parallel` campaigns; the runner never
    /// holds more than this many destination measurements in flight.
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
    /// Crash-safety level of the database the campaign writes to
    /// (`--durability {none,snapshot,wal}`). With `wal`, every
    /// per-destination bulk insertion is one WAL commit group, making
    /// §4.2.2's loss bound hold across process crashes; the suite and
    /// the round loop additionally checkpoint after each campaign/round.
    pub durability: Durability,
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
            bw_duration_s: 3.0,
            bw_target_mbps: 12.0,
            bw_small_bytes: 64,
            run_bwtests: true,
            parallel: false,
            workers: 4,
            retry_attempts: 2,
            retry_base_ms: 200.0,
            retry_multiplier: 2.0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 30_000.0,
            durability: Durability::None,
        }
    }
}

impl SuiteConfig {
    /// Start a validating builder over the paper defaults:
    /// `SuiteConfig::builder().workers(8).durability(Durability::Wal).build()?`.
    pub fn builder() -> SuiteConfigBuilder {
        SuiteConfigBuilder {
            cfg: SuiteConfig::default(),
        }
    }

    /// Reject configurations no campaign can sensibly run with. Called
    /// by [`SuiteConfigBuilder::build`] and [`SuiteConfig::from_args`];
    /// hand-built struct literals can bypass it, at their own risk.
    pub fn validate(&self) -> Result<(), String> {
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
        if self.run_bwtests && self.bw_duration_s <= 0.0 {
            return Err("bandwidth tests need a positive duration".into());
        }
        if self.run_bwtests && self.bw_target_mbps <= 0.0 {
            return Err("bandwidth tests need a positive target rate".into());
        }
        Ok(())
    }

    /// Parse the wrapper-script argument vector:
    /// `test_suite.sh <iterations> [--skip] [--some-only] [--parallel]
    /// [--workers <n>] [--retries <n>] [--durability <level>]`.
    pub fn from_args<I, S>(args: I) -> Result<SuiteConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = SuiteConfig::default();
        let mut saw_iterations = false;
        let mut expecting: Option<&'static str> = None;
        for arg in args {
            let arg = arg.as_ref();
            if let Some(opt) = expecting.take() {
                match opt {
                    "--workers" => {
                        cfg.workers =
                            arg.parse().ok().filter(|w| *w >= 1).ok_or_else(|| {
                                format!("--workers needs a count >= 1, got {arg:?}")
                            })?;
                    }
                    "--retries" => {
                        cfg.retry_attempts = arg
                            .parse()
                            .map_err(|_| format!("--retries must be an integer, got {arg:?}"))?;
                    }
                    "--durability" => {
                        cfg.durability = arg.parse().map_err(|e| format!("--durability: {e}"))?;
                    }
                    _ => unreachable!(),
                }
                continue;
            }
            match arg {
                "--skip" => cfg.skip_collection = true,
                "--some-only" => cfg.some_only = true,
                "--parallel" => cfg.parallel = true,
                "--workers" => expecting = Some("--workers"),
                "--retries" => expecting = Some("--retries"),
                "--durability" => expecting = Some("--durability"),
                other if !saw_iterations => {
                    cfg.iterations = other
                        .parse()
                        .map_err(|_| format!("iterations must be an integer, got {other:?}"))?;
                    saw_iterations = true;
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        if let Some(opt) = expecting {
            return Err(format!("{opt} needs a value"));
        }
        if !saw_iterations {
            return Err("missing <iterations> argument".into());
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The `-cs` parameter string for the small-packet test.
    pub fn small_spec(&self) -> String {
        format!(
            "{},{},?,{}Mbps",
            self.bw_duration_s, self.bw_small_bytes, self.bw_target_mbps
        )
    }

    /// The `-cs` parameter string for the MTU-sized test.
    pub fn mtu_spec(&self) -> String {
        format!("{},MTU,?,{}Mbps", self.bw_duration_s, self.bw_target_mbps)
    }
}

/// Chainable, validating constructor for [`SuiteConfig`]. Starts from
/// the paper defaults; [`SuiteConfigBuilder::build`] rejects nonsense
/// combinations (zero workers, retries with no backoff, ...) instead of
/// letting a campaign spin on them.
#[derive(Debug, Clone)]
pub struct SuiteConfigBuilder {
    cfg: SuiteConfig,
}

impl SuiteConfigBuilder {
    pub fn iterations(mut self, n: u32) -> Self {
        self.cfg.iterations = n;
        self
    }

    pub fn skip_collection(mut self, v: bool) -> Self {
        self.cfg.skip_collection = v;
        self
    }

    pub fn some_only(mut self, v: bool) -> Self {
        self.cfg.some_only = v;
        self
    }

    pub fn max_paths(mut self, n: usize) -> Self {
        self.cfg.max_paths = n;
        self
    }

    pub fn hop_slack(mut self, n: usize) -> Self {
        self.cfg.hop_slack = n;
        self
    }

    /// Ping probe count and inter-probe interval (`-c`, `--interval`).
    pub fn ping(mut self, count: u32, interval_ms: f64) -> Self {
        self.cfg.ping_count = count;
        self.cfg.ping_interval_ms = interval_ms;
        self
    }

    /// Bandwidth-test duration and target rate; pass `run = false` to
    /// skip bandwidth testing entirely (latency-only campaigns).
    pub fn bandwidth(mut self, run: bool, duration_s: f64, target_mbps: f64) -> Self {
        self.cfg.run_bwtests = run;
        self.cfg.bw_duration_s = duration_s;
        self.cfg.bw_target_mbps = target_mbps;
        self
    }

    pub fn parallel(mut self, v: bool) -> Self {
        self.cfg.parallel = v;
        self
    }

    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    pub fn retries(mut self, attempts: u32) -> Self {
        self.cfg.retry_attempts = attempts;
        self
    }

    /// Backoff before the first retry and the growth factor applied
    /// after each failed attempt.
    pub fn retry_backoff(mut self, base_ms: f64, multiplier: f64) -> Self {
        self.cfg.retry_base_ms = base_ms;
        self.cfg.retry_multiplier = multiplier;
        self
    }

    pub fn breaker_threshold(mut self, n: usize) -> Self {
        self.cfg.breaker_threshold = n;
        self
    }

    /// Cooldown before an open breaker admits its half-open trial.
    pub fn breaker_cooldown_ms(mut self, ms: f64) -> Self {
        self.cfg.breaker_cooldown_ms = ms;
        self
    }

    pub fn durability(mut self, level: Durability) -> Self {
        self.cfg.durability = level;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SuiteConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

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
    fn builder_builds_and_validates() {
        let c = SuiteConfig::builder()
            .iterations(10)
            .workers(8)
            .durability(Durability::Wal)
            .parallel(true)
            .ping(5, 50.0)
            .bandwidth(false, 3.0, 12.0)
            .build()
            .unwrap();
        assert_eq!(c.iterations, 10);
        assert_eq!(c.workers, 8);
        assert_eq!(c.durability, Durability::Wal);
        assert!(c.parallel && !c.run_bwtests);
        assert_eq!(c.ping_count, 5);
    }

    #[test]
    fn builder_rejects_nonsense_combinations() {
        assert!(SuiteConfig::builder().workers(0).build().is_err());
        assert!(SuiteConfig::builder().iterations(0).build().is_err());
        assert!(SuiteConfig::builder()
            .retries(3)
            .retry_backoff(0.0, 2.0)
            .build()
            .is_err());
        assert!(SuiteConfig::builder()
            .retries(3)
            .retry_backoff(100.0, 0.5)
            .build()
            .is_err());
        assert!(SuiteConfig::builder().ping(0, 100.0).build().is_err());
        assert!(SuiteConfig::builder().max_paths(0).build().is_err());
        assert!(SuiteConfig::builder()
            .breaker_cooldown_ms(0.0)
            .build()
            .is_err());
        assert!(SuiteConfig::builder()
            .breaker_cooldown_ms(f64::NAN)
            .build()
            .is_err());
        // No breaker, no cooldown to validate.
        assert!(SuiteConfig::builder()
            .breaker_threshold(0)
            .breaker_cooldown_ms(0.0)
            .build()
            .is_ok());
        assert!(SuiteConfig::builder()
            .bandwidth(true, 0.0, 12.0)
            .build()
            .is_err());
        // The same combos are fine when the offending feature is off.
        assert!(SuiteConfig::builder()
            .retries(0)
            .retry_backoff(0.0, 2.0)
            .build()
            .is_ok());
        assert!(SuiteConfig::builder()
            .bandwidth(false, 0.0, 12.0)
            .build()
            .is_ok());
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
        assert!(SuiteConfig::from_args(["3", "--durability"]).is_err());
        assert!(SuiteConfig::from_args(["3", "--durability", "everything"]).is_err());
    }

    #[test]
    fn parses_durability_levels() {
        assert_eq!(SuiteConfig::default().durability, Durability::None);
        for (arg, level) in [
            ("none", Durability::None),
            ("snapshot", Durability::Snapshot),
            ("wal", Durability::Wal),
        ] {
            let c = SuiteConfig::from_args(["2", "--durability", arg]).unwrap();
            assert_eq!(c.durability, level, "{arg}");
        }
    }

    #[test]
    fn parses_runner_knobs() {
        let c = SuiteConfig::from_args(["7", "--parallel", "--workers", "2", "--retries", "5"])
            .unwrap();
        assert!(c.parallel);
        assert_eq!(c.workers, 2);
        assert_eq!(c.retry_attempts, 5);
        // Defaults keep the runner conservative but self-healing.
        let d = SuiteConfig::default();
        assert_eq!(d.workers, 4);
        assert_eq!(d.retry_attempts, 2);
        assert_eq!(d.breaker_threshold, 3);
        assert_eq!(d.breaker_cooldown_ms, 30_000.0);
    }
}
