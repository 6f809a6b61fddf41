//! Rolling-window SLO evaluation with multi-window burn-rate alerts.
//!
//! The service's health is judged against two objectives — a latency
//! objective ("at least `latency_objective` of queries finish under
//! `latency_target_ns`") and an availability objective ("at least
//! `availability_objective` of queries succeed") — each evaluated over a
//! short and a long rolling window. An alert fires only when *both*
//! windows burn error budget faster than `burn_alert_threshold`: the
//! long window proves the problem is real, the short window proves it is
//! still happening. This is the standard multi-window burn-rate rule,
//! and it is deterministic: the engine never reads a clock unless asked
//! to stamp a sample itself, so tests drive it with synthetic
//! timestamps.
//!
//! Like every other surface in this crate the engine consumes only
//! timings and success flags — nothing derived from private data — so
//! the `privtopk_slo_*` series it feeds are data-independent by
//! construction.

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use parking_lot::Mutex;

use crate::{write_gauge, write_gauge_f64};

/// Objectives and windows for one service's SLO evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// A query slower than this violates the latency objective (ns).
    pub latency_target_ns: u64,
    /// Fraction of queries that must meet the latency target (e.g. 0.99).
    pub latency_objective: f64,
    /// Fraction of queries that must succeed (e.g. 0.999).
    pub availability_objective: f64,
    /// Short ("is it still happening") window, in microseconds.
    pub short_window_us: u64,
    /// Long ("is it real") window, in microseconds.
    pub long_window_us: u64,
    /// Both windows must burn budget faster than this to alert.
    pub burn_alert_threshold: f64,
}

impl Default for SloConfig {
    /// Defaults sized for an interactive private top-k service: 99% of
    /// queries under 250 ms, 99.9% availability, 10 s / 60 s windows,
    /// alert at 2x budget burn.
    fn default() -> Self {
        SloConfig {
            latency_target_ns: 250_000_000,
            latency_objective: 0.99,
            availability_objective: 0.999,
            short_window_us: 10_000_000,
            long_window_us: 60_000_000,
            burn_alert_threshold: 2.0,
        }
    }
}

/// One recorded query outcome: when it finished, how long it took,
/// whether it succeeded.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_us: u64,
    latency_ns: u64,
    ok: bool,
}

/// Burn rates for one objective across both windows, plus the
/// multi-window alert decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRate {
    /// Error budget consumed per unit budget in the short window.
    pub short: f64,
    /// Error budget consumed per unit budget in the long window.
    pub long: f64,
    /// Whether both windows exceed the alert threshold.
    pub alerting: bool,
}

/// Sample counts and violation counts observed in one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReport {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Samples that fell inside the window.
    pub samples: u64,
    /// Samples slower than the latency target.
    pub latency_violations: u64,
    /// Samples that failed outright.
    pub failures: u64,
}

/// Overall health verdict for the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStatus {
    /// No objective is burning budget beyond the alert threshold.
    Healthy,
    /// At least one objective alerts in both windows.
    Alerting,
}

/// A point-in-time SLO evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Evaluation instant (microseconds on the engine's clock).
    pub at_us: u64,
    /// The short window's raw counts.
    pub short: WindowReport,
    /// The long window's raw counts.
    pub long: WindowReport,
    /// Latency-objective burn rates and alert decision.
    pub latency: BurnRate,
    /// Availability-objective burn rates and alert decision.
    pub availability: BurnRate,
    /// Overall verdict.
    pub status: SloStatus,
}

impl SloReport {
    /// The `/healthz` body: first line `ok` or `alerting`, then one
    /// line per objective with both window burn rates.
    #[must_use]
    pub fn health_body(&self) -> String {
        let verdict = match self.status {
            SloStatus::Healthy => "ok",
            SloStatus::Alerting => "alerting",
        };
        format!(
            "{verdict}\nlatency burn: short {:.3}x long {:.3}x\n\
             availability burn: short {:.3}x long {:.3}x\n\
             samples: short {} long {}\n",
            self.latency.short,
            self.latency.long,
            self.availability.short,
            self.availability.long,
            self.short.samples,
            self.long.samples,
        )
    }

    /// Appends the `privtopk_slo_*` series to a Prometheus exposition
    /// body.
    pub fn write_prometheus(&self, body: &mut String) {
        write_gauge_f64(
            body,
            "privtopk_slo_latency_burn_short",
            "Latency error-budget burn rate over the short window.",
            self.latency.short,
        );
        write_gauge_f64(
            body,
            "privtopk_slo_latency_burn_long",
            "Latency error-budget burn rate over the long window.",
            self.latency.long,
        );
        write_gauge_f64(
            body,
            "privtopk_slo_availability_burn_short",
            "Availability error-budget burn rate over the short window.",
            self.availability.short,
        );
        write_gauge_f64(
            body,
            "privtopk_slo_availability_burn_long",
            "Availability error-budget burn rate over the long window.",
            self.availability.long,
        );
        write_gauge(
            body,
            "privtopk_slo_latency_alert",
            "1 when the latency objective burns past threshold in both windows.",
            u64::from(self.latency.alerting),
        );
        write_gauge(
            body,
            "privtopk_slo_availability_alert",
            "1 when the availability objective burns past threshold in both windows.",
            u64::from(self.availability.alerting),
        );
        write_gauge(
            body,
            "privtopk_slo_healthy",
            "1 while no objective alerts.",
            u64::from(self.status == SloStatus::Healthy),
        );
        write_gauge(
            body,
            "privtopk_slo_window_samples_short",
            "Query outcomes inside the short SLO window.",
            self.short.samples,
        );
        write_gauge(
            body,
            "privtopk_slo_window_samples_long",
            "Query outcomes inside the long SLO window.",
            self.long.samples,
        );
    }
}

/// The rolling sample store and evaluator.
///
/// `record` stamps samples on the engine's own monotonic clock;
/// `record_at`/`evaluate_at` take explicit microsecond stamps so tests
/// (and replays) are fully deterministic. Samples older than the long
/// window are evicted on insert, so memory stays bounded by throughput x
/// window, never by uptime.
pub struct SloEngine {
    config: SloConfig,
    epoch: Instant,
    samples: Mutex<VecDeque<Sample>>,
}

impl SloEngine {
    /// An engine with the given objectives, epoch = now.
    #[must_use]
    pub fn new(config: SloConfig) -> Self {
        SloEngine {
            config,
            epoch: Instant::now(),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// The objectives this engine evaluates against.
    #[must_use]
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records one query outcome stamped on the engine's clock.
    pub fn record(&self, latency_ns: u64, ok: bool) {
        let at_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_at(at_us, latency_ns, ok);
    }

    /// Records one query outcome at an explicit timestamp
    /// (microseconds). Timestamps may arrive slightly out of order;
    /// eviction uses the newest stamp seen.
    ///
    /// Evicting up to this stamp's own horizon is the same rule: the
    /// newest sample is never evicted, so every front sample already
    /// clears the newest stamp's horizon, and an older stamp's lower
    /// horizon evicts nothing.
    pub fn record_at(&self, at_us: u64, latency_ns: u64, ok: bool) {
        let mut samples = self.samples.lock();
        samples.push_back(Sample {
            at_us,
            latency_ns,
            ok,
        });
        let horizon = at_us.saturating_sub(self.config.long_window_us);
        while samples.front().is_some_and(|s| s.at_us < horizon) {
            samples.pop_front();
        }
    }

    /// Evaluates both objectives as of the engine's clock now.
    #[must_use]
    pub fn evaluate(&self) -> SloReport {
        let now_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.evaluate_at(now_us)
    }

    /// Evaluates both objectives as of `now_us` (microseconds).
    #[must_use]
    pub fn evaluate_at(&self, now_us: u64) -> SloReport {
        let samples = self.samples.lock();
        let short = self.window_report(&samples, now_us, self.config.short_window_us);
        let long = self.window_report(&samples, now_us, self.config.long_window_us);
        drop(samples);
        let latency = burn(
            &short,
            &long,
            |w| w.latency_violations,
            1.0 - self.config.latency_objective,
            self.config.burn_alert_threshold,
        );
        let availability = burn(
            &short,
            &long,
            |w| w.failures,
            1.0 - self.config.availability_objective,
            self.config.burn_alert_threshold,
        );
        let status = if latency.alerting || availability.alerting {
            SloStatus::Alerting
        } else {
            SloStatus::Healthy
        };
        SloReport {
            at_us: now_us,
            short,
            long,
            latency,
            availability,
            status,
        }
    }

    fn window_report(
        &self,
        samples: &VecDeque<Sample>,
        now_us: u64,
        window_us: u64,
    ) -> WindowReport {
        let horizon = now_us.saturating_sub(window_us);
        let mut report = WindowReport {
            window_us,
            samples: 0,
            latency_violations: 0,
            failures: 0,
        };
        for s in samples {
            if s.at_us < horizon || s.at_us > now_us {
                continue;
            }
            report.samples += 1;
            if s.latency_ns > self.config.latency_target_ns {
                report.latency_violations += 1;
            }
            if !s.ok {
                report.failures += 1;
            }
        }
        report
    }
}

impl fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SloEngine")
            .field("config", &self.config)
            .field("samples", &self.samples.lock().len())
            .finish()
    }
}

/// An empty window burns nothing: no data is "unknown", not "on fire",
/// and alerting on silence would page on every idle service.
fn burn(
    short: &WindowReport,
    long: &WindowReport,
    bad: impl Fn(&WindowReport) -> u64,
    budget: f64,
    threshold: f64,
) -> BurnRate {
    let rate = |w: &WindowReport| {
        if w.samples == 0 || budget <= 0.0 {
            return 0.0;
        }
        (bad(w) as f64 / w.samples as f64) / budget
    };
    let short_rate = rate(short);
    let long_rate = rate(long);
    BurnRate {
        short: short_rate,
        long: long_rate,
        alerting: short_rate > threshold && long_rate > threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> SloConfig {
        SloConfig {
            latency_target_ns: 1_000_000, // 1 ms
            latency_objective: 0.9,       // 10% budget
            availability_objective: 0.9,  // 10% budget
            short_window_us: 1_000,
            long_window_us: 10_000,
            burn_alert_threshold: 2.0,
        }
    }

    #[test]
    fn empty_engine_is_healthy_with_zero_burn() {
        let engine = SloEngine::new(test_config());
        let report = engine.evaluate_at(5_000);
        assert_eq!(report.status, SloStatus::Healthy);
        assert_eq!(report.latency.short, 0.0);
        assert_eq!(report.availability.long, 0.0);
        assert!(report.health_body().starts_with("ok\n"));
    }

    #[test]
    fn healthy_traffic_stays_under_threshold() {
        let engine = SloEngine::new(test_config());
        for i in 0..100 {
            engine.record_at(i * 100, 500_000, true); // all fast, all ok
        }
        let report = engine.evaluate_at(10_000);
        assert_eq!(report.long.samples, 100);
        assert_eq!(report.status, SloStatus::Healthy);
        assert_eq!(report.latency.long, 0.0);
    }

    #[test]
    fn burn_in_both_windows_fires_the_alert_deterministically() {
        let engine = SloEngine::new(test_config());
        // 9,000..10,000 us: slow queries land in BOTH windows when
        // evaluated at 10,000 (short window covers 9,000..10,000).
        for i in 0..50 {
            engine.record_at(9_000 + i * 20, 5_000_000, true); // all slow
        }
        let report = engine.evaluate_at(10_000);
        // 100% violations / 10% budget = 10x burn in both windows.
        assert!(report.latency.short > 2.0 && report.latency.long > 2.0);
        assert!(report.latency.alerting);
        assert!(!report.availability.alerting); // all succeeded
        assert_eq!(report.status, SloStatus::Alerting);
        assert!(report.health_body().starts_with("alerting\n"));
    }

    #[test]
    fn short_window_recovery_clears_the_alert() {
        let engine = SloEngine::new(test_config());
        // Old burn: slow queries early in the long window only.
        for i in 0..50 {
            engine.record_at(i * 20, 5_000_000, false);
        }
        // Recent traffic is healthy.
        for i in 0..50 {
            engine.record_at(9_000 + i * 20, 100_000, true);
        }
        let report = engine.evaluate_at(10_000);
        // Long window still burning, short window clean: no alert. This
        // is the multi-window rule doing its job.
        assert!(report.latency.long > 2.0);
        assert!(report.latency.short < 2.0);
        assert!(!report.latency.alerting);
        assert!(!report.availability.alerting);
        assert_eq!(report.status, SloStatus::Healthy);
    }

    #[test]
    fn availability_objective_tracks_failures() {
        let engine = SloEngine::new(test_config());
        for i in 0..20 {
            engine.record_at(9_500 + i * 10, 100_000, i % 2 == 0);
        }
        let report = engine.evaluate_at(10_000);
        // 50% failures / 10% budget = 5x burn in both windows.
        assert!(report.availability.alerting);
        assert!(!report.latency.alerting);
        assert_eq!(report.short.failures, 10);
    }

    #[test]
    fn samples_older_than_the_long_window_are_evicted() {
        let engine = SloEngine::new(test_config());
        for i in 0..100 {
            engine.record_at(i * 1_000, 100_000, true);
        }
        // Only stamps within long_window_us (10_000) of the newest
        // (99_000) survive eviction: 89_000..=99_000.
        let report = engine.evaluate_at(99_000);
        assert_eq!(report.long.samples, 11);
        assert_eq!(engine.samples.lock().len(), 11);
    }

    /// Out-of-order stamps: evicting by each stamp's own horizon keeps
    /// exactly what rescanning the window for its newest stamp did.
    #[test]
    fn stamp_horizon_eviction_matches_the_window_scan() {
        /// Records into `engine` by the rule that scans the window for
        /// its newest stamp on every record.
        fn record_by_scan(engine: &SloEngine, at_us: u64, latency_ns: u64, ok: bool) {
            let mut samples = engine.samples.lock();
            samples.push_back(Sample {
                at_us,
                latency_ns,
                ok,
            });
            let newest = samples.iter().map(|s| s.at_us).max().unwrap_or(at_us);
            let horizon = newest.saturating_sub(engine.config.long_window_us);
            while samples.front().is_some_and(|s| s.at_us < horizon) {
                samples.pop_front();
            }
        }

        let engine = SloEngine::new(test_config());
        let reference = SloEngine::new(test_config());
        // splitmix64: seeded stamps that mostly advance but jump back by
        // up to 1.5 long windows.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut clock = 20_000u64;
        let mut newest = 0u64;
        for _ in 0..2_000 {
            clock += next() % 400;
            let at_us = if next() % 4 == 0 {
                clock.saturating_sub(next() % 15_000)
            } else {
                clock
            };
            let latency_ns = next() % 2_000_000;
            let ok = next() % 8 != 0;
            engine.record_at(at_us, latency_ns, ok);
            record_by_scan(&reference, at_us, latency_ns, ok);
            newest = newest.max(at_us);
            for now_us in [at_us, newest] {
                assert_eq!(engine.evaluate_at(now_us), reference.evaluate_at(now_us));
            }
            assert_eq!(engine.samples.lock().len(), reference.samples.lock().len());
        }
    }

    #[test]
    fn prometheus_series_cover_both_objectives() {
        let engine = SloEngine::new(test_config());
        for i in 0..10 {
            engine.record_at(9_000 + i * 100, 5_000_000, false);
        }
        let report = engine.evaluate_at(10_000);
        let mut body = String::new();
        report.write_prometheus(&mut body);
        for series in [
            "privtopk_slo_latency_burn_short",
            "privtopk_slo_latency_burn_long",
            "privtopk_slo_availability_burn_short",
            "privtopk_slo_availability_burn_long",
            "privtopk_slo_latency_alert 1",
            "privtopk_slo_availability_alert 1",
            "privtopk_slo_healthy 0",
            "privtopk_slo_window_samples_short 10",
            "privtopk_slo_window_samples_long 10",
        ] {
            assert!(body.contains(series), "missing {series} in:\n{body}");
        }
    }

    #[test]
    fn wall_clock_record_path_works() {
        let engine = SloEngine::new(SloConfig::default());
        engine.record(1_000_000, true);
        engine.record(900_000_000, false); // slow and failed
        let report = engine.evaluate();
        assert_eq!(report.short.samples, 2);
        assert_eq!(report.short.latency_violations, 1);
        assert_eq!(report.short.failures, 1);
        // Two samples: 50% bad against 1%/0.1% budgets burns hot in
        // both windows -> deterministic alert even on a wall clock.
        assert_eq!(report.status, SloStatus::Alerting);
    }
}
