//! Online privacy accounting: the streaming [`LopAccountant`] that
//! turns the offline LoP machinery into an always-on observability
//! layer for a standing service.
//!
//! # Data independence, by construction
//!
//! The accountant never sees a private value, a query seed or a result.
//! Its only input is [`QueryObserver::on_query`]'s protocol
//! coordinates: the (configuration-only) [`ProtocolConfig`], the ring
//! size `n` and the resolved round count. From those it derives
//! *expected* LoP estimates by replaying the experiment harness's
//! Monte-Carlo recipe on **synthetic reference data** — the same
//! `DatasetBuilder` seeding, the same `SimulationEngine`, the same
//! [`SuccessorAdversary`] estimator and the same trial-order
//! accumulation as `ExperimentSetup::measure_lop`. Two services running
//! the same configuration over *different private databases* therefore
//! publish byte-identical privacy series, and the live estimates agree
//! exactly with the offline harness on the same shadow seed.
//!
//! # Cost model
//!
//! [`observe`](LopAccountant::observe) (the per-query hot path) only
//! counts — no simulation, and no coordinate key unless the coordinates
//! differ from the previous query's. The Monte-Carlo estimation runs
//! lazily, once per distinct coordinate set, the first time somebody
//! *reads* the accountant ([`snapshot`](LopAccountant::snapshot)) — i.e.
//! on the scrape path, never on the query path.

use std::collections::BTreeMap;
use std::sync::Mutex;

use privtopk_core::{ProtocolConfig, QueryObserver, RoundPolicy, Schedule, SimulationEngine};
use privtopk_datagen::{DataDistribution, DatasetBuilder};
use privtopk_domain::rng::derive_seed;
use privtopk_domain::PrivacySpectrum;

use crate::{LopAccumulator, SpectrumReport, SuccessorAdversary};

/// Shadow-trial count matching the paper's "each plot is averaged over
/// 100 experiments" (and `ExperimentSetup::paper`'s default).
pub const DEFAULT_SHADOW_TRIALS: usize = 100;

/// Shadow master seed matching `ExperimentSetup::paper`'s default, so a
/// default accountant agrees bit-for-bit with the default harness.
pub const DEFAULT_SHADOW_SEED: u64 = 0x5EED;

/// Cap on retained per-query ledger entries; queries beyond the cap
/// still count (see [`AccountantSnapshot::queries_accounted`]) but keep
/// no individual entry, so a long-lived service stays bounded.
const LEDGER_CAP: usize = 1024;

/// One node's live LoP estimate with its uncertainty and spectrum
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEstimate {
    /// Node index in `0..n`.
    pub node: usize,
    /// Peak-over-rounds trial-averaged LoP (the paper's per-node
    /// number).
    pub lop: f64,
    /// Half-width of the 95% confidence interval of the trial mean at
    /// the peak round.
    pub ci95: f64,
    /// Privacy-spectrum classification of `lop + 1/n`.
    pub class: PrivacySpectrum,
}

/// Node counts per privacy-spectrum class — the rolling classification
/// the Prometheus `privtopk_privacy_spectrum_class` series exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpectrumCounts {
    /// Nodes at absolute privacy (no measurable exposure).
    pub absolute_privacy: usize,
    /// Nodes at or below the `1/n` baseline.
    pub beyond_suspicion: usize,
    /// Nodes with exposure probability in `(1/n, 0.5]`.
    pub probable_innocence: usize,
    /// Nodes with exposure probability in `(0.5, 1)`.
    pub possible_innocence: usize,
    /// Nodes whose value is provably exposed.
    pub provably_exposed: usize,
}

impl SpectrumCounts {
    /// Folds one node's class in.
    fn count(&mut self, class: PrivacySpectrum) {
        match class {
            PrivacySpectrum::AbsolutePrivacy => self.absolute_privacy += 1,
            PrivacySpectrum::BeyondSuspicion => self.beyond_suspicion += 1,
            PrivacySpectrum::ProbableInnocence => self.probable_innocence += 1,
            PrivacySpectrum::PossibleInnocence => self.possible_innocence += 1,
            PrivacySpectrum::ProvablyExposed => self.provably_exposed += 1,
        }
    }

    /// `(wire_label, count)` pairs in spectrum order, for renderers.
    #[must_use]
    pub fn as_labeled(&self) -> [(&'static str, usize); 5] {
        [
            ("absolute_privacy", self.absolute_privacy),
            ("beyond_suspicion", self.beyond_suspicion),
            ("probable_innocence", self.probable_innocence),
            ("possible_innocence", self.possible_innocence),
            ("provably_exposed", self.provably_exposed),
        ]
    }
}

/// One accounted query's entry in the privacy ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Admission index of the query among all accounted queries.
    pub query: u64,
    /// Ring size.
    pub n: usize,
    /// Query parameter `k`.
    pub k: usize,
    /// Resolved protocol rounds.
    pub rounds: u32,
    /// Average per-node peak LoP for this query's coordinates.
    pub average_lop: f64,
    /// Worst per-node peak LoP for this query's coordinates.
    pub worst_lop: f64,
    /// Worst spectrum class across nodes.
    pub worst_class: PrivacySpectrum,
}

/// A point-in-time read of the accountant: live per-node estimates,
/// spectrum classification, and the cumulative per-query ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccountantSnapshot {
    /// Queries observed since the accountant was created.
    pub queries_accounted: u64,
    /// Per-node estimates, indexed by node. With several distinct
    /// coordinate sets in play, each node carries its worst (largest)
    /// estimate — the conservative read.
    pub per_node: Vec<NodeEstimate>,
    /// Average of the per-node estimates (the paper's "average loss of
    /// privacy").
    pub average_lop: f64,
    /// Maximum of the per-node estimates (the "worst case").
    pub worst_lop: f64,
    /// Node counts per spectrum class.
    pub spectrum: SpectrumCounts,
    /// Per-query ledger entries, oldest first (capped; the counter
    /// above keeps the true total).
    pub ledger: Vec<LedgerEntry>,
}

/// One distinct coordinate set's Monte-Carlo estimate.
#[derive(Debug, Clone)]
struct KeyEstimate {
    per_node_peak: Vec<f64>,
    ci95: Vec<f64>,
    average_peak: f64,
    worst_peak: f64,
    classes: Vec<PrivacySpectrum>,
    worst_class: PrivacySpectrum,
}

/// Live state for one distinct coordinate set.
struct KeyEntry {
    config: ProtocolConfig,
    n: usize,
    rounds: u32,
    queries: u64,
    /// `None` until first read; `Some(None)` if shadow estimation
    /// failed for these coordinates (invalid config for `n`).
    estimate: Option<Option<KeyEstimate>>,
}

impl KeyEntry {
    /// Whether `(config, n)` is this entry's coordinate set, i.e. would
    /// build its key. `PartialEq` alone is not enough: it equates `0.0`
    /// and `-0.0`, which the key's `Debug` rendering tells apart.
    fn holds(&self, config: &ProtocolConfig, n: usize) -> bool {
        self.n == n && self.config == *config && float_bits(&self.config) == float_bits(config)
    }
}

/// The bits of every float in `config`, for [`KeyEntry::holds`].
fn float_bits(config: &ProtocolConfig) -> [u64; 3] {
    let (a, b) = match config.schedule() {
        Schedule::Exponential { p0, d } => (p0, d),
        Schedule::Linear { p0, step } => (p0, step),
        Schedule::Constant { p } => (p, 0.0),
        Schedule::Never => (0.0, 0.0),
    };
    let epsilon = match config.rounds() {
        RoundPolicy::Precision { epsilon } => epsilon,
        RoundPolicy::Fixed(_) => 0.0,
    };
    [a.to_bits(), b.to_bits(), epsilon.to_bits()]
}

struct Inner {
    /// One entry per distinct coordinate set, in first-seen order.
    entries: Vec<KeyEntry>,
    /// Each entry's index by coordinate key; snapshots merge the entries
    /// in key order.
    by_key: BTreeMap<String, usize>,
    /// The entry the previous query fell in: a query with the same
    /// coordinates builds no key.
    last: Option<usize>,
    queries_accounted: u64,
    /// `(entry index, admission index)` per accounted query, capped.
    ledger: Vec<(usize, u64)>,
}

/// The streaming privacy accountant: folds per-query protocol
/// coordinates into per-node empirical LoP estimates with confidence
/// intervals, spectrum classification and a per-query ledger.
///
/// Thread-safe and cheap to share (`Arc<LopAccountant>` implements
/// [`QueryObserver`], so it plugs straight into
/// `ServiceRuntime::set_observer`).
///
/// # Example
///
/// ```
/// use privtopk_core::{ProtocolConfig, RoundPolicy, Schedule};
/// use privtopk_privacy::LopAccountant;
///
/// let accountant = LopAccountant::new();
/// let config = ProtocolConfig::topk(2)
///     .with_schedule(Schedule::paper_default())
///     .with_rounds(RoundPolicy::Fixed(6));
/// accountant.observe(&config, 4, 6);
/// let snapshot = accountant.snapshot();
/// assert_eq!(snapshot.queries_accounted, 1);
/// assert_eq!(snapshot.per_node.len(), 4);
/// assert!(snapshot.worst_lop >= snapshot.average_lop);
/// ```
pub struct LopAccountant {
    trials: usize,
    shadow_seed: u64,
    inner: Mutex<Inner>,
}

impl Default for LopAccountant {
    fn default() -> Self {
        LopAccountant::new()
    }
}

impl LopAccountant {
    /// An accountant with the paper-default shadow budget
    /// ([`DEFAULT_SHADOW_TRIALS`] trials from
    /// [`DEFAULT_SHADOW_SEED`]) — the configuration under which live
    /// estimates agree exactly with `ExperimentSetup::paper(n, k)`'s
    /// `measure_lop`.
    #[must_use]
    pub fn new() -> Self {
        LopAccountant::with_budget(DEFAULT_SHADOW_TRIALS, DEFAULT_SHADOW_SEED)
    }

    /// An accountant with an explicit shadow-trial budget and master
    /// seed (smoke tests and cheap deployments use smaller budgets).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    #[must_use]
    pub fn with_budget(trials: usize, shadow_seed: u64) -> Self {
        assert!(trials > 0, "need at least one shadow trial");
        LopAccountant {
            trials,
            shadow_seed,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                by_key: BTreeMap::new(),
                last: None,
                queries_accounted: 0,
                ledger: Vec::new(),
            }),
        }
    }

    /// Folds one query's protocol coordinates in — the hot path,
    /// costing a comparison with the previous query's coordinates plus
    /// counters, and a key lookup only when they differ. Never runs a
    /// simulation.
    pub fn observe(&self, config: &ProtocolConfig, n: usize, rounds: u32) {
        let mut guard = self.inner.lock().expect("accountant lock poisoned");
        let inner = &mut *guard;
        let at = match inner.last {
            Some(at) if inner.entries[at].holds(config, n) => at,
            _ => {
                let fresh = inner.entries.len();
                let at = *inner
                    .by_key
                    .entry(coordinate_key(config, n))
                    .or_insert(fresh);
                if at == fresh {
                    inner.entries.push(KeyEntry {
                        config: config.clone(),
                        n,
                        rounds,
                        queries: 0,
                        estimate: None,
                    });
                }
                at
            }
        };
        inner.last = Some(at);
        inner.entries[at].queries += 1;
        if inner.ledger.len() < LEDGER_CAP {
            inner.ledger.push((at, inner.queries_accounted));
        }
        inner.queries_accounted += 1;
    }

    /// Queries observed so far (readable without triggering any shadow
    /// estimation).
    #[must_use]
    pub fn queries_accounted(&self) -> u64 {
        self.inner
            .lock()
            .expect("accountant lock poisoned")
            .queries_accounted
    }

    /// Reads the accountant: runs the (memoized, once-per-coordinate)
    /// shadow estimation for any coordinate set read for the first
    /// time, then assembles the merged snapshot.
    #[must_use]
    pub fn snapshot(&self) -> AccountantSnapshot {
        let mut inner = self.inner.lock().expect("accountant lock poisoned");
        let trials = self.trials;
        let shadow_seed = self.shadow_seed;
        for entry in &mut inner.entries {
            if entry.estimate.is_none() {
                entry.estimate = Some(shadow_estimate(&entry.config, entry.n, trials, shadow_seed));
            }
        }

        // Merge per-node estimates across coordinate sets, in key order:
        // each node keeps its worst estimate.
        let mut per_node: Vec<NodeEstimate> = Vec::new();
        for entry in inner.by_key.values().map(|&at| &inner.entries[at]) {
            let Some(Some(estimate)) = &entry.estimate else {
                continue;
            };
            for (node, (&lop, (&ci95, &class))) in estimate
                .per_node_peak
                .iter()
                .zip(estimate.ci95.iter().zip(&estimate.classes))
                .enumerate()
            {
                if node == per_node.len() {
                    per_node.push(NodeEstimate {
                        node,
                        lop,
                        ci95,
                        class,
                    });
                } else if lop > per_node[node].lop {
                    per_node[node].lop = lop;
                    per_node[node].ci95 = ci95;
                }
                if class > per_node[node].class {
                    per_node[node].class = class;
                }
            }
        }

        let mut spectrum = SpectrumCounts::default();
        for estimate in &per_node {
            spectrum.count(estimate.class);
        }
        let worst_lop = per_node.iter().map(|e| e.lop).fold(0.0, f64::max);
        let average_lop = if per_node.is_empty() {
            0.0
        } else {
            per_node.iter().map(|e| e.lop).sum::<f64>() / per_node.len() as f64
        };

        let ledger = inner
            .ledger
            .iter()
            .filter_map(|&(at, index)| {
                let entry = &inner.entries[at];
                let estimate = entry.estimate.as_ref()?.as_ref()?;
                Some(LedgerEntry {
                    query: index,
                    n: entry.n,
                    k: entry.config.k(),
                    rounds: entry.rounds,
                    average_lop: estimate.average_peak,
                    worst_lop: estimate.worst_peak,
                    worst_class: estimate.worst_class,
                })
            })
            .collect();

        AccountantSnapshot {
            queries_accounted: inner.queries_accounted,
            per_node,
            average_lop,
            worst_lop,
            spectrum,
            ledger,
        }
    }
}

impl QueryObserver for LopAccountant {
    fn on_query(&self, config: &ProtocolConfig, n: usize, _rounds: u32) {
        self.observe(config, n, _rounds);
    }
}

/// The deterministic lookup key for one coordinate set. `Debug` on
/// [`ProtocolConfig`] is stable and covers every field, and the config
/// holds no data-dependent state, so the key is a pure function of
/// protocol coordinates.
fn coordinate_key(config: &ProtocolConfig, n: usize) -> String {
    format!("n={n}|{config:?}")
}

/// Replays `ExperimentSetup::measure_lop`'s exact Monte-Carlo recipe on
/// synthetic reference data: same dataset seeding, same engine, same
/// estimator, same trial-order accumulation — so the result matches the
/// offline harness bit for bit on the same seed. Also accumulates
/// per-(node, round) second moments for the confidence intervals.
///
/// Returns `None` when the coordinates cannot run (e.g. a configuration
/// invalid for `n`); the accountant then counts those queries without a
/// series.
fn shadow_estimate(
    config: &ProtocolConfig,
    n: usize,
    trials: usize,
    shadow_seed: u64,
) -> Option<KeyEstimate> {
    let k = config.k();
    let engine = SimulationEngine::new(config.clone());
    let mut acc = LopAccumulator::new();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    let mut sumsq: Vec<Vec<f64>> = Vec::new();
    for trial in 0..trials {
        let locals = DatasetBuilder::new(n)
            .rows_per_node(k.max(1))
            .distribution(DataDistribution::Uniform)
            .seed(derive_seed(shadow_seed, trial as u64))
            .build_local_topk(k)
            .ok()?;
        let transcript = engine
            .run(
                &locals,
                derive_seed(shadow_seed ^ 0xABCD_EF01, trial as u64),
            )
            .ok()?;
        let matrix = SuccessorAdversary::estimate(&transcript, &locals);
        if sums.is_empty() {
            sums = vec![vec![0.0; matrix.rounds()]; matrix.n()];
            sumsq = vec![vec![0.0; matrix.rounds()]; matrix.n()];
        }
        for (node, row) in matrix.as_rows().iter().enumerate() {
            for (round, &sample) in row.iter().enumerate() {
                sums[node][round] += sample;
                sumsq[node][round] += sample * sample;
            }
        }
        acc.add(&matrix);
    }
    let summary = acc.summarize();
    let report = SpectrumReport::from_summary(&summary, n);

    // 95% CI half-width of the trial mean at each node's peak round.
    let t = trials as f64;
    let ci95 = sums
        .iter()
        .zip(&sumsq)
        .map(|(node_sums, node_sumsq)| {
            let peak_round = node_sums
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .map_or(0, |(round, _)| round);
            let mean = node_sums[peak_round] / t;
            let variance = (node_sumsq[peak_round] / t - mean * mean).max(0.0);
            1.96 * (variance / t).sqrt()
        })
        .collect();

    let worst_class = report.worst();
    Some(KeyEstimate {
        per_node_peak: summary.per_node_peak.clone(),
        ci95,
        average_peak: summary.average_peak,
        worst_peak: summary.worst_peak,
        classes: report.per_node,
        worst_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtopk_core::{RoundPolicy, Schedule};

    fn paper_config(k: usize, rounds: u32) -> ProtocolConfig {
        ProtocolConfig::topk(k)
            .with_schedule(Schedule::paper_default())
            .with_rounds(RoundPolicy::Fixed(rounds))
    }

    #[test]
    fn observe_is_pure_counting_until_read() {
        let accountant = LopAccountant::new();
        let config = paper_config(2, 6);
        for _ in 0..1000 {
            accountant.observe(&config, 4, 6);
        }
        assert_eq!(accountant.queries_accounted(), 1000);
    }

    #[test]
    fn snapshot_is_a_pure_function_of_coordinates() {
        // Two accountants fed the same coordinates in different
        // amounts/orders produce identical per-node series — the
        // in-crate no-leak gate (the cross-layer one lives in the root
        // test suite).
        let a = LopAccountant::with_budget(8, 0x5EED);
        let b = LopAccountant::with_budget(8, 0x5EED);
        let config = paper_config(1, 5);
        a.observe(&config, 4, 5);
        for _ in 0..7 {
            b.observe(&config, 4, 5);
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.per_node, sb.per_node);
        assert_eq!(sa.spectrum, sb.spectrum);
        assert_eq!(sa.average_lop.to_bits(), sb.average_lop.to_bits());
        assert_eq!(sa.queries_accounted, 1);
        assert_eq!(sb.queries_accounted, 7);
    }

    #[test]
    fn interleaved_configurations_snapshot_as_keyed_per_query() {
        // Two configurations interleaved, plus a third that equals the
        // second under `PartialEq` (0.0 vs -0.0) but has its own key.
        // The remembered previous coordinates must file every query
        // under the key a per-query `coordinate_key` lookup gives: the
        // reference accountant forgets them before every query.
        let constant = |p: f64| {
            ProtocolConfig::topk(1)
                .with_schedule(Schedule::Constant { p })
                .with_rounds(RoundPolicy::Fixed(3))
        };
        let configs = [
            (paper_config(2, 6), 4),
            (constant(0.0), 5),
            (constant(-0.0), 5),
        ];
        let fast = LopAccountant::with_budget(4, 3);
        let reference = LopAccountant::with_budget(4, 3);
        for i in 0..40usize {
            let (config, n) = &configs[(i * i + i / 3) % configs.len()];
            let rounds = config.resolve_rounds().unwrap();
            fast.observe(config, *n, rounds);
            reference.inner.lock().unwrap().last = None;
            reference.observe(config, *n, rounds);
        }
        let keys = |accountant: &LopAccountant| -> Vec<(String, u64)> {
            let inner = accountant.inner.lock().unwrap();
            inner
                .by_key
                .iter()
                .map(|(key, &at)| (key.clone(), inner.entries[at].queries))
                .collect()
        };
        assert_eq!(keys(&fast).len(), 3);
        assert_eq!(keys(&fast), keys(&reference));
        let snapshot = fast.snapshot();
        assert_eq!(snapshot, reference.snapshot());
        assert_eq!(snapshot.ledger.len(), 40);
    }

    #[test]
    fn snapshot_memoizes_shadow_estimation() {
        let accountant = LopAccountant::with_budget(4, 1);
        let config = paper_config(1, 4);
        accountant.observe(&config, 4, 4);
        let first = accountant.snapshot();
        accountant.observe(&config, 4, 4);
        let second = accountant.snapshot();
        assert_eq!(first.per_node, second.per_node);
        assert_eq!(second.queries_accounted, 2);
        assert_eq!(second.ledger.len(), 2);
        assert_eq!(second.ledger[1].query, 1);
    }

    #[test]
    fn ledger_entries_carry_coordinates_and_estimates() {
        let accountant = LopAccountant::with_budget(4, 9);
        accountant.observe(&paper_config(2, 6), 4, 6);
        accountant.observe(&paper_config(1, 3), 5, 3);
        let snapshot = accountant.snapshot();
        assert_eq!(snapshot.ledger.len(), 2);
        assert_eq!(snapshot.ledger[0].n, 4);
        assert_eq!(snapshot.ledger[0].k, 2);
        assert_eq!(snapshot.ledger[0].rounds, 6);
        assert_eq!(snapshot.ledger[1].n, 5);
        assert!(snapshot.ledger.iter().all(|e| e.worst_lop >= e.average_lop));
        // Mixed ring sizes: merged series covers the larger ring.
        assert_eq!(snapshot.per_node.len(), 5);
    }

    #[test]
    fn spectrum_counts_cover_every_node() {
        let accountant = LopAccountant::with_budget(16, 0x5EED);
        accountant.observe(&paper_config(1, 8), 6, 8);
        let snapshot = accountant.snapshot();
        let total: usize = snapshot
            .spectrum
            .as_labeled()
            .iter()
            .map(|(_, count)| count)
            .sum();
        assert_eq!(total, 6);
        // The probabilistic schedule keeps LoP well under the naive
        // protocol's; every node should stay off "provably exposed".
        assert_eq!(snapshot.spectrum.provably_exposed, 0);
        // Confidence intervals are finite and non-negative.
        assert!(snapshot.per_node.iter().all(|e| e.ci95 >= 0.0));
        assert!(snapshot.per_node.iter().all(|e| e.ci95.is_finite()));
    }

    #[test]
    fn empty_accountant_snapshots_cleanly() {
        let snapshot = LopAccountant::new().snapshot();
        assert_eq!(snapshot.queries_accounted, 0);
        assert!(snapshot.per_node.is_empty());
        assert_eq!(snapshot.average_lop, 0.0);
        assert_eq!(snapshot.worst_lop, 0.0);
        assert!(snapshot.ledger.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shadow trial")]
    fn zero_trial_budget_rejected() {
        let _ = LopAccountant::with_budget(0, 0);
    }
}
