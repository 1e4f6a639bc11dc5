//! Learned baseline of nominal margin statistics.
//!
//! The monitor does not ship with thresholds for "normal" slack — it
//! learns them. The baseline passes through an explicit lifecycle:
//!
//! * **Building** — every nominal admission (admitted, not truncated,
//!   no census anomaly, not quarantined) contributes its margin metrics
//!   to the `(n, profile)` cell it belongs to; no events are emitted.
//! * **Locked** — once at least `min_samples` nominal samples, in at
//!   least one cell, have been seen, each cell's mean and population
//!   standard deviation are frozen and z-score monitoring begins.
//!
//! Determinism contract: the locked statistics are a pure function of
//! the *multiset* of observed samples. While building, raw samples are
//! stored; at lock time each cell's samples are sorted with `total_cmp`
//! and summed in sorted order, so the frozen bits are invariant under
//! any arrival reordering (a running mean would not be — float addition
//! is not associative).

use std::collections::BTreeMap;

use crate::request::Metric;

/// The baseline's lifecycle phase, echoed in every response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Collecting nominal samples; no events are emitted.
    Building,
    /// Statistics frozen; anomaly events are live.
    Locked,
}

impl Lifecycle {
    /// Stable lowercase name used in responses and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Lifecycle::Building => "building",
            Lifecycle::Locked => "locked",
        }
    }

    /// Parses a [`Lifecycle::name`] back into the phase.
    pub fn parse(s: &str) -> Option<Lifecycle> {
        match s {
            "building" => Some(Lifecycle::Building),
            "locked" => Some(Lifecycle::Locked),
            _ => None,
        }
    }
}

impl std::fmt::Display for Lifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Frozen statistics of one metric in one `(n, profile)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Number of nominal samples folded into the cell.
    pub count: u64,
    /// Sorted-order sample mean.
    pub mean: f64,
    /// Population standard deviation (sorted-order accumulation).
    pub std: f64,
}

/// Frozen per-cell statistics, one entry per [`Metric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockedCell {
    /// Statistics indexed by [`Metric::index`].
    pub stats: [CellStats; 2],
}

/// Internal lifecycle state of the baseline.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BaselineState {
    Building {
        /// Raw nominal samples per `(n, profile)` cell; each entry is
        /// one request's `[slack, norm_slack]` pair.
        cells: BTreeMap<(usize, String), Vec<[f64; 2]>>,
        /// Requests assessed while building (quarantines excluded).
        seen: u64,
        /// How many of those were truncated.
        truncated: u64,
    },
    Locked {
        cells: BTreeMap<(usize, String), LockedCell>,
        /// Nominal truncation rate observed during building.
        truncation_rate: f64,
        /// Total nominal samples frozen into the cells.
        samples: u64,
    },
}

/// The learned baseline: nominal margin statistics per `(n, profile)`
/// cell plus the building-phase truncation rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub(crate) min_samples: u64,
    pub(crate) state: BaselineState,
}

impl Baseline {
    /// Creates an empty building-phase baseline that locks once it holds
    /// `min_samples` nominal samples and at least one cell.
    pub fn new(min_samples: u64) -> Baseline {
        Baseline {
            min_samples,
            state: BaselineState::Building {
                cells: BTreeMap::new(),
                seen: 0,
                truncated: 0,
            },
        }
    }

    /// Current lifecycle phase.
    pub fn lifecycle(&self) -> Lifecycle {
        match self.state {
            BaselineState::Building { .. } => Lifecycle::Building,
            BaselineState::Locked { .. } => Lifecycle::Locked,
        }
    }

    /// Total nominal samples collected (building) or frozen (locked).
    pub fn samples(&self) -> u64 {
        match &self.state {
            BaselineState::Building { cells, .. } => cells.values().map(|v| v.len() as u64).sum(),
            BaselineState::Locked { samples, .. } => *samples,
        }
    }

    /// Number of distinct `(n, profile)` cells observed/frozen.
    pub fn coverage(&self) -> usize {
        match &self.state {
            BaselineState::Building { cells, .. } => cells.len(),
            BaselineState::Locked { cells, .. } => cells.len(),
        }
    }

    /// Locked truncation rate, if locked.
    pub fn truncation_rate(&self) -> Option<f64> {
        match &self.state {
            BaselineState::Building { .. } => None,
            BaselineState::Locked {
                truncation_rate, ..
            } => Some(*truncation_rate),
        }
    }

    /// Frozen statistics for a cell, if locked and the cell is known.
    pub fn cell(&self, n: usize, profile: &str) -> Option<&LockedCell> {
        match &self.state {
            BaselineState::Building { .. } => None,
            BaselineState::Locked { cells, .. } => cells.get(&(n, profile.to_string())),
        }
    }

    /// Folds one nominal admission's finite margin metrics into its
    /// building cell. No-op once locked.
    pub(crate) fn observe_nominal(&mut self, n: usize, profile: &str, slack: f64, norm_slack: f64) {
        if let BaselineState::Building { cells, .. } = &mut self.state {
            if slack.is_finite() && norm_slack.is_finite() {
                cells
                    .entry((n, profile.to_string()))
                    .or_default()
                    .push([slack, norm_slack]);
            }
        }
    }

    /// Records one assessed (non-quarantined) building-phase request's
    /// truncation flag. No-op once locked.
    pub(crate) fn observe_truncation(&mut self, was_truncated: bool) {
        if let BaselineState::Building {
            seen, truncated, ..
        } = &mut self.state
        {
            *seen += 1;
            if was_truncated {
                *truncated += 1;
            }
        }
    }

    /// Locks the baseline if the building phase has accumulated at
    /// least `min_samples` nominal samples in at least one cell. Returns
    /// `true` when a lock transition happened.
    pub(crate) fn try_lock(&mut self) -> bool {
        let BaselineState::Building {
            cells,
            seen,
            truncated,
        } = &self.state
        else {
            return false;
        };
        let total: u64 = cells.values().map(|v| v.len() as u64).sum();
        if total < self.min_samples || cells.is_empty() {
            return false;
        }
        let truncation_rate = if *seen == 0 {
            0.0
        } else {
            *truncated as f64 / *seen as f64
        };
        let locked: BTreeMap<(usize, String), LockedCell> = cells
            .iter()
            .map(|(key, samples)| (key.clone(), freeze_cell(samples)))
            .collect();
        self.state = BaselineState::Locked {
            cells: locked,
            truncation_rate,
            samples: total,
        };
        true
    }
}

/// Freezes one cell's raw samples into per-metric statistics. Samples
/// are sorted with `total_cmp` and accumulated in sorted order, making
/// the result a pure function of the sample multiset.
fn freeze_cell(samples: &[[f64; 2]]) -> LockedCell {
    let mut stats = [CellStats {
        count: 0,
        mean: 0.0,
        std: 0.0,
    }; 2];
    for metric in Metric::ALL {
        let idx = metric.index();
        let mut values: Vec<f64> = samples.iter().map(|pair| pair[idx]).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        let count = values.len() as u64;
        if count == 0 {
            continue;
        }
        let sum: f64 = values.iter().sum();
        let mean = sum / count as f64;
        // Squared deviations accumulated in the same sorted order keep
        // the variance bit-stable under reordering too.
        let ssd: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
        let std = (ssd / count as f64).sqrt();
        stats[idx] = CellStats { count, mean, std };
    }
    LockedCell { stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_requires_samples_and_coverage() {
        // No sample requirement, but no cell yet.
        let mut b = Baseline::new(0);
        assert!(!b.try_lock());
        b.observe_nominal(4, "grid-snapped", 1.0, 0.5);
        assert!(b.try_lock());
        assert_eq!(b.coverage(), 1);

        let mut b = Baseline::new(3);
        b.observe_nominal(4, "grid-snapped", 1.0, 0.5);
        b.observe_nominal(6, "grid-snapped", 2.0, 0.6);
        // One sample short.
        assert!(!b.try_lock());
        b.observe_nominal(4, "grid-snapped", 3.0, 0.7);
        assert!(b.try_lock());
        assert_eq!(b.lifecycle(), Lifecycle::Locked);
        assert_eq!(b.samples(), 3);
        assert_eq!(b.coverage(), 2);
        // Second lock attempt is a no-op.
        assert!(!b.try_lock());
    }

    #[test]
    fn locked_stats_are_arrival_order_invariant() {
        let values = [1.5, -0.25, 7.0, 3.25, 3.25, 0.0];
        let mut forward = Baseline::new(values.len() as u64);
        for v in values {
            forward.observe_nominal(4, "inline", v, v / 10.0);
        }
        assert!(forward.try_lock());
        let mut reversed = Baseline::new(values.len() as u64);
        for v in values.iter().rev() {
            reversed.observe_nominal(4, "inline", *v, *v / 10.0);
        }
        assert!(reversed.try_lock());
        assert_eq!(forward, reversed);
        let cell = forward.cell(4, "inline").copied();
        assert!(cell.is_some());
        let cell = cell.unwrap();
        assert_eq!(cell.stats[0].count, 6);
        assert!((cell.stats[0].mean - values.iter().sum::<f64>() / 6.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_rate_counts_building_requests_only() {
        let mut b = Baseline::new(2);
        b.observe_truncation(true);
        b.observe_truncation(false);
        b.observe_truncation(false);
        b.observe_truncation(true);
        b.observe_nominal(4, "inline", 1.0, 0.1);
        b.observe_nominal(4, "inline", 2.0, 0.2);
        assert!(b.try_lock());
        assert_eq!(b.truncation_rate(), Some(0.5));
        // Locked baseline ignores further observations.
        b.observe_truncation(true);
        b.observe_nominal(4, "inline", -100.0, -100.0);
        assert_eq!(b.truncation_rate(), Some(0.5));
        assert_eq!(b.samples(), 2);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut b = Baseline::new(1);
        b.observe_nominal(4, "inline", f64::NAN, 0.5);
        b.observe_nominal(4, "inline", 1.0, f64::INFINITY);
        assert_eq!(b.samples(), 0);
        assert!(!b.try_lock());
    }
}
