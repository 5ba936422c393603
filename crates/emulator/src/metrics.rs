//! Emulation accounting.
//!
//! Two comparison styles coexist:
//!
//! * **internal counterfactual** — within one run, the display energy
//!   that the *same* watched seconds would have cost untransformed;
//!   this is the per-run "energy saving ratio" of the paper's Fig. 7;
//! * **paired runs** — the anxiety-reduction and time-per-viewer
//!   results (Figs. 7–9) compare a policy run against a `NoTransform`
//!   run built from the identical seed, so device populations, content,
//!   and give-up thresholds match exactly.

use lpvs_core::scheduler::Degradation;
use lpvs_obs::ObsSnapshot;
use lpvs_runtime::RuntimeSummary;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-slot aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot index.
    pub slot: usize,
    /// Display energy actually consumed this slot (J).
    pub display_energy_j: f64,
    /// Display energy the same playback would have cost untransformed (J).
    pub counterfactual_display_j: f64,
    /// Whole-device energy consumed this slot (J).
    pub total_energy_j: f64,
    /// Mean anxiety degree across devices after the slot.
    pub mean_anxiety: f64,
    /// Devices still watching after the slot.
    pub watching: usize,
    /// Devices selected for transforming this slot.
    pub selected: usize,
    /// Fraction of devices whose transform decision flipped versus the
    /// previous slot (`None` in slot 0).
    pub churn: Option<f64>,
    /// Which rung of the degradation ladder served this slot (`None`
    /// for baseline policies that bypass the resilient scheduler, or
    /// when nobody was watching).
    pub degradation: Option<Degradation>,
}

/// End-to-end report of one emulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulationReport {
    /// Per-slot records in order.
    pub slots: Vec<SlotRecord>,
    /// Total display energy consumed (J).
    pub display_energy_j: f64,
    /// Total internal counterfactual display energy (J).
    pub counterfactual_display_j: f64,
    /// Total whole-device energy (J).
    pub total_energy_j: f64,
    /// Per-device watch time (minutes).
    pub watch_minutes: Vec<f64>,
    /// Per-device initial battery fraction.
    pub initial_battery: Vec<f64>,
    /// Per-device final battery fraction.
    pub final_battery: Vec<f64>,
    /// Per-device: abandoned before the horizon ended.
    pub gave_up: Vec<bool>,
    /// Per-device: was selected for transforming at least once.
    pub ever_selected: Vec<bool>,
    /// Final per-device γ posterior `(mean, std)` — the truncated
    /// point estimate and untruncated spread of each device's learned
    /// power-reduction ratio. Bit-compared between the sequential and
    /// pipelined slot loops by the determinism suite.
    pub gamma_posteriors: Vec<(f64, f64)>,
    /// Accumulated scheduler wall-clock time.
    #[serde(skip, default)]
    pub scheduler_runtime: Duration,
    /// Pipelined-runtime counters (`None` for sequential runs):
    /// shards, workers lost, fallback slot.
    pub runtime: Option<RuntimeSummary>,
    /// Telemetry snapshot taken when the run finished — `None` when no
    /// recorder was enabled. The counters and histograms are cumulative
    /// across the process (the recorder is global), so single-run
    /// analyses should reset the recorder before `run`.
    #[serde(skip, default)]
    pub obs: Option<ObsSnapshot>,
}

impl EmulationReport {
    /// Display-energy saving against this run's own counterfactual:
    /// `1 − used / untransformed` (the Fig. 7 bar metric).
    pub fn display_saving_ratio(&self) -> f64 {
        if self.counterfactual_display_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.display_energy_j / self.counterfactual_display_j
    }

    /// Time-averaged mean anxiety across the run.
    pub fn mean_anxiety(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots.iter().map(|s| s.mean_anxiety).sum::<f64>() / self.slots.len() as f64
    }

    /// Anxiety reduction against a paired baseline run
    /// (`(base − this) / base`, the Fig. 7/8 line metric).
    pub fn anxiety_reduction_vs(&self, baseline: &EmulationReport) -> f64 {
        let base = baseline.mean_anxiety();
        if base <= 0.0 {
            return 0.0;
        }
        (base - self.mean_anxiety()) / base
    }

    /// Mean watch time (minutes) over devices passing `filter`
    /// (indexed by device). Returns `None` if no device matches.
    pub fn mean_watch_minutes<F: Fn(usize) -> bool>(&self, filter: F) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &m) in self.watch_minutes.iter().enumerate() {
            if filter(i) {
                sum += m;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Indices of "low-battery users": initial battery at or below
    /// `threshold` (the paper's Fig. 9 uses 40 %).
    pub fn low_battery_devices(&self, threshold: f64) -> Vec<usize> {
        self.initial_battery
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| (f <= threshold).then_some(i))
            .collect()
    }

    /// Number of devices that abandoned during the run.
    pub fn abandonments(&self) -> usize {
        self.gave_up.iter().filter(|&&g| g).count()
    }

    /// Mean selection churn across slots that report one — how much
    /// the transform set flips between consecutive scheduling points.
    pub fn mean_churn(&self) -> Option<f64> {
        let churns: Vec<f64> = self.slots.iter().filter_map(|s| s.churn).collect();
        if churns.is_empty() {
            None
        } else {
            Some(churns.iter().sum::<f64>() / churns.len() as f64)
        }
    }

    /// How many slots each rung of the degradation ladder served, in
    /// ladder order. Slots that report no tier (baseline policies,
    /// nobody watching) are not counted.
    pub fn degradation_counts(&self) -> [(Degradation, usize); Degradation::ALL.len()] {
        Degradation::ALL.map(|tier| {
            let count =
                self.slots.iter().filter(|s| s.degradation == Some(tier)).count();
            (tier, count)
        })
    }

    /// Slots served by anything other than the configured solver.
    pub fn degraded_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.degradation.is_some_and(|d| d.is_degraded()))
            .count()
    }

    /// Mean recovery time in slots: the average length of maximal runs
    /// of consecutive degraded slots — how long the scheduler stays off
    /// its configured solver once it falls. `None` when no slot
    /// degraded.
    pub fn mean_recovery_slots(&self) -> Option<f64> {
        let mut runs = Vec::new();
        let mut current = 0usize;
        for s in &self.slots {
            if s.degradation.is_some_and(|d| d.is_degraded()) {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        if current > 0 {
            runs.push(current);
        }
        if runs.is_empty() {
            None
        } else {
            Some(runs.iter().sum::<usize>() as f64 / runs.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(display: f64, counter: f64, anxieties: &[f64]) -> EmulationReport {
        EmulationReport {
            slots: anxieties
                .iter()
                .enumerate()
                .map(|(i, &a)| SlotRecord {
                    slot: i,
                    display_energy_j: display / anxieties.len() as f64,
                    counterfactual_display_j: counter / anxieties.len() as f64,
                    total_energy_j: 0.0,
                    mean_anxiety: a,
                    watching: 1,
                    selected: 1,
                    churn: if i == 0 { None } else { Some(0.0) },
                    degradation: Some(Degradation::Exact),
                })
                .collect(),
            display_energy_j: display,
            counterfactual_display_j: counter,
            total_energy_j: 0.0,
            watch_minutes: vec![30.0, 60.0, 90.0],
            initial_battery: vec![0.2, 0.5, 0.35],
            final_battery: vec![0.1, 0.4, 0.2],
            gave_up: vec![true, false, false],
            ever_selected: vec![true, true, false],
            gamma_posteriors: vec![(0.31, 0.1); 3],
            scheduler_runtime: Duration::ZERO,
            runtime: None,
            obs: None,
        }
    }

    #[test]
    fn saving_ratio_is_one_minus_usage() {
        let r = report(65.0, 100.0, &[0.5]);
        assert!((r.display_saving_ratio() - 0.35).abs() < 1e-12);
        let none = report(0.0, 0.0, &[0.5]);
        assert_eq!(none.display_saving_ratio(), 0.0);
    }

    #[test]
    fn anxiety_reduction_between_runs() {
        let with = report(1.0, 1.0, &[0.40, 0.42]);
        let without = report(1.0, 1.0, &[0.45, 0.47]);
        let reduction = with.anxiety_reduction_vs(&without);
        assert!((reduction - (0.46 - 0.41) / 0.46).abs() < 1e-12);
    }

    #[test]
    fn watch_minutes_filtering() {
        let r = report(1.0, 1.0, &[0.5]);
        let low = r.low_battery_devices(0.4);
        assert_eq!(low, vec![0, 2]);
        let mean = r.mean_watch_minutes(|i| low.contains(&i)).unwrap();
        assert!((mean - 60.0).abs() < 1e-12);
        assert!(r.mean_watch_minutes(|_| false).is_none());
    }

    #[test]
    fn abandonment_count() {
        assert_eq!(report(1.0, 1.0, &[0.5]).abandonments(), 1);
    }

    #[test]
    fn mean_churn_averages_reporting_slots() {
        let r = report(1.0, 1.0, &[0.5, 0.5, 0.5]);
        // Slot 0 reports None, slots 1–2 report 0.0.
        assert_eq!(r.mean_churn(), Some(0.0));
        let mut no_churn = r.clone();
        no_churn.slots.truncate(1);
        assert_eq!(no_churn.mean_churn(), None);
    }

    #[test]
    fn empty_run_mean_anxiety_is_zero() {
        let mut r = report(1.0, 1.0, &[0.5]);
        r.slots.clear();
        assert_eq!(r.mean_anxiety(), 0.0);
    }

    #[test]
    fn degradation_accounting() {
        let mut r = report(1.0, 1.0, &[0.5; 6]);
        // exact, greedy, greedy, exact, reused, (none)
        r.slots[1].degradation = Some(Degradation::Greedy);
        r.slots[2].degradation = Some(Degradation::Greedy);
        r.slots[4].degradation = Some(Degradation::ReusedPrevious);
        r.slots[5].degradation = None;
        assert_eq!(r.degraded_slots(), 3);
        let counts = r.degradation_counts();
        assert_eq!(counts[0], (Degradation::Exact, 2));
        assert_eq!(counts[1], (Degradation::Greedy, 2));
        assert_eq!(counts[2], (Degradation::ReusedPrevious, 1));
        // Runs of degraded slots: [1,2] and [4] → mean 1.5.
        assert_eq!(r.mean_recovery_slots(), Some(1.5));
    }

    #[test]
    fn clean_run_reports_no_degradation() {
        let r = report(1.0, 1.0, &[0.5; 3]);
        assert_eq!(r.degraded_slots(), 0);
        assert_eq!(r.mean_recovery_slots(), None);
        assert_eq!(r.degradation_counts()[0], (Degradation::Exact, 3));
    }
}
