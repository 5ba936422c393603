//! Shard-local banks of γ estimators.
//!
//! The emulator historically held one global `Vec<GammaEstimator>` and
//! updated it after every slot — the last cross-shard synchronization
//! point in the sharded slot loop. A [`BayesBank`] is the unit that
//! breaks it up: an ordered map from global device id to
//! [`GammaEstimator`], cheap to [`split`](BayesBank::split) across
//! shards and to [`merge`](BayesBank::merge) back for reporting. An
//! estimator stays in the bank it was split into for the whole run.
//!
//! Splitting and merging move estimators without touching their
//! beliefs, so a split/merge round trip preserves every posterior's
//! (mean, std) **exactly** — the property `tests/runtime.rs` pins with
//! a proptest over 1–4 shards and scattered ownership maps.

use crate::estimator::GammaEstimator;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An ordered bank of per-device γ estimators, keyed by global device
/// id. Ordering (`BTreeMap`) keeps iteration — and therefore telemetry
/// and merge order — deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BayesBank {
    estimators: BTreeMap<usize, GammaEstimator>,
}

impl BayesBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bank holding `estimators[i]` under device id `i` — the
    /// global-bank layout the sequential engine uses.
    pub fn from_estimators(estimators: Vec<GammaEstimator>) -> Self {
        Self { estimators: estimators.into_iter().enumerate().collect() }
    }

    /// Number of estimators in the bank.
    pub fn len(&self) -> usize {
        self.estimators.len()
    }

    /// True when the bank holds no estimators.
    pub fn is_empty(&self) -> bool {
        self.estimators.is_empty()
    }

    /// Device ids held by this bank, ascending.
    pub fn devices(&self) -> impl Iterator<Item = usize> + '_ {
        self.estimators.keys().copied()
    }

    /// Read access to device `d`'s estimator.
    pub fn get(&self, d: usize) -> Option<&GammaEstimator> {
        self.estimators.get(&d)
    }

    /// The truncated-posterior point estimate and untruncated posterior
    /// spread for device `d` — what information gathering reports to
    /// the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the bank does not own device `d`; posterior queries
    /// are routed by the ownership map, so a miss is a routing bug.
    pub fn posterior(&self, d: usize) -> (f64, f64) {
        let est = self.estimators.get(&d).expect("posterior query routed to a non-owner bank");
        (est.expected(), est.uncertainty())
    }

    /// Inserts (or replaces) device `d`'s estimator.
    pub fn insert(&mut self, d: usize, estimator: GammaEstimator) {
        self.estimators.insert(d, estimator);
    }

    /// Folds one observed power-reduction ratio into device `d`'s
    /// belief, applying the engine's telemetry policy: a rejected
    /// sample (NaN, out of band) counts as a stale slot and widens the
    /// belief instead of poisoning it.
    ///
    /// # Panics
    ///
    /// Panics if the bank does not own device `d`.
    pub fn observe_or_forget(&mut self, d: usize, ratio: f64) {
        let est = self.estimators.get_mut(&d).expect("observation routed to a non-owner bank");
        if est.try_observe(ratio).is_err() {
            est.forget(1);
        }
    }

    /// Inflates device `d`'s belief by `stale_slots` of staleness
    /// (disconnects, missed telemetry).
    ///
    /// # Panics
    ///
    /// Panics if the bank does not own device `d`.
    pub fn forget(&mut self, d: usize, stale_slots: u32) {
        self.estimators
            .get_mut(&d)
            .expect("forget routed to a non-owner bank")
            .forget(stale_slots);
    }

    /// Splits the bank into `shards` banks, sending each device to
    /// `owner(device)`. Consumes the bank: after the split every
    /// estimator lives in exactly one shard bank.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `owner` names a shard out of
    /// range.
    pub fn split<F: Fn(usize) -> usize>(self, shards: usize, owner: F) -> Vec<BayesBank> {
        assert!(shards > 0, "cannot split a bank across zero shards");
        if shards == 1 {
            // Nothing moves, so the map is kept rather than rebuilt.
            if let Some(d) = self.devices().find(|&d| owner(d) != 0) {
                panic!("owner({d}) = {} out of range for {shards} shards", owner(d));
            }
            return vec![self];
        }
        let mut banks = vec![BayesBank::new(); shards];
        for (d, est) in self.estimators {
            let s = owner(d);
            assert!(s < shards, "owner({d}) = {s} out of range for {shards} shards");
            banks[s].estimators.insert(d, est);
        }
        banks
    }

    /// Merges shard banks back into one global bank.
    ///
    /// # Panics
    ///
    /// Panics if two banks claim the same device.
    pub fn merge<I: IntoIterator<Item = BayesBank>>(banks: I) -> BayesBank {
        let mut merged = BayesBank::new();
        for bank in banks {
            for (d, est) in bank.estimators {
                let clash = merged.estimators.insert(d, est);
                assert!(clash.is_none(), "device {d} owned by two banks");
            }
        }
        merged
    }

    /// Drains the bank back into the sequential engine's dense layout:
    /// `vec[i]` is device `i`'s estimator.
    ///
    /// # Panics
    ///
    /// Panics if the bank's ids are not exactly `0..len` — merging
    /// shard banks of a full fleet always satisfies this.
    pub fn into_dense(self) -> Vec<GammaEstimator> {
        let n = self.estimators.len();
        let mut out = Vec::with_capacity(n);
        for (i, (d, est)) in self.estimators.into_iter().enumerate() {
            assert_eq!(d, i, "bank is not dense: hole before device {d}");
            out.push(est);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(n: usize) -> BayesBank {
        let mut estimators = vec![GammaEstimator::paper_default(); n];
        for (i, est) in estimators.iter_mut().enumerate() {
            est.observe(0.2 + 0.01 * i as f64);
        }
        BayesBank::from_estimators(estimators)
    }

    #[test]
    fn split_then_merge_is_identity() {
        let original = bank(17);
        for shards in [1, 4] {
            let merged = BayesBank::merge(original.clone().split(shards, |d| d % shards));
            assert_eq!(merged, original);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_shard_split_rejects_a_foreign_owner() {
        let _ = bank(3).split(1, |d| d);
    }

    #[test]
    fn split_covers_every_device_once() {
        let banks = bank(10).split(3, |d| d / 4);
        assert_eq!(banks.iter().map(BayesBank::len).sum::<usize>(), 10);
        let mut seen: Vec<usize> = banks.iter().flat_map(|b| b.devices()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn observe_or_forget_mirrors_the_engine_policy() {
        let mut a = bank(1);
        let mut direct = a.get(0).unwrap().clone();
        a.observe_or_forget(0, 0.3);
        direct.try_observe(0.3).unwrap();
        assert_eq!(a.get(0), Some(&direct));
        // A corrupt report widens instead of updating.
        a.observe_or_forget(0, f64::NAN);
        direct.forget(1);
        assert_eq!(a.get(0), Some(&direct));
    }

    #[test]
    fn into_dense_round_trips() {
        let estimators: Vec<GammaEstimator> = bank(5).into_dense();
        assert_eq!(estimators.len(), 5);
        assert_eq!(BayesBank::from_estimators(estimators.clone()).into_dense(), estimators);
    }

    #[test]
    #[should_panic(expected = "owned by two banks")]
    fn merge_rejects_duplicated_devices() {
        let a = bank(3);
        let b = bank(3);
        let _ = BayesBank::merge([a, b]);
    }

    #[test]
    #[should_panic(expected = "not dense")]
    fn sparse_bank_cannot_densify() {
        // Device 1 split off: the bank holds 0 and 2.
        let b = bank(3).split(2, |d| usize::from(d == 1)).swap_remove(0);
        let _ = b.into_dense();
    }
}
