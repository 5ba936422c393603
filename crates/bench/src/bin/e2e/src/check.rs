//! Output verification: every operation a workload attempts is counted,
//! and one that fails says why. Failures feed `failed` in the result
//! and make the process exit non-zero.

use lpvs_core::scheduler::Degradation;

/// Reasons kept verbatim; the rest are only counted.
const KEPT_REASONS: usize = 8;

#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    /// Counts one operation — a solve, a slot, a request, an emulated
    /// run — that passed or failed as a whole.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < KEPT_REASONS {
                self.reasons.push(reason);
            }
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.reasons {
            if self.reasons.len() < KEPT_REASONS {
                self.reasons.push(reason);
            }
        }
    }
}

/// A decision counts only if the exact tier produced it: a faster run
/// that fell down the degradation ladder solved a different problem.
pub fn exact_tier(tier: Degradation) -> Result<(), String> {
    if tier == Degradation::Exact {
        Ok(())
    } else {
        Err(format!(
            "decision came from tier {}, not exact",
            tier.label()
        ))
    }
}

pub fn ensure(ok: bool, reason: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(reason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut c = Checker::default();
        c.op(Ok(()));
        c.op(exact_tier(Degradation::Greedy));
        c.op(ensure(1 + 1 == 2, || unreachable!()));
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert!(c.reasons[0].contains("greedy"));
    }
}
