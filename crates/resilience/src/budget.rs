//! Stage budgets: wall-clock deadlines and node/iteration caps.
//!
//! The wall-clock side mirrors the in-tree timing harness
//! (`mrp-bench`'s `timing` module): plain [`std::time::Instant`], no
//! external dependency. Deterministic tests never rely on real clock
//! expiry — the fault-injection framework forces timeouts explicitly —
//! so the clock here only has to be monotonic, not mockable.

use std::time::{Duration, Instant};

/// Resource budget for one synthesis stage (or one whole ladder run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBudget {
    /// Wall-clock limit; `None` = unlimited.
    pub deadline_ms: Option<u64>,
    /// Node-expansion cap for the exact branch-and-bound MCM search
    /// (the `exact` rung, `mrp-exact`).
    pub mcm_nodes: usize,
}

impl Default for StageBudget {
    fn default() -> Self {
        StageBudget {
            deadline_ms: None,
            mcm_nodes: mrp_exact::DEFAULT_MCM_NODE_BUDGET,
        }
    }
}

/// A running deadline: start instant plus optional limit.
///
/// All driver stages share one `Deadline`; each stage asks for the
/// remaining allowance when it starts.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    /// Starts the clock with an optional millisecond limit.
    pub fn start(limit_ms: Option<u64>) -> Self {
        Deadline {
            start: Instant::now(),
            limit: limit_ms.map(Duration::from_millis),
        }
    }

    /// The configured limit in milliseconds, if any.
    pub fn limit_ms(&self) -> Option<u64> {
        self.limit.map(|d| d.as_millis() as u64)
    }

    /// Milliseconds elapsed since the clock started.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Time left, or `None` when unlimited. `Some(Duration::ZERO)` means
    /// the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.limit
            .map(|limit| limit.saturating_sub(self.start.elapsed()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining() == Some(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::start(None);
        assert_eq!(d.remaining(), None);
        assert!(!d.expired());
        assert_eq!(d.limit_ms(), None);
    }

    #[test]
    fn zero_limit_expires_immediately() {
        let d = Deadline::start(Some(0));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert_eq!(d.limit_ms(), Some(0));
    }

    #[test]
    fn generous_limit_not_expired_yet() {
        let d = Deadline::start(Some(3_600_000));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn default_budget_matches_exact_default() {
        let b = StageBudget::default();
        assert_eq!(b.mcm_nodes, mrp_exact::DEFAULT_MCM_NODE_BUDGET);
        assert_eq!(b.deadline_ms, None);
    }
}
