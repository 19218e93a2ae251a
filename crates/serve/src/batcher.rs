//! Deadline-aware micro-batch formation.
//!
//! Batching amortises per-dispatch overhead (weight checksum sweeps,
//! pool fan-out) across requests, but every tick spent lingering for a
//! fuller batch is a tick stolen from the oldest request's deadline. The
//! policy here makes that trade explicit and *clock-driven*: a batch
//! flushes when it is full, when the oldest entry's deadline slack runs
//! out, or when the oldest entry has lingered its maximum — whichever
//! comes first. All three triggers are pure functions of queue state and
//! the simulated clock, so batch boundaries are reproducible.

use crate::error::ServeError;
use crate::queue::Pending;

/// When to flush a forming batch.
///
/// `#[non_exhaustive]`: construct with [`BatchPolicy::default`] and the
/// `with_*` setters — fleet-era knobs can then be added without breaking
/// downstream literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchPolicy {
    /// Maximum requests per batch (`>= 1`).
    pub max_batch: usize,
    /// Flush early enough that the oldest entry still has this many
    /// ticks of deadline slack for execution.
    pub flush_slack: u64,
    /// Never hold the oldest entry longer than this many ticks, even
    /// with slack to spare (bounds tail latency under light load).
    pub max_linger: u64,
    /// Bounded submission-queue capacity (`>= 1`).
    pub queue_cap: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            flush_slack: 40,
            max_linger: 32,
            queue_cap: 64,
        }
    }
}

impl BatchPolicy {
    /// Sets the maximum batch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the deadline slack reserved at flush time.
    #[must_use]
    pub fn with_flush_slack(mut self, flush_slack: u64) -> Self {
        self.flush_slack = flush_slack;
        self
    }

    /// Sets the maximum linger for the oldest queued entry.
    #[must_use]
    pub fn with_max_linger(mut self, max_linger: u64) -> Self {
        self.max_linger = max_linger;
        self
    }

    /// Sets the bounded submission-queue capacity.
    #[must_use]
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero batch size or queue
    /// capacity, or a queue capacity below the batch size.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::BadConfig(msg));
        if self.max_batch == 0 {
            return bad("max_batch must be at least 1".into());
        }
        if self.queue_cap == 0 {
            return bad("queue_cap must be at least 1".into());
        }
        if self.queue_cap < self.max_batch {
            return bad(format!(
                "queue_cap {} below max_batch {} — a full batch could never form",
                self.queue_cap, self.max_batch
            ));
        }
        Ok(())
    }

    /// The tick at which the current queue contents should flush, given
    /// the backend frees at `free_at`. `None` when nothing is queued.
    ///
    /// A full batch flushes as soon as the backend is free; otherwise the
    /// oldest entry's deadline slack and linger bound decide, clamped to
    /// `free_at` (the backend cannot start sooner) and to the entry's own
    /// admission tick (no flushing in the past).
    pub fn flush_at(&self, queue: &[Pending], free_at: u64) -> Option<u64> {
        let oldest = queue.first()?;
        if queue.len() >= self.max_batch {
            return Some(free_at.max(oldest.queued_at));
        }
        let by_slack = oldest.request.deadline.saturating_sub(self.flush_slack);
        let by_linger = oldest.queued_at.saturating_add(self.max_linger);
        Some(by_slack.min(by_linger).max(free_at).max(oldest.queued_at))
    }
}

/// A deterministic cost model for batch execution, in ticks.
///
/// The simulated clock needs a duration for each dispatch; modelling it
/// as `overhead + n * per_item` gives the tick axis a batch cost shape.
/// The constants are **synthetic**: the defaults (8 + 4 per item) and the
/// values the E12/E14 benches pass are chosen by hand, not fitted to
/// measured wall-clock costs, so tick-model throughput says nothing about
/// real throughput. Measured per-item and per-batch costs come from the
/// open-loop `perfbench` harness (`backend.ns_per_item`). The server only
/// ever sees ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed per-dispatch cost in ticks.
    pub batch_overhead: u64,
    /// Marginal per-request cost in ticks.
    pub per_item: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            batch_overhead: 8,
            per_item: 4,
        }
    }
}

impl ServiceModel {
    /// Execution duration for a batch of `n` requests.
    pub fn duration(&self, n: usize) -> u64 {
        self.batch_overhead + self.per_item * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, Tier};

    fn pending(queued_at: u64, deadline: u64) -> Pending {
        Pending {
            request: Request::new(0, vec![0.0], Tier::Medium, deadline),
            queued_at,
        }
    }

    #[test]
    fn full_batch_flushes_immediately() {
        let policy = BatchPolicy {
            max_batch: 2,
            ..BatchPolicy::default()
        };
        let queue = vec![pending(10, 500), pending(11, 500)];
        assert_eq!(policy.flush_at(&queue, 0), Some(10));
        assert_eq!(policy.flush_at(&queue, 30), Some(30));
    }

    #[test]
    fn deadline_slack_beats_linger_when_tighter() {
        let policy = BatchPolicy {
            max_batch: 8,
            flush_slack: 40,
            max_linger: 100,
            ..BatchPolicy::default()
        };
        // Deadline 60, slack 40 → flush by 20; linger allows until 110.
        assert_eq!(policy.flush_at(&[pending(10, 60)], 0), Some(20));
        // Ample deadline → linger bound 10 + 100 = 110 wins.
        assert_eq!(policy.flush_at(&[pending(10, 1_000)], 0), Some(110));
        // Busy backend clamps upward.
        assert_eq!(policy.flush_at(&[pending(10, 60)], 75), Some(75));
        // Empty queue has nothing to flush.
        assert_eq!(policy.flush_at(&[], 0), None);
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy::default().validate().is_ok());
        for bad in [
            BatchPolicy::default().with_max_batch(0),
            BatchPolicy::default().with_queue_cap(0),
            BatchPolicy::default().with_max_batch(32).with_queue_cap(16),
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn setters_cover_every_knob() {
        let p = BatchPolicy::default()
            .with_max_batch(4)
            .with_flush_slack(10)
            .with_max_linger(20)
            .with_queue_cap(8);
        assert_eq!(
            (p.max_batch, p.flush_slack, p.max_linger, p.queue_cap),
            (4, 10, 20, 8)
        );
    }

    #[test]
    fn service_model_is_affine() {
        let m = ServiceModel {
            batch_overhead: 10,
            per_item: 3,
        };
        assert_eq!(m.duration(0), 10);
        assert_eq!(m.duration(1), 13);
        assert_eq!(m.duration(16), 58);
    }
}
