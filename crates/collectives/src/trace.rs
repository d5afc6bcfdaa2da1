//! Transfer traces: what a collective actually put on the wire.
//!
//! Every collective in this crate records, per synchronous step, the byte
//! count of each in-flight transfer. The simulator prices a trace with the
//! α–β model (`marsit_simnet::cost::schedule_time`), and the experiment
//! harness reads total bytes for the communication-budget plots (Fig 4b).

use marsit_simnet::{cost, LinkModel};

/// Per-step record of transfer sizes produced by one collective operation.
///
/// Steps are sequential; transfers within a step ride disjoint links in
/// parallel.
///
/// Internally the step list is a *live prefix* over a recyclable slot
/// vector: [`Trace::reset`] rewinds the trace to empty while keeping every
/// allocation (outer list and per-step transfer vectors), and
/// [`Trace::begin_step`] hands back the next recycled slot. The hot
/// collectives reuse one `Trace` across rounds and reach a zero-allocation
/// steady state; every public accessor sees only the live prefix, so the
/// recycling is invisible to readers.
#[derive(Default)]
pub struct Trace {
    /// Slot storage; only `steps[..live]` is meaningful.
    steps: Vec<Vec<usize>>,
    /// Number of live steps.
    live: usize,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds to an empty trace, retaining step-slot allocations for reuse.
    pub fn reset(&mut self) {
        self.live = 0;
    }

    /// Opens the next step and returns its (cleared, recycled) transfer
    /// vector for the caller to fill. Allocation-free once the trace has
    /// reached its steady-state shape.
    pub fn begin_step(&mut self) -> &mut Vec<usize> {
        if self.live == self.steps.len() {
            self.steps.push(Vec::new());
        }
        let slot = &mut self.steps[self.live];
        slot.clear();
        self.live += 1;
        slot
    }

    /// Appends a step whose transfers carry the given byte counts.
    pub fn push_step(&mut self, transfer_bytes: Vec<usize>) {
        if self.live == self.steps.len() {
            self.steps.push(transfer_bytes);
        } else {
            self.steps[self.live] = transfer_bytes;
        }
        self.live += 1;
    }

    /// Appends a step of `links` parallel transfers of `bytes` each.
    pub fn push_uniform_step(&mut self, links: usize, bytes: usize) {
        let slot = self.begin_step();
        slot.resize(links, bytes);
    }

    /// Records one transfer of the logical step that opened at step `base`,
    /// taking `attempts` wire attempts: attempt 1 rides step `base` and
    /// attempt `k ≥ 2` the `(k−1)`-th retry sub-step behind it, so
    /// retransmissions show up as extra wire traffic and extra wall-clock
    /// steps. A transfer with `k` attempts contributes to every sub-step up
    /// to its own, so the sub-steps of one logical step are contiguous and
    /// none is empty.
    pub(crate) fn record_attempts(&mut self, base: usize, bytes: usize, attempts: u32) {
        for k in base..base + attempts as usize {
            if k == self.live {
                self.begin_step();
            }
            self.steps[k].push(bytes);
        }
    }

    /// Overlays `sub` from step `offset` on: its step `i` rides disjoint
    /// links in parallel with step `offset + i` (the per-column rings of a
    /// torus's vertical phase share their step slots).
    pub(crate) fn overlay(&mut self, offset: usize, sub: &Trace) {
        for (i, step) in sub.steps().iter().enumerate() {
            if offset + i == self.live {
                self.begin_step();
            }
            self.steps[offset + i].extend_from_slice(step);
        }
    }

    /// Appends all steps of another trace (sequential composition).
    pub fn extend(&mut self, mut other: Trace) {
        for step in other.steps.drain(..other.live) {
            self.push_step(step);
        }
    }

    /// Number of sequential steps.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.live
    }

    /// The per-step transfer sizes.
    #[must_use]
    pub fn steps(&self) -> &[Vec<usize>] {
        &self.steps[..self.live]
    }

    /// Total bytes moved across all links and steps.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.steps().iter().flatten().sum()
    }

    /// Bytes moved along the critical path (max transfer per step).
    #[must_use]
    pub fn critical_path_bytes(&self) -> usize {
        self.steps()
            .iter()
            .map(|s| s.iter().copied().max().unwrap_or(0))
            .sum()
    }

    /// Wall-clock time of the trace under `link` (sequential steps, parallel
    /// transfers within a step).
    #[must_use]
    pub fn time(&self, link: LinkModel) -> f64 {
        cost::schedule_time(link, self.steps())
    }
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Self {
            steps: self.steps().to_vec(),
            live: self.live,
        }
    }

    /// Recycling clone: reuses `self`'s slot allocations, so cloning into a
    /// warm trace of the same shape performs no allocation.
    fn clone_from(&mut self, source: &Self) {
        self.live = 0;
        for step in source.steps() {
            let slot = self.begin_step();
            slot.extend_from_slice(step);
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.steps() == other.steps()
    }
}

impl Eq for Trace {}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("steps", &self.steps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_group_into_retry_substeps() {
        let mut t = Trace::new();
        t.push_step(vec![9]);
        for attempts in [1, 3, 2] {
            t.record_attempts(1, 4, attempts);
        }
        assert_eq!(t.steps(), [vec![9], vec![4, 4, 4], vec![4, 4], vec![4]]);
        // A recycled trace reuses its slots without leaking their contents.
        t.reset();
        t.record_attempts(0, 8, 1);
        t.record_attempts(0, 8, 1);
        assert_eq!(t.steps(), [vec![8, 8]]);
    }

    #[test]
    fn overlay_shares_step_slots() {
        let mut main = Trace::new();
        main.push_step(vec![1]);
        let mut sub = Trace::new();
        sub.push_step(vec![2]);
        sub.push_step(vec![3]);
        main.overlay(1, &sub);
        sub.reset();
        sub.push_step(vec![4]);
        main.overlay(1, &sub);
        assert_eq!(main.steps(), [vec![1], vec![2, 4], vec![3]]);
    }

    #[test]
    fn totals_and_critical_path() {
        let mut t = Trace::new();
        t.push_step(vec![10, 20, 5]);
        t.push_uniform_step(2, 7);
        assert_eq!(t.num_steps(), 2);
        assert_eq!(t.total_bytes(), 49);
        assert_eq!(t.critical_path_bytes(), 27);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Trace::new();
        a.push_step(vec![1]);
        let mut b = Trace::new();
        b.push_step(vec![2]);
        a.extend(b);
        assert_eq!(a.num_steps(), 2);
        assert_eq!(a.total_bytes(), 3);
    }

    #[test]
    fn time_matches_schedule_model() {
        let mut t = Trace::new();
        t.push_step(vec![100, 50]);
        t.push_step(vec![25]);
        let link = LinkModel::new(1.0, 100.0);
        // step1: 1 + 100/100 = 2; step2: 1 + 25/100 = 1.25.
        assert!((t.time(link) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_free() {
        let t = Trace::new();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.time(LinkModel::new(1.0, 1.0)), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every wire attempt of every transfer lands in exactly one
        /// sub-step: total bytes across the expanded steps equals
        /// Σ bytes × attempts, and no sub-step is empty.
        #[test]
        fn retried_step_preserves_total_bytes(
            transfers in prop::collection::vec((1usize..5000, 1u32..6), 1..40)
        ) {
            let mut t = Trace::new();
            let mut expected = 0usize;
            for &(bytes, attempts) in &transfers {
                t.record_attempts(0, bytes, attempts);
                expected += bytes * attempts as usize;
            }
            prop_assert_eq!(t.total_bytes(), expected);
            // The expansion never prices a zero-transfer step.
            for sub in t.steps() {
                prop_assert!(!sub.is_empty());
            }
        }

        /// Adding one more wire attempt to any transfer can only push the
        /// priced schedule time up (or leave it unchanged), never down.
        #[test]
        fn trace_time_monotone_in_retry_count(
            transfers in prop::collection::vec((1usize..5000, 1u32..5), 1..30),
            bump in any::<u64>()
        ) {
            let build = |extra_at: Option<usize>| {
                let mut t = Trace::new();
                for (i, &(bytes, attempts)) in transfers.iter().enumerate() {
                    let extra = u32::from(extra_at == Some(i));
                    t.record_attempts(0, bytes, attempts + extra);
                }
                t
            };
            let base = build(None);
            let more = build(Some(bump as usize % transfers.len()));
            let link = LinkModel::new(1e-3, 1e6);
            prop_assert!(more.time(link) >= base.time(link));
        }
    }
}
