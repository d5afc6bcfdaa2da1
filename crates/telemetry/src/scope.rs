//! Thread-local ambient telemetry scope and per-hop sequence accounting.
//!
//! The collectives are deep in the call stack and deliberately keep their
//! signatures telemetry-free; instead, a caller installs a recording handle
//! with [`scoped`] and instrumented code picks it up with [`active`] or
//! [`HopRecorder::begin`].
//!
//! # Expanded-step sequence numbers
//!
//! Every wire attempt is emitted as one `hop` event tagged with an absolute
//! *expanded-step* sequence number (`seq`) — the index of the
//! `Trace`/`cost::schedule_time` step slot the attempt's bytes occupy, where
//! a logical step with up to `k` attempts per transfer expands into `k`
//! consecutive slots (attempt `a` rides slot `a − 1`; retry sub-steps are a
//! contiguous prefix by construction). Grouping events by `seq` in emission
//! order therefore rebuilds the exact step structure the collectives traced,
//! and repricing it with the same α–β arithmetic reproduces
//! `Trace::time` bit-for-bit (see [`crate::report`]).
//!
//! Each collective claims a base `seq` when its [`HopRecorder`] begins and
//! advances the global counter by the number of expanded slots it used when
//! the recorder drops. The 2D-torus vertical phase is the special case: its
//! per-column sub-rings *share* step slots (`Trace::overlay`). Each column's
//! sub-ring records through a [`HopRecorder::column`] of the torus's
//! recorder, which maps its local step `i` to the column's base slot `+ i`
//! and its local worker ids through the column's global ids, and does *not*
//! advance the global counter — the torus's own accounting covers the merged
//! steps.

use std::cell::RefCell;

use crate::Telemetry;

/// One wire attempt, in the emitting collective's local coordinates.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Index of the expanded step slot within this collective's own trace.
    pub expanded_step: usize,
    /// Logical step number within the phase (ring reduce step `r`, gather
    /// step `g`, …).
    pub step: usize,
    /// Phase label, collective-local (`"reduce"` / `"gather"`).
    pub phase: &'static str,
    /// Sending worker, in the collective's local numbering.
    pub sender: usize,
    /// Receiving worker, in the collective's local numbering.
    pub receiver: usize,
    /// Segment index, collective-local.
    pub segment: usize,
    /// Number of tensor elements the payload encodes.
    pub elems: usize,
    /// Payload bytes for this attempt.
    pub bytes: usize,
    /// 1-based attempt number (1 = first transmission, ≥ 2 = retransmit).
    pub attempt: u32,
    /// Whether this attempt delivered the payload (earlier attempts of a
    /// retried transfer are `false`; an abandoned best-effort transfer's
    /// final attempt is also `false`).
    pub delivered: bool,
}

/// Optional trace-context timing attached to a hop by a traced transport:
/// the round it belongs to plus sender/receiver wall-clock nanos. `None`
/// fields are omitted from the event entirely, so the default (all-`None`)
/// timing records the legacy schema byte-for-byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopTiming {
    /// Round the hop belongs to.
    pub round: Option<u64>,
    /// Sender wall-clock nanos (from the propagated trace context).
    pub send_ns: Option<u64>,
    /// Receiver wall-clock nanos (stamped at arrival).
    pub recv_ns: Option<u64>,
}

thread_local! {
    static SCOPES: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

/// Install `t` as the thread's ambient telemetry for the duration of `f`.
///
/// Disabled handles install nothing, so the clean path stays a single
/// branch. Scopes nest; the innermost wins. The scope is popped even if `f`
/// panics.
pub fn scoped<R>(t: &Telemetry, f: impl FnOnce() -> R) -> R {
    if !t.is_enabled() {
        return f();
    }
    SCOPES.with(|s| s.borrow_mut().push(t.clone()));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// The innermost ambient telemetry handle, if one is installed and enabled.
pub fn active() -> Option<Telemetry> {
    SCOPES.with(|s| s.borrow().last().cloned())
}

struct RecorderInner {
    telemetry: Telemetry,
    base_seq: u64,
    /// A column's `(base, stride)`: local worker `i` is global worker
    /// `base + stride·i`. `None` for a top-level collective, which numbers
    /// its workers globally and owns the global counter.
    column: Option<(usize, usize)>,
    /// Expanded step slots used so far (max `expanded_step + 1` seen).
    used: u64,
}

/// Per-collective emitter of `hop` events with sequence accounting.
///
/// Cheap to construct when no telemetry is active (a thread-local read); all
/// methods are no-ops in that case.
pub struct HopRecorder {
    inner: Option<RecorderInner>,
}

impl HopRecorder {
    /// Bind to the ambient telemetry scope, claiming this collective's base
    /// sequence number from the global counter.
    pub fn begin() -> HopRecorder {
        HopRecorder {
            inner: active().map(|telemetry| RecorderInner {
                base_seq: telemetry.peek_seq(),
                column: None,
                used: 0,
                telemetry,
            }),
        }
    }

    /// Whether hops are being recorded (false on the clean no-op path).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one wire attempt.
    pub fn hop(&mut self, hop: &Hop) {
        self.hop_timed(hop, HopTiming::default());
    }

    /// Record one wire attempt carrying trace-context timing. All-`None`
    /// timing is exactly [`HopRecorder::hop`].
    pub fn hop_timed(&mut self, hop: &Hop, timing: HopTiming) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let seq = inner.base_seq + hop.expanded_step as u64;
        inner.used = inner.used.max(hop.expanded_step as u64 + 1);
        let (send, recv) = match inner.column {
            Some((base, stride)) => (base + stride * hop.sender, base + stride * hop.receiver),
            None => (hop.sender, hop.receiver),
        };
        inner
            .telemetry
            .record_hop_timed(seq, send, recv, hop, timing);
    }

    /// The absolute sequence number this recorder would assign to
    /// `expanded_step`, without recording anything. `None` when inactive.
    /// Senders stamp this into the outgoing trace context so the receiver's
    /// hop event and the sender's frame agree on the step key.
    pub fn seq_of(&self, expanded_step: usize) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|inner| inner.base_seq + expanded_step as u64)
    }

    /// Mark the first `n` expanded step slots as used even if this rank
    /// recorded hops for only a subset of them. Ranks in a multi-process run
    /// receive on different step subsets; reserving the full plan width
    /// keeps their per-round sequence windows aligned so merged traces share
    /// one absolute key space.
    pub fn reserve_steps(&mut self, n: usize) {
        if let Some(inner) = &mut self.inner {
            inner.used = inner.used.max(n as u64);
        }
    }

    /// The recorder of a sub-collective whose trace will be merged in
    /// parallel at `local_offset` within this collective's own steps, and
    /// whose local worker `i` is global worker `base + stride·i` (a torus
    /// column: `base` = the column, `stride` = the row length). It shares
    /// this recorder's sink and leaves the global counter to it. Inactive
    /// when this recorder is.
    pub fn column(&self, local_offset: usize, base: usize, stride: usize) -> HopRecorder {
        HopRecorder {
            inner: self.inner.as_ref().map(|inner| RecorderInner {
                telemetry: inner.telemetry.clone(),
                base_seq: inner.base_seq + local_offset as u64,
                column: Some((base, stride)),
                used: 0,
            }),
        }
    }
}

impl Drop for HopRecorder {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            if inner.column.is_none() {
                inner.telemetry.advance_seq(inner.base_seq + inner.used);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(expanded_step: usize, sender: usize, receiver: usize, bytes: usize) -> Hop {
        Hop {
            expanded_step,
            step: expanded_step,
            phase: "reduce",
            sender,
            receiver,
            segment: 0,
            elems: bytes,
            bytes,
            attempt: 1,
            delivered: true,
        }
    }

    #[test]
    fn no_scope_means_no_recording() {
        let mut rec = HopRecorder::begin();
        assert!(!rec.is_active());
        rec.hop(&hop(0, 0, 1, 4)); // must not panic or record anywhere
    }

    #[test]
    fn sequential_collectives_get_disjoint_seqs() {
        let t = Telemetry::recording();
        scoped(&t, || {
            {
                let mut rec = HopRecorder::begin();
                rec.hop(&hop(0, 0, 1, 4));
                rec.hop(&hop(1, 1, 0, 4));
            }
            {
                let mut rec = HopRecorder::begin();
                rec.hop(&hop(0, 0, 1, 8));
            }
        });
        let seqs: Vec<u64> = t
            .snapshot_events()
            .iter()
            .map(|e| e.u64_field("seq").unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn framed_subcollective_shares_slots_and_relabels_workers() {
        let t = Telemetry::recording();
        scoped(&t, || {
            let mut rec = HopRecorder::begin();
            rec.hop(&hop(0, 0, 1, 4)); // outer step 0
            {
                // Two "columns" merging into outer slots starting at 1, as
                // the torus vertical phase does.
                for (col, base) in [(0usize, 10), (1, 20)] {
                    let mut sub = rec.column(1, base, 1);
                    sub.hop(&hop(0, 0, 1, 2 + col));
                    sub.hop(&hop(1, 1, 0, 2 + col));
                }
            }
            rec.hop(&hop(3, 2, 3, 4)); // outer continues after the merge
        });
        let evs = t.snapshot_events();
        let rows: Vec<(u64, u64, u64)> = evs
            .iter()
            .map(|e| {
                (
                    e.u64_field("seq").unwrap(),
                    e.u64_field("send").unwrap(),
                    e.u64_field("recv").unwrap(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                (0, 0, 1),
                (1, 10, 11),
                (2, 11, 10),
                (1, 20, 21),
                (2, 21, 20),
                (3, 2, 3),
            ]
        );
        // The global counter advanced past everything the outer used.
        scoped(&t, || {
            let rec = HopRecorder::begin();
            assert_eq!(rec.inner.as_ref().unwrap().base_seq, 4);
        });
    }

    #[test]
    fn scope_pops_on_unwind() {
        let t = Telemetry::recording();
        let result = std::panic::catch_unwind(|| {
            scoped(&t, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(active().is_none());
    }
}
