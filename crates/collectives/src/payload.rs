//! The data half of a schedule walk: what a hop carries.
//!
//! A walk enumerates a topology's hops and keeps the books without reading
//! a payload element. Everything that does is a [`Payload`]: how many bytes a
//! cell is on the wire as it stands, how a delivered reduce hop folds the
//! sender's cell into the receiver's, and what a gather hop copies. The
//! crate docs tabulate the implementations.

use std::ops::{AddAssign, Range};

use marsit_compress::SignSumVec;
use marsit_tensor::SignVec;

use crate::engine::{Fold, Owner};
use crate::reconfigure::SyncError;
use crate::ring::{split_pair, CombineCtx, Frame, PlannedHop, StepCombine, SumWire};

/// One hop as its payload sees it: the sender's (`w`) and the receiver's
/// (`n`) cell of segment `s`, in the walk's own numbering, with where that
/// walk sits in the whole collective.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At<'a> {
    pub(crate) frame: Frame,
    pub(crate) w: usize,
    pub(crate) n: usize,
    pub(crate) s: usize,
    /// Segment `s` in the walk's own coordinates.
    pub(crate) range: &'a Range<usize>,
}

impl At<'_> {
    /// Segment `s` in the coordinates of the whole payload.
    fn span(&self) -> Range<usize> {
        self.frame.start + self.range.start..self.frame.start + self.range.end
    }

    /// The sender's cell, read-only, and the receiver's, in flat per-worker
    /// buffers.
    fn pair<'d, T>(&self, data: &'d mut [Vec<T>]) -> (&'d [T], &'d mut [T]) {
        let (src, dst) = split_pair(data, self.frame.global(self.w), self.frame.global(self.n));
        (&src[self.span()], &mut dst[self.span()])
    }

    /// `dst[x] += src[x]` over the hop's cells, elementwise in index order —
    /// never reassociated (`golden_train` pins the `f32` bits).
    fn add<T: Copy + AddAssign>(&self, data: &mut [Vec<T>]) {
        let (src, dst) = self.pair(data);
        for (x, &y) in dst.iter_mut().zip(src) {
            *x += y;
        }
    }
}

/// What the hops of a schedule walk carry. Cells are addressed per hop by an
/// [`At`]; the aggregation count of every cell is the walk's, exact under
/// omitted transfers, and handed in where a byte rule needs it.
pub(crate) trait Payload {
    /// Order of a ring's hops within gather step `g`. **Frozen contract, not
    /// a preference:** one-bit and integer rings list them by segment
    /// (`s = 0..m`, sender `s + g − 1`; `golden_plan` and `golden_onebit` pin
    /// it), the `f32` ring by sender (`w = 0..m`, segment `w + 1 − g`;
    /// `golden_baselines` pins it, and under drops so does the survivor-ring
    /// resync of `golden_onebit`'s faulty torus). The two are rotations of
    /// one another by `g − 1`.
    const GATHER_BY_SENDER: bool = false;

    /// Starts the walk `frame` describes over `workers` inputs of `d`
    /// elements cut at `segs`: a top-level walk (`frame.cell == None`)
    /// validates the inputs, a sub-walk re-cuts cell `frame.cell` of the
    /// top-level grid.
    fn load(
        &mut self,
        _frame: Frame,
        _workers: usize,
        _d: usize,
        _segs: &[Range<usize>],
    ) -> Result<(), SyncError> {
        Ok(())
    }

    /// Wire bytes of the sender's cell as it stands now, aggregating `count`
    /// workers, on a reduce or a gather hop. One bit per coordinate unless
    /// the payload says otherwise.
    fn wire_bytes(&self, at: At<'_>, _count: usize, _reduce: bool) -> usize {
        onebit_bytes(at.range.len())
    }

    /// Sees a whole reduce step's delivered hops before any of them folds.
    fn step_begin(&mut self, _plan: &[PlannedHop]) {}

    /// Folds the sender's cell into the receiver's: hop `idx` of the plan
    /// last handed to [`Self::step_begin`]. (Nothing, for the walk alone.)
    fn fold(&mut self, _idx: usize, _at: At<'_>, _ctx: CombineCtx) {}

    /// Segment `at.s` is fully reduced at worker `at.w`, over `count`
    /// workers. Called once per finest segment, between a walk's reduce and
    /// gather phases.
    fn reduced(&mut self, _at: At<'_>, _count: usize) {}

    /// Overwrites the receiver's cell with the sender's (a delivered gather
    /// or broadcast hop).
    fn copy(&mut self, _at: At<'_>) {}
}

/// Bytes of `elems` coordinates at one bit each.
fn onebit_bytes(elems: usize) -> usize {
    elems.div_ceil(8).max(1)
}

/// `Err` for the first length that is not `d`.
fn equal_lengths(mut lens: impl Iterator<Item = usize>, d: usize) -> Result<(), SyncError> {
    match lens.find(|&len| len != d) {
        Some(got) => Err(SyncError::LengthMismatch { expected: d, got }),
        None => Ok(()),
    }
}

/// The walk alone: no payload, one-bit byte rule. What [`compile_plan`]
/// records a plan from.
///
/// [`compile_plan`]: crate::engine::compile_plan
pub(crate) struct PlanOnly;

impl Payload for PlanOnly {}

/// The `(worker, segment)` grids of working cells of a one-bit walk: the
/// top-level walk's, and the grid of the sub-walk in flight (a torus column,
/// a segmented ring's pipeline). Holding one across rounds keeps the walk
/// allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct SignCells {
    top: Vec<Vec<SignVec>>,
    sub: Vec<Vec<SignVec>>,
}

impl SignCells {
    fn level(&mut self, frame: Frame) -> &mut Vec<Vec<SignVec>> {
        if frame.cell.is_some() {
            &mut self.sub
        } else {
            &mut self.top
        }
    }
}

/// Cuts each input into `grid`'s row of cells at `segs`, reusing cell
/// buffers; every cell is reassigned in full.
fn cut<'v>(
    grid: &mut Vec<Vec<SignVec>>,
    inputs: impl ExactSizeIterator<Item = &'v SignVec>,
    segs: &[Range<usize>],
) {
    grid.resize_with(inputs.len(), Vec::new);
    for (row, v) in grid.iter_mut().zip(inputs) {
        row.resize_with(segs.len(), || SignVec::zeros(0));
        for (cell, r) in row.iter_mut().zip(segs) {
            cell.assign_slice_of(v, r.start, r.len());
        }
    }
}

/// Packed signs under a [`StepCombine`]: the inputs, the operator folding
/// them hop by hop, the cells it works in and where the consensus lands.
/// Gather hops are traced, not executed: each reduced segment is spliced
/// into `out` from its owner's cell.
pub(crate) struct Signs<'a, O> {
    pub(crate) signs: &'a [SignVec],
    pub(crate) op: &'a mut O,
    pub(crate) out: &'a mut SignVec,
    pub(crate) cells: &'a mut SignCells,
}

impl<O: StepCombine> Payload for Signs<'_, O> {
    fn load(
        &mut self,
        frame: Frame,
        workers: usize,
        d: usize,
        segs: &[Range<usize>],
    ) -> Result<(), SyncError> {
        let SignCells { top, sub } = &mut *self.cells;
        if let Some(cell) = frame.cell {
            let column = (0..workers).map(|i| &top[frame.global(i)][cell]);
            cut(sub, column, segs);
            return Ok(());
        }
        equal_lengths(self.signs.iter().map(SignVec::len), d)?;
        // Every bit of `[0, d)` is spliced over later, so stale contents
        // never leak.
        if self.out.len() != d {
            *self.out = SignVec::zeros(d);
        }
        cut(top, self.signs.iter(), segs);
        Ok(())
    }

    fn step_begin(&mut self, plan: &[PlannedHop]) {
        self.op.step_begin(plan);
    }

    fn fold(&mut self, idx: usize, at: At<'_>, ctx: CombineCtx) {
        let (src, dst) = split_pair(self.cells.level(at.frame), at.w, at.n);
        self.op.combine(idx, &src[at.s], &mut dst[at.s], ctx);
        assert_eq!(
            dst[at.s].len(),
            at.range.len(),
            "combine changed segment length"
        );
    }

    fn reduced(&mut self, at: At<'_>, _count: usize) {
        let cell = &self.cells.level(at.frame)[at.w][at.s];
        self.out.splice(at.span().start, cell);
    }
}

/// `f32` sums in place on the callers' buffers: a sub-walk addresses them
/// through its [`Frame`], so nothing is copied out and back. Every worker
/// ends with the result.
pub(crate) struct Sums<'a>(pub(crate) &'a mut [Vec<f32>]);

impl Payload for Sums<'_> {
    const GATHER_BY_SENDER: bool = true;

    fn load(
        &mut self,
        frame: Frame,
        _workers: usize,
        d: usize,
        _segs: &[Range<usize>],
    ) -> Result<(), SyncError> {
        if frame.cell.is_some() {
            return Ok(());
        }
        equal_lengths(self.0.iter().map(Vec::len), d)
    }

    fn wire_bytes(&self, at: At<'_>, _count: usize, _reduce: bool) -> usize {
        4 * at.range.len()
    }

    fn fold(&mut self, _idx: usize, at: At<'_>, _ctx: CombineCtx) {
        at.add(self.0);
    }

    fn copy(&mut self, at: At<'_>) {
        let (src, dst) = at.pair(self.0);
        dst.copy_from_slice(src);
    }
}

/// `f32` sums recorded, not executed (see [`SumReplay`]): each delivered
/// reduce hop as a fold `(dst, src, range)`, each reduced segment's owner.
///
/// [`SumReplay`]: crate::SumReplay
pub(crate) struct SumFolds<'a> {
    pub(crate) folds: &'a mut Vec<Fold>,
    pub(crate) owners: &'a mut Vec<Owner>,
}

impl Payload for SumFolds<'_> {
    const GATHER_BY_SENDER: bool = true;

    fn wire_bytes(&self, at: At<'_>, _count: usize, _reduce: bool) -> usize {
        4 * at.range.len()
    }

    fn fold(&mut self, _idx: usize, at: At<'_>, _ctx: CombineCtx) {
        let (src, dst) = (at.frame.global(at.w), at.frame.global(at.n));
        self.folds.push((dst, src, at.span()));
    }

    fn reduced(&mut self, at: At<'_>, _count: usize) {
        self.owners.push((at.frame.global(at.w), at.span()));
    }
}

/// Growing integer sign-sums: the `⌈log₂ M⌉`-bit payload of the MAR
/// extensions of signSGD, SSDM and EF-signSGD. Each worker's running sums
/// are one flat `i32` buffer folded in place; a cell's aggregation count is
/// the walk's. Reduced segments are collected into `total` from their
/// owners, so gather hops are traced, not executed — at the encoded width of
/// the reduced sums, or, under a majority `vote`, at one bit per coordinate.
pub(crate) struct SignSums {
    data: Vec<Vec<i32>>,
    rule: SumWire,
    vote: bool,
    /// The reduced sums, complete once the walk is.
    pub(crate) total: Vec<i32>,
    /// The most workers folded into any segment of `total`: all of them
    /// unless reduce transfers were omitted.
    pub(crate) count: usize,
}

impl SignSums {
    pub(crate) fn new(parts: &[SignSumVec], rule: SumWire, vote: bool) -> Self {
        Self {
            data: parts.iter().map(|p| p.sums().to_vec()).collect(),
            rule,
            vote,
            total: Vec::new(),
            count: 0,
        }
    }
}

impl Payload for SignSums {
    fn load(
        &mut self,
        frame: Frame,
        _workers: usize,
        d: usize,
        _segs: &[Range<usize>],
    ) -> Result<(), SyncError> {
        if frame.cell.is_some() {
            return Ok(());
        }
        self.total.resize(d, 0);
        equal_lengths(self.data.iter().map(Vec::len), d)
    }

    fn wire_bytes(&self, at: At<'_>, count: usize, reduce: bool) -> usize {
        let sums = match (reduce, self.vote) {
            (true, _) => &self.data[at.frame.global(at.w)],
            (false, false) => &self.total,
            (false, true) => return onebit_bytes(at.range.len()),
        };
        self.rule.bytes_of(&sums[at.span()], count)
    }

    fn fold(&mut self, _idx: usize, at: At<'_>, _ctx: CombineCtx) {
        at.add(&mut self.data);
    }

    fn reduced(&mut self, at: At<'_>, count: usize) {
        let owner = &self.data[at.frame.global(at.w)];
        self.total[at.span()].copy_from_slice(&owner[at.span()]);
        self.count = self.count.max(count);
    }
}
