//! The lane executor: one job cut into lanes, run on the caller and on
//! parked helper threads.
//!
//! A *lane* is a logical share of a job — for the synchronizer, a
//! contiguous run of whole [`crate::PROLOGUE_BLOCK`]s of every per-worker
//! buffer. [`run`] calls `job(lane)` once for every lane; [`run_phased`]
//! does so once per phase, with every lane of a phase finished before any
//! lane of the next one starts, so a lane may continue what another lane
//! left in the previous phase.
//!
//! Lanes are spread over up to [`width`] threads: lane 0 (and every
//! `threads`-th lane after it) on the caller, the others on helper threads
//! that are spawned once, on first use, and park between jobs. There are at
//! most `width() − 1` helpers in the process, shared by every caller: a
//! caller that finds them busy — another job running, or a job started from
//! inside a lane — runs every lane inline instead, phase by phase and in
//! lane order, and gets the same results. Nothing is spawned or allocated
//! per job.
//!
//! A panic in any lane stops the job's later phases, waits for every thread
//! to leave the job, and is re-raised on the caller; the helpers stay
//! usable.
//!
//! No result may depend on how lanes map to threads: a job's lanes write
//! disjoint data, and whatever one lane reads of another's work it reads
//! after a phase boundary. [`Disjoint`] is the raw view through which the
//! lanes of one job write their disjoint ranges of a shared buffer.

use std::any::Any;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long a caller that has finished its own lanes spins for the helpers
/// before it parks: about one lane's share of a small round.
const CALLER_SPIN: Duration = Duration::from_micros(200);

/// How many threads a job may use: the host's available parallelism, read
/// once per process.
#[must_use]
pub fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Jobs that ran on more than one thread since the process started.
/// Process-wide; a test uses it to show that the multi-thread path ran.
#[must_use]
pub fn team_runs() -> u64 {
    TEAM_RUNS.load(Ordering::Relaxed)
}

static TEAM_RUNS: AtomicU64 = AtomicU64::new(0);

/// Calls `job(lane)` once for every lane in `0..lanes`, spread over up to
/// [`width`] threads (see the module docs). Returns when every lane has
/// returned.
///
/// # Panics
///
/// Re-raises the first panic of any lane.
pub fn run(lanes: usize, job: &(dyn Fn(usize) + Sync)) {
    run_phased(lanes, 1, &|lane, _| job(lane));
}

/// Calls `job(lane, phase)` for every lane in `0..lanes` and every phase in
/// `0..phases`: phase by phase, every lane of a phase returning before any
/// lane of the next phase starts. A job of no phases wakes no helper.
///
/// # Panics
///
/// Re-raises the first panic of any lane; no later phase runs after it.
pub fn run_phased(lanes: usize, phases: usize, job: &(dyn Fn(usize, usize) + Sync)) {
    if lanes > 1 && width() > 1 && phases > 0 {
        if let Some(team) = Team::claim() {
            team.run(lanes, phases, job);
            return;
        }
    }
    for phase in 0..phases {
        for lane in 0..lanes {
            job(lane, phase);
        }
    }
}

/// A raw view of one buffer whose disjoint ranges the lanes of one job
/// write (or read while another lane writes a different range).
///
/// It carries no lifetime: whoever builds it keeps the buffer borrowed, and
/// neither moved nor resized, for as long as the view is used.
#[derive(Debug)]
pub struct Disjoint<T> {
    ptr: *mut T,
    len: usize,
    _owns: PhantomData<T>,
}

impl<T> Clone for Disjoint<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Disjoint<T> {}

// SAFETY: `ptr` and `len` describe a buffer of `T` that the builder keeps
// borrowed; slices of it come only from the unsafe accessors, whose callers
// promise disjointness. Sending or sharing the view is therefore sending
// `&mut [T]` (hence `T: Send`) or sharing `&[T]` (hence `T: Sync`).
unsafe impl<T: Send> Send for Disjoint<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for Disjoint<T> {}

impl<T> Disjoint<T> {
    /// A view of `buf`.
    pub fn new(buf: &mut [T]) -> Self {
        Self {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _owns: PhantomData,
        }
    }

    /// `range` of the buffer, writable.
    ///
    /// # Safety
    ///
    /// The buffer is still borrowed by whoever built the view, and while the
    /// returned slice lives no other reference to any element of `range`
    /// exists.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie inside the buffer.
    #[must_use]
    pub unsafe fn slice_mut<'a>(&self, range: Range<usize>) -> &'a mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "lane range outside the buffer"
        );
        // SAFETY: in bounds (checked), and exclusive by the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// `range` of the buffer, read-only.
    ///
    /// # Safety
    ///
    /// The buffer is still borrowed by whoever built the view, and nothing
    /// writes `range` while the returned slice lives.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie inside the buffer.
    #[must_use]
    pub unsafe fn slice<'a>(&self, range: Range<usize>) -> &'a [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "lane range outside the buffer"
        );
        // SAFETY: in bounds (checked), and unwritten by the caller's
        // contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }
}

/// The job a run hands its helpers, its lifetime erased: [`Team::run`]
/// does not return before every helper has left it.
#[derive(Clone, Copy)]
struct Job {
    job: *const (dyn Fn(usize, usize) + Sync + 'static),
    threads: usize,
    lanes: usize,
    phases: usize,
}

// SAFETY: `job` points to a `Sync` closure, so helpers may call it through
// a shared reference, and it outlives every helper's use of it (see `Job`);
// the other fields are plain counts.
unsafe impl Send for Job {}

/// What the helpers wait for: a new generation, with its job.
struct Order {
    generation: u64,
    job: Option<Job>,
}

/// The process's helper threads and the state of the job they run.
///
/// Orderings: a job's set-up (`pending`, `arrived`, `poisoned`, the job
/// itself) is written before `order` is unlocked and read after a helper
/// locks it. Everything a helper writes in a job is released by its
/// `pending` decrement and acquired by the caller's load that sees zero;
/// what a thread writes in one phase is released by its barrier arrival
/// (`arrived`, then `phase_gen`) and acquired by the `phase_gen` load that
/// lets every thread into the next.
struct Team {
    /// Helpers actually spawned (at most `width() − 1`); stored with
    /// `Release` once each helper runs, loaded with `Acquire`.
    helpers: AtomicUsize,
    spawn: Once,
    /// Held by the one caller whose job the helpers run: taken with an
    /// `Acquire` exchange, given back with a `Release` store, so the next
    /// caller sees the team as this one left it.
    busy: AtomicBool,
    order: Mutex<Order>,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// A caller parks here until `pending` reaches zero.
    done: Condvar,
    /// Whether the caller is parked on `done`, so that the last helper
    /// signals only then. `SeqCst` with `pending` (see `wait_for_helpers`).
    caller_parked: AtomicBool,
    /// Helpers still inside the current job.
    pending: AtomicUsize,
    /// The phase barrier: arrivals in the current phase, and its generation.
    arrived: AtomicUsize,
    phase_gen: AtomicUsize,
    /// Set by the first lane that panics, before its thread arrives at the
    /// barrier, so every thread sees it after the barrier and no later phase
    /// runs.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Lanes run under `catch_unwind`, so no lock is ever held by a panic.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Team {
    /// The process's team, its helpers spawned on first use, if no other
    /// job holds it.
    fn claim() -> Option<&'static Team> {
        static TEAM: OnceLock<Team> = OnceLock::new();
        let team = TEAM.get_or_init(|| Team {
            helpers: AtomicUsize::new(0),
            spawn: Once::new(),
            busy: AtomicBool::new(false),
            order: Mutex::new(Order {
                generation: 0,
                job: None,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            caller_parked: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            arrived: AtomicUsize::new(0),
            phase_gen: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        // The helpers live as long as the process and are never joined: a
        // panic in a job is caught on the helper and re-raised on the caller,
        // and a helper has nothing else that could fail.
        team.spawn.call_once(|| {
            for index in 1..width() {
                let spawned = thread::Builder::new()
                    .name(format!("marsit-lane-{index}"))
                    .spawn(move || team.helper(index));
                if spawned.is_err() {
                    break;
                }
                team.helpers.store(index, Ordering::Release);
            }
        });
        team.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then_some(team)
    }

    /// Runs one job with the team claimed, then releases it.
    fn run(&'static self, lanes: usize, phases: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        let threads = lanes
            .min(width())
            .min(1 + self.helpers.load(Ordering::Acquire));
        if threads > 1 {
            self.pending.store(threads - 1, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            self.poisoned.store(false, Ordering::Relaxed);
            // SAFETY: only the lifetime is erased; this function waits for
            // `pending == 0`, after which no helper touches the job, before
            // it returns or unwinds.
            let job_static: &'static (dyn Fn(usize, usize) + Sync) = unsafe {
                std::mem::transmute::<
                    &(dyn Fn(usize, usize) + Sync),
                    &'static (dyn Fn(usize, usize) + Sync),
                >(job)
            };
            {
                let mut order = lock(&self.order);
                order.generation += 1;
                order.job = Some(Job {
                    job: job_static,
                    threads,
                    lanes,
                    phases,
                });
            }
            self.wake.notify_all();
            self.work(0, threads, lanes, phases, job);
            self.wait_for_helpers();
            TEAM_RUNS.fetch_add(1, Ordering::Relaxed);
        } else {
            // No helper could be spawned: the inline path, under the claim.
            self.work(0, 1, lanes, phases, job);
        }
        let panic = lock(&self.panic).take();
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }

    /// Thread `t`'s share of a job: lanes `t`, `t + threads`, … of every
    /// phase, in ascending order, with a barrier after each phase.
    fn work(
        &self,
        t: usize,
        threads: usize,
        lanes: usize,
        phases: usize,
        job: &(dyn Fn(usize, usize) + Sync),
    ) {
        for phase in 0..phases {
            if !self.poisoned.load(Ordering::Acquire) {
                for lane in (t..lanes).step_by(threads) {
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(lane, phase)))
                    {
                        lock(&self.panic).get_or_insert(payload);
                        self.poisoned.store(true, Ordering::Release);
                        break;
                    }
                }
            }
            if threads > 1 && phase + 1 < phases {
                self.barrier(threads);
            }
        }
    }

    /// Waits until all `threads` threads of the job have arrived. Every
    /// thread is inside the job, so the wait is a spin of about one lane's
    /// share of a phase.
    fn barrier(&self, threads: usize) {
        let generation = self.phase_gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.phase_gen.store(generation + 1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.phase_gen.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins.is_multiple_of(64) {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// The caller's wait at the end of a job: a short spin, since its
    /// helpers run shares as long as its own, then parking.
    fn wait_for_helpers(&self) {
        let start = Instant::now();
        while self.pending.load(Ordering::Acquire) != 0 {
            if start.elapsed() > CALLER_SPIN {
                let mut order = lock(&self.order);
                // Sequentially consistent with the helper's decrement and
                // check: either it sees this flag, or this load sees zero.
                self.caller_parked.store(true, Ordering::SeqCst);
                while self.pending.load(Ordering::SeqCst) != 0 {
                    order = self
                        .done
                        .wait(order)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.caller_parked.store(false, Ordering::Relaxed);
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// A helper's life: park until a new job, run its share if the job
    /// needs this helper, report, park again.
    fn helper(&self, index: usize) {
        let mut seen = 0;
        loop {
            let job = {
                let mut order = lock(&self.order);
                while order.generation == seen {
                    order = self
                        .wake
                        .wait(order)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                seen = order.generation;
                order.job
            };
            let Some(job) = job.filter(|job| index < job.threads) else {
                continue;
            };
            // SAFETY: the caller that published this job is waiting for this
            // helper's `pending` decrement (see `Job`).
            let f = unsafe { &*job.job };
            self.work(index, job.threads, job.lanes, job.phases, f);
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
                && self.caller_parked.load(Ordering::SeqCst)
            {
                let _order = lock(&self.order);
                self.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (lane, phase) runs exactly once, and every lane of a phase sees
    /// every lane of the previous phase done.
    #[test]
    fn every_lane_runs_once_per_phase_after_the_previous_phase() {
        for lanes in [1, 2, 3, 8] {
            for phases in [1, 2, 5] {
                let counts: Vec<AtomicUsize> =
                    (0..lanes * phases).map(|_| AtomicUsize::new(0)).collect();
                run_phased(lanes, phases, &|lane, phase| {
                    if phase > 0 {
                        for l in 0..lanes {
                            assert_eq!(
                                counts[(phase - 1) * lanes + l].load(Ordering::Acquire),
                                1,
                                "lane {lane} of phase {phase} ran before lane {l} of the last"
                            );
                        }
                    }
                    counts[phase * lanes + lane].fetch_add(1, Ordering::AcqRel);
                });
                assert!(
                    counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "lanes={lanes} phases={phases}"
                );
            }
        }
    }

    /// Disjoint ranges written through one view land where they belong.
    #[test]
    fn disjoint_views_write_their_ranges() {
        let mut buf = vec![0u32; 1000];
        let view = Disjoint::new(&mut buf);
        run(4, &|lane| {
            // SAFETY: the four ranges are disjoint and `buf` outlives the run.
            let part = unsafe { view.slice_mut(lane * 250..(lane + 1) * 250) };
            for (i, x) in part.iter_mut().enumerate() {
                *x = (lane * 250 + i) as u32;
            }
        });
        assert!(buf.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    #[should_panic(expected = "lane range outside the buffer")]
    fn disjoint_views_check_bounds() {
        let mut buf = [0u8; 4];
        let view = Disjoint::new(&mut buf);
        // SAFETY: nothing else borrows `buf`.
        let _ = unsafe { view.slice(2..5) };
    }
}
