//! Allocation pins for the training step.
//!
//! The forward/backward pass writes every intermediate into a caller-owned
//! [`MlpWorkspace`] and `TrainerState` owns every model-sized buffer a round
//! needs, so the steady state of a training round does not go back to the
//! allocator for them. A counting allocator (as in `bench_round`) makes that
//! a test instead of a claim. Counters are per thread, so the tests of this
//! binary can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marsit::collectives::{compile_plan, PlanTopology};
use marsit::models::MlpWorkspace;
use marsit::prelude::*;

thread_local! {
    /// Allocator calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request this thread made, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn record(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: defers to the system allocator; the bookkeeping touches only
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocator calls, largest request in bytes)` this thread made in `f`.
fn measure(f: impl FnOnce()) -> (u64, usize) {
    let before = CALLS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    f();
    (CALLS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// A warm workspace makes `Mlp::loss_and_grad_in` allocation-free — on the
/// `train_torus` shape and on a serving-mix shape, and again after the
/// workspace has served a different model in between.
#[test]
fn warm_mlp_pass_allocates_nothing() {
    let (imagenet, _) = imagenet_like().generate_split(96, 8, 1);
    let (mnist, _) = mnist_like().generate_split(16, 8, 2);
    let big = Mlp::new(Workload::ResNet50ImageNet.proxy_spec(), 3);
    let small = Mlp::new(Workload::AlexNetMnist.proxy_spec(), 4);
    let mut big_grad = vec![0.0f32; big.num_params()];
    let mut small_grad = vec![0.0f32; small.num_params()];
    let mut ws = MlpWorkspace::default();

    let cold = big.loss_and_grad_in(&imagenet, &mut big_grad, &mut ws);
    let cold_grad = big_grad.clone();
    small.loss_and_grad_in(&mnist, &mut small_grad, &mut ws);
    for _ in 0..3 {
        let mut loss = 0.0;
        let (calls, _) = measure(|| loss = big.loss_and_grad_in(&imagenet, &mut big_grad, &mut ws));
        assert_eq!(calls, 0, "warm ResNet-50 proxy pass allocated");
        // Reuse is invisible: a warm, previously shared workspace gives the
        // bits of the cold one.
        assert_eq!(loss.to_bits(), cold.to_bits());
        assert!(big_grad
            .iter()
            .zip(&cold_grad)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let (calls, _) = measure(|| {
            small.loss_and_grad_in(&mnist, &mut small_grad, &mut ws);
        });
        assert_eq!(calls, 0, "warm AlexNet/MNIST proxy pass allocated");
    }
}

/// A steady-state sequential `TrainerState::step` allocates no model-sized
/// buffer: gradients, updates, the f64 gradient mean, the sign vectors of
/// the matching rate, the synchronizer's outcome and the parameter update
/// all live in state the trainer owns. (What remains is smaller than the
/// model: the sampled minibatch and the round's bookkeeping.)
#[test]
fn sequential_step_allocates_no_model_sized_buffer() {
    let mut cfg = TrainConfig::new(
        Workload::ResNet50ImageNet,
        Topology::torus(2, 4),
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.rounds = 40;
    cfg.train_examples = 1024;
    cfg.test_examples = 64;
    cfg.batch_per_worker = 96;
    cfg.eval_every = 0;
    cfg.parallel_workers = false;
    let mut state = TrainerState::new(&cfg);
    let model_bytes = state.model_dim() * std::mem::size_of::<f32>();
    // Warm-up covers both kinds of round: 0 and 10 are full precision.
    for _ in 0..12 {
        state.step();
    }
    // Rounds 12..34: one-bit rounds, the full-precision rounds 20 and 30,
    // and the consistency checks of rounds 16 and 32.
    for t in 12..34 {
        let (_, largest) = measure(|| state.step());
        assert!(
            largest < model_bytes,
            "round {t} allocated {largest} bytes at once; the model is {model_bytes}"
        );
    }
    assert!(state.replicas_consistent());
}

/// Compiling a plan is the bookkeeping half of the schedule walk and touches
/// no payload: for the `sync_large` shape — seven ranks, 1 048 583
/// coordinates, 128 KiB per packed sign vector — no single request reaches
/// 64 KiB, so nobody implements it as a walk over `world` zeroed inputs.
#[test]
fn compiling_a_plan_allocates_no_payload() {
    let mut transfers = 0;
    let (_, largest) = measure(|| {
        let plan = compile_plan(PlanTopology::Ring, 7, 1_048_583, None).expect("valid shape");
        transfers = plan.transfers.len();
    });
    assert_eq!(transfers, 2 * 6 * 7);
    assert!(
        largest < 64 << 10,
        "compile_plan requested {largest} bytes at once"
    );
}
