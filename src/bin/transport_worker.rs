//! One rank of the multi-process transport backend.
//!
//! The conformance driver ([`marsit::core::transport::Scenario::run_process`])
//! and the conformance suite's kill test spawn this binary once per rank as
//! `transport_worker --transport-worker --addr <hub> --key value …`, the
//! arguments naming the rank and the pinned scenario; it serves `round`
//! frames over that connection until `stop`.
//!
//! Launched without the mode flag, the binary explains itself and exits
//! nonzero.

use marsit::core::transport::{process_worker_main, WORKER_MODE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(WORKER_MODE) {
        std::process::exit(process_worker_main(&args[1..]));
    }
    eprintln!(
        "transport_worker is launched by the marsit process-backend driver as \
         `transport_worker {WORKER_MODE} --addr <hub> --key value …` (see marsit_core::transport)."
    );
    std::process::exit(2);
}
