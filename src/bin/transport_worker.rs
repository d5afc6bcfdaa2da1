//! One rank of the multi-process transport backend.
//!
//! The conformance driver ([`marsit::core::transport::Scenario::run_process`])
//! and the conformance suite's kill test spawn this binary once per rank with the
//! `MARSIT_TW_*` environment describing the hub address and the pinned
//! scenario; it serves `round` frames over that connection until `stop`.
//!
//! Run a hub-less smoke check by launching without the environment: the
//! binary explains itself and exits nonzero.

fn main() {
    if marsit::core::transport::maybe_run_worker_from_env() {
        return;
    }
    eprintln!(
        "transport_worker is launched by the marsit process-backend driver; \
         it needs the MARSIT_TW_* environment (see marsit_core::transport)."
    );
    std::process::exit(2);
}
