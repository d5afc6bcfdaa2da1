//! The α–β link cost model and hardware rate profiles.
//!
//! A point-to-point transfer of `B` bytes costs `α + B/β` seconds — the
//! standard first-order model for collective-communication analysis. Rate
//! profiles bundle the link with compute and codec throughputs so a whole
//! cluster is described by one value.

/// Cost model for one network link.
///
/// # Examples
///
/// ```
/// use marsit_simnet::LinkModel;
///
/// let link = LinkModel::new(25e-6, 1.25e9); // 25 µs latency, 10 Gb/s
/// let t = link.transfer_time(1_250_000);
/// assert!((t - 0.001025).abs() < 1e-9); // 25 µs + 1 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    latency_s: f64,
    bandwidth_bytes_per_s: f64,
}

impl LinkModel {
    /// Creates a link with the given latency (α, seconds) and bandwidth
    /// (β, bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `latency_s < 0` or `bandwidth_bytes_per_s <= 0`.
    #[must_use]
    pub fn new(latency_s: f64, bandwidth_bytes_per_s: f64) -> Self {
        assert!(latency_s >= 0.0, "latency must be non-negative");
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        Self {
            latency_s,
            bandwidth_bytes_per_s,
        }
    }

    /// Link latency α in seconds.
    #[must_use]
    pub fn latency_s(self) -> f64 {
        self.latency_s
    }

    /// Link bandwidth β in bytes per second.
    #[must_use]
    pub fn bandwidth_bytes_per_s(self) -> f64 {
        self.bandwidth_bytes_per_s
    }

    /// Time to move `bytes` across the link: `α + bytes/β`.
    #[must_use]
    pub fn transfer_time(self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// Hardware rates for one worker node: link, accelerator, and codec speeds.
///
/// The defaults in [`RateProfile::public_cloud`] approximate the paper's
/// testbed (Nvidia T4 nodes on a shared-tenancy 10 GbE cloud network); the
/// absolute numbers only set the time axis scale — the paper-level claims
/// all concern *relative* times between strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateProfile {
    /// Point-to-point link.
    pub link: LinkModel,
    /// Sustained training throughput of the accelerator, FLOP/s.
    pub flops_per_s: f64,
    /// Elements/second for simple streaming codecs (sign extraction,
    /// bit packing, scaling). Memory-bandwidth bound.
    pub codec_elems_per_s: f64,
    /// Elements/second for random-number-driven codecs (stochastic
    /// rounding, Bernoulli transient vectors). Slower than plain streaming.
    pub rng_elems_per_s: f64,
}

impl RateProfile {
    /// Network-intensive public cloud: 10 GbE with 25 µs latency, one T4-class
    /// accelerator (8 TFLOP/s sustained FP32), 2 G elem/s streaming codec,
    /// 0.8 G elem/s stochastic codec.
    #[must_use]
    pub fn public_cloud() -> Self {
        Self {
            link: LinkModel::new(25e-6, 1.25e9),
            flops_per_s: 8.0e12,
            codec_elems_per_s: 2.0e9,
            rng_elems_per_s: 0.8e9,
        }
    }

    /// HPC interconnect: 100 Gb/s, 5 µs latency, same compute.
    ///
    /// Included for sensitivity studies: with this profile communication no
    /// longer dominates and compression gains shrink, which is exactly the
    /// regime the paper scopes itself away from.
    #[must_use]
    pub fn hpc() -> Self {
        Self {
            link: LinkModel::new(5e-6, 12.5e9),
            ..Self::public_cloud()
        }
    }

    /// Time to execute `flops` of training compute.
    #[must_use]
    pub fn compute_time(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0, "flops must be non-negative");
        flops / self.flops_per_s
    }

    /// Time for a streaming codec pass over `elems` elements.
    #[must_use]
    pub fn codec_time(&self, elems: usize) -> f64 {
        elems as f64 / self.codec_elems_per_s
    }

    /// Time for a stochastic (RNG-driven) codec pass over `elems` elements.
    #[must_use]
    pub fn rng_time(&self, elems: usize) -> f64 {
        elems as f64 / self.rng_elems_per_s
    }
}

impl Default for RateProfile {
    fn default() -> Self {
        Self::public_cloud()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_components() {
        let link = LinkModel::new(1e-3, 1e6);
        assert!((link.transfer_time(0) - 1e-3).abs() < 1e-12);
        assert!((link.transfer_time(1_000_000) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn profile_times_scale_linearly() {
        let p = RateProfile::public_cloud();
        assert!((p.codec_time(2_000_000_000) - 1.0).abs() < 1e-9);
        assert!(p.rng_time(1000) > p.codec_time(1000));
        assert!((p.compute_time(8.0e12) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hpc_is_faster_than_cloud() {
        let cloud = RateProfile::public_cloud();
        let hpc = RateProfile::hpc();
        assert!(hpc.link.transfer_time(1 << 20) < cloud.link.transfer_time(1 << 20));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = LinkModel::new(0.0, 0.0);
    }
}
