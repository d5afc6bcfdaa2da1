//! In-memory labelled datasets and worker sharding.

use marsit_tensor::rng::FastRng;
use marsit_tensor::Tensor;

/// A labelled classification dataset held in memory.
///
/// Features are a dense `n × d` matrix, labels are class indices in
/// `[0, num_classes)`.
///
/// # Examples
///
/// ```
/// use marsit_datagen::Dataset;
/// use marsit_tensor::Tensor;
///
/// let ds = Dataset::new(Tensor::zeros(4, 2), vec![0, 1, 0, 1], 2);
/// assert_eq!(ds.len(), 4);
/// assert_eq!(ds.dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from a feature matrix and labels.
    ///
    /// # Panics
    ///
    /// Panics if `features.rows() != labels.len()`, if `num_classes == 0`,
    /// or if any label is out of range.
    #[must_use]
    pub fn new(features: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows must match label count"
        );
        assert!(num_classes > 0, "num_classes must be positive");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Self {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full feature matrix.
    #[must_use]
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The label vector.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row of example `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn example(&self, i: usize) -> (&[f32], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Materializes the sub-dataset selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut feats = Tensor::zeros(indices.len(), self.dim());
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            feats.row_mut(row).copy_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        Dataset::new(feats, labels, self.num_classes)
    }

    /// Splits the dataset into `m` equal-size IID shards, one per worker.
    ///
    /// Examples are shuffled with `seed` and dealt round-robin; any remainder
    /// examples (at most `m − 1`) are dropped so that all shards have equal
    /// size, matching the paper's assumption that "all the local datasets
    /// have an equal size" (Section 3).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > len`.
    #[must_use]
    pub fn shard_iid(&self, m: usize, seed: u64) -> Vec<Dataset> {
        assert!(m > 0, "worker count must be positive");
        assert!(m <= self.len(), "more workers than examples");
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = FastRng::new(seed, 0xDA7A);
        // Fisher–Yates shuffle.
        for i in (1..indices.len()).rev() {
            let j = rng.next_range(i as u64 + 1) as usize;
            indices.swap(i, j);
        }
        let per = self.len() / m;
        (0..m)
            .map(|w| self.select(&indices[w * per..(w + 1) * per]))
            .collect()
    }

    /// Splits the dataset into `m` *label-skewed* shards: each worker's
    /// class mix is drawn from a Dirichlet(`alpha`) distribution over
    /// classes, the standard non-IID benchmark protocol. Small `alpha`
    /// (e.g. 0.1) gives near-single-class workers; large `alpha` approaches
    /// IID. Shards are truncated to equal size.
    ///
    /// The paper *assumes* IID cloud data (Section 3 and the compensation
    /// argument of Section 4.1.3); this sharding exists to probe what
    /// happens when that assumption breaks.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `m > len`, or `alpha <= 0`.
    #[must_use]
    pub fn shard_dirichlet(&self, m: usize, alpha: f64, seed: u64) -> Vec<Dataset> {
        assert!(m > 0, "worker count must be positive");
        assert!(m <= self.len(), "more workers than examples");
        assert!(alpha > 0.0, "alpha must be positive");
        let mut rng = FastRng::new(seed, 0xD112);
        // Per-class index pools, shuffled.
        let mut pools: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes];
        for (i, &l) in self.labels.iter().enumerate() {
            pools[l].push(i);
        }
        for pool in &mut pools {
            for i in (1..pool.len()).rev() {
                let j = rng.next_range(i as u64 + 1) as usize;
                pool.swap(i, j);
            }
        }
        // Worker-by-class proportions: Dirichlet(alpha) via normalized
        // Gamma(alpha) draws (Marsaglia–Tsang would be overkill; use the
        // sum-of-exponentials approximation for alpha via Johnk/Best is
        // fiddly — instead use the inverse-power trick valid for the
        // qualitative skew: weight ∝ u^(1/alpha)).
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); m];
        for pool in &pools {
            let weights: Vec<f64> = (0..m)
                .map(|_| rng.next_f64().max(1e-12).powf(1.0 / alpha))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut cursor = 0usize;
            for (w, &wt) in weights.iter().enumerate() {
                let take = if w + 1 == m {
                    pool.len() - cursor
                } else {
                    ((wt / total) * pool.len() as f64).round() as usize
                };
                let take = take.min(pool.len() - cursor);
                assignments[w].extend_from_slice(&pool[cursor..cursor + take]);
                cursor += take;
            }
        }
        // Rebalance to exactly `len/m` examples per worker without dropping
        // data: surplus workers donate their excess (least-skew-relevant
        // tail first) to deficit workers. The union of shards keeps full
        // class coverage, so non-IID effects come from the *distribution*,
        // not from lost examples.
        let per = self.len() / m;
        let mut surplus: Vec<usize> = Vec::new();
        for idx in &mut assignments {
            while idx.len() > per {
                surplus.push(idx.pop().expect("surplus from over-quota shard"));
            }
        }
        for idx in &mut assignments {
            while idx.len() < per {
                idx.push(surplus.pop().expect("quota arithmetic guarantees supply"));
            }
        }
        assignments
            .into_iter()
            .map(|idx| self.select(&idx))
            .collect()
    }

    /// Draws a random minibatch of `batch_size` examples (with replacement).
    ///
    /// Sampling with replacement matches the stochastic-gradient model of the
    /// paper's analysis (`ξ ~ D_m` i.i.d. per round).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `batch_size == 0`.
    #[must_use]
    pub fn sample_batch(&self, batch_size: usize, rng: &mut FastRng) -> Dataset {
        let mut batch = self.select(&[]);
        self.sample_batch_into(batch_size, rng, &mut batch);
        batch
    }

    /// [`Dataset::sample_batch`] into a caller-owned dataset: the same draws
    /// in the same order, and no allocation once `out` has held a batch of
    /// this size and dimension. What `out` held before is overwritten.
    ///
    /// # Panics
    ///
    /// As [`Dataset::sample_batch`].
    pub fn sample_batch_into(&self, batch_size: usize, rng: &mut FastRng, out: &mut Dataset) {
        assert!(!self.is_empty(), "cannot sample from empty dataset");
        assert!(batch_size > 0, "batch size must be positive");
        let mut features = std::mem::replace(&mut out.features, Tensor::zeros(0, 0)).into_vec();
        features.clear();
        out.labels.clear();
        for _ in 0..batch_size {
            let i = rng.next_range(self.len() as u64) as usize;
            features.extend_from_slice(self.features.row(i));
            out.labels.push(self.labels[i]);
        }
        out.features = Tensor::from_vec(batch_size, self.dim(), features);
        out.num_classes = self.num_classes;
    }

    /// Per-class example counts.
    #[must_use]
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut feats = Tensor::zeros(n, 3);
        let mut labels = Vec::new();
        for i in 0..n {
            feats.set(i, 0, i as f32);
            labels.push(i % 4);
        }
        Dataset::new(feats, labels, 4)
    }

    #[test]
    fn select_preserves_rows() {
        let ds = toy(10);
        let sub = ds.select(&[3, 7]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.example(0).0[0], 3.0);
        assert_eq!(sub.example(1).0[0], 7.0);
        assert_eq!(sub.example(0).1, 3);
    }

    #[test]
    fn shard_sizes_equal_and_disjoint() {
        let ds = toy(103);
        let shards = ds.shard_iid(8, 5);
        assert_eq!(shards.len(), 8);
        for s in &shards {
            assert_eq!(s.len(), 12); // 103 / 8 = 12, remainder dropped
        }
        // Disjointness: first feature value identifies the source row.
        let mut seen = std::collections::HashSet::new();
        for s in &shards {
            for i in 0..s.len() {
                let id = s.example(i).0[0] as usize;
                assert!(seen.insert(id), "example {id} appears in two shards");
            }
        }
    }

    #[test]
    fn shard_is_deterministic() {
        let ds = toy(40);
        assert_eq!(ds.shard_iid(4, 9), ds.shard_iid(4, 9));
    }

    #[test]
    fn sample_batch_shapes() {
        let ds = toy(10);
        let mut rng = FastRng::new(0, 0);
        let b = ds.sample_batch(5, &mut rng);
        assert_eq!(b.len(), 5);
        assert_eq!(b.dim(), 3);
        assert_eq!(b.num_classes(), 4);
    }

    /// A reused batch holds exactly what a fresh one would — same rows,
    /// same labels, same draws — whatever it held before.
    #[test]
    fn sample_batch_into_matches_sample_batch() {
        let ds = toy(10);
        let mut fresh_rng = FastRng::new(3, 1);
        let mut reused_rng = FastRng::new(3, 1);
        let mut reused = toy(4).select(&[1, 2, 3]);
        for batch_size in [5, 5, 1, 12] {
            let fresh = ds.sample_batch(batch_size, &mut fresh_rng);
            ds.sample_batch_into(batch_size, &mut reused_rng, &mut reused);
            assert_eq!(reused, fresh);
            assert_eq!(reused_rng.snapshot(), fresh_rng.snapshot());
        }
    }

    #[test]
    fn class_histogram_counts() {
        let ds = toy(8);
        assert_eq!(ds.class_histogram(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn dirichlet_sharding_is_skewed_and_equal_sized() {
        let ds = toy(400);
        let skewed = ds.shard_dirichlet(4, 0.1, 7);
        assert_eq!(skewed.len(), 4);
        let size = skewed[0].len();
        assert!(size > 0);
        assert!(skewed.iter().all(|s| s.len() == size));
        // Skew: at least one worker's class histogram is far from uniform.
        let max_fraction = skewed
            .iter()
            .map(|s| {
                let hist = s.class_histogram();
                *hist.iter().max().expect("classes") as f64 / s.len() as f64
            })
            .fold(0.0, f64::max);
        assert!(max_fraction > 0.5, "no skew observed: {max_fraction}");
        // IID reference stays near 0.25 per class.
        let iid = ds.shard_iid(4, 7);
        let iid_max = iid
            .iter()
            .map(|s| {
                let hist = s.class_histogram();
                *hist.iter().max().expect("classes") as f64 / s.len() as f64
            })
            .fold(0.0, f64::max);
        assert!(
            iid_max < 0.4,
            "IID sharding should stay balanced: {iid_max}"
        );
    }

    #[test]
    fn dirichlet_high_alpha_approaches_iid() {
        let ds = toy(400);
        let shards = ds.shard_dirichlet(4, 100.0, 3);
        for s in &shards {
            let hist = s.class_histogram();
            let max = *hist.iter().max().expect("classes") as f64 / s.len() as f64;
            assert!(max < 0.45, "alpha=100 should be near uniform: {max}");
        }
    }

    #[test]
    fn dirichlet_is_deterministic() {
        let ds = toy(100);
        assert_eq!(ds.shard_dirichlet(5, 0.3, 9), ds.shard_dirichlet(5, 0.3, 9));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let _ = Dataset::new(Tensor::zeros(1, 1), vec![5], 3);
    }

    #[test]
    #[should_panic(expected = "more workers than examples")]
    fn too_many_workers_panics() {
        let _ = toy(4).shard_iid(5, 0);
    }
}
