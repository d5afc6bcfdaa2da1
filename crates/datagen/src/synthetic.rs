//! Synthetic dataset generators standing in for the paper's benchmarks.
//!
//! The paper evaluates on MNIST, CIFAR-10, ImageNet, and IMDb reviews, none
//! of which can be downloaded here. Each generator below produces a
//! deterministic synthetic task whose *difficulty profile* mimics its
//! namesake: easier tasks have widely separated class clusters (MNIST-like
//! accuracy saturates near 99%), harder tasks overlap heavily (CIFAR-like /
//! ImageNet-like plateau well below 100%). This preserves the phenomena the
//! paper studies — relative accuracy orderings between synchronization
//! strategies and the sensitivity of noisy gradients to one-bit compression —
//! while remaining fully reproducible.

use marsit_tensor::rng::{split_seed, FastRng};
use marsit_tensor::Tensor;

use crate::dataset::Dataset;

/// Configuration for a Gaussian-cluster classification task.
///
/// Examples of class `k` are drawn as `x = μ_k + ε`, with class means `μ_k`
/// sampled uniformly on a sphere of radius `separation` and `ε` i.i.d.
/// Gaussian noise of standard deviation `noise_std`. The Bayes accuracy is
/// controlled by the ratio `separation / noise_std`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Radius of the sphere the class means are drawn from.
    pub separation: f32,
    /// Standard deviation of the per-example noise.
    pub noise_std: f32,
}

impl ClusterSpec {
    /// Generates `n` examples with the given seed.
    ///
    /// The class means depend only on `seed`, so train and test splits drawn
    /// with different `stream` values share the same underlying task.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `dim == 0`, or `num_classes == 0`.
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64, stream: u64) -> Dataset {
        self.generate_with(&self.class_means(seed), n, seed, stream)
    }

    /// Generates a `(train, test)` pair sharing the same class means.
    #[must_use]
    pub fn generate_split(&self, train_n: usize, test_n: usize, seed: u64) -> (Dataset, Dataset) {
        let means = self.class_means(seed);
        (
            self.generate_with(&means, train_n, seed, 1),
            self.generate_with(&means, test_n, seed, 2),
        )
    }

    /// [`ClusterSpec::generate`] around precomputed `class_means(seed)`: each
    /// row is filled with its noise in place, then shifted by its class mean.
    fn generate_with(&self, means: &[Vec<f32>], n: usize, seed: u64, stream: u64) -> Dataset {
        assert!(
            n > 0 && self.dim > 0 && self.num_classes > 0,
            "degenerate spec"
        );
        let mut rng = FastRng::new(split_seed(seed, 0xC1A5), stream);
        let mut feats = Tensor::zeros(n, self.dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.next_range(self.num_classes as u64) as usize;
            labels.push(class);
            let row = feats.row_mut(i);
            rng.fill_gaussian(row, self.noise_std);
            for (x, &m) in row.iter_mut().zip(&means[class]) {
                *x += m;
            }
        }
        Dataset::new(feats, labels, self.num_classes)
    }

    fn class_means(&self, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = FastRng::new(split_seed(seed, 0x3EA7), 0);
        (0..self.num_classes)
            .map(|_| {
                let mut v = vec![0.0; self.dim];
                rng.fill_gaussian(&mut v, 1.0);
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                for x in &mut v {
                    *x *= self.separation / norm;
                }
                v
            })
            .collect()
    }
}

/// Configuration for a bag-of-words sentiment task (IMDb stand-in).
///
/// Each class has a word-frequency profile over a `vocab`-word vocabulary;
/// documents are multinomial draws of `doc_len` tokens, represented as
/// normalized count vectors. A fraction of `shared` vocabulary mass is common
/// to both classes, controlling difficulty.
#[derive(Debug, Clone, PartialEq)]
pub struct SentimentSpec {
    /// Vocabulary size (feature dimensionality).
    pub vocab: usize,
    /// Tokens per document.
    pub doc_len: usize,
    /// Fraction of probability mass on class-neutral words, in `[0, 1)`.
    pub shared: f64,
}

impl SentimentSpec {
    /// Generates `n` documents with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 4`, `doc_len == 0`, or `shared` is outside `[0, 1)`.
    #[must_use]
    pub fn generate(&self, n: usize, seed: u64, stream: u64) -> Dataset {
        assert!(self.vocab >= 4, "vocabulary too small");
        assert!(self.doc_len > 0, "doc_len must be positive");
        assert!((0.0..1.0).contains(&self.shared), "shared must be in [0,1)");
        let mut rng = FastRng::new(split_seed(seed, 0x5E27), stream);
        // Class-specific word sets: first half of the non-shared vocabulary
        // is "positive" vocabulary, second half "negative".
        let class_vocab = self.vocab / 2;
        let mut feats = Tensor::zeros(n, self.vocab);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.next_range(2) as usize;
            labels.push(class);
            let row = feats.row_mut(i);
            for _ in 0..self.doc_len {
                let word = if rng.bernoulli(self.shared) {
                    // Shared word: uniform over the whole vocabulary.
                    rng.next_range(self.vocab as u64) as usize
                } else {
                    // Class word: uniform over this class's half.
                    let base = class * class_vocab;
                    base + rng.next_range(class_vocab as u64) as usize
                };
                row[word.min(self.vocab - 1)] += 1.0;
            }
            // Normalize to term frequencies.
            let inv = 1.0 / self.doc_len as f32;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        Dataset::new(feats, labels, 2)
    }

    /// Generates a `(train, test)` pair.
    #[must_use]
    pub fn generate_split(&self, train_n: usize, test_n: usize, seed: u64) -> (Dataset, Dataset) {
        (
            self.generate(train_n, seed, 1),
            self.generate(test_n, seed, 2),
        )
    }
}

/// MNIST stand-in: 10 well-separated classes in 64 dimensions.
///
/// Plain SGD reaches ≈99% test accuracy, matching Table 1's "no compression"
/// rows.
#[must_use]
pub fn mnist_like() -> ClusterSpec {
    ClusterSpec {
        dim: 64,
        num_classes: 10,
        separation: 5.0,
        noise_std: 1.0,
    }
}

/// CIFAR-10 stand-in: 10 overlapping classes in 256 dimensions.
///
/// Accuracy plateaus in the high-80s/low-90s under clean training, leaving
/// visible head-room for compression-induced accuracy drops (Table 2, Fig 3).
#[must_use]
pub fn cifar10_like() -> ClusterSpec {
    ClusterSpec {
        dim: 256,
        num_classes: 10,
        separation: 3.4,
        noise_std: 1.0,
    }
}

/// ImageNet stand-in: 50 heavily overlapping classes in 512 dimensions.
///
/// Uses 50 classes rather than 1000 to keep CPU runtimes tractable while
/// preserving the "hard many-class task" character (top-1 accuracy well below
/// 80%, as in Table 2's ImageNet rows).
#[must_use]
pub fn imagenet_like() -> ClusterSpec {
    ClusterSpec {
        dim: 512,
        num_classes: 50,
        separation: 4.2,
        noise_std: 1.0,
    }
}

/// IMDb stand-in: binary bag-of-words sentiment over a 512-word vocabulary.
#[must_use]
pub fn imdb_like() -> SentimentSpec {
    SentimentSpec {
        vocab: 512,
        doc_len: 64,
        shared: 0.85,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_generation_is_deterministic() {
        let spec = mnist_like();
        assert_eq!(spec.generate(50, 3, 0), spec.generate(50, 3, 0));
    }

    #[test]
    fn cluster_streams_differ_but_share_means() {
        let spec = mnist_like();
        let a = spec.generate(200, 3, 1);
        let b = spec.generate(200, 3, 2);
        assert_ne!(a, b);
        // Class means shared: per-class feature centroids should be close
        // across the two streams relative to the separation scale.
        let centroid = |ds: &Dataset, class: usize| -> Vec<f32> {
            let mut sum = vec![0.0f32; ds.dim()];
            let mut count = 0;
            for i in 0..ds.len() {
                let (x, l) = ds.example(i);
                if l == class {
                    for (s, &v) in sum.iter_mut().zip(x) {
                        *s += v;
                    }
                    count += 1;
                }
            }
            for s in &mut sum {
                *s /= count.max(1) as f32;
            }
            sum
        };
        let ca = centroid(&a, 0);
        let cb = centroid(&b, 0);
        let dist: f32 = ca
            .iter()
            .zip(&cb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        assert!(dist < 3.0, "same-class centroids too far apart: {dist}");
    }

    #[test]
    fn cluster_labels_cover_all_classes() {
        let ds = mnist_like().generate(2000, 1, 0);
        let hist = ds.class_histogram();
        assert!(hist.iter().all(|&c| c > 100), "unbalanced: {hist:?}");
    }

    #[test]
    fn split_shares_task() {
        let (train, test) = cifar10_like().generate_split(100, 50, 7);
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 50);
        assert_eq!(train.dim(), test.dim());
        assert_ne!(train, test.select(&(0..50).collect::<Vec<_>>()));
    }

    #[test]
    fn sentiment_rows_are_term_frequencies() {
        let ds = imdb_like().generate(20, 5, 0);
        for i in 0..ds.len() {
            let (x, _) = ds.example(i);
            let sum: f32 = x.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
            assert!(x.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn sentiment_classes_are_separable_in_aggregate() {
        let ds = imdb_like().generate(400, 11, 0);
        // Average mass on the first vocabulary half should be higher for
        // class 0 than class 1.
        let half = ds.dim() / 2;
        let mut mass = [0.0f64; 2];
        let mut count = [0usize; 2];
        for i in 0..ds.len() {
            let (x, l) = ds.example(i);
            mass[l] += x[..half].iter().map(|&v| f64::from(v)).sum::<f64>();
            count[l] += 1;
        }
        let m0 = mass[0] / count[0] as f64;
        let m1 = mass[1] / count[1] as f64;
        assert!(m0 > m1 + 0.05, "class mass not separated: {m0} vs {m1}");
    }

    #[test]
    fn named_specs_have_expected_shapes() {
        assert_eq!(mnist_like().num_classes, 10);
        assert_eq!(cifar10_like().dim, 256);
        assert_eq!(imagenet_like().num_classes, 50);
        assert_eq!(imdb_like().vocab, 512);
    }
}
