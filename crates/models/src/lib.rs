//! Training substrate for the Marsit reproduction: models with flat
//! parameter/gradient views, plus the local optimizers the paper uses.
//!
//! The paper trains AlexNet/ResNet/DistilBERT with PyTorch; this crate
//! provides CPU-trainable MLP proxies (see [`Workload`]) with *exact* manual
//! backpropagation, so that the gradients fed into the synchronization layer
//! are true stochastic gradients — the property all of the paper's analysis
//! rests on. Gradients are exposed as flat `&[f32]`, the shape in which they
//! are compressed and transmitted.
//!
//! # Examples
//!
//! ```
//! use marsit_models::{Mlp, Model, Workload};
//! use marsit_datagen::synthetic::cifar10_like;
//!
//! let (train, test) = cifar10_like().generate_split(512, 128, 0);
//! let spec = Workload::ResNet20Cifar10.proxy_spec();
//! let mut model = Mlp::new(spec, 42);
//! let mut grad = vec![0.0; model.num_params()];
//! let loss = model.loss_and_grad(&train, &mut grad);
//! assert!(loss > 0.0);
//! let eval = model.evaluate(&test);
//! assert!(eval.accuracy <= 1.0);
//! ```

pub mod mlp;
pub mod model;
pub mod optim;
pub mod proxy;

pub use mlp::{Mlp, MlpSpec, MlpWorkspace};
pub use model::{Evaluation, Model};
pub use optim::{Adam, Momentum, Optimizer, OptimizerKind, OptimizerState, Sgd};
pub use proxy::Workload;
