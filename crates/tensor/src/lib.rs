//! # stsm-tensor
//!
//! Dense `f32` tensors, reverse-mode automatic differentiation, neural-network
//! layers and optimizers — the deep-learning substrate for the STSM
//! reproduction (EDBT 2024, *Spatial-temporal Forecasting for Regions without
//! Observations*). The Rust DL ecosystem is too thin to lean on, so this
//! crate implements the pieces the paper's model needs from scratch:
//!
//! * [`Tensor`] — contiguous row-major tensors with copy-on-write storage;
//! * [`Tape`] — a per-forward-pass autograd arena ([`Tape::backward`]);
//! * [`InferSession`] — the forward-only tape behind [`nn::Fwd`]'s Infer
//!   mode: parameters bound once, no backward closures, and the same ops as
//!   the Train-mode forward, so bitwise identical outputs;
//! * [`nn`] — Linear / dilated causal Conv1d / GRU / LayerNorm /
//!   multi-head attention / transformer encoder layers;
//! * [`optim`] — SGD and Adam with gradient clipping;
//! * [`LinMap`] — constant linear operators (e.g. sparse adjacencies) that
//!   plug into the tape, so graph convolutions stay decoupled from graph
//!   types;
//! * [`pool`] — the persistent worker pool behind every parallel kernel
//!   (sized by `STSM_NUM_THREADS`, deterministic for any thread count);
//! * [`alloc`] — size-classed buffer recycling for tensor storage, always
//!   on (the fused training-step kernels build on it);
//! * [`telemetry`] — the always-compiled, default-off instrumentation
//!   registry (spans, counters, latency histograms) behind `STSM_TELEMETRY`;
//!   disabled it costs one relaxed atomic load per probe and never changes
//!   numeric results.
//!
//! ## Example
//!
//! ```
//! use stsm_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec([2], vec![1.0, 2.0]));
//! let y = tape.square(x);
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).unwrap().data(), &[2.0, 4.0]);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod codec;
pub mod dtype;
mod gemm;
mod infer;
mod kernels;
mod linmap;
pub mod nn;
pub mod optim;
mod params;
pub mod pool;
mod shape;
pub mod simd;
mod sparse;
mod tape;
pub mod telemetry;
mod tensor;

pub use dtype::DType;
pub use infer::InferSession;
pub use kernels::{
    addmm, bmm, bmm_nt, bmm_tn, conv1d_dilated, conv1d_ntc, csr_spmm, log_softmax_lastdim, matmul,
    matmul_nt, matmul_raw, matmul_tn, sigmoid, softmax_lastdim,
};
pub use linmap::{DenseLinMap, LinMap};
pub use params::{ParamBinder, ParamId, ParamLayoutError, ParamStore};
pub use shape::{Layout, Shape};
pub use sparse::CsrRowGroups;
pub use tape::{Tape, Var};
pub use tensor::{Tensor, TensorView};
