//! # pipedream-rs
//!
//! A Rust reproduction of **"PipeDream: Generalized Pipeline Parallelism for
//! DNN Training"** (SOSP 2019). This facade crate re-exports the workspace
//! crates under one roof:
//!
//! * [`core`] ([`pipedream_core`]) — the paper's contribution: the
//!   partitioning optimizer (§3.1), the 1F1B / 1F1B-RR schedules (§3.2), and
//!   weight stashing / vertical sync (§3.3);
//! * [`hw`] — hierarchical hardware topologies and cost models (Table 2);
//! * [`model`] — per-layer DNN profiles and the model zoo (VGG-16, ResNet-50,
//!   AlexNet, GNMT-8/16, AWD-LM, S2VT);
//! * [`sim`] — a discrete-event cluster simulator executing the schedules;
//! * [`tensor`] — a from-scratch tensor/layer library for real training;
//! * [`runtime`] — a multi-threaded pipeline-parallel training runtime,
//!   and the single-threaded §3.3 delayed-SGD recurrence it computes;
//! * [`obs`] — tracing + metrics for measured runs: per-worker event rings,
//!   Chrome-trace export, and measured-vs-planned validation;
//! * [`autopilot`] — the control plane: fault injection and recovery (§4)
//!   and live replans with checkpointed repartition and verified rollback,
//!   as one relaunch loop.
//!
//! ## Quickstart
//!
//! ```
//! use pipedream::prelude::*;
//!
//! // Plan VGG-16 on 4 Cluster-A servers (16 V100s) and simulate it.
//! let profile = pipedream::model::zoo::vgg16();
//! let topo = ClusterPreset::A.with_servers(4);
//! let plan = Planner::new(&profile, &topo).try_plan().unwrap();
//! println!("config {}", plan.config);
//! ```

pub use pipedream_autopilot as autopilot;
pub use pipedream_core as core;
pub use pipedream_hw as hw;
pub use pipedream_model as model;
pub use pipedream_obs as obs;
pub use pipedream_runtime as runtime;
pub use pipedream_sim as sim;
pub use pipedream_tensor as tensor;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use pipedream_core::planner::Planner;
    pub use pipedream_core::schedule::{Op, Schedule};
    pub use pipedream_core::stash::{VersionPolicy, VersionStore};
    pub use pipedream_hw::{ClusterPreset, Device, Precision, ServerKind, Topology};
    pub use pipedream_model::{LayerProfile, ModelProfile};
}
