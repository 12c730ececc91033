//! Discrete-event simulation of pipeline-parallel DNN training.
//!
//! The paper's evaluation runs on three GPU clusters; this crate substitutes
//! a simulator that executes the *same static schedules*
//! ([`pipedream_core::schedule::Schedule`]) against the hardware model
//! ([`pipedream_hw`]):
//!
//! * [`pipeline`] — executes 1F1B / 1F1B-RR / GPipe / model-parallel
//!   schedules event by event: compute occupies the worker, activation and
//!   gradient transfers occupy NIC time on the producing worker, replicated
//!   stages pay gradient-synchronization time that (thanks to weight
//!   stashing) overlaps with subsequent backward work but gates the next
//!   forward pass.
//! * [`dynamic`] — one policy, two clocks: the 1F1B-RR policy that
//!   generates the static schedules
//!   ([`Schedule::generate`](pipedream_core::schedule::Schedule::generate)),
//!   stepped on the engine's modelled timings instead of the canonical 1:2
//!   ticks, so workers choose their op order at run time.
//! * [`dp`] — a layer-granularity executor for data-parallel BSP training
//!   with wait-free backpropagation (gradients all_reduce as soon as each
//!   layer's backward completes), the baseline of Figure 1 and Table 1, plus
//!   its ASP variant.
//! * [`timeline`] — per-worker busy intervals and an ASCII renderer that
//!   reproduces the schedule diagrams of Figures 2, 3, 4 and 8.

pub mod dp;
pub mod dynamic;
mod engine;
pub mod pipeline;
pub mod timeline;

pub use dp::{simulate_asp_iteration, simulate_dp, DpResult};
pub use dynamic::simulate_dynamic;
pub use pipeline::{simulate_pipeline, PipelineSim, SimResult};
pub use timeline::{render_svg, render_timeline, Interval, Timeline, WorkKind};
