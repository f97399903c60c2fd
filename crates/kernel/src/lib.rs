//! # ftlinda-kernel
//!
//! The replicated tuple-space state machine of FT-Linda. Every host runs
//! one [`Kernel`] fed the identical totally-ordered delivery stream from
//! the Consul layer; the kernel holds the replicas of all stable tuple
//! spaces, executes atomic guarded statements with exact rollback,
//! manages the deterministic blocked-AGS queue, and deposits the
//! distinguished failure tuple when membership changes are delivered.
//!
//! The `ftlinda` crate wires kernels to `consul-sim` groups and exposes
//! the user-facing API; this crate is the deterministic core that the
//! replica-convergence property tests exercise directly.

#![warn(missing_docs)]

mod checkpoint;
mod exec;
#[path = "kernel.rs"]
mod kernel_mod;
mod proto;

pub use checkpoint::{CheckpointError, KernelCheckpoint};
pub use exec::{guard_labels, probe_guard, try_execute, ExecError, TryOutcome};
pub use kernel_mod::{
    BlockedReport, IntrospectReport, Kernel, KernelNote, ShardSpec, SpaceReport, StarvationReport,
    XStageResult, FAILURE_TUPLE_HEAD,
};
pub use linda_space::{IndexReport, MatchStats, SignatureOccupancy};
pub use proto::{decode_request, encode_request, Request, SigBucket};
