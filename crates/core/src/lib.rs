//! # ftlinda
//!
//! A reproduction of **FT-Linda** (Bakken & Schlichting, TR 93-18): Linda
//! extended with *stable tuple spaces* and *atomic guarded statements*
//! (AGSs) for fault-tolerant parallel programming.
//!
//! Stable tuple spaces are replicated on every host using the replicated
//! state machine approach; each AGS — `⟨ guard ⇒ body ⟩`, with
//! disjunction — is disseminated in **one** totally-ordered multicast and
//! executed atomically (w.r.t. both concurrency and failures) by every
//! replica. Crashes are converted to fail-stop semantics by depositing a
//! distinguished `("failure", host)` tuple into every stable space.
//!
//! ```
//! use ftlinda::{Cluster, Runtime};
//! use ftlinda_ags::{Ags, MatchField, Operand};
//! use linda_tuple::{pat, tuple, TypeTag};
//!
//! let (cluster, rts) = Cluster::new(3);
//! let rt = &rts[0];
//! let ts = rt.create_stable_ts("main").unwrap();
//!
//! // Atomic distributed-variable update (paper Fig. 2 made failure-safe):
//! rt.out(ts, tuple!("count", 0)).unwrap();
//! let ags = Ags::builder()
//!     .guard_in(ts, vec![MatchField::actual("count"),
//!                        MatchField::bind(TypeTag::Int)])
//!     .out(ts, vec![Operand::cst("count"), Operand::formal(0).add(1)])
//!     .build()
//!     .unwrap();
//! rt.execute(&ags).unwrap();
//! assert_eq!(rt.rd(ts, &pat!("count", ?int)).unwrap(), tuple!("count", 1));
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

mod cluster;
mod error;
mod federation;
mod flight;
mod runtime;
mod server;

pub use cluster::{Cluster, ClusterBuilder, TcpClusterConfig, Transport};
pub use error::FtError;
pub use federation::{federate_metrics, federate_trace, MemberSource, FEDERATION_TIMEOUT};
pub use flight::{FlightRecorder, FlightSection};
pub use runtime::{
    pattern_fields, rebuild_tuple, AgsHandle, CompletionOk, FtEvent, Runtime, RuntimeConfig,
};
pub use server::{events_json_lines, http_get, HttpExporter, RpcClient, TupleServer};

// Re-export the pieces users need to build AGSs and patterns.
pub use consul_sim::{BatchConfig, CheckpointConfig, Heartbeat, HostId, NetConfig};
pub use ftlinda_ags::{Ags, AgsOutcome, MatchField, Operand, ScratchId, TsId};
pub use ftlinda_kernel::{
    BlockedReport, ExecError, IndexReport, IntrospectReport, MatchStats, SignatureOccupancy,
    SpaceReport, StarvationReport, FAILURE_TUPLE_HEAD,
};
/// Observability primitives (metrics registry, histograms, event sink).
pub use linda_obs as obs;
pub use linda_tuple::{Pattern, Tuple, TypeTag, Value};
