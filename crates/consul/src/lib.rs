//! # consul-sim
//!
//! A simulated stand-in for Consul, the communication substrate the paper
//! builds FT-Linda on: a network of fail-silent workstations with
//! totally-ordered atomic multicast, membership/failure notification, and
//! message accounting.
//!
//! Components:
//!
//! * [`SimNet`] — the simulated LAN: per-link latency + jitter, FIFO
//!   links, crash/restart injection, a delayed perfect failure detector
//!   whose crash notices ride the crashed host's own links.
//! * [`SeqGroup`]/[`SeqMember`] — fixed-sequencer total-order multicast
//!   with coordinator failover, gap repair, and log-replay rejoin. This is
//!   what the FT-Linda runtime uses. Oracle notices and heartbeat silence
//!   are only verdict sources: both drive one membership path, and a host
//!   is back only once its `Join` record is ordered.
//! * [`IsisGroup`]/[`IsisMember`] — ISIS-style agreed-timestamp ordering
//!   (failure-free), for the ordering-protocol ablation (A1).
//! * [`NetStats`]/[`OrderStats`] — the measurement instruments for the
//!   "one multicast per AGS" experiment (E9).

#![warn(missing_docs)]

mod isis;
mod net;
mod order;
mod sequencer;
mod stats;
mod tcp;
mod transport;
mod wire;

pub use isis::{IsisGroup, IsisMember, IsisMsg};
pub use net::{Heartbeat, HostId, NetConfig, NetEvent, NicModel, SimNet, WireSized};
pub use order::{BatchEntry, CheckpointImage, Delivery, LocalId, Record, RecordBody};
pub use sequencer::{BatchConfig, CheckpointConfig, SeqGroup, SeqMember, SeqMsg};
pub use stats::{NetStats, OrderStats};
pub use tcp::{bind_reuse, TcpConfig, TcpLane, TcpMesh};
pub use transport::SeqNet;
pub use wire::{decode_seq_msg, encode_seq_msg, MAX_FRAME_BYTES};
