//! Transport selection for the sequencer: simulated or real TCP.
//!
//! [`SeqNet`] is the narrow surface a sequencer member uses to carry
//! out its protocol core's outputs — point-to-point send, multicast,
//! heartbeat parameters — with the simulation-only extras
//! (crash/restart injection, the oracle detector) reachable only
//! through [`SeqNet::sim`]. Everything built in
//! earlier PRs keeps running on [`SimNet`] unchanged; a TCP-backed
//! member runs the identical state machine over a [`TcpLane`].

use crate::net::{Heartbeat, HostId, NetEvent, SimNet};
use crate::sequencer::SeqMsg;
use crate::tcp::TcpLane;

/// The transport a sequencer member sends through.
#[derive(Clone)]
pub enum SeqNet {
    /// In-process simulated LAN (latency model, crash injection,
    /// optional oracle failure detector).
    Sim(SimNet<SeqMsg>),
    /// One shard lane of a process's TCP mesh.
    Tcp(TcpLane),
}

impl SeqNet {
    /// Point-to-point send.
    pub fn send(&self, from: HostId, to: HostId, msg: SeqMsg) {
        match self {
            SeqNet::Sim(net) => net.send(from, to, msg),
            SeqNet::Tcp(lane) => lane.send(to, msg),
        }
    }

    /// Multicast to `to` (encoded once on TCP).
    pub fn multicast(&self, from: HostId, to: &[HostId], msg: SeqMsg) {
        match self {
            SeqNet::Sim(net) => net.multicast(from, to.iter().copied(), msg),
            SeqNet::Tcp(lane) => lane.multicast(to, msg),
        }
    }

    /// Wake `host`'s protocol thread through its own inbox; `host` must
    /// be a member of this process. Local only: never sent or counted.
    pub(crate) fn wake(&self, host: HostId) {
        match self {
            SeqNet::Sim(net) => net.wake(host),
            SeqNet::Tcp(lane) => lane.wake(),
        }
    }

    /// Heartbeat parameters, when heartbeat failure detection is active.
    /// Always `Some` on TCP (there is no oracle across processes).
    pub fn heartbeats(&self) -> Option<Heartbeat> {
        match self {
            SeqNet::Sim(net) => net.config().heartbeats,
            SeqNet::Tcp(lane) => Some(lane.heartbeat()),
        }
    }

    /// Transport-level live view: simulation truth on `Sim`, established
    /// links on `Tcp`. Health/metrics use this; the protocol's ordered
    /// membership is authoritative for correctness.
    pub fn live_hosts(&self) -> Vec<HostId> {
        match self {
            SeqNet::Sim(net) => net.live_hosts(),
            SeqNet::Tcp(lane) => lane.live_hosts(),
        }
    }

    /// `(messages, bytes)` sent through this transport.
    pub fn stats_snapshot(&self) -> (u64, u64) {
        match self {
            SeqNet::Sim(net) => net.stats().snapshot(),
            SeqNet::Tcp(lane) => lane.stats().snapshot(),
        }
    }

    /// Reset the message/byte counters.
    pub fn reset_stats(&self) {
        match self {
            SeqNet::Sim(net) => net.stats().reset(),
            SeqNet::Tcp(lane) => lane.stats().reset(),
        }
    }

    /// Restart a host's inbox (simulation only).
    pub fn restart(&self, host: HostId) -> Option<crossbeam::channel::Receiver<NetEvent<SeqMsg>>> {
        match self {
            SeqNet::Sim(net) => Some(net.restart(host)),
            SeqNet::Tcp(_) => None,
        }
    }

    /// Crash a host fail-silently (simulation only; no-op on TCP, where
    /// you kill the process instead).
    pub fn crash(&self, host: HostId) {
        if let SeqNet::Sim(net) = self {
            net.crash(host);
        }
    }

    /// Stop router/mesh threads. On TCP this only detaches the lane;
    /// the owning process shuts the mesh down once.
    pub fn shutdown(&self) {
        if let SeqNet::Sim(net) = self {
            net.shutdown();
        }
    }

    /// The underlying simulated network, if this is the Sim transport.
    pub fn sim(&self) -> Option<&SimNet<SeqMsg>> {
        match self {
            SeqNet::Sim(net) => Some(net),
            SeqNet::Tcp(_) => None,
        }
    }
}
