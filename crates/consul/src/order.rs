//! Common types for totally-ordered atomic multicast.
//!
//! Consul's job in the FT-Linda architecture (paper §5.1) is to take AGS
//! request messages from the library, disseminate them to every tuple
//! space replica, and deliver them **in the same total order everywhere**,
//! interleaving membership changes into that order so replicas insert
//! failure tuples at identical points in the command stream.

use crate::net::HostId;
use bytes::Bytes;
use linda_obs::TraceId;

/// Identifier a sender assigns to its own broadcast; `(origin, local)` is
/// globally unique and lets the origin recognize its own delivery.
///
/// The same pair doubles as the causal [`TraceId`] of the broadcast:
/// tracing rides the identity that is already on the wire, adding no
/// bytes to any message.
pub type LocalId = u64;

/// One submit coalesced into a batch record: the `(origin, local)` pair
/// identifies the broadcast exactly as it would in a solo `App` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Host that submitted this entry.
    pub origin: HostId,
    /// Origin-local id of the broadcast.
    pub local: LocalId,
    /// The application payload.
    pub payload: Bytes,
}

impl BatchEntry {
    /// The causal trace id this entry carries (its wire identity).
    pub fn trace_id(&self) -> TraceId {
        TraceId::new(self.origin.0, self.local)
    }
}

/// The body of an ordered record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordBody {
    /// An application payload (an encoded AGS request, for FT-Linda).
    App(Bytes),
    /// Several submits coalesced by the coordinator into one multicast
    /// (group commit). The record's `seq` is the sequence number of the
    /// *first* entry; entry `i` holds global sequence `seq + i`. Batch
    /// records exist only on the wire: receivers explode them into solo
    /// `App` records (see [`Record::explode`]) before log append, so the
    /// log, deliveries, sync, NACK repair, and duplicate detection all
    /// remain per-entry.
    Batch(Vec<BatchEntry>),
    /// Membership change: `host` failed. Replicas deposit failure tuples
    /// when they deliver this.
    Fail(HostId),
    /// Membership change: `host` (re)joined.
    Join(HostId),
    /// Checkpoint boundary, emitted periodically by the coordinator.
    /// Because the marker is ordered like any record, every replica sees
    /// it at the same sequence number and cuts its log at the identical
    /// point: the application snapshots its state machine exactly here,
    /// hands the image back to the ordering layer, and the log prefix up
    /// to (and including) this seq becomes eligible for truncation.
    Checkpoint,
}

/// An opaque state-machine checkpoint riding the ordering layer's wire
/// protocol. The ordering layer never interprets `bytes` — it only needs
/// the sequence number the image was taken at (to ship the right log
/// tail) and carries the digest so the receiver can verify the restore.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// Sequence number the image captures: applying it is equivalent to
    /// replaying the ordered log from 1 through `seq`.
    pub seq: u64,
    /// State digest at `seq` (the kernel's `digest()`); the restoring
    /// replica recomputes and compares.
    pub digest: u64,
    /// Codec-serialized state image.
    pub bytes: Bytes,
}

impl CheckpointImage {
    /// Approximate wire size of the image in bytes.
    pub fn wire_size(&self) -> usize {
        8 + 8 + self.bytes.len()
    }
}

/// One entry of the totally-ordered stream. `seq` is contiguous from 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Global sequence number (contiguous, starting at 1).
    pub seq: u64,
    /// Host that originated the record (for `App`: the submitting host;
    /// for view changes: the coordinator that emitted it).
    pub origin: HostId,
    /// Origin-local id of the broadcast (0 for view changes).
    pub local: LocalId,
    /// Payload.
    pub body: RecordBody,
}

impl Record {
    /// The causal trace id of an `App` record (its `(origin, local)` wire
    /// identity). `None` for view changes and wire-only batch envelopes,
    /// which are not application broadcasts.
    pub fn trace_id(&self) -> Option<TraceId> {
        match self.body {
            RecordBody::App(_) => Some(TraceId::new(self.origin.0, self.local)),
            _ => None,
        }
    }

    /// Approximate wire size of the record in bytes.
    pub fn wire_size(&self) -> usize {
        let body = match &self.body {
            RecordBody::App(p) => p.len(),
            RecordBody::Batch(es) => es.iter().map(|e| 4 + 8 + e.payload.len()).sum(),
            _ => 4,
        };
        8 + 4 + 8 + 1 + body
    }

    /// Explode a batch record into the solo `App` records it carries
    /// (entry `i` gets sequence `seq + i`); a non-batch record is returned
    /// unchanged. Receivers call this before per-record accept logic so
    /// that everything downstream of the wire sees one record per submit.
    pub fn explode(self) -> Vec<Record> {
        match self.body {
            RecordBody::Batch(entries) => entries
                .into_iter()
                .enumerate()
                .map(|(i, e)| Record {
                    seq: self.seq + i as u64,
                    origin: e.origin,
                    local: e.local,
                    body: RecordBody::App(e.payload),
                })
                .collect(),
            _ => vec![self],
        }
    }
}

/// What the ordering layer hands to the application (the TS replica state
/// machine), in identical order at every member.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// An application message.
    App {
        /// Global sequence number.
        seq: u64,
        /// Submitting host.
        origin: HostId,
        /// Origin-local broadcast id.
        local: LocalId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// `host` failed; ordered like any message.
    Fail {
        /// Global sequence number.
        seq: u64,
        /// The failed host.
        host: HostId,
    },
    /// `host` (re)joined.
    Join {
        /// Global sequence number.
        seq: u64,
        /// The joined host.
        host: HostId,
    },
    /// A checkpoint boundary: the application must snapshot its state
    /// *now* (having applied exactly the records up to `seq`) and hand
    /// the image back to the ordering layer so the log can be truncated.
    Checkpoint {
        /// Global sequence number of the boundary.
        seq: u64,
    },
    /// Synthesized (never from a [`Record`]) when a snapshot with a
    /// checkpoint arrives: the application must replace its state with
    /// the image before applying any subsequent deliveries. Emitted as
    /// the first delivery of a rejoin, or mid-stream when a member fell
    /// behind the coordinator's compaction watermark.
    Restore {
        /// The state image to restore.
        image: CheckpointImage,
    },
    /// Synthesized (never from a [`Record`]) when the member learns it
    /// was evicted on a false suspicion: the coordinator ordered a
    /// `Fail` for it while it was alive. Its in-flight broadcasts are
    /// indeterminate — the application must fail their waiters. The
    /// member re-enters through the JoinReq → Snapshot path, so a
    /// `Restore` (or a replayed tail) follows once it is re-admitted.
    Evicted {
        /// The member's contiguous prefix at the moment of eviction.
        seq: u64,
    },
}

impl Delivery {
    /// The causal trace id of an `App` delivery; `None` for view changes.
    pub fn trace_id(&self) -> Option<TraceId> {
        match self {
            Delivery::App { origin, local, .. } => Some(TraceId::new(origin.0, *local)),
            _ => None,
        }
    }

    /// The record's global sequence number (for `Restore`: the sequence
    /// number the image captures — applying it lands the replica there).
    pub fn seq(&self) -> u64 {
        match self {
            Delivery::App { seq, .. }
            | Delivery::Fail { seq, .. }
            | Delivery::Join { seq, .. }
            | Delivery::Checkpoint { seq }
            | Delivery::Evicted { seq } => *seq,
            Delivery::Restore { image } => image.seq,
        }
    }

    /// Convert a [`Record`] into the corresponding delivery event.
    ///
    /// # Panics
    ///
    /// Panics on a [`RecordBody::Batch`] record: batches are a wire-only
    /// encoding and must be split with [`Record::explode`] before any
    /// per-record processing.
    pub fn from_record(r: &Record) -> Delivery {
        match &r.body {
            RecordBody::Batch(_) => {
                panic!("batch records must be exploded before delivery")
            }
            RecordBody::App(p) => Delivery::App {
                seq: r.seq,
                origin: r.origin,
                local: r.local,
                payload: p.clone(),
            },
            RecordBody::Fail(h) => Delivery::Fail {
                seq: r.seq,
                host: *h,
            },
            RecordBody::Join(h) => Delivery::Join {
                seq: r.seq,
                host: *h,
            },
            RecordBody::Checkpoint => Delivery::Checkpoint { seq: r.seq },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_from_record() {
        let r = Record {
            seq: 3,
            origin: HostId(1),
            local: 9,
            body: RecordBody::App(Bytes::from_static(b"xy")),
        };
        match Delivery::from_record(&r) {
            Delivery::App {
                seq,
                origin,
                local,
                payload,
            } => {
                assert_eq!((seq, origin, local), (3, HostId(1), 9));
                assert_eq!(&payload[..], b"xy");
            }
            other => panic!("wrong delivery {other:?}"),
        }
        assert_eq!(Delivery::from_record(&r).seq(), 3);

        let f = Record {
            seq: 4,
            origin: HostId(0),
            local: 0,
            body: RecordBody::Fail(HostId(2)),
        };
        assert_eq!(
            Delivery::from_record(&f),
            Delivery::Fail {
                seq: 4,
                host: HostId(2)
            }
        );

        let j = Record {
            seq: 5,
            origin: HostId(0),
            local: 0,
            body: RecordBody::Join(HostId(2)),
        };
        assert_eq!(
            Delivery::from_record(&j),
            Delivery::Join {
                seq: 5,
                host: HostId(2)
            }
        );
    }

    #[test]
    fn explode_assigns_contiguous_seqs() {
        let b = Record {
            seq: 7,
            origin: HostId(0),
            local: 0,
            body: RecordBody::Batch(vec![
                BatchEntry {
                    origin: HostId(1),
                    local: 4,
                    payload: Bytes::from_static(b"a"),
                },
                BatchEntry {
                    origin: HostId(2),
                    local: 9,
                    payload: Bytes::from_static(b"b"),
                },
            ]),
        };
        let solo = b.explode();
        assert_eq!(solo.len(), 2);
        assert_eq!(solo[0].seq, 7);
        assert_eq!(solo[0].origin, HostId(1));
        assert_eq!(solo[0].local, 4);
        assert_eq!(solo[0].body, RecordBody::App(Bytes::from_static(b"a")));
        assert_eq!(solo[1].seq, 8);
        assert_eq!(solo[1].origin, HostId(2));
        assert_eq!(solo[1].local, 9);

        // Non-batch records pass through unchanged.
        let r = Record {
            seq: 1,
            origin: HostId(0),
            local: 1,
            body: RecordBody::App(Bytes::from_static(b"x")),
        };
        assert_eq!(r.clone().explode(), vec![r]);
    }

    #[test]
    fn batch_wire_size_counts_every_entry() {
        let b = Record {
            seq: 1,
            origin: HostId(0),
            local: 0,
            body: RecordBody::Batch(vec![
                BatchEntry {
                    origin: HostId(1),
                    local: 1,
                    payload: Bytes::from(vec![0u8; 10]),
                },
                BatchEntry {
                    origin: HostId(2),
                    local: 1,
                    payload: Bytes::from(vec![0u8; 20]),
                },
            ]),
        };
        // Header + two entries with per-entry (origin, local) framing.
        assert_eq!(b.wire_size(), 8 + 4 + 8 + 1 + (4 + 8 + 10) + (4 + 8 + 20));
    }

    #[test]
    fn wire_size_scales_with_payload() {
        let small = Record {
            seq: 1,
            origin: HostId(0),
            local: 1,
            body: RecordBody::App(Bytes::from_static(b"a")),
        };
        let big = Record {
            seq: 1,
            origin: HostId(0),
            local: 1,
            body: RecordBody::App(Bytes::from(vec![0u8; 100])),
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
