//! Binary wire codec for the sequencer protocol.
//!
//! `SimNet` moves [`SeqMsg`] values between threads by clone; the TCP
//! transport has to move them between *processes*, which makes this
//! module the trust boundary: everything arriving here is untrusted
//! bytes from a socket. The codec therefore
//!
//! - returns structured [`DecodeError`]s (never panics) on truncated,
//!   oversized, or otherwise malformed input,
//! - validates every declared count against the bytes actually
//!   remaining before reserving memory for it, and
//! - requires full consumption, so trailing garbage is rejected.
//!
//! Integers ride the same LEB128 varints as the tuple codec
//! (`linda-tuple` re-exports them), so one varint implementation serves
//! both layers.

use crate::net::HostId;
use crate::order::{BatchEntry, CheckpointImage, Record, RecordBody};
use crate::sequencer::SeqMsg;
use bytes::{Buf, BufMut, Bytes};
use linda_tuple::{get_uvarint, put_uvarint, DecodeError};

/// Hard cap on a single decoded frame, enforced by the transport before
/// any allocation. Snapshot frames carry a checkpoint image plus a log
/// tail, so this is generous; everything else is far smaller.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const TAG_SUBMIT: u8 = 0;
const TAG_ORDERED: u8 = 1;
const TAG_SYNC_QUERY: u8 = 2;
const TAG_SYNC_REPLY: u8 = 3;
const TAG_NACK: u8 = 4;
const TAG_RETRANSMIT: u8 = 5;
const TAG_JOIN_REQ: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_SNAPSHOT: u8 = 8;
const TAG_EVICTED: u8 = 9;

const BODY_APP: u8 = 0;
const BODY_BATCH: u8 = 1;
const BODY_FAIL: u8 = 2;
const BODY_JOIN: u8 = 3;
const BODY_CHECKPOINT: u8 = 4;

fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut impl Buf) -> Result<Bytes, DecodeError> {
    let n = get_count(buf, 1)?;
    let mut v = vec![0u8; n];
    buf.copy_to_slice(&mut v);
    Ok(Bytes::from(v))
}

/// Read a count whose elements each occupy at least `min_elem` bytes,
/// rejecting counts the remaining buffer cannot possibly satisfy. This
/// is what keeps a hostile 4-byte frame from claiming 2^40 records and
/// driving a huge `Vec` reservation.
fn get_count(buf: &mut impl Buf, min_elem: usize) -> Result<usize, DecodeError> {
    let n = get_uvarint(buf)? as usize;
    if n.saturating_mul(min_elem.max(1)) > buf.remaining() {
        return Err(DecodeError::LengthOverrun {
            declared: n,
            remaining: buf.remaining(),
        });
    }
    Ok(n)
}

fn put_host(buf: &mut impl BufMut, h: HostId) {
    put_uvarint(buf, u64::from(h.0));
}

fn get_host(buf: &mut impl Buf) -> Result<HostId, DecodeError> {
    let v = get_uvarint(buf)?;
    u32::try_from(v)
        .map(HostId)
        .map_err(|_| DecodeError::VarintOverflow)
}

fn put_record(buf: &mut impl BufMut, r: &Record) {
    put_uvarint(buf, r.seq);
    put_host(buf, r.origin);
    put_uvarint(buf, r.local);
    match &r.body {
        RecordBody::App(p) => {
            buf.put_u8(BODY_APP);
            put_bytes(buf, p);
        }
        RecordBody::Batch(entries) => {
            buf.put_u8(BODY_BATCH);
            put_uvarint(buf, entries.len() as u64);
            for e in entries {
                put_host(buf, e.origin);
                put_uvarint(buf, e.local);
                put_bytes(buf, &e.payload);
            }
        }
        RecordBody::Fail(h) => {
            buf.put_u8(BODY_FAIL);
            put_host(buf, *h);
        }
        RecordBody::Join(h) => {
            buf.put_u8(BODY_JOIN);
            put_host(buf, *h);
        }
        RecordBody::Checkpoint => buf.put_u8(BODY_CHECKPOINT),
    }
}

fn get_record(buf: &mut impl Buf) -> Result<Record, DecodeError> {
    let seq = get_uvarint(buf)?;
    let origin = get_host(buf)?;
    let local = get_uvarint(buf)?;
    if !buf.has_remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    let body = match buf.get_u8() {
        BODY_APP => RecordBody::App(get_bytes(buf)?),
        BODY_BATCH => {
            // Each entry is ≥3 bytes (origin + local + payload length).
            let n = get_count(buf, 3)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let origin = get_host(buf)?;
                let local = get_uvarint(buf)?;
                let payload = get_bytes(buf)?;
                entries.push(BatchEntry {
                    origin,
                    local,
                    payload,
                });
            }
            RecordBody::Batch(entries)
        }
        BODY_FAIL => RecordBody::Fail(get_host(buf)?),
        BODY_JOIN => RecordBody::Join(get_host(buf)?),
        BODY_CHECKPOINT => RecordBody::Checkpoint,
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok(Record {
        seq,
        origin,
        local,
        body,
    })
}

fn put_records(buf: &mut impl BufMut, rs: &[Record]) {
    put_uvarint(buf, rs.len() as u64);
    for r in rs {
        put_record(buf, r);
    }
}

fn get_records(buf: &mut impl Buf) -> Result<Vec<Record>, DecodeError> {
    // A minimal record (seq + origin + local + checkpoint body) is 4 bytes.
    let n = get_count(buf, 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_record(buf)?);
    }
    Ok(out)
}

fn put_checkpoint(buf: &mut impl BufMut, cp: &Option<CheckpointImage>) {
    match cp {
        None => buf.put_u8(0),
        Some(cp) => {
            buf.put_u8(1);
            put_uvarint(buf, cp.seq);
            buf.put_u64_le(cp.digest);
            put_bytes(buf, &cp.bytes);
        }
    }
}

fn get_checkpoint(buf: &mut impl Buf) -> Result<Option<CheckpointImage>, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            let seq = get_uvarint(buf)?;
            if buf.remaining() < 8 {
                return Err(DecodeError::UnexpectedEof);
            }
            let digest = buf.get_u64_le();
            let bytes = get_bytes(buf)?;
            Ok(Some(CheckpointImage { seq, digest, bytes }))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

fn put_retired(buf: &mut impl BufMut, retired: &[(HostId, u64)]) {
    put_uvarint(buf, retired.len() as u64);
    for (h, l) in retired {
        put_host(buf, *h);
        put_uvarint(buf, *l);
    }
}

fn get_retired(buf: &mut impl Buf) -> Result<Vec<(HostId, u64)>, DecodeError> {
    let n = get_count(buf, 2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let h = get_host(buf)?;
        let l = get_uvarint(buf)?;
        out.push((h, l));
    }
    Ok(out)
}

fn put_hosts(buf: &mut impl BufMut, hs: &[HostId]) {
    put_uvarint(buf, hs.len() as u64);
    for h in hs {
        put_host(buf, *h);
    }
}

fn get_hosts(buf: &mut impl Buf) -> Result<Vec<HostId>, DecodeError> {
    let n = get_count(buf, 1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_host(buf)?);
    }
    Ok(out)
}

/// Encode a [`SeqMsg`] into a fresh buffer.
pub fn encode_seq_msg(msg: &SeqMsg) -> Vec<u8> {
    use crate::net::WireSized;
    let mut buf = Vec::with_capacity(msg.wire_size() + 16);
    match msg {
        SeqMsg::Submit { local, payload } => {
            buf.put_u8(TAG_SUBMIT);
            put_uvarint(&mut buf, *local);
            put_bytes(&mut buf, payload);
        }
        SeqMsg::Ordered(r) => {
            buf.put_u8(TAG_ORDERED);
            put_record(&mut buf, r);
        }
        SeqMsg::SyncQuery { have } => {
            buf.put_u8(TAG_SYNC_QUERY);
            put_uvarint(&mut buf, *have);
        }
        SeqMsg::SyncReply {
            checkpoint,
            retired,
            failed,
            records,
        } => {
            buf.put_u8(TAG_SYNC_REPLY);
            put_checkpoint(&mut buf, checkpoint);
            put_retired(&mut buf, retired);
            put_hosts(&mut buf, failed);
            put_records(&mut buf, records);
        }
        SeqMsg::Nack { from } => {
            buf.put_u8(TAG_NACK);
            put_uvarint(&mut buf, *from);
        }
        SeqMsg::Retransmit { records } => {
            buf.put_u8(TAG_RETRANSMIT);
            put_records(&mut buf, records);
        }
        SeqMsg::JoinReq { incarnation } => {
            buf.put_u8(TAG_JOIN_REQ);
            put_uvarint(&mut buf, *incarnation);
        }
        SeqMsg::Ping {
            sent_us,
            echo_us,
            held_us,
            seq,
        } => {
            buf.put_u8(TAG_PING);
            put_uvarint(&mut buf, *sent_us);
            put_uvarint(&mut buf, *echo_us);
            put_uvarint(&mut buf, *held_us);
            put_uvarint(&mut buf, *seq);
        }
        SeqMsg::Snapshot {
            checkpoint,
            retired,
            failed,
            tail,
            live,
        } => {
            buf.put_u8(TAG_SNAPSHOT);
            put_checkpoint(&mut buf, checkpoint);
            put_retired(&mut buf, retired);
            put_hosts(&mut buf, failed);
            put_records(&mut buf, tail);
            put_hosts(&mut buf, live);
        }
        SeqMsg::Evicted => buf.put_u8(TAG_EVICTED),
    }
    buf
}

/// Decode a [`SeqMsg`] from untrusted bytes, requiring full consumption.
pub fn decode_seq_msg(mut bytes: &[u8]) -> Result<SeqMsg, DecodeError> {
    let buf = &mut bytes;
    if !buf.has_remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    let msg = match buf.get_u8() {
        TAG_SUBMIT => {
            let local = get_uvarint(buf)?;
            let payload = get_bytes(buf)?;
            SeqMsg::Submit { local, payload }
        }
        TAG_ORDERED => SeqMsg::Ordered(get_record(buf)?),
        TAG_SYNC_QUERY => SeqMsg::SyncQuery {
            have: get_uvarint(buf)?,
        },
        TAG_SYNC_REPLY => SeqMsg::SyncReply {
            checkpoint: get_checkpoint(buf)?,
            retired: get_retired(buf)?,
            failed: get_hosts(buf)?,
            records: get_records(buf)?,
        },
        TAG_NACK => SeqMsg::Nack {
            from: get_uvarint(buf)?,
        },
        TAG_RETRANSMIT => SeqMsg::Retransmit {
            records: get_records(buf)?,
        },
        TAG_JOIN_REQ => SeqMsg::JoinReq {
            incarnation: get_uvarint(buf)?,
        },
        TAG_PING => SeqMsg::Ping {
            sent_us: get_uvarint(buf)?,
            echo_us: get_uvarint(buf)?,
            held_us: get_uvarint(buf)?,
            seq: get_uvarint(buf)?,
        },
        TAG_SNAPSHOT => SeqMsg::Snapshot {
            checkpoint: get_checkpoint(buf)?,
            retired: get_retired(buf)?,
            failed: get_hosts(buf)?,
            tail: get_records(buf)?,
            live: get_hosts(buf)?,
        },
        TAG_EVICTED => SeqMsg::Evicted,
        other => return Err(DecodeError::BadTag(other)),
    };
    if buf.has_remaining() {
        return Err(DecodeError::LengthOverrun {
            declared: 0,
            remaining: buf.remaining(),
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record {
                seq: 1,
                origin: HostId(0),
                local: 7,
                body: RecordBody::App(Bytes::from_static(b"payload")),
            },
            Record {
                seq: 2,
                origin: HostId(1),
                local: 0,
                body: RecordBody::Fail(HostId(2)),
            },
            Record {
                seq: 3,
                origin: HostId(1),
                local: 0,
                body: RecordBody::Join(HostId(2)),
            },
            Record {
                seq: 4,
                origin: HostId(1),
                local: 0,
                body: RecordBody::Checkpoint,
            },
            Record {
                seq: 5,
                origin: HostId(0),
                local: 9,
                body: RecordBody::Batch(vec![
                    BatchEntry {
                        origin: HostId(0),
                        local: 9,
                        payload: Bytes::from_static(b"a"),
                    },
                    BatchEntry {
                        origin: HostId(2),
                        local: 3,
                        payload: Bytes::new(),
                    },
                ]),
            },
        ]
    }

    fn all_msgs() -> Vec<SeqMsg> {
        vec![
            SeqMsg::Submit {
                local: 42,
                payload: Bytes::from_static(b"hello"),
            },
            SeqMsg::Ordered(sample_records().remove(0)),
            SeqMsg::Ordered(sample_records().remove(4)),
            SeqMsg::SyncQuery { have: u64::MAX },
            SeqMsg::SyncReply {
                checkpoint: Some(CheckpointImage {
                    seq: 512,
                    digest: 0xdead_beef,
                    bytes: Bytes::from_static(b"image"),
                }),
                retired: vec![(HostId(0), 12), (HostId(3), 1)],
                failed: vec![HostId(3)],
                records: sample_records(),
            },
            SeqMsg::SyncReply {
                checkpoint: None,
                retired: vec![],
                failed: vec![],
                records: vec![],
            },
            SeqMsg::Nack { from: 1000 },
            SeqMsg::Retransmit {
                records: sample_records(),
            },
            SeqMsg::JoinReq {
                incarnation: 0xdead_beef_cafe,
            },
            SeqMsg::Ping {
                sent_us: 1_700_000_000_000_000,
                echo_us: 1_699_999_999_999_000,
                held_us: 950,
                seq: 4096,
            },
            SeqMsg::Ping {
                sent_us: 7,
                echo_us: 0,
                held_us: 0,
                seq: 0,
            },
            SeqMsg::Snapshot {
                checkpoint: None,
                retired: vec![(HostId(1), 5)],
                failed: vec![HostId(0), HostId(1)],
                tail: sample_records(),
                live: vec![HostId(2), HostId(3)],
            },
            SeqMsg::Evicted,
        ]
    }

    #[test]
    fn seq_msgs_roundtrip() {
        for msg in all_msgs() {
            let enc = encode_seq_msg(&msg);
            let back = decode_seq_msg(&enc).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        for msg in all_msgs() {
            let enc = encode_seq_msg(&msg);
            for cut in 0..enc.len() {
                assert!(
                    decode_seq_msg(&enc[..cut]).is_err(),
                    "truncation at {cut} must fail, msg {msg:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_seq_msg(&SeqMsg::Evicted);
        enc.push(0);
        assert!(decode_seq_msg(&enc).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            decode_seq_msg(&[0xee]),
            Err(DecodeError::BadTag(0xee))
        ));
    }

    #[test]
    fn hostile_record_count_rejected() {
        // Retransmit claiming 2^40 records in a 6-byte frame must be
        // rejected by the count check, not drive a giant reservation.
        let mut buf = vec![TAG_RETRANSMIT];
        put_uvarint(&mut buf, 1u64 << 40);
        assert!(matches!(
            decode_seq_msg(&buf),
            Err(DecodeError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn hostile_payload_length_rejected() {
        let mut buf = vec![TAG_SUBMIT];
        put_uvarint(&mut buf, 1); // local
        put_uvarint(&mut buf, 1u64 << 50); // payload length
        buf.push(b'x');
        assert!(matches!(
            decode_seq_msg(&buf),
            Err(DecodeError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn random_bytes_never_panic() {
        // Cheap deterministic fuzz: xorshift-mutated buffers of varied
        // lengths must decode or error, never panic.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..256usize {
            let mut buf = vec![0u8; len];
            for b in buf.iter_mut() {
                *b = (next() & 0xff) as u8;
            }
            let _ = decode_seq_msg(&buf);
            // Also steer the first byte through every valid tag.
            for tag in 0..=TAG_EVICTED {
                if !buf.is_empty() {
                    buf[0] = tag;
                }
                let _ = decode_seq_msg(&buf);
            }
        }
    }
}
