//! Property tests for checkpointed state transfer: restoring a
//! checkpoint image and replaying the log tail must converge to exactly
//! the state (digest) of a full-log replay — for any random workload,
//! membership-change interleaving, and split point. This is the
//! correctness core of O(state) rejoin: a joiner fed `image + tail` is
//! indistinguishable from one that replayed all of history.

use bytes::Bytes;
use consul_sim::{Delivery, HostId};
use ftlinda_ags::{Ags, MatchField as MF, Operand, TsId};
use ftlinda_kernel::{encode_request, Kernel, Request};
use linda_tuple::TypeTag;
use proptest::prelude::*;

const HEADS: [&str; 3] = ["a", "b", "c"];

/// One step of the replicated history.
#[derive(Debug, Clone)]
enum Step {
    /// `origin` deposits `(head, v)`.
    Out { origin: u32, head: usize, v: i64 },
    /// `origin` withdraws `(head, ?int)` — may park in the blocked
    /// queue, which both the digest and the image cover.
    In { origin: u32, head: usize },
    /// A failure record is ordered: every kernel deposits failure
    /// tuples at this point.
    Fail { host: u32 },
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u32..3, 0usize..3, 0i64..5)
                .prop_map(|(origin, head, v)| Step::Out { origin, head, v }),
            3 => (0u32..3, 0usize..3).prop_map(|(origin, head)| Step::In { origin, head }),
            1 => (0u32..3).prop_map(|host| Step::Fail { host }),
        ],
        1..40,
    )
}

/// Materialize the totally-ordered delivery stream for a step list:
/// a leading `CreateTs` then one delivery per step, seqs contiguous
/// from 1, per-origin local ids contiguous from 1.
fn deliveries(steps: &[Step]) -> Vec<Delivery> {
    let mut next_local = [1u64; 3];
    let mut out = vec![Delivery::App {
        seq: 1,
        origin: HostId(0),
        local: next_local[0],
        payload: Bytes::from(encode_request(&Request::CreateTs {
            name: "main".into(),
        })),
    }];
    next_local[0] += 1;
    for (i, s) in steps.iter().enumerate() {
        let seq = (i + 2) as u64;
        let d = match s {
            Step::Out { origin, head, v } => {
                let ags = Ags::out_one(TsId(0), vec![Operand::cst(HEADS[*head]), Operand::cst(*v)]);
                let local = next_local[*origin as usize];
                next_local[*origin as usize] += 1;
                Delivery::App {
                    seq,
                    origin: HostId(*origin),
                    local,
                    payload: Bytes::from(encode_request(&Request::Ags(ags))),
                }
            }
            Step::In { origin, head } => {
                let ags = Ags::in_one(
                    TsId(0),
                    vec![MF::actual(HEADS[*head]), MF::bind(TypeTag::Int)],
                )
                .unwrap();
                let local = next_local[*origin as usize];
                next_local[*origin as usize] += 1;
                Delivery::App {
                    seq,
                    origin: HostId(*origin),
                    local,
                    payload: Bytes::from(encode_request(&Request::Ags(ags))),
                }
            }
            Step::Fail { host } => Delivery::Fail {
                seq,
                host: HostId(*host),
            },
        };
        out.push(d);
    }
    out
}

fn fresh_kernel() -> Kernel {
    let (tx, rx) = crossbeam::channel::unbounded();
    // Notes are irrelevant here; keep the receiver alive via leak-free
    // drop at scope end (unbounded send never blocks).
    std::mem::forget(rx);
    Kernel::new(HostId(2), tx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn restore_plus_tail_equals_full_replay(
        steps in arb_steps(),
        split_raw in 0usize..4096,
    ) {
        let ds = deliveries(&steps);

        // Reference replica: full-history replay.
        let mut full = fresh_kernel();
        full.apply_all(&ds);

        // Checkpointing replica: replay a random prefix, snapshot.
        let split = split_raw % (ds.len() + 1);
        let mut ckpt = fresh_kernel();
        ckpt.apply_all(&ds[..split]);
        let image = ckpt.checkpoint();
        prop_assert_eq!(image.seq, ckpt.applied_seq());

        // Joining replica: restore the image, replay only the tail.
        let mut joiner = fresh_kernel();
        joiner.restore(&image).expect("own image must restore");
        prop_assert_eq!(joiner.digest(), ckpt.digest(), "restore reproduces state");
        prop_assert_eq!(joiner.applied_seq(), ckpt.applied_seq());
        joiner.apply_all(&ds[split..]);
        prop_assert_eq!(joiner.digest(), full.digest(), "tail replay must converge");
        prop_assert_eq!(joiner.applied_seq(), full.applied_seq());
    }

    #[test]
    fn census_and_gauges_match_recount_after_restore(
        steps in arb_steps(),
        split_raw in 0usize..4096,
    ) {
        // The per-signature occupancy census (and the gauge family a
        // scrape reads from it) is observability-only state, rebuilt
        // rather than checkpointed — after any random workload, and again
        // after a checkpoint/restore plus tail replay, it must equal an
        // exact recount of the store contents.
        let ds = deliveries(&steps);
        let split = split_raw % (ds.len() + 1);

        let reg = linda_obs::Registry::new();
        let mut k = fresh_kernel();
        k.attach_obs(&reg);
        k.apply_all(&ds[..split]);
        let image = k.checkpoint();
        k.restore(&image).expect("own image must restore");
        k.apply_all(&ds[split..]);

        let report = k.introspect();
        let mut scraped = linda_obs::RegistrySnapshot::default();
        k.census_into(&mut scraped);
        let occupancy = scraped
            .gauge_family("ftlinda_ts_tuples")
            .expect("occupancy family declared");
        for space in &report.spaces {
            let tuples = k.snapshot(space.id).expect("space exists");
            prop_assert_eq!(space.tuples, tuples.len());
            // Exact recount, grouped by signature.
            let mut recount: std::collections::BTreeMap<String, usize> =
                std::collections::BTreeMap::new();
            for t in &tuples {
                *recount.entry(t.signature().to_string()).or_default() += 1;
            }
            let nonzero: std::collections::BTreeMap<String, usize> = space
                .signatures
                .iter()
                .filter(|occ| occ.count > 0)
                .map(|occ| (occ.signature.to_string(), occ.count))
                .collect();
            prop_assert_eq!(&nonzero, &recount, "census for space {}", space.name);
            for occ in &space.signatures {
                prop_assert!(occ.high_water >= occ.count);
                // The exported gauge child mirrors the census entry.
                let labels = linda_obs::render_labels(&[
                    ("space", space.name.as_str()),
                    ("signature", &occ.signature.to_string()),
                ]);
                prop_assert_eq!(
                    occupancy.get(&labels).copied(),
                    Some(occ.count as i64),
                    "gauge child {} for space {}", labels, space.name
                );
            }
        }
    }

    #[test]
    fn image_size_tracks_live_state_not_history(steps in arb_steps()) {
        // Replaying the same history twice doubles the record count but
        // (for this workload) at most doubles live tuples; the image of
        // state after N deposits-and-withdrawals must not encode the
        // history length. Sanity-check the O(state) claim at the codec
        // level: an image is no larger than a fresh replay of the same
        // final state.
        let ds = deliveries(&steps);
        let mut k = fresh_kernel();
        k.apply_all(&ds);
        let image = k.checkpoint();
        let mut k2 = fresh_kernel();
        k2.restore(&image).expect("restore");
        let again = k2.checkpoint();
        prop_assert_eq!(again.bytes.len(), image.bytes.len());
        prop_assert_eq!(again.digest, image.digest);
    }
}

#[test]
fn tampered_digest_is_refused_and_state_untouched() {
    let ds = deliveries(&[
        Step::Out {
            origin: 0,
            head: 0,
            v: 1,
        },
        Step::Out {
            origin: 1,
            head: 1,
            v: 2,
        },
    ]);
    let mut k = fresh_kernel();
    k.apply_all(&ds);
    let mut image = k.checkpoint();
    image.digest ^= 1;

    let mut victim = fresh_kernel();
    victim.apply_all(&ds[..1]);
    let (digest_before, applied_before) = (victim.digest(), victim.applied_seq());
    assert!(
        victim.restore(&image).is_err(),
        "tampered digest must refuse"
    );
    assert_eq!(
        victim.digest(),
        digest_before,
        "failed restore must not touch state"
    );
    assert_eq!(victim.applied_seq(), applied_before);
}

#[test]
fn truncated_image_is_refused_and_state_untouched() {
    let ds = deliveries(&[Step::Out {
        origin: 0,
        head: 2,
        v: 3,
    }]);
    let mut k = fresh_kernel();
    k.apply_all(&ds);
    let mut image = k.checkpoint();
    image.bytes = image.bytes.slice(..image.bytes.len() - 1);

    let mut victim = fresh_kernel();
    victim.apply_all(&ds);
    let digest_before = victim.digest();
    assert!(
        victim.restore(&image).is_err(),
        "truncated image must refuse"
    );
    assert_eq!(victim.digest(), digest_before);
}
