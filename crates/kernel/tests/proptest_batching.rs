//! Property test for the group-commit invariant: a batched and an
//! unbatched sequencer must deliver the *same* totally-ordered App
//! stream for a single-origin workload (submit FIFO is preserved
//! through coalescing), and kernels applying the two streams must
//! converge to identical digests at every prefix.

use bytes::Bytes;
use consul_sim::{BatchConfig, CheckpointConfig, Delivery, HostId, NetConfig, SeqGroup};
use ftlinda_ags::{Ags, MatchField as MF, Operand, TsId};
use ftlinda_kernel::{encode_request, Kernel, Request};
use linda_tuple::TypeTag;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const HEADS: [&str; 3] = ["a", "b", "c"];

/// One client operation against the (single) stable space.
#[derive(Debug, Clone)]
enum Op {
    /// Deposit `(head, v)`.
    Out { head: usize, v: i64 },
    /// Blocking withdraw of `(head, ?int)` — may park in the blocked
    /// queue, which the digest also covers.
    In { head: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..3, 0i64..5).prop_map(|(head, v)| Op::Out { head, v }),
            2 => (0usize..3).prop_map(|head| Op::In { head }),
        ],
        1..24,
    )
}

fn encode_ops(ops: &[Op]) -> Vec<Bytes> {
    let mut reqs = vec![Bytes::from(encode_request(&Request::CreateTs {
        name: "main".into(),
    }))];
    for op in ops {
        let ags: Ags = match op {
            Op::Out { head, v } => {
                Ags::out_one(TsId(0), vec![Operand::cst(HEADS[*head]), Operand::cst(*v)])
            }
            Op::In { head } => Ags::in_one(
                TsId(0),
                vec![MF::actual(HEADS[*head]), MF::bind(TypeTag::Int)],
            )
            .unwrap(),
        };
        reqs.push(Bytes::from(encode_request(&Request::Ags(ags))));
    }
    reqs
}

/// Order `reqs` from a single member through a sequencer group running
/// `batch`, returning the App deliveries a third (passive) member sees.
fn ordered_stream(reqs: &[Bytes], batch: BatchConfig) -> Vec<Delivery> {
    let cfg = NetConfig {
        latency: Duration::from_micros(200),
        ..NetConfig::default()
    };
    let (g, ms) = SeqGroup::new_with(3, cfg, batch, CheckpointConfig::disabled());
    for r in reqs {
        ms[1].broadcast(r.clone());
    }
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while out.len() < reqs.len() && Instant::now() < deadline {
        if let Ok(d) = ms[2].deliveries().recv_timeout(Duration::from_millis(20)) {
            if matches!(d, Delivery::App { .. }) {
                out.push(d);
            }
        }
    }
    g.shutdown();
    out
}

fn payloads(ds: &[Delivery]) -> Vec<Bytes> {
    ds.iter()
        .map(|d| match d {
            Delivery::App { payload, .. } => payload.clone(),
            other => panic!("expected App delivery, got {other:?}"),
        })
        .collect()
}

proptest! {
    // Each case spins up two full sequencer groups; keep the case count
    // modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_and_unbatched_streams_converge(ops in arb_ops()) {
        let reqs = encode_ops(&ops);
        let batched = ordered_stream(&reqs, BatchConfig::default());
        let solo = ordered_stream(&reqs, BatchConfig::disabled());
        prop_assert_eq!(batched.len(), reqs.len(), "batched run delivered all");
        prop_assert_eq!(solo.len(), reqs.len(), "unbatched run delivered all");
        // Single-origin FIFO: coalescing must not reorder the stream.
        prop_assert_eq!(payloads(&batched), payloads(&solo));

        // Replicas fed the two streams agree at every prefix — batching
        // is invisible to the state machine.
        let (tx_a, _rx_a) = crossbeam::channel::unbounded();
        let (tx_b, _rx_b) = crossbeam::channel::unbounded();
        let mut ka = Kernel::new(HostId(2), tx_a);
        let mut kb = Kernel::new(HostId(2), tx_b);
        for (da, db) in batched.iter().zip(solo.iter()) {
            ka.apply(da);
            kb.apply(db);
            prop_assert_eq!(ka.digest(), kb.digest(), "prefix digests diverged");
        }
        prop_assert_eq!(ka.applied_seq(), kb.applied_seq());
    }
}
