//! A host restarted the moment it is crashed must rejoin for good: the
//! Sim detector's crash notice about the old incarnation may still be in
//! flight when the new incarnation asks to join, and that late verdict
//! must not cut the new incarnation off. Kept in its own test binary so
//! CI can rerun it cheaply.

use ftlinda::{Cluster, HostId, Runtime, TsId};
use linda_tuple::{tuple, Tuple};
use std::sync::mpsc;
use std::time::Duration;

/// One tuple per signature, so that with two shards both streams carry
/// records ordered after the restart.
fn tuples(tag: &str) -> Vec<Tuple> {
    vec![
        tuple!(tag, 1),
        tuple!(tag, "s"),
        tuple!(tag, 1, 2),
        tuple!(tag, "s", 2),
        tuple!(tag, 1, "s"),
    ]
}

/// `rt.out` every tuple of `tag` on another thread; `true` if all of them
/// returned `Ok` within `within`.
fn outs_complete(rt: &Runtime, ts: TsId, tag: &str, within: Duration) -> bool {
    let (tx, rx) = mpsc::channel();
    let rt = rt.clone();
    let tag = tag.to_string();
    std::thread::spawn(move || {
        let ok = tuples(&tag).into_iter().all(|t| rt.out(ts, t).is_ok());
        let _ = tx.send(ok);
    });
    rx.recv_timeout(within).unwrap_or(false)
}

fn restarted_at_once_host_stays_in_the_group(shards: u32) {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(shards).build();
    let ts = rts[1].create_stable_ts("main").unwrap();
    assert!(outs_complete(&rts[1], ts, "before", Duration::from_secs(5)));
    cluster.crash(HostId(2));
    let rt2 = cluster.restart(HostId(2));
    std::thread::sleep(Duration::from_millis(50));
    let before = rts[1].applied_seqs();
    assert!(outs_complete(&rts[1], ts, "after", Duration::from_secs(5)));
    let after = rts[1].applied_seqs();
    assert!(
        before.iter().zip(&after).all(|(b, a)| a > b),
        "every shard orders records after the restart: {before:?} -> {after:?}"
    );
    for (shard, seq) in after.into_iter().enumerate() {
        assert!(
            rt2.wait_applied_shard(shard, seq, Duration::from_secs(5)),
            "{shards} shard(s): restarted host never applied shard {shard} seq {seq}"
        );
    }
    assert!(
        outs_complete(&rt2, ts, "own", Duration::from_secs(5)),
        "{shards} shard(s): restarted host's own out did not complete"
    );
    cluster.shutdown();
}

#[test]
fn restarted_at_once_host_stays_in_the_group_one_shard() {
    restarted_at_once_host_stays_in_the_group(1);
}

#[test]
fn restarted_at_once_host_stays_in_the_group_two_shards() {
    restarted_at_once_host_stays_in_the_group(2);
}
