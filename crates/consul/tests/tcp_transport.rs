//! The TCP transport against real sockets: frame reassembly across
//! arbitrary write boundaries, and hostile byte streams from untrusted
//! peers (truncation, garbage, oversized length claims). Every test
//! drives a live [`TcpMesh`] over loopback — nothing is mocked.

use bytes::Bytes;
use consul_sim::{
    BatchConfig, CheckpointConfig, HostId, NetEvent, SeqGroup, SeqMsg, TcpConfig, TcpMesh,
};
use linda_obs::Registry;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect()
}

/// A complete wire frame for lane 0 carrying `msg`, as a cooperating
/// peer would produce it: `[u32 BE body length][uvarint lane][SeqMsg]`.
fn frame(msg: &SeqMsg) -> Vec<u8> {
    let mut body = vec![0x00]; // uvarint lane 0
    body.extend_from_slice(&consul_sim::encode_seq_msg(msg));
    let mut f = (body.len() as u32).to_be_bytes().to_vec();
    f.extend_from_slice(&body);
    f
}

/// Handshake bytes claiming to be member `id`.
fn hello(id: u32) -> Vec<u8> {
    let mut h = b"FTL1".to_vec();
    h.extend_from_slice(&id.to_be_bytes());
    h
}

/// Start a single-lane mesh as member 0 of a 2-member universe; the
/// tests below play member 1 with a raw socket.
fn start_mesh() -> (
    TcpMesh,
    Vec<crossbeam::channel::Receiver<NetEvent<SeqMsg>>>,
    Vec<SocketAddr>,
    Registry,
) {
    let addrs = free_addrs(2);
    let obs = Registry::default();
    let (mesh, rxs) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs).unwrap();
    (mesh, rxs, addrs, obs)
}

/// The mesh must still be able to deliver (loopback bypasses the
/// socket, so this proves the reader threads didn't take the process
/// down — the decode path is `catch`-free; a panic would abort).
fn assert_mesh_alive(mesh: &TcpMesh, rx: &crossbeam::channel::Receiver<NetEvent<SeqMsg>>) {
    mesh.lane(0).send(
        HostId(0),
        SeqMsg::Ping {
            sent_us: 1,
            echo_us: 0,
            held_us: 0,
            seq: 0,
        },
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(NetEvent::Msg {
                from: HostId(0),
                msg: SeqMsg::Ping { .. },
            }) => return,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "mesh stopped delivering"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frames survive the wire no matter how the sender's writes split
    /// them: a burst of messages is written in arbitrary chunk sizes
    /// (often mid-length-prefix, mid-varint, mid-payload) and must be
    /// reassembled intact, in order, with correct attribution.
    #[test]
    fn split_writes_reassemble_into_whole_frames(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600), 1..8),
        chunks in proptest::collection::vec(1usize..97, 1..12),
    ) {
        let (mesh, rxs, addrs, _obs) = start_mesh();
        let msgs: Vec<SeqMsg> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| SeqMsg::Submit {
                local: i as u64 + 1,
                payload: Bytes::from(p.clone()),
            })
            .collect();
        let mut stream_bytes = hello(1);
        for m in &msgs {
            stream_bytes.extend_from_slice(&frame(m));
        }
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        s.set_nodelay(true).unwrap();
        let mut off = 0;
        let mut ci = 0;
        while off < stream_bytes.len() {
            let n = chunks[ci % chunks.len()].min(stream_bytes.len() - off);
            s.write_all(&stream_bytes[off..off + n]).unwrap();
            s.flush().unwrap();
            off += n;
            ci += 1;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < msgs.len() {
            match rxs[0].recv_timeout(Duration::from_millis(100)) {
                Ok(NetEvent::Msg { from, msg }) => {
                    prop_assert_eq!(from, HostId(1));
                    got.push(msg);
                }
                Ok(_) => {}
                Err(_) => prop_assert!(
                    Instant::now() < deadline,
                    "only {} of {} frames arrived", got.len(), msgs.len()
                ),
            }
        }
        prop_assert_eq!(got, msgs);
        mesh.shutdown();
    }

    /// An untrusted peer feeding arbitrary garbage after a valid
    /// handshake can cost us at most its own connection: no panic, no
    /// unbounded allocation, and the mesh keeps serving. Valid frames
    /// that happen to be embedded are allowed through; everything else
    /// increments the rejection counter and drops the link.
    #[test]
    fn garbage_streams_never_panic_the_reader(
        junk in proptest::collection::vec(any::<u8>(), 1..2048),
        truncate_valid in any::<bool>(),
    ) {
        let (mesh, rxs, addrs, _obs) = start_mesh();
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut bytes = hello(1);
        if truncate_valid {
            // A legitimate frame cut mid-body, then garbage: exercises
            // the resynchronization-is-impossible path.
            let f = frame(&SeqMsg::Submit {
                local: 9,
                payload: Bytes::from_static(b"about to be cut off"),
            });
            bytes.extend_from_slice(&f[..f.len() / 2]);
        }
        bytes.extend_from_slice(&junk);
        // The reader may drop the connection part-way through (RST on
        // unread bytes), so later writes may legitimately fail.
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        drop(s);
        assert_mesh_alive(&mesh, &rxs[0]);
        mesh.shutdown();
    }

    /// Length prefixes above the frame cap are refused *before* any
    /// buffer is sized from them — a 4 GiB claim must cost zero
    /// allocation, one counter tick, and the connection.
    #[test]
    fn oversized_length_claims_are_rejected_unallocated(
        claim in consul_sim::MAX_FRAME_BYTES as u32 + 1..=u32::MAX,
    ) {
        let (mesh, rxs, addrs, obs) = start_mesh();
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut bytes = hello(1);
        bytes.extend_from_slice(&claim.to_be_bytes());
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        while obs.snapshot().counter("ftlinda_frames_rejected_total") != Some(1) {
            prop_assert!(Instant::now() < deadline, "rejection never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_mesh_alive(&mesh, &rxs[0]);
        mesh.shutdown();
    }
}

/// Two live meshes exchanging sequencer traffic across real sockets,
/// with the byte/reconnect counters moving: the non-property smoke that
/// the full send → encode → socket → decode → deliver path works.
#[test]
fn two_meshes_converse_and_count_bytes() {
    let addrs = free_addrs(2);
    let obs0 = Registry::default();
    let obs1 = Registry::default();
    let (m0, _rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (m1, rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 1), &obs1).unwrap();
    let msg = SeqMsg::Submit {
        local: 1,
        payload: Bytes::from_static(b"counted"),
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        m0.lane(0).send(HostId(1), msg.clone());
        match rx1[0].recv_timeout(Duration::from_millis(100)) {
            Ok(NetEvent::Msg { from, msg: got }) => {
                assert_eq!(from, HostId(0));
                assert_eq!(got, msg);
                break;
            }
            _ => assert!(Instant::now() < deadline, "frame never arrived"),
        }
    }
    let family_sum = |obs: &Registry, name: &str| -> u64 {
        obs.snapshot()
            .counter_family(name)
            .map(|c| c.values().sum())
            .unwrap_or(0)
    };
    let sent = family_sum(&obs0, "ftlinda_net_sent_bytes_total");
    let recv = family_sum(&obs1, "ftlinda_net_recv_bytes_total");
    assert!(sent > 0, "sender must count link bytes");
    assert!(recv > 0, "receiver must count link bytes");
    m0.shutdown();
    m1.shutdown();
}

/// A member started outside the group that reaches no peer reports
/// `rejoin_error` after `MAX_JOIN_ATTEMPTS` unanswered JoinReq rounds,
/// keeps retrying, and is admitted — error cleared — once a coordinator
/// comes up.
#[test]
fn unreachable_tcp_member_reports_rejoin_error_and_keeps_retrying() {
    let addrs = free_addrs(3); // nobody listens on the peers' ports yet
    let obs = Registry::default();
    let (mesh, mut rxs) = TcpMesh::start(TcpConfig::new(HostId(2), &addrs, 1), &obs).unwrap();
    let (_group, member) = SeqGroup::tcp_member(
        mesh.lane(0),
        mesh.universe(),
        mesh.me(),
        rxs.remove(0),
        BatchConfig::default(),
        CheckpointConfig::default(),
        0,
        false,
    );
    let rounds = member.obs().counter("ftlinda_rejoin_attempts_total", "");
    let deadline = Instant::now() + Duration::from_secs(10);
    while member.rejoin_error().is_none() {
        assert!(Instant::now() < deadline, "rejoin never reported an error");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(rounds.get() >= u64::from(SeqGroup::MAX_JOIN_ATTEMPTS));
    let reported = rounds.get();
    let deadline = Instant::now() + Duration::from_secs(5);
    while rounds.get() < reported + 3 {
        assert!(Instant::now() < deadline, "JoinReq rounds stopped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let failed = member.obs().events().recent_of("rejoin_failed");
    assert_eq!(failed.len(), 1, "rejoin_failed is emitted once");

    // The coordinator comes up: the next round reaches it.
    let obs0 = Registry::default();
    let (mesh0, mut rxs0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (_group0, coord) = SeqGroup::tcp_member(
        mesh0.lane(0),
        mesh0.universe(),
        mesh0.me(),
        rxs0.remove(0),
        BatchConfig::default(),
        CheckpointConfig::default(),
        0,
        true,
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while member.rejoin_error().is_some() {
        assert!(
            Instant::now() < deadline,
            "late coordinator never admitted the member"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for m in [&member, &coord] {
        m.stop();
    }
    mesh.shutdown();
    mesh0.shutdown();
}

/// A founding member started after its two peers ordered the stream's
/// first records never gets those copies: the links to it were down,
/// so the sends were dropped, and no later record reveals the gap. Its
/// coordinator's pings carry how far the stream goes, and the member
/// NACKs for the rest.
#[test]
fn late_founding_member_gets_the_records_ordered_before_it_started() {
    let addrs = free_addrs(3);
    let start = |me: u32| {
        let obs = Registry::default();
        let (mesh, mut rxs) = TcpMesh::start(TcpConfig::new(HostId(me), &addrs, 1), &obs).unwrap();
        let (_group, member) = SeqGroup::tcp_member(
            mesh.lane(0),
            mesh.universe(),
            mesh.me(),
            rxs.remove(0),
            BatchConfig::default(),
            CheckpointConfig::default(),
            0,
            true,
        );
        (mesh, member)
    };
    let (mesh0, m0) = start(0);
    let (mesh1, m1) = start(1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(mesh0.live_hosts().contains(&HostId(1)) && mesh1.live_hosts().contains(&HostId(0))) {
        assert!(Instant::now() < deadline, "members 0 and 1 never linked up");
        std::thread::sleep(Duration::from_millis(5));
    }
    for i in 0..3 {
        m1.broadcast(Bytes::from(format!("early-{i}")));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while m0.delivered_count() < 3 || m1.delivered_count() < 3 {
        assert!(
            Instant::now() < deadline,
            "members 0 and 1 never ordered 3 records"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));

    let (mesh2, m2) = start(2);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    while got.len() < 3 {
        let left = deadline.saturating_duration_since(Instant::now());
        match m2.deliveries().recv_timeout(left) {
            Ok(consul_sim::Delivery::App { payload, .. }) => got.push(payload.to_vec()),
            Ok(_) => {}
            Err(_) => panic!("member 2 delivered {} of 3 records within 5 s", got.len()),
        }
    }
    assert_eq!(got, [b"early-0", b"early-1", b"early-2"]);
    for m in [&m0, &m1, &m2] {
        m.stop();
    }
    for mesh in [mesh0, mesh1, mesh2] {
        mesh.shutdown();
    }
}
