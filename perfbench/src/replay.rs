//! Single-threaded replays of a workload's generated inputs through each
//! layer's public API, every call inside a benchmark span. A replay
//! isolates one layer's cost on exactly the inputs the workload sent
//! through the whole system.

use crate::gen::StoreStep;
use crate::stats::{mean, median};
use crate::trace::Span;
use bytes::Bytes;
use consul_sim::{
    decode_seq_msg, encode_seq_msg, BatchConfig, CheckpointConfig, Delivery, HostId, NetConfig,
    Record, RecordBody, SeqGroup, SeqMember, SeqMsg, TcpConfig, TcpMesh,
};
use ftlinda::{Ags, TsId};
use ftlinda_kernel::{decode_request, encode_request, Kernel, Request};
use linda_space::{AdaptiveStore, IndexedStore, Store};
use linda_tuple::{Tuple, Value};
use std::time::{Duration, Instant};

/// Name of the space every workload and replay uses.
pub const SPACE: &str = "bench";

/// A workload's inputs, in the form each layer consumes them.
pub struct ReplayInput {
    /// Tuples resident before the first op.
    pub population: Vec<Tuple>,
    /// The AGSs of each op, in issue order (against [`SPACE_ID`]).
    pub ops: Vec<Vec<Ags>>,
    /// The tuple-store steps of each op.
    pub store: Vec<Vec<StoreStep>>,
    /// Sequencer member the client submits through.
    pub client_host: u32,
}

/// The id a fresh kernel gives the workload's space (its first).
pub const SPACE_ID: TsId = TsId(0);

/// Replay results as `(metric, value)` plus the spans recorded.
pub struct Replayed {
    /// Per-layer metrics.
    pub metrics: Vec<(&'static str, f64)>,
    /// One span per replayed call.
    pub spans: Vec<Span>,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f`, record it as a `name` span, and return its result.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.t0.elapsed().as_nanos() as u64;
        let r = std::hint::black_box(f());
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id: self.spans.len() as u64 + 1,
            parent: 0,
            start,
            end,
        });
        r
    }

    /// Durations of every `name` span, scaled from ns.
    fn durations(&self, name: &str, scale: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * scale)
            .collect()
    }

    fn median(&self, name: &str, scale: f64) -> f64 {
        median(&self.durations(name, scale)).unwrap_or(0.0)
    }
}

/// Run every replay on `input`.
pub fn run(input: &ReplayInput) -> Replayed {
    let mut r = Recorder {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let requests: Vec<Request> = input
        .ops
        .iter()
        .flatten()
        .map(|a| Request::Ags(a.clone()))
        .collect();

    // Request codec (kernel/proto).
    let encoded: Vec<Vec<u8>> = requests
        .iter()
        .map(|q| r.span("proto.encode", || encode_request(q)))
        .collect();
    for b in &encoded {
        let q = r.span("proto.decode", || decode_request(b));
        assert!(q.is_ok(), "request codec round trip");
    }
    m.push(("kernel.proto.encode_ns", r.median("proto.encode", 1.0)));
    m.push(("kernel.proto.decode_ns", r.median("proto.decode", 1.0)));
    let sizes: Vec<f64> = encoded.iter().map(|b| b.len() as f64).collect();
    m.push(("kernel.proto.bytes", mean(&sizes)));
    let payloads: Vec<Bytes> = encoded.into_iter().map(Bytes::from).collect();

    // Sequencer wire codec (consul/wire): the submit and the ordered
    // record every AGS travels as.
    let msgs: Vec<SeqMsg> = payloads
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let local = i as u64 + 1;
            [
                SeqMsg::Submit {
                    local,
                    payload: p.clone(),
                },
                SeqMsg::Ordered(Record {
                    seq: local,
                    origin: HostId(input.client_host),
                    local,
                    body: RecordBody::App(p.clone()),
                }),
            ]
        })
        .collect();
    for msg in &msgs {
        let b = r.span("wire.encode", || encode_seq_msg(msg));
        let d = r.span("wire.decode", || decode_seq_msg(&b));
        assert!(d.is_ok(), "wire codec round trip");
    }
    m.push(("consul.wire.encode_ns", r.median("wire.encode", 1.0)));
    m.push(("consul.wire.decode_ns", r.median("wire.decode", 1.0)));

    // Tuple stores (space): the same steps on both representations.
    m.push((
        "space.indexed.op_ns",
        stores(&mut r, "space.indexed", IndexedStore::new(), input),
    ));
    m.push((
        "space.adaptive.op_ns",
        stores(&mut r, "space.adaptive", AdaptiveStore::new(), input),
    ));

    // Kernel apply with observability detached and with deep obs.
    let plain = kernel_apply(&mut r, "kernel.apply", false, input, &payloads);
    let with_obs = kernel_apply(&mut r, "kernel.apply_obs", true, input, &payloads);
    m.push(("kernel.apply_ns", plain));
    m.push(("kernel.apply_obs_ns", with_obs));
    m.push(("obs.apply_overhead_ns", with_obs - plain));

    // Checkpoint, restore and digest at the workload's state.
    let (k, _rx) = seeded_kernel(false, &input.population);
    let mut image = None;
    for _ in 0..5 {
        image = Some(r.span("kernel.checkpoint", || k.checkpoint()));
        r.span("kernel.digest", || k.digest());
    }
    let image = image.expect("checkpoint taken");
    for _ in 0..5 {
        let (mut fresh, _rx) = blank_kernel(false);
        let ok = r.span("kernel.restore", || fresh.restore(&image));
        assert!(ok.is_ok(), "checkpoint restores");
        assert_eq!(fresh.digest(), k.digest(), "restore reproduces the state");
    }
    m.push(("kernel.checkpoint_ms", r.median("kernel.checkpoint", 1e-6)));
    m.push(("kernel.checkpoint_bytes", image.bytes.len() as f64));
    m.push(("kernel.restore_ms", r.median("kernel.restore", 1e-6)));
    m.push(("kernel.digest_ms", r.median("kernel.digest", 1e-6)));

    // Ordering: a 3-member group over SimNet, then over loopback TCP.
    let n = payloads.len().min(ORDER_CALLS);
    let (group, members) = SeqGroup::new_with(
        3,
        NetConfig::instant(),
        BatchConfig::default(),
        CheckpointConfig::disabled(),
    );
    let refs: Vec<&SeqMember> = members.iter().collect();
    order(
        &mut r,
        "consul.sequencer.order",
        &refs,
        input,
        &payloads[..n],
    );
    for mb in &members {
        mb.stop();
    }
    group.shutdown();
    m.push((
        "consul.sequencer.order_us",
        r.median("consul.sequencer.order", 1e-3),
    ));
    m.push((
        "consul.tcp.order_us",
        tcp_order(&mut r, input, &payloads[..n]),
    ));

    Replayed {
        metrics: m,
        spans: r.spans,
    }
}

/// Ordered broadcasts per ordering replay.
const ORDER_CALLS: usize = 2000;

fn stores<S: Store + Tick>(
    r: &mut Recorder,
    name: &'static str,
    mut s: S,
    input: &ReplayInput,
) -> f64 {
    for t in &input.population {
        s.insert(t.clone());
    }
    for steps in &input.store {
        r.span(name, || {
            for step in steps {
                match step {
                    StoreStep::Read(p) => {
                        assert!(s.read(p).is_some(), "replayed read matches");
                        s.tick();
                    }
                    StoreStep::Take(p) => {
                        assert!(s.take(p).is_some(), "replayed take matches");
                        s.tick();
                    }
                    StoreStep::Update(p) => {
                        let t = s.take(p).expect("replayed update matches");
                        s.tick();
                        s.insert(bump(t));
                    }
                    StoreStep::Insert(t) => s.insert(t.clone()),
                }
            }
        });
    }
    r.median(name, 1.0)
}

/// `AdaptiveStore` re-evaluates promotion after each match, as
/// `LocalSpace` drives it; the indexed store has nothing to re-evaluate.
trait Tick {
    fn tick(&mut self);
}

impl Tick for IndexedStore {
    fn tick(&mut self) {}
}

impl Tick for AdaptiveStore {
    fn tick(&mut self) {
        AdaptiveStore::tick(self);
    }
}

/// The tuple with its last (integer) field incremented.
fn bump(t: Tuple) -> Tuple {
    let mut f = t.into_fields();
    if let Some(Value::Int(v)) = f.last_mut() {
        *v += 1;
    }
    Tuple::new(f)
}

fn app(seq: u64, payload: Bytes) -> Delivery {
    Delivery::App {
        seq,
        origin: HostId(1),
        local: seq,
        payload,
    }
}

fn blank_kernel(
    obs: bool,
) -> (
    Kernel,
    crossbeam::channel::Receiver<ftlinda_kernel::KernelNote>,
) {
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut k = Kernel::new(HostId(0), tx);
    if obs {
        k.attach_obs_with(&linda_obs::Registry::new(), true);
    }
    (k, rx)
}

/// A kernel holding the workload's space and population.
fn seeded_kernel(
    obs: bool,
    population: &[Tuple],
) -> (
    Kernel,
    crossbeam::channel::Receiver<ftlinda_kernel::KernelNote>,
) {
    let (mut k, rx) = blank_kernel(obs);
    let create = Request::CreateTs { name: SPACE.into() };
    k.apply(&app(1, Bytes::from(encode_request(&create))));
    assert_eq!(k.lookup(SPACE), Some(SPACE_ID), "first space id");
    for (i, chunk) in population.chunks(100).enumerate() {
        let seed = Request::Ags(crate::gen::bulk_out(SPACE_ID, chunk));
        k.apply(&app(i as u64 + 2, Bytes::from(encode_request(&seed))));
    }
    rx.try_iter().for_each(drop);
    (k, rx)
}

fn kernel_apply(
    r: &mut Recorder,
    name: &'static str,
    obs: bool,
    input: &ReplayInput,
    payloads: &[Bytes],
) -> f64 {
    let (mut k, rx) = seeded_kernel(obs, &input.population);
    let mut seq = k.applied_seq();
    for p in payloads {
        seq += 1;
        let d = app(seq, p.clone());
        r.span(name, || k.apply(&d));
        rx.try_iter().for_each(drop);
    }
    assert_eq!(k.blocked_len(), 0, "replayed ops never stay blocked");
    r.median(name, 1.0)
}

/// Broadcast `payloads` one at a time from the client's member, as the
/// workloads' one sequential client does; each span runs from broadcast
/// to self-delivery.
fn order(
    r: &mut Recorder,
    name: &'static str,
    members: &[&SeqMember],
    input: &ReplayInput,
    payloads: &[Bytes],
) {
    let client = members[input.client_host as usize];
    let me = client.host();
    for p in payloads {
        r.span(name, || {
            let local = client.broadcast(p.clone());
            loop {
                let d = client
                    .deliveries()
                    .recv_timeout(Duration::from_secs(10))
                    .expect("ordered self-delivery within 10 s");
                if matches!(d, Delivery::App { origin, local: l, .. } if origin == me && l == local)
                {
                    break;
                }
            }
        });
        for other in members {
            if other.host() != me {
                other.deliveries().try_iter().for_each(drop);
            }
        }
    }
}

/// The ordering replay over three `TcpMesh` members on loopback in this
/// process. Returns the median order latency in µs.
fn tcp_order(r: &mut Recorder, input: &ReplayInput, payloads: &[Bytes]) -> f64 {
    let addrs = crate::tcp::free_addrs(3);
    let mut meshes = Vec::new();
    let mut held = Vec::new();
    let mut members = Vec::new();
    for i in 0..3u32 {
        let obs = linda_obs::Registry::new();
        let (mesh, mut rxs) =
            TcpMesh::start(TcpConfig::new(HostId(i), &addrs, 1), &obs).expect("loopback mesh");
        let (group, member) = SeqGroup::tcp_member(
            mesh.lane(0),
            mesh.universe(),
            mesh.me(),
            rxs.remove(0),
            BatchConfig::default(),
            CheckpointConfig::disabled(),
            0,
            true,
        );
        meshes.push(mesh);
        held.push((group, obs));
        members.push(member);
    }
    let formed = Instant::now();
    while meshes.iter().any(|m| m.live_hosts().len() < 3) {
        assert!(
            formed.elapsed() < Duration::from_secs(20),
            "loopback mesh formed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let refs: Vec<&SeqMember> = members.iter().collect();
    order(r, "consul.tcp.order", &refs, input, payloads);
    for mb in &members {
        mb.stop();
    }
    for mesh in &meshes {
        mesh.shutdown();
    }
    drop(held);
    r.median("consul.tcp.order", 1e-3)
}
