//! The in-process workloads: `counter` and `failover`, each on a default
//! 3-host Sim cluster (`Cluster::builder().hosts(3)`).

use crate::ctr::{match_totals, CtrDelta, CtrSample, Instruments, Order};
use crate::gen::{self, Fault, KvOp, KvStream, StoreStep};
use crate::harness::{
    reset_peak_rss, sleep_until, Args, Client, Effects, Outcome, ProcSampler, Round, RoundTrace,
    Stop, OP_TIMEOUT, ROUNDS,
};
use crate::procfs::vm_hwm_kb;
use crate::replay::{self, ReplayInput, SPACE};
use crate::trace::{ClientLog, Span};
use ftlinda::{Cluster, HostId, Runtime, TsId, Value, FAILURE_TUPLE_HEAD};
use std::time::{Duration, Instant};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential Fig. 3 counter increments from host 1.
    Counter,
    /// Sequential reads and updates of a 10k-row table from host 2 while
    /// coordinators crash.
    Failover,
}

impl Kind {
    /// Host the client submits through: never the first coordinator.
    fn client_host(self) -> usize {
        match self {
            Kind::Counter => 1,
            Kind::Failover => 2,
        }
    }
}

/// Ops of warm-up inside each set-up.
const WARM_OPS: u64 = 1000;

/// A built, seeded and warmed-up cluster.
struct Env {
    kind: Kind,
    cluster: Cluster,
    /// Live incarnation per host.
    current: Vec<Runtime>,
    /// Every runtime incarnation created, keyed for the counter ledger.
    incarnations: Vec<(String, usize, Runtime)>,
    ts: TsId,
    counter0: i64,
    kv0: Vec<i64>,
    stream: KvStream,
    effects: Effects,
}

impl Env {
    fn setup(kind: Kind, seed: u64) -> Result<Env, String> {
        let (cluster, rts) = Cluster::builder().hosts(3).build();
        let client = rts[kind.client_host()].clone();
        let ts = client.create_stable_ts(SPACE).map_err(|e| e.to_string())?;
        let counter0 = gen::counter_initial(seed);
        let kv0 = gen::kv_initial(seed);
        match kind {
            Kind::Counter => client
                .out(ts, linda_tuple::tuple!("count", counter0))
                .map_err(|e| e.to_string())?,
            Kind::Failover => {
                for chunk in gen::kv_tuples(&kv0).chunks(100) {
                    client
                        .execute(&gen::bulk_out(ts, chunk))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        let incarnations = rts
            .iter()
            .enumerate()
            .map(|(h, rt)| (format!("h{h}#0"), h, rt.clone()))
            .collect();
        let mut env = Env {
            kind,
            cluster,
            current: rts,
            incarnations,
            ts,
            counter0,
            kv0,
            stream: KvStream::new(seed),
            effects: Effects::default(),
        };
        let mut warm = ClientLog::new_at(Instant::now(), false);
        let warm_up = Stop::Ops(WARM_OPS);
        env.effects = match kind {
            Kind::Counter => counter_client(
                &client,
                ts,
                counter0,
                Effects::default(),
                &mut warm,
                warm_up,
            ),
            Kind::Failover => kv_client(
                &client,
                ts,
                &mut env.stream,
                Effects::default(),
                &mut warm,
                warm_up,
            ),
        };
        if warm.failed > 0 {
            return Err(format!("{} warm-up ops failed", warm.failed));
        }
        Ok(env)
    }

    fn client_rt(&self) -> Runtime {
        self.current[self.kind.client_host()].clone()
    }

    /// The program's counters now.
    fn ctr_sample(&self) -> CtrSample {
        let host = self.kind.client_host();
        CtrSample {
            sources: self
                .incarnations
                .iter()
                .map(|(key, h, rt)| {
                    (
                        key.clone(),
                        (*h == host, Instruments::of(&rt.metrics_snapshot())),
                    )
                })
                .collect(),
            order: Order::of(self.cluster.order_stats()),
            net: self.cluster.net_stats(),
            matching: match_totals(self.current[host].introspect()),
        }
    }
}

/// Run one in-process workload: [`ROUNDS`] rounds, then (traced) the
/// isolated replays of its inputs.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let rounds = (0..ROUNDS)
        .map(|r| round(kind, args, r))
        .collect::<Result<Vec<_>, _>>()?;
    let replay = args.trace.then(|| {
        replay::run(&replay_input(
            kind,
            args.seed,
            &gen::kv_initial(args.seed),
            gen::counter_initial(args.seed),
        ))
    });
    Ok(Outcome { rounds, replay })
}

/// One round: set up a fresh cluster, drive it, check it, tear it down.
fn round(kind: Kind, args: &Args, index: u64) -> Result<Round, String> {
    let me = std::process::id();
    reset_peak_rss(me);
    let t_setup = Instant::now();
    let mut env = Env::setup(kind, args.seed)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let phase = args.round_ns();
    let rt = env.client_rt();
    let (ts, counter0, effects) = (env.ts, env.counter0, env.effects.clone());
    let mut stream = env.stream.clone();
    let client = Client::spawn(args.trace, move |log| match kind {
        Kind::Counter => counter_client(&rt, ts, counter0, effects, log, Stop::At(phase)),
        Kind::Failover => kv_client(&rt, ts, &mut stream, effects, log, Stop::At(phase)),
    });
    let before = args.trace.then(|| env.ctr_sample());
    let sampler = args.trace.then(|| ProcSampler::start(vec![me]));
    let t0 = client.start();
    let faults = (kind == Kind::Failover).then(|| {
        let plan = gen::fault_schedule(args.seed, index, phase);
        run_faults(&mut env, t0, &plan, sampler.as_ref())
    });
    let (log, effects) = client.results();
    let ledger = sampler.map(ProcSampler::finish);
    let ctr = before.map(|b| CtrDelta::between(&b, &env.ctr_sample()));
    client.finish();

    let crashes = faults.as_ref().map_or(Vec::new(), |f| f.crashed.clone());
    let (check, missing) = verify(&env, &effects, &crashes);
    let check = match (&faults, check) {
        (Some(f), Ok(())) => f.error.clone().map_or(Ok(()), Err),
        (_, c) => c,
    };
    let peak_rss_kb = vm_hwm_kb(me).unwrap_or(0);
    env.cluster.shutdown();
    let trace = ledger.zip(ctr).map(|(ledger, ctr)| {
        let mut t = RoundTrace::new(&ledger, ctr);
        if let Some(f) = &faults {
            (t.samples, t.spans) = f.samples(&log);
        }
        t
    });
    Ok(Round {
        setup_s,
        log,
        peak_rss_kb,
        check,
        missing,
        trace,
    })
}

/// Sequential increments. Each bound old value must be exactly the one
/// the previous increment left.
fn counter_client(
    rt: &Runtime,
    ts: TsId,
    counter0: i64,
    mut fx: Effects,
    log: &mut ClientLog,
    stop: Stop,
) -> Effects {
    let ags = gen::incr(ts);
    while !stop.reached(log) {
        log.attempted += 1;
        let start = log.now();
        match rt.execute_timeout(&ags, OP_TIMEOUT) {
            Ok(o) => {
                let end = log.now();
                log.ags("ags", start, start, end);
                log.complete(start, end);
                let want = counter0 + (fx.done + fx.unsure) as i64;
                if o.bindings.first() != Some(&Value::Int(want)) && fx.unsure == 0 {
                    fx.wrong.get_or_insert(format!(
                        "increment read {:?}, expected {want}",
                        o.bindings.first()
                    ));
                }
                fx.done += 1;
            }
            Err(_) => {
                log.fail();
                fx.unsure += 1;
            }
        }
    }
    fx
}

/// Sequential reads and updates of the table. Each must bind the row's
/// integer value.
fn kv_client(
    rt: &Runtime,
    ts: TsId,
    stream: &mut KvStream,
    mut fx: Effects,
    log: &mut ClientLog,
    stop: Stop,
) -> Effects {
    while !stop.reached(log) {
        let op = stream.next().expect("endless stream");
        log.attempted += 1;
        let start = log.now();
        match rt.execute_timeout(&gen::kv_ags(ts, op), OP_TIMEOUT) {
            Ok(o) => {
                let end = log.now();
                log.ags("ags", start, start, end);
                log.complete(start, end);
                if !matches!(o.bindings.first(), Some(Value::Int(_))) {
                    fx.wrong
                        .get_or_insert(format!("{op:?} bound {:?}", o.bindings));
                }
                if matches!(op, KvOp::Update(_)) {
                    fx.done += 1;
                }
            }
            Err(_) => {
                log.fail();
                if matches!(op, KvOp::Update(_)) {
                    fx.unsure += 1;
                }
            }
        }
    }
    fx
}

/// What the fault schedule did.
struct FaultLog {
    /// Per crash: host and crash time.
    crashed: Vec<(u32, u64)>,
    /// Per restart: restart time, caught-up time, checkpoint image bytes
    /// a joiner is served.
    rejoins: Vec<(u64, u64, f64)>,
    /// First fault-handling failure.
    error: Option<String>,
}

impl FaultLog {
    /// Outage, rejoin and image-size samples plus one span per fault
    /// event.
    fn samples(&self, log: &ClientLog) -> (Vec<(&'static str, Vec<f64>)>, Vec<Span>) {
        let mut spans = Vec::new();
        let mut outages = Vec::new();
        for (i, &(_, c)) in self.crashed.iter().enumerate() {
            let id = i as u64 + 1;
            spans.push(Span {
                name: "crash",
                id,
                parent: 0,
                start: c,
                end: c,
            });
            let first = log.ops.partition_point(|o| o.start < c);
            if let Some(op) = log.ops.get(first) {
                outages.push((op.end - c) as f64 / 1e6);
                spans.push(Span {
                    name: "first_served",
                    id,
                    parent: id,
                    start: c,
                    end: op.end,
                });
            }
        }
        let mut rejoins = Vec::new();
        let mut bytes = Vec::new();
        for (i, &(r, caught, b)) in self.rejoins.iter().enumerate() {
            let id = i as u64 + 1;
            spans.push(Span {
                name: "restart",
                id,
                parent: id,
                start: r,
                end: r,
            });
            spans.push(Span {
                name: "caught_up",
                id,
                parent: id,
                start: r,
                end: caught,
            });
            rejoins.push((caught - r) as f64 / 1e6);
            bytes.push(b);
        }
        (
            vec![
                ("failover.outage_ms", outages),
                ("failover.rejoin_ms", rejoins),
                ("consul.rejoin_bytes", bytes),
            ],
            spans,
        )
    }
}

/// Drive the crash/restart schedule from the main thread. Each restart
/// is followed until the restarted replica has applied everything the
/// client's replica has; the next crash waits for that.
fn run_faults(
    env: &mut Env,
    t0: Instant,
    plan: &[Fault],
    sampler: Option<&ProcSampler>,
) -> FaultLog {
    let client = env.client_rt();
    let now = || t0.elapsed().as_nanos() as u64;
    let mut fl = FaultLog {
        crashed: Vec::new(),
        rejoins: Vec::new(),
        error: None,
    };
    for (i, f) in plan.iter().enumerate() {
        sleep_until(t0, f.crash_at);
        let h = f.host as usize;
        // The crashed incarnation's threads exit with it: read their CPU
        // while they still exist.
        if let Some(s) = sampler {
            s.sample();
        }
        fl.crashed.push((f.host, now()));
        env.cluster.crash(HostId(f.host));
        // A crashed host's threads are gone; the Sim cluster leaves the
        // old incarnation's runtime to its owner.
        env.current[h].shutdown();
        sleep_until(t0, f.restart_at);
        let image_bytes = client
            .metrics_snapshot()
            .gauge("ftlinda_checkpoint_bytes")
            .unwrap_or(0) as f64;
        let r = now();
        let rt = env.cluster.restart(HostId(f.host));
        env.current[h] = rt.clone();
        env.incarnations
            .push((format!("h{h}#{}", i + 1), h, rt.clone()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.applied_seq() < client.applied_seq() {
            if Instant::now() > deadline {
                fl.error
                    .get_or_insert(format!("host {h} did not catch up after restart {i}"));
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        fl.rejoins.push((r, now(), image_bytes));
    }
    fl
}

/// The end-of-run output check, read only after every live replica has
/// applied everything any replica has (a completion only means the
/// client's own replica applied the AGS).
fn verify(env: &Env, fx: &Effects, crashes: &[(u32, u64)]) -> (Result<(), String>, u64) {
    if let Some(w) = &fx.wrong {
        return (Err(w.clone()), 0);
    }
    let target = env
        .current
        .iter()
        .map(Runtime::applied_seq)
        .max()
        .unwrap_or(0);
    for (h, rt) in env.current.iter().enumerate() {
        if !rt.wait_applied(target, Duration::from_secs(20)) {
            return (Err(format!("host {h} never applied seq {target}")), 0);
        }
    }
    let digests: Vec<u64> = env.current.iter().map(Runtime::digest).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        return (Err(format!("replica digests differ: {digests:x?}")), 0);
    }
    let snap = env.client_rt().snapshot(env.ts).unwrap_or_default();
    let ints = |t: &linda_tuple::Tuple| -> Vec<i64> {
        t.fields()[1..].iter().filter_map(Value::as_int).collect()
    };
    let head = |t: &linda_tuple::Tuple, h: &str| t.fields()[0].as_str() == Some(h);
    for host in 0..3u32 {
        let want = crashes.iter().filter(|(h, _)| *h == host).count();
        let got = snap
            .iter()
            .filter(|t| head(t, FAILURE_TUPLE_HEAD) && ints(t) == [i64::from(host)])
            .count();
        if got != want {
            return (
                Err(format!(
                    "{got} failure tuples for host {host}, {want} crashes"
                )),
                0,
            );
        }
    }
    let (base, key_count, total) = match env.kind {
        Kind::Counter => {
            let c: Vec<i64> = snap
                .iter()
                .filter(|t| head(t, "count"))
                .flat_map(ints)
                .collect();
            if c.len() != 1 {
                return (Err(format!("{} count tuples", c.len())), 0);
            }
            (env.counter0, 1, c[0])
        }
        Kind::Failover => {
            let rows: Vec<Vec<i64>> = snap.iter().filter(|t| head(t, "kv")).map(ints).collect();
            let mut keys: Vec<i64> = rows.iter().map(|r| r[0]).collect();
            keys.sort_unstable();
            keys.dedup();
            if keys.len() != rows.len() {
                return (Err("a kv key appears twice".into()), 0);
            }
            (
                env.kv0.iter().sum(),
                rows.len(),
                rows.iter().map(|r| r[1]).sum(),
            )
        }
    };
    let expect_keys = match env.kind {
        Kind::Counter => 1,
        Kind::Failover => gen::KV_KEYS as usize,
    };
    if key_count != expect_keys {
        return (Err(format!("{key_count} rows, expected {expect_keys}")), 0);
    }
    let low = base + fx.done as i64;
    let high = low + fx.unsure as i64;
    if total < low {
        let missing = (low - total) as u64;
        return (
            Err(format!(
                "sum {total} short of {low}: {missing} updates missing"
            )),
            missing,
        );
    }
    if total > high {
        return (
            Err(format!("sum {total} exceeds {high}: updates applied twice")),
            0,
        );
    }
    (Ok(()), 0)
}

/// The workload's inputs for the isolated replays: its population and
/// the first ops of its seeded stream.
fn replay_input(kind: Kind, seed: u64, kv0: &[i64], counter0: i64) -> ReplayInput {
    const OPS: usize = 5_000;
    let ts = replay::SPACE_ID;
    let client_host = kind.client_host() as u32;
    match kind {
        Kind::Counter => ReplayInput {
            population: vec![linda_tuple::tuple!("count", counter0)],
            ops: (0..OPS).map(|_| vec![gen::incr(ts)]).collect(),
            store: (0..OPS)
                .map(|_| vec![StoreStep::Update(gen::pattern("count", &[]))])
                .collect(),
            client_host,
        },
        Kind::Failover => {
            let ops: Vec<KvOp> = KvStream::new(seed).take(OPS).collect();
            ReplayInput {
                population: gen::kv_tuples(kv0),
                ops: ops.iter().map(|op| vec![gen::kv_ags(ts, *op)]).collect(),
                store: ops
                    .iter()
                    .map(|op| match *op {
                        KvOp::Read(k) => vec![StoreStep::Read(gen::pattern("kv", &[k]))],
                        KvOp::Update(k) => vec![StoreStep::Update(gen::pattern("kv", &[k]))],
                    })
                    .collect(),
                client_host,
            }
        }
    }
}
