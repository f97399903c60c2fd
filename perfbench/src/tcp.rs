//! The `tcp_pingpong` workload: three FT-Linda members on localhost
//! `TcpMesh`, one per process. Member 0 (the coordinator) is a child
//! process serving pongs, member 1 is an idle child replica, and member 2
//! is this process, hosting the ping client.
//!
//! Children are this same binary run as `member <id> <role> <addrs>`; they
//! take line commands on stdin (`stats`, `digest`, `quit`) so the parent
//! can read their counters without any change to the program.

use crate::ctr::{match_totals, CtrDelta, CtrSample, Instruments, Order};
use crate::gen::{self, StoreStep};
use crate::harness::{
    reset_peak_rss, Args, Client, Effects, Outcome, ProcSampler, Round, RoundTrace, Stop,
    OP_TIMEOUT, ROUNDS,
};
use crate::procfs::vm_hwm_kb;
use crate::replay::{self, ReplayInput, SPACE};
use crate::trace::ClientLog;
use crossbeam::channel::{unbounded, Receiver};
use ftlinda::{Cluster, FtError, Runtime, TcpClusterConfig, Transport, TsId, Value};
use linda_obs::RegistrySnapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long mesh formation and child start-up may take.
const FORM_TIMEOUT: Duration = Duration::from_secs(20);

/// Round trips of warm-up inside each set-up.
const WARM_OPS: u64 = 300;

/// `n` distinct loopback addresses free right now, on ports below the
/// kernel's ephemeral range (32768 and up): a port from that range could
/// become the source port of some outgoing connection between this check
/// and the member binding it.
pub fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut r = gen::Rng::new(clock, u64::from(std::process::id()));
    let mut out: Vec<SocketAddr> = Vec::with_capacity(n);
    while out.len() < n {
        let addr = SocketAddr::from(([127, 0, 0, 1], 20_000 + r.below(12_000) as u16));
        if !out.contains(&addr) && TcpListener::bind(addr).is_ok() {
            out.push(addr);
        }
    }
    out
}

fn tcp_member(me: u32, addrs: &[SocketAddr]) -> Result<(Cluster, Runtime), String> {
    let (cluster, mut rts) = Cluster::builder()
        .transport(Transport::Tcp(TcpClusterConfig {
            me,
            addrs: addrs.to_vec(),
            rejoin: false,
        }))
        .try_build()
        .map_err(|e| format!("member {me} failed to start: {e}"))?;
    let formed = Instant::now();
    while cluster.live_hosts().len() < addrs.len() {
        if formed.elapsed() > FORM_TIMEOUT {
            return Err(format!("member {me}: mesh never formed"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok((cluster, rts.remove(0)))
}

/// Body of a child member process: `member <id> <idle|pong> <a,b,c>`.
pub fn member_main(args: &[String]) -> i32 {
    let [id, role, addrs] = args else {
        eprintln!("usage: perfbench member <id> <idle|pong> <addr,addr,addr>");
        return 2;
    };
    let (Ok(id), Ok(addrs)) = (
        id.parse::<u32>(),
        addrs
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<SocketAddr>, _>>(),
    ) else {
        eprintln!("member: bad id or address list");
        return 2;
    };
    let (cluster, rt) = match tcp_member(id, &addrs) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 3;
        }
    };
    let ts = match rt.create_stable_ts(SPACE) {
        Ok(ts) => ts,
        Err(e) => {
            eprintln!("member {id}: create space failed: {e}");
            return 3;
        }
    };
    if role == "pong" {
        let rt = rt.clone();
        std::thread::Builder::new()
            .name("bench-pong".into())
            .spawn(move || {
                let serve = gen::pong_serve(ts);
                loop {
                    match rt.execute(&serve) {
                        Ok(_) | Err(FtError::Evicted) | Err(FtError::StateTransfer) => {}
                        Err(_) => return,
                    }
                }
            })
            .expect("spawn pong server");
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "READY");
    let _ = out.flush();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "stats" => {
                let (msgs, bytes) = cluster.net_stats();
                let o = Order::of(cluster.order_stats());
                let mut snap = cluster.obs().snapshot();
                snap.merge(&rt.metrics_snapshot());
                let _ = writeln!(out, "NET {msgs} {bytes}");
                let _ = writeln!(
                    out,
                    "ORDER {} {} {}",
                    o.multicasts, o.view_changes, o.retransmits
                );
                let _ = write!(out, "{}", snap.to_wire());
                let _ = writeln!(out, "END");
            }
            "digest" => {
                let (seq, digest) = rt.applied_digest();
                let _ = writeln!(out, "DIGEST {seq} {digest}");
                let _ = writeln!(out, "END");
            }
            _ => break,
        }
        let _ = out.flush();
    }
    // Exiting ends every member thread at once; an orderly shutdown would
    // only wait out the background services' sleeps.
    0
}

/// A child member process and its line channel.
struct Member {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    /// Forwards the child's stdout lines; ends when the child exits.
    reader: Option<JoinHandle<()>>,
}

impl Member {
    fn spawn(id: u32, role: &str, addrs: &[SocketAddr]) -> Result<Member, String> {
        let list: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["member", &id.to_string(), role, &list.join(",")])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn member {id}: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = unbounded();
        let reader = std::thread::Builder::new()
            .name("perf-member-io".into())
            .spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(Member {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn line(&self) -> Result<String, String> {
        self.lines
            .recv_timeout(FORM_TIMEOUT)
            .map_err(|_| format!("member pid {} went silent", self.pid()))
    }

    /// Send `cmd` and collect the reply up to its `END` line.
    fn ask(&mut self, cmd: &str) -> Result<Vec<String>, String> {
        writeln!(self.stdin, "{cmd}").map_err(|e| e.to_string())?;
        self.stdin.flush().map_err(|e| e.to_string())?;
        let mut reply = Vec::new();
        loop {
            let l = self.line()?;
            if l == "END" {
                return Ok(reply);
            }
            reply.push(l);
        }
    }

    /// Counters, ordering and transport statistics of the child.
    fn stats(&mut self) -> Result<(Instruments, Order, (u64, u64)), String> {
        let reply = self.ask("stats")?;
        let nums = |l: &str, tag: &str| -> Vec<u64> {
            l.strip_prefix(tag)
                .map(|r| {
                    r.split_whitespace()
                        .filter_map(|v| v.parse().ok())
                        .collect()
                })
                .unwrap_or_default()
        };
        let net = nums(reply.first().ok_or("empty stats")?, "NET ");
        let ord = nums(reply.get(1).ok_or("short stats")?, "ORDER ");
        let (&[m, b], &[mc, vc, rt]) = (net.as_slice(), ord.as_slice()) else {
            return Err("malformed stats".into());
        };
        let snap = RegistrySnapshot::from_wire(&(reply[2..].join("\n") + "\n"))?;
        Ok((
            Instruments::of(&snap),
            Order {
                multicasts: mc,
                view_changes: vc,
                retransmits: rt,
            },
            (m, b),
        ))
    }

    /// Applied sequence number and digest of the child's replica.
    fn digest(&mut self) -> Result<(u64, u64), String> {
        let reply = self.ask("digest")?;
        let v: Vec<u64> = reply
            .first()
            .and_then(|l| l.strip_prefix("DIGEST "))
            .map(|r| {
                r.split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        match v.as_slice() {
            [seq, d] => Ok((*seq, *d)),
            _ => Err("malformed digest reply".into()),
        }
    }

    /// Ask the child to exit.
    fn quit(&mut self) {
        let _ = writeln!(self.stdin, "quit");
        let _ = self.stdin.flush();
    }

    /// Wait for the child to exit; kill it if it does not, and reap it.
    fn stop(mut self) {
        self.quit();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Member {
    /// Kill the child if it is still running, reap it, and join the
    /// thread reading its output.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// A formed three-member cluster, warmed up.
struct Env {
    members: Vec<Member>,
    cluster: Cluster,
    rt: Runtime,
    ts: TsId,
    next: i64,
}

impl Env {
    fn setup(seed: u64) -> Result<Env, String> {
        let addrs = free_addrs(3);
        let members = vec![
            Member::spawn(0, "pong", &addrs)?,
            Member::spawn(1, "idle", &addrs)?,
        ];
        let (cluster, rt) = tcp_member(2, &addrs)?;
        for m in &members {
            let l = m.line()?;
            if l != "READY" {
                return Err(format!("member said {l:?} instead of READY"));
            }
        }
        let ts = rt.create_stable_ts(SPACE).map_err(|e| e.to_string())?;
        let mut env = Env {
            members,
            cluster,
            rt,
            ts,
            next: gen::ping_base(seed),
        };
        let mut warm = ClientLog::new_at(Instant::now(), false);
        let fx = pingpong_client(&env.rt, ts, &mut env.next, &mut warm, Stop::Ops(WARM_OPS));
        if warm.failed > 0 || fx.wrong.is_some() {
            return Err(format!("warm-up failed: {:?}", fx.wrong));
        }
        Ok(env)
    }

    fn ctr_sample(&mut self) -> Result<CtrSample, String> {
        let mut snap = self.cluster.obs().snapshot();
        snap.merge(&self.rt.metrics_snapshot());
        let mut s = CtrSample {
            order: Order::of(self.cluster.order_stats()),
            net: self.cluster.net_stats(),
            matching: match_totals(self.rt.introspect()),
            ..CtrSample::default()
        };
        s.sources
            .insert("m2".into(), (true, Instruments::of(&snap)));
        for (i, m) in self.members.iter_mut().enumerate() {
            let (inst, o, (msgs, bytes)) = m.stats()?;
            s.sources.insert(format!("m{i}"), (false, inst));
            s.order.multicasts += o.multicasts;
            s.order.view_changes += o.view_changes;
            s.order.retransmits += o.retransmits;
            s.net.0 += msgs;
            s.net.1 += bytes;
        }
        Ok(s)
    }

    fn pids(&self) -> Vec<u32> {
        let mut p = vec![std::process::id()];
        p.extend(self.members.iter().map(Member::pid));
        p
    }

    fn teardown(mut self) {
        for m in &mut self.members {
            m.quit();
        }
        for m in self.members {
            m.stop();
        }
        self.cluster.shutdown();
    }
}

/// Sequential round trips: `out("ping", i)` then `in("pong", ?j)`, which
/// must bind `j = i`.
fn pingpong_client(
    rt: &Runtime,
    ts: TsId,
    next: &mut i64,
    log: &mut ClientLog,
    stop: Stop,
) -> Effects {
    let mut fx = Effects::default();
    let take = gen::pong_take(ts);
    while !stop.reached(log) {
        log.attempted += 1;
        let i = *next;
        *next += 1;
        let start = log.now();
        if rt
            .execute_timeout(&gen::ping_out(ts, i), OP_TIMEOUT)
            .is_err()
        {
            log.fail();
            continue;
        }
        let sent = log.now();
        log.ags("ags.out", start, start, sent);
        match rt.execute_timeout(&take, OP_TIMEOUT) {
            Ok(o) => {
                let end = log.now();
                log.ags("ags.in", start, sent, end);
                log.complete(start, end);
                if o.bindings.first() != Some(&Value::Int(i)) {
                    fx.wrong
                        .get_or_insert(format!("in(\"pong\") for ping {i} bound {:?}", o.bindings));
                }
                fx.done += 1;
            }
            Err(_) => log.fail(),
        }
    }
    fx
}

/// Run `tcp_pingpong`: [`ROUNDS`] rounds, then (traced) the isolated
/// replays of its inputs.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let rounds = (0..ROUNDS)
        .map(|_| round(args))
        .collect::<Result<Vec<_>, _>>()?;
    let replay = args.trace.then(|| replay::run(&replay_input(args.seed)));
    Ok(Outcome { rounds, replay })
}

/// One round: spawn and form a fresh cluster, drive it, check it, tear
/// it down.
fn round(args: &Args) -> Result<Round, String> {
    reset_peak_rss(std::process::id());
    let t_setup = Instant::now();
    let mut env = Env::setup(args.seed)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let phase = args.round_ns();
    let (rt, ts, mut next) = (env.rt.clone(), env.ts, env.next);
    let client = Client::spawn(args.trace, move |log| {
        pingpong_client(&rt, ts, &mut next, log, Stop::At(phase))
    });
    let before = if args.trace {
        Some(env.ctr_sample()?)
    } else {
        None
    };
    let sampler = args.trace.then(|| ProcSampler::start(env.pids()));
    client.start();
    let (log, fx) = client.results();
    let ledger = sampler.map(ProcSampler::finish);
    let ctr = match before {
        Some(b) => Some(CtrDelta::between(&b, &env.ctr_sample()?)),
        None => None,
    };
    client.finish();

    let check = verify(&mut env, &fx);
    let peak_rss_kb = env.pids().into_iter().filter_map(vm_hwm_kb).sum();
    env.teardown();
    Ok(Round {
        setup_s,
        log,
        peak_rss_kb,
        check,
        missing: 0,
        trace: ledger.zip(ctr).map(|(l, c)| RoundTrace::new(&l, c)),
    })
}

/// Every replica at the same sequence number with the same digest, and no
/// ping or pong tuple left over.
fn verify(env: &mut Env, fx: &Effects) -> Result<(), String> {
    if let Some(w) = &fx.wrong {
        return Err(w.clone());
    }
    let deadline = Instant::now() + FORM_TIMEOUT;
    loop {
        let mine = env.rt.applied_digest();
        let theirs = env
            .members
            .iter_mut()
            .map(Member::digest)
            .collect::<Result<Vec<_>, _>>()?;
        if theirs.iter().all(|t| t.0 == mine.0) {
            if theirs.iter().any(|t| t.1 != mine.1) {
                return Err(format!("replica digests differ at seq {}", mine.0));
            }
            break;
        }
        if Instant::now() > deadline {
            return Err("replicas never reached the same sequence number".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let left = env
        .rt
        .snapshot(env.ts)
        .unwrap_or_default()
        .into_iter()
        .filter(|t| matches!(t.fields()[0].as_str(), Some("ping") | Some("pong")))
        .count();
    if left > 0 {
        return Err(format!("{left} ping/pong tuples left over"));
    }
    Ok(())
}

/// The round trips' inputs for the isolated replays.
fn replay_input(seed: u64) -> ReplayInput {
    const OPS: i64 = 2_000;
    let ts = replay::SPACE_ID;
    let base = gen::ping_base(seed);
    ReplayInput {
        population: Vec::new(),
        ops: (base..base + OPS)
            .map(|i| {
                vec![
                    gen::pong_serve(ts),
                    gen::ping_out(ts, i),
                    gen::pong_take(ts),
                ]
            })
            .collect(),
        store: (base..base + OPS)
            .map(|i| {
                vec![
                    StoreStep::Insert(linda_tuple::tuple!("ping", i)),
                    StoreStep::Take(gen::pattern("ping", &[])),
                    StoreStep::Insert(linda_tuple::tuple!("pong", i)),
                    StoreStep::Take(gen::pattern("pong", &[])),
                ]
            })
            .collect(),
        client_host: 2,
    }
}
