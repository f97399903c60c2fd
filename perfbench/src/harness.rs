//! Pieces every workload's run shares: the client thread, the `/proc`
//! sampler, and what a run hands back for reporting.

use crate::ctr::CtrDelta;
use crate::procfs::{process_cpu_ns, sample_threads, GroupTotals, ThreadLedger};
use crate::replay::Replayed;
use crate::trace::{ClientLog, Span};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rounds per run. Each round builds a fresh cluster (timed as set-up),
/// drives it for its share of the timed phase, checks it and tears it
/// down. A cluster instance on a 2-vCPU machine can settle into a faster
/// or slower regime for its whole life, so a run measures several.
pub const ROUNDS: u64 = 4;

/// Client-side deadline for one op. A slower op counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, summed over rounds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Length of one round's timed phase in ns.
    pub fn round_ns(&self) -> u64 {
        self.seconds * 1_000_000_000 / ROUNDS
    }
}

/// Per-layer readings of one traced round.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// CPU, run delay and wake-ups per thread group.
    pub groups: BTreeMap<&'static str, GroupTotals>,
    /// The same for the TCP writer threads and reader threads.
    pub tcp_writer: GroupTotals,
    /// See `tcp_writer`.
    pub tcp_reader: GroupTotals,
    /// CPU growth of the processes as a whole, read independently of
    /// the thread groups.
    pub process_cpu_ns: u64,
    /// Growth of the program's counters.
    pub ctr: CtrDelta,
    /// Workload-specific samples (fault handling), pooled over rounds and
    /// reported as medians.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Fault-event spans.
    pub spans: Vec<Span>,
}

impl RoundTrace {
    /// Summarise a round's thread ledger and counter growth.
    pub fn new(ledger: &ThreadLedger, ctr: CtrDelta) -> RoundTrace {
        RoundTrace {
            groups: ledger.totals(),
            tcp_writer: ledger.prefix_totals("tcp-writer"),
            tcp_reader: ledger.prefix_totals("tcp-reader"),
            process_cpu_ns: ledger.process_cpu_ns,
            ctr,
            ..RoundTrace::default()
        }
    }
}

/// One round of a run.
pub struct Round {
    /// Wall time of the set-up, s.
    pub setup_s: f64,
    /// The client's view of the round's timed phase.
    pub log: ClientLog,
    /// Summed peak RSS of every process of the cluster over the round, kB.
    pub peak_rss_kb: u64,
    /// The end-of-round output check: `Err` describes a wrong result.
    pub check: Result<(), String>,
    /// Ops whose effect the end-of-round check could not find.
    pub missing: u64,
    /// Per-layer readings, on a traced run.
    pub trace: Option<RoundTrace>,
}

/// What one workload run hands back for reporting.
pub struct Outcome {
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Isolated replays of the workload's inputs, on a traced run.
    pub replay: Option<Replayed>,
}

impl Outcome {
    /// Ops attempted over all rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.log.attempted).sum()
    }

    /// Ops that failed, or whose effect was missing, over all rounds.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.log.failed + r.missing).sum()
    }

    /// The first wrong result of any round.
    pub fn check(&self) -> Result<(), String> {
        self.rounds
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.check.clone().err().map(|e| format!("round {i}: {e}")))
            .map_or(Ok(()), Err)
    }
}

/// Reset the peak-RSS mark of `pid` so `VmHWM` covers only what follows.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// The benchmark's one client thread, parked until the timed phase
/// starts and kept alive after it ends until its CPU has been sampled.
pub struct Client<T> {
    go: Sender<Instant>,
    done: Receiver<(ClientLog, T)>,
    release: Sender<()>,
    handle: JoinHandle<()>,
}

impl<T: Send + 'static> Client<T> {
    /// Spawn the client; `body` runs the timed phase on the log it is
    /// given.
    pub fn spawn(trace: bool, body: impl FnOnce(&mut ClientLog) -> T + Send + 'static) -> Self {
        let (go, go_rx) = bounded::<Instant>(1);
        let (done_tx, done) = bounded(1);
        let (release, release_rx) = bounded::<()>(1);
        let handle = std::thread::Builder::new()
            .name("bench-client".into())
            .spawn(move || {
                let Ok(t0) = go_rx.recv() else { return };
                let mut log = ClientLog::new_at(t0, trace);
                let r = body(&mut log);
                let _ = done_tx.send((log, r));
                let _ = release_rx.recv();
            })
            .expect("spawn client thread");
        Client {
            go,
            done,
            release,
            handle,
        }
    }

    /// Start the timed phase now; returns its start instant.
    pub fn start(&self) -> Instant {
        let t0 = Instant::now();
        self.go.send(t0).expect("client waits for the start");
        t0
    }

    /// Wait for the timed phase to end; the client stays alive.
    pub fn results(&self) -> (ClientLog, T) {
        self.done.recv().expect("client finishes the timed phase")
    }

    /// Let the client thread exit and wait for it.
    pub fn finish(self) {
        let _ = self.release.send(());
        let _ = self.handle.join();
    }
}

/// How often the sampler reads `/proc` while threads come and go.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Background `/proc` sampling of the cluster's processes over the timed
/// phase of a traced run.
pub struct ProcSampler {
    ledger: Arc<Mutex<ThreadLedger>>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    pids: Vec<u32>,
    /// CPU of each process at the baseline reading.
    process_base: Vec<u64>,
}

/// Read every thread of `pids` into `ledger`.
fn observe_all(ledger: &Mutex<ThreadLedger>, pids: &[u32]) {
    for &pid in pids {
        let s = sample_threads(pid);
        ledger.lock().expect("ledger lock").observe(pid, s);
    }
}

impl ProcSampler {
    /// Take the baseline reading of `pids` and keep sampling them.
    pub fn start(pids: Vec<u32>) -> ProcSampler {
        let mut l = ThreadLedger::default();
        for &pid in &pids {
            l.begin(pid, sample_threads(pid));
        }
        let process_base = pids
            .iter()
            .map(|&p| process_cpu_ns(p).unwrap_or(0))
            .collect();
        let ledger = Arc::new(Mutex::new(l));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (ledger, stop, pids) = (ledger.clone(), stop.clone(), pids.clone());
            std::thread::Builder::new()
                .name("perf-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(SAMPLE_EVERY);
                        observe_all(&ledger, &pids);
                    }
                })
                .expect("spawn sampler")
        };
        ProcSampler {
            ledger,
            stop,
            handle,
            pids,
            process_base,
        }
    }

    /// Read every thread now, before some are made to exit.
    pub fn sample(&self) {
        observe_all(&self.ledger, &self.pids);
    }

    /// Take the final reading and return the ledger.
    pub fn finish(self) -> ThreadLedger {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        observe_all(&self.ledger, &self.pids);
        let mut l = std::mem::take(&mut *self.ledger.lock().expect("ledger lock"));
        l.process_cpu_ns = self
            .pids
            .iter()
            .zip(&self.process_base)
            .map(|(&p, &base)| process_cpu_ns(p).map_or(0, |now| now.saturating_sub(base)))
            .sum();
        l
    }
}

/// When the client stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this time (ns into the timed phase).
    At(u64),
    /// After this many ops.
    Ops(u64),
}

impl Stop {
    pub fn reached(self, log: &ClientLog) -> bool {
        match self {
            Stop::At(t) => log.now() >= t,
            Stop::Ops(n) => log.attempted >= n,
        }
    }
}

/// What the client has done to the replicated state, for the end check.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Increments or updates that completed.
    pub done: u64,
    /// Increments or updates that failed (their effect is indeterminate).
    pub unsure: u64,
    /// First wrong value a client op observed.
    pub wrong: Option<String>,
}

/// Sleep until `t0 + at_ns`.
pub fn sleep_until(t0: Instant, at_ns: u64) {
    let due = t0 + Duration::from_nanos(at_ns);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
