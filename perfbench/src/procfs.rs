//! Per-thread OS accounting from `/proc`, grouped into the program's
//! layers by thread name.
//!
//! `schedstat` gives each thread's CPU time and run delay (time spent
//! runnable but waiting for a CPU) in nanoseconds; `status` gives its
//! voluntary context switches, one per blocking call that had to wait
//! (a socket read with no data yet, a wait for the next frame to write).
//! The `io` file's syscall counts are not used: they count `read`/`write`
//! but not the `recv`/`send` calls Rust sockets make. The program already
//! names every thread it spawns after its role, so grouping needs no
//! change to the program.
//!
//! A thread that exits between two readings takes the CPU it used since
//! the last one out of every thread group. The process's own `stat` keeps
//! the time of exited threads, so it is read as an independent total.

use std::collections::{BTreeMap, HashMap};

/// Layer groups, in report order. `other` takes every thread the other
/// groups do not claim, so the groups always sum to the process total.
pub const GROUPS: [&str; 7] = [
    "client",
    "core.apply",
    "core.services",
    "consul.sequencer",
    "consul.simnet",
    "consul.tcp",
    "other",
];

/// The layer a thread belongs to, by its (possibly 15-byte truncated)
/// name.
pub fn group_of(name: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 9] = [
        ("bench-", "client"),
        ("seq-", "consul.sequencer"),
        ("flush-", "consul.sequencer"),
        ("join-", "consul.sequencer"),
        ("simnet-router", "consul.simnet"),
        ("tcp-", "consul.tcp"),
        ("ftlinda-apply-", "core.apply"),
        ("ftlinda-", "core.services"),
        ("http-exporter-", "core.services"),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or("other", |(_, g)| g)
}

/// One thread's cumulative counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStat {
    /// Thread name (`comm`).
    pub name: String,
    /// CPU time, ns.
    pub cpu_ns: u64,
    /// Run delay, ns.
    pub wait_ns: u64,
    /// Voluntary context switches.
    pub wakeups: u64,
}

/// Read every live thread of process `pid`, keyed by thread id. Threads
/// that exit while being read are skipped.
pub fn sample_threads(pid: u32) -> Vec<(u32, ThreadStat)> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let base = entry.path();
        let (Ok(comm), Ok(sched)) = (
            std::fs::read_to_string(base.join("comm")),
            std::fs::read_to_string(base.join("schedstat")),
        ) else {
            continue;
        };
        let mut sched = sched
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let status = std::fs::read_to_string(base.join("status")).unwrap_or_default();
        out.push((
            tid,
            ThreadStat {
                name: comm.trim_end().to_string(),
                cpu_ns: sched.next().unwrap_or(0),
                wait_ns: sched.next().unwrap_or(0),
                wakeups: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
            },
        ));
    }
    out
}

/// A numeric field of a `/proc` status file (`key:  value [kB]`).
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of process `pid`, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    status_field(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM",
    )
}

/// Clock ticks per second of `/proc` times (`USER_HZ`): 100 on every
/// mainstream Linux architecture.
const USER_HZ: u64 = 100;

/// CPU time of process `pid` in ns: user plus system time of all its
/// threads, those that have exited included, to one clock tick.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat_cpu_ticks(&stat).map(|t| t * (1_000_000_000 / USER_HZ))
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name may
/// hold spaces and parentheses, so fields are counted after the last
/// `)`: the state is field 3, `utime` and `stime` fields 14 and 15.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let mut f = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A group's growth over the measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupTotals {
    /// CPU time, ns.
    pub cpu_ns: u64,
    /// Run delay, ns.
    pub wait_ns: u64,
    /// Voluntary context switches.
    pub wakeups: u64,
}

impl GroupTotals {
    /// Fold another interval's totals into this one.
    pub fn merge(&mut self, o: &GroupTotals) {
        self.cpu_ns += o.cpu_ns;
        self.wait_ns += o.wait_ns;
        self.wakeups += o.wakeups;
    }

    fn add(&mut self, base: &ThreadStat, last: &ThreadStat) {
        self.cpu_ns += last.cpu_ns.saturating_sub(base.cpu_ns);
        self.wait_ns += last.wait_ns.saturating_sub(base.wait_ns);
        self.wakeups += last.wakeups.saturating_sub(base.wakeups);
    }
}

/// Per-thread accounting over one interval, across several processes.
///
/// The first reading of a thread at [`ThreadLedger::begin`] is its
/// baseline; a thread first seen later was born inside the interval and
/// counts from zero. The last reading of each thread is kept, so a thread
/// that exits before the interval ends still contributes what it used up
/// to its last reading; what it used after that is only in
/// `process_cpu_ns`.
#[derive(Debug, Default)]
pub struct ThreadLedger {
    base: HashMap<(u32, u32), ThreadStat>,
    last: HashMap<(u32, u32), ThreadStat>,
    /// CPU growth of the processes as a whole over the interval, from
    /// [`process_cpu_ns`].
    pub process_cpu_ns: u64,
}

impl ThreadLedger {
    /// Record the baseline reading of `pid`'s threads.
    pub fn begin(&mut self, pid: u32, threads: Vec<(u32, ThreadStat)>) {
        for (tid, t) in threads {
            self.base.insert((pid, tid), t.clone());
            self.last.insert((pid, tid), t);
        }
    }

    /// Record a later reading of `pid`'s threads.
    pub fn observe(&mut self, pid: u32, threads: Vec<(u32, ThreadStat)>) {
        for (tid, t) in threads {
            self.last.insert((pid, tid), t);
        }
    }

    /// Growth per group between each thread's baseline and last reading.
    pub fn totals(&self) -> BTreeMap<&'static str, GroupTotals> {
        let mut out: BTreeMap<&'static str, GroupTotals> = GROUPS
            .iter()
            .map(|g| (*g, GroupTotals::default()))
            .collect();
        for (key, last) in &self.last {
            let base = self.base.get(key).cloned().unwrap_or_default();
            out.entry(group_of(&last.name))
                .or_default()
                .add(&base, last);
        }
        out
    }

    /// Growth summed over the threads whose name starts with `prefix`.
    pub fn prefix_totals(&self, prefix: &str) -> GroupTotals {
        let mut out = GroupTotals::default();
        for (key, last) in self.last.iter().filter(|(_, t)| t.name.starts_with(prefix)) {
            out.add(&self.base.get(key).cloned().unwrap_or_default(), last);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_map_to_layers() {
        assert_eq!(group_of("bench-client"), "client");
        assert_eq!(group_of("bench-pong"), "client");
        assert_eq!(group_of("seq-host1"), "consul.sequencer");
        assert_eq!(group_of("flush-host0"), "consul.sequencer");
        assert_eq!(group_of("join-host2"), "consul.sequencer");
        assert_eq!(group_of("simnet-router"), "consul.simnet");
        assert_eq!(group_of("tcp-writer-1"), "consul.tcp");
        assert_eq!(group_of("tcp-reader"), "consul.tcp");
        // `comm` truncates to 15 bytes: "ftlinda-apply-host1-s0".
        assert_eq!(group_of("ftlinda-apply-h"), "core.apply");
        assert_eq!(group_of("ftlinda-diverge"), "core.services");
        assert_eq!(group_of("ftlinda-watchdo"), "core.services");
        assert_eq!(group_of("http-exporter-4"), "core.services");
        assert_eq!(group_of("perfbench"), "other");
        assert_eq!(group_of("sequencer"), "other");
    }

    fn t(name: &str, cpu: u64, wait: u64) -> ThreadStat {
        ThreadStat {
            name: name.into(),
            cpu_ns: cpu,
            wait_ns: wait,
            wakeups: cpu / 10,
        }
    }

    #[test]
    fn ledger_counts_births_and_exits_and_sums_to_the_process() {
        let mut l = ThreadLedger::default();
        l.begin(
            7,
            vec![(1, t("seq-host0", 100, 5)), (2, t("bench-client", 50, 0))],
        );
        // Thread 3 is born, thread 2 is still alive.
        l.observe(
            7,
            vec![
                (1, t("seq-host0", 300, 9)),
                (2, t("bench-client", 90, 1)),
                (3, t("tcp-reader", 40, 2)),
            ],
        );
        // Thread 1 exits before the final reading: its last reading stands.
        l.observe(
            7,
            vec![(2, t("bench-client", 150, 4)), (3, t("tcp-reader", 70, 2))],
        );
        let g = l.totals();
        assert_eq!(g["consul.sequencer"].cpu_ns, 200);
        assert_eq!(g["consul.sequencer"].wait_ns, 4);
        assert_eq!(g["client"].cpu_ns, 100);
        assert_eq!(g["consul.tcp"].cpu_ns, 70);
        assert_eq!(g["consul.tcp"].wakeups, 7);
        assert_eq!(l.prefix_totals("tcp-r").cpu_ns, 70);
        assert_eq!(l.prefix_totals("seq-").wakeups, 20);
        assert_eq!(g["other"], GroupTotals::default());
        let total: u64 = g.values().map(|v| v.cpu_ns).sum();
        assert_eq!(total, 370);
        assert_eq!(g.len(), GROUPS.len());
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        let threads = sample_threads(me);
        assert!(!threads.is_empty());
        assert!(threads.iter().any(|(_, t)| t.cpu_ns > 0));
        assert!(vm_hwm_kb(me).unwrap() > 0);
    }

    #[test]
    fn stat_times_are_read_after_the_command_name() {
        let line = "4242 (tcp-reader) 1) S 1 4242 4242 0 -1 4194560 \
                    120 0 0 0 37 5 0 0 20 0 9 0 100 0 0";
        assert_eq!(stat_cpu_ticks(line), Some(42));
        assert_eq!(stat_cpu_ticks("4242 (short) S 1"), None);
    }

    #[test]
    fn process_total_keeps_the_cpu_of_exited_threads() {
        let me = std::process::id();
        // A thread spins for 200 ms, reports its own CPU time and exits.
        let spun: u64 = std::thread::spawn(|| {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed() < std::time::Duration::from_millis(200) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            let own = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
            own.split_whitespace().next().unwrap().parse().unwrap()
        })
        .join()
        .unwrap();
        let live: u64 = sample_threads(me).iter().map(|(_, t)| t.cpu_ns).sum();
        let total = process_cpu_ns(me).unwrap();
        // `stat` truncates user and system time to a tick each.
        let tick = 1_000_000_000 / USER_HZ;
        assert!(spun > 2 * tick, "the spinner ran");
        assert!(
            total + 2 * tick >= live + spun,
            "process {total}, live threads {live}, exited thread {spun}"
        );
    }
}
