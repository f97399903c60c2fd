//! Workload inputs, generated from the seed alone, and the AGSs built
//! from them.

use ftlinda::{Ags, MatchField as MF, Operand, TsId, TypeTag};
use linda_tuple::{PatField, Pattern, Tuple, Value};

/// SplitMix64: a tiny deterministic generator, so the same seed yields the
/// same inputs on every platform and commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: distinct `stream` tags give independent
    /// sequences from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Rows of the `failover` workload's `("kv", k, v)` table.
pub const KV_KEYS: u64 = 10_000;

/// The table's initial values, one per key.
pub fn kv_initial(seed: u64) -> Vec<i64> {
    let mut r = Rng::new(seed, 1);
    (0..KV_KEYS).map(|_| r.below(1000) as i64).collect()
}

/// The `counter` workload's starting value.
pub fn counter_initial(seed: u64) -> i64 {
    Rng::new(seed, 2).below(1_000_000) as i64
}

/// First ping number of the `tcp_pingpong` workload.
pub fn ping_base(seed: u64) -> i64 {
    Rng::new(seed, 3).below(1 << 40) as i64
}

/// One `failover` client op on the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// `rd("kv", k, ?v)`.
    Read(i64),
    /// `⟨in("kv", k, ?v) ⇒ out("kv", k, v+1)⟩`.
    Update(i64),
}

/// The `failover` op stream: a uniform key and an even read/update mix.
#[derive(Debug, Clone)]
pub struct KvStream(Rng);

impl KvStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> KvStream {
        KvStream(Rng::new(seed, 4))
    }
}

impl Iterator for KvStream {
    type Item = KvOp;
    fn next(&mut self) -> Option<KvOp> {
        let x = self.0.next_u64();
        let key = (((x >> 1) as u128 * KV_KEYS as u128) >> 63) as i64;
        Some(if x & 1 == 0 {
            KvOp::Read(key)
        } else {
            KvOp::Update(key)
        })
    }
}

/// One coordinator crash and the restart half a period later, in
/// nanoseconds from the start of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Host to crash: the coordinator, which alternates between hosts 0
    /// and 1 (the lowest live host takes over, and the restarted one
    /// rejoins as a follower).
    pub host: u32,
    /// Crash time.
    pub crash_at: u64,
    /// Restart time.
    pub restart_at: u64,
}

/// Period of the `failover` schedule.
pub const FAULT_PERIOD_NS: u64 = 1_000_000_000;

/// The `failover` schedule of round `round` with a timed phase of
/// `phase_ns`: one crash per whole period at a seeded offset in its first
/// fifth (after a tenth), each restarted half a period later, so every
/// cycle ends inside the phase.
pub fn fault_schedule(seed: u64, round: u64, phase_ns: u64) -> Vec<Fault> {
    let mut r = Rng::new(seed, 5 + round);
    let cycles = (phase_ns / FAULT_PERIOD_NS).max(1);
    (0..cycles)
        .map(|i| {
            let crash_at =
                i * FAULT_PERIOD_NS + FAULT_PERIOD_NS / 10 + r.below(FAULT_PERIOD_NS / 5);
            Fault {
                host: (i % 2) as u32,
                crash_at,
                restart_at: crash_at + FAULT_PERIOD_NS / 2,
            }
        })
        .collect()
}

/// `⟨in("count", ?x) ⇒ out("count", x+1)⟩`, the paper's Fig. 3 update.
pub fn incr(ts: TsId) -> Ags {
    Ags::builder()
        .guard_in(ts, vec![MF::actual("count"), MF::bind(TypeTag::Int)])
        .out(ts, vec![Operand::cst("count"), Operand::formal(0).add(1)])
        .build()
        .expect("counter AGS is valid")
}

/// The AGS for one table op.
pub fn kv_ags(ts: TsId, op: KvOp) -> Ags {
    match op {
        KvOp::Read(k) => Ags::rd_one(
            ts,
            vec![MF::actual("kv"), MF::actual(k), MF::bind(TypeTag::Int)],
        )
        .expect("kv read is valid"),
        KvOp::Update(k) => Ags::builder()
            .guard_in(
                ts,
                vec![MF::actual("kv"), MF::actual(k), MF::bind(TypeTag::Int)],
            )
            .out(
                ts,
                vec![
                    Operand::cst("kv"),
                    Operand::cst(k),
                    Operand::formal(0).add(1),
                ],
            )
            .build()
            .expect("kv update is valid"),
    }
}

/// `⟨true ⇒ out(t₁) … out(tₙ)⟩`: deposit a batch of seed tuples in one AGS.
pub fn bulk_out(ts: TsId, tuples: &[Tuple]) -> Ags {
    let mut b = Ags::builder().guard_true();
    for t in tuples {
        b = b.out(ts, t.fields().iter().cloned().map(Operand::Const).collect());
    }
    b.build().expect("bulk out is valid")
}

/// The table as `("kv", k, v)` tuples.
pub fn kv_tuples(initial: &[i64]) -> Vec<Tuple> {
    initial
        .iter()
        .enumerate()
        .map(|(k, v)| linda_tuple::tuple!("kv", k as i64, *v))
        .collect()
}

/// `⟨in("ping", ?i) ⇒ out("pong", i)⟩`: the pong server's AGS.
pub fn pong_serve(ts: TsId) -> Ags {
    Ags::builder()
        .guard_in(ts, vec![MF::actual("ping"), MF::bind(TypeTag::Int)])
        .out(ts, vec![Operand::cst("pong"), Operand::formal(0)])
        .build()
        .expect("pong AGS is valid")
}

/// `out("ping", i)`.
pub fn ping_out(ts: TsId, i: i64) -> Ags {
    Ags::out_one(ts, vec![Operand::cst("ping"), Operand::cst(i)])
}

/// `in("pong", ?j)`: the client checks that it binds its own ping.
pub fn pong_take(ts: TsId) -> Ags {
    Ags::in_one(ts, vec![MF::actual("pong"), MF::bind(TypeTag::Int)]).expect("pong take is valid")
}

/// One step of a workload's tuple-store sequence.
#[derive(Debug, Clone)]
pub enum StoreStep {
    /// Non-destructive match.
    Read(Pattern),
    /// Withdraw the match and insert it back with its last field plus one.
    Update(Pattern),
    /// Deposit a tuple.
    Insert(Tuple),
    /// Withdraw a match.
    Take(Pattern),
}

/// Pattern `(head, actuals…, ?int)`.
pub fn pattern(head: &str, actuals: &[i64]) -> Pattern {
    let mut f = vec![PatField::Actual(Value::from(head))];
    f.extend(actuals.iter().map(|a| PatField::Actual(Value::Int(*a))));
    f.push(PatField::Formal(TypeTag::Int));
    Pattern::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_derive_only_from_the_seed() {
        assert_eq!(kv_initial(7), kv_initial(7));
        assert_ne!(kv_initial(7), kv_initial(8));
        let a: Vec<KvOp> = KvStream::new(7).take(1000).collect();
        assert_eq!(a, KvStream::new(7).take(1000).collect::<Vec<_>>());
        assert_ne!(a, KvStream::new(8).take(1000).collect::<Vec<_>>());
        let reads = a.iter().filter(|o| matches!(o, KvOp::Read(_))).count();
        assert!((400..600).contains(&reads), "even mix, got {reads} reads");
        assert!(a.iter().all(
            |o| matches!(o, KvOp::Read(k) | KvOp::Update(k) if (0..KV_KEYS as i64).contains(k))
        ));
    }

    #[test]
    fn fault_cycles_end_inside_the_phase_and_alternate_hosts() {
        let f = fault_schedule(3, 0, 10 * FAULT_PERIOD_NS);
        assert_eq!(f.len(), 10);
        for (i, c) in f.iter().enumerate() {
            assert_eq!(c.host, (i % 2) as u32);
            assert!(c.crash_at >= i as u64 * FAULT_PERIOD_NS);
            assert!(c.restart_at < (i as u64 + 1) * FAULT_PERIOD_NS);
        }
        assert_eq!(f, fault_schedule(3, 0, 10 * FAULT_PERIOD_NS));
        assert_ne!(f, fault_schedule(4, 0, 10 * FAULT_PERIOD_NS));
        assert_ne!(f, fault_schedule(3, 1, 10 * FAULT_PERIOD_NS));
    }
}
