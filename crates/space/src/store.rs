//! Tuple stores: the data structure behind a tuple space.
//!
//! Three implementations of the [`Store`] trait are provided:
//!
//! * [`IndexedStore`] — the production store. Tuples are bucketed by the
//!   stable hash of their signature (arity + ordered field types), and
//!   within a bucket **value-level secondary indexes** accelerate
//!   patterns with constant fields. The first-field index is built
//!   eagerly (the overwhelmingly common Linda idiom is a string-constant
//!   head, `("subtask", ?int, ?bytes)`); indexes on other positions are
//!   promoted lazily when a scan is observed to be expensive, so the
//!   dominant `in("task", id, ?x)` shape resolves in O(1) hash lookups
//!   instead of a within-bucket scan. A **miss cache** (antituple cache)
//!   makes a repeated failed poll for the same pattern O(1) until an
//!   insert that could match invalidates it.
//! * [`LinearStore`] — a straight `Vec` scan, kept as the baseline for
//!   ablation experiment A2.
//! * [`AdaptiveStore`] — starts as a [`LinearStore`] and promotes itself
//!   to an [`IndexedStore`] when the live probe-efficiency figures say
//!   the scan has become hot. Small spaces keep the cheap scan; hot ones
//!   get the indexes. [`crate::LocalSpace`] uses this.
//!
//! All stores implement **oldest-match semantics**: `take`/`read` return
//! the matching tuple that was inserted earliest. This determinism is not
//! just a nicety — the replicated state machine (crate `ftlinda-kernel`)
//! requires every replica to withdraw the *same* tuple for the same
//! operation stream, and oldest-match also preserves causality for
//! FIFO-producer/consumer patterns.
//!
//! **Derived state only:** indexes, the miss cache, and the promotion
//! decision are pure acceleration structures derived from the tuple
//! multiset. They are never checkpointed, digested, or compared across
//! replicas — two replicas may hold different indexes (or none) and
//! still withdraw identical tuples for the same operation stream.
//! Checkpoint/restore rebuilds stores from snapshots, which starts the
//! derived state empty.
//!
//! **Zero-clone withdraw contract:** `take`/`take_all` (and the tracked
//! variants) move the stored tuple out by removing it first — they never
//! clone payload bytes. Only the read-side operations (`read`,
//! `read_all`, `snapshot`) copy, because the original stays in the
//! store. AGS `move` over large tuple sets therefore costs O(matches)
//! pointer moves, not O(bytes).

use linda_tuple::{PatField, Pattern, Signature, StableMap, Tuple, Value};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Tuning knobs for the adaptive matching engine, set per store with
/// [`IndexedStore::with_config`], [`AdaptiveStore::with_config`] or
/// `LocalSpace::with_store_config`. Cluster kernels run the defaults,
/// which suit the benchmark workloads.
///
/// Different stores may run different configs: everything these knobs
/// control is derived state and never affects match results, digests, or
/// the wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// A single match attempt that examines more than this many tuples
    /// promotes: within a bucket it builds value indexes for the
    /// pattern's constant fields, and in [`AdaptiveStore`] it is the
    /// probes-per-attempt bar for switching linear → indexed.
    pub promote_after_probes: u64,
    /// Never promote (bucket indexes or the linear → indexed switch)
    /// while fewer than this many tuples are involved — small spaces
    /// keep the cheap scan.
    pub promote_min_tuples: usize,
    /// [`AdaptiveStore`] also promotes when probe efficiency falls below
    /// this many basis points (after a minimum number of attempts):
    /// sustained wasted probing is a hot scan even if no single attempt
    /// crossed `promote_after_probes`.
    pub promote_below_bp: i64,
    /// Maximum value indexes per signature bucket, *including* the eager
    /// first-field index. Each index costs O(bucket) memory and O(1)
    /// maintenance per insert/remove.
    pub max_value_indexes: usize,
    /// Maximum patterns held in the miss cache; when full the whole
    /// cache is dropped (epoch eviction — correctness never depends on
    /// retention). `0` disables miss caching.
    pub miss_cache_cap: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            promote_after_probes: 8,
            promote_min_tuples: 32,
            promote_below_bp: 500,
            max_value_indexes: 4,
            miss_cache_cap: 128,
        }
    }
}

/// Point-in-time matching-cost totals for one store.
///
/// A *probe* is one `Pattern::matches` evaluation against a stored tuple;
/// an *attempt* is one `in`/`rd`-shaped operation (`take`, `read`,
/// `contains`, `count`, `take_all`, `read_all`); a *hit* is a probe that
/// matched. A *cache hit* is an attempt answered by the miss cache — it
/// counts as an attempt with zero probes, never as an invisible
/// operation. `probes / attempts` is the matching cost the store's
/// indexing did **not** eliminate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Match-shaped operations attempted (including miss-cache hits).
    pub attempts: u64,
    /// Tuples examined (`Pattern::matches` evaluations).
    pub probes: u64,
    /// Probes that matched.
    pub hits: u64,
    /// Attempts answered by the miss cache with zero probes.
    pub cache_hits: u64,
}

impl MatchStats {
    /// Mean tuples examined per attempt (0.0 when nothing was attempted).
    pub fn probes_per_attempt(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.probes as f64 / self.attempts as f64
        }
    }

    /// Fraction of probes that matched (1.0 when no probe was wasted —
    /// including the degenerate zero-probe case).
    pub fn efficiency(&self) -> f64 {
        if self.probes == 0 {
            1.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }

    /// [`MatchStats::efficiency`] in basis points (0–10000). Integer
    /// percent floored sub-1%-efficiency workloads to 0 — indistinguishable
    /// from idle; basis points keep the 100k-miss case visible.
    pub fn efficiency_bp(&self) -> i64 {
        (self.efficiency() * 10_000.0).round() as i64
    }

    /// Component-wise difference versus an earlier snapshot (for
    /// delta-feeding monotonic counters).
    pub fn since(&self, earlier: &MatchStats) -> MatchStats {
        MatchStats {
            attempts: self.attempts.saturating_sub(earlier.attempts),
            probes: self.probes.saturating_sub(earlier.probes),
            hits: self.hits.saturating_sub(earlier.hits),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }

    /// Component-wise sum (merging phases of an [`AdaptiveStore`], or a
    /// store's totals with those of the stores it replaced).
    pub fn plus(&self, other: &MatchStats) -> MatchStats {
        MatchStats {
            attempts: self.attempts + other.attempts,
            probes: self.probes + other.probes,
            hits: self.hits + other.hits,
            cache_hits: self.cache_hits + other.cache_hits,
        }
    }
}

/// Interior-mutability accumulator for [`MatchStats`], so the read-side
/// operations (`read`, `contains`, `count`, `read_all` — all `&self`) can
/// account their probes too. `Cell` keeps the hot path to a plain load +
/// store; stores are only ever reached behind a `Mutex` (`LocalSpace`,
/// the kernel), so the non-`Sync` cell never sees concurrent access.
#[derive(Debug, Default, Clone)]
struct MatchCounters {
    attempts: Cell<u64>,
    probes: Cell<u64>,
    hits: Cell<u64>,
    cache_hits: Cell<u64>,
}

impl MatchCounters {
    fn record(&self, probes: u64, hits: u64) {
        self.attempts.set(self.attempts.get() + 1);
        self.probes.set(self.probes.get() + probes);
        self.hits.set(self.hits.get() + hits);
    }

    /// A miss-cache hit is an attempt with zero probes — visible in the
    /// stats, cheap in the store.
    fn record_cache_hit(&self) {
        self.attempts.set(self.attempts.get() + 1);
        self.cache_hits.set(self.cache_hits.get() + 1);
    }

    fn stats(&self) -> MatchStats {
        MatchStats {
            attempts: self.attempts.get(),
            probes: self.probes.get(),
            hits: self.hits.get(),
            cache_hits: self.cache_hits.get(),
        }
    }
}

/// Occupancy of one tuple signature within a store: current count plus
/// the high-water mark since the store was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureOccupancy {
    /// The signature (arity + ordered field types).
    pub signature: Signature,
    /// Tuples of this signature currently stored.
    pub count: usize,
    /// Most tuples of this signature ever stored at once.
    pub high_water: usize,
}

/// Derived-state inventory of a store: how much acceleration structure
/// exists right now. Pure observability — never part of digests or
/// checkpoints (see the module docs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IndexReport {
    /// Value indexes currently live beyond the eager first-field index
    /// (i.e. lazily promoted positions, summed over signature buckets).
    pub value_indexes: usize,
    /// Cumulative count of index builds (lazy promotions) performed.
    pub index_builds: u64,
    /// Cumulative count of index demotions (churn-dominated indexes
    /// dropped by the demotion guard).
    pub index_demotions: u64,
    /// Patterns currently held in the miss cache.
    pub miss_cached: usize,
}

/// Minimal interface of a tuple store (single-threaded; the concurrent
/// wrapper lives in [`crate::LocalSpace`]).
pub trait Store {
    /// Deposit a tuple.
    fn insert(&mut self, t: Tuple);
    /// Withdraw the oldest tuple matching `p`, if any.
    fn take(&mut self, p: &Pattern) -> Option<Tuple>;
    /// Read (copy) the oldest tuple matching `p`, if any.
    fn read(&self, p: &Pattern) -> Option<Tuple>;
    /// Whether any tuple matches `p`.
    fn contains(&self, p: &Pattern) -> bool {
        self.read(p).is_some()
    }
    /// Number of tuples matching `p`.
    fn count(&self, p: &Pattern) -> usize;
    /// Withdraw *all* tuples matching `p`, oldest first (the `move` AGS op).
    fn take_all(&mut self, p: &Pattern) -> Vec<Tuple>;
    /// Copy all tuples matching `p`, oldest first (the `copy` AGS op).
    fn read_all(&self, p: &Pattern) -> Vec<Tuple>;
    /// Total number of stored tuples.
    fn len(&self) -> usize;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Remove everything.
    fn clear(&mut self);
    /// Snapshot of all tuples in insertion order (for checkpointing and
    /// state transfer to recovering replicas).
    fn snapshot(&self) -> Vec<Tuple>;
    /// Cumulative matching-cost totals (attempts / probes / hits) since
    /// the store was created. Pure observability: never part of replica
    /// digests or checkpoints.
    fn match_stats(&self) -> MatchStats;
    /// Per-signature occupancy with high-water marks, sorted by
    /// signature. Entries whose count dropped to 0 are retained (their
    /// high-water mark is still informative); `clear` resets everything.
    fn signature_census(&self) -> Vec<SignatureOccupancy>;
    /// Tuples currently stored under the signature with this stable hash
    /// (the "nearest miss" count for a guard that keeps not matching).
    fn signature_len(&self, sig_hash: u64) -> usize;
    /// Inventory of derived acceleration structures. Stores without any
    /// (the linear baseline) report zeros.
    fn index_report(&self) -> IndexReport {
        IndexReport::default()
    }
}

/// Secondary index within one bucket: values at a fixed field position →
/// insertion seqs holding that value there.
///
/// `maintenance` and `served` drive the demotion decision: every
/// insert/remove that updates the index is one maintenance op, and every
/// match attempt the index answered (either by supplying candidates or
/// by proving zero candidates exist) is one serve. When upkeep far
/// outruns serves the index is costing more than it saves — see
/// [`Bucket::maybe_demote`]. Both are derived state, like the index
/// itself.
#[derive(Debug, Clone)]
struct ValueIndex {
    pos: usize,
    map: HashMap<Value, BTreeSet<u64>>,
    maintenance: Cell<u64>,
    served: Cell<u64>,
}

impl ValueIndex {
    fn empty(pos: usize) -> Self {
        ValueIndex {
            pos,
            map: HashMap::new(),
            maintenance: Cell::new(0),
            served: Cell::new(0),
        }
    }
}

/// Candidate source chosen for one match attempt.
enum Cands<'a> {
    /// No index applies (no constant field is indexed): scan the bucket.
    Scan,
    /// An index applies and proves zero candidates exist.
    Empty,
    /// Seqs from the most selective applicable index, ascending.
    Set(&'a BTreeSet<u64>),
}

/// Pick the most selective applicable index for `p`: among indexes whose
/// position carries a constant in the pattern, the one with the fewest
/// candidate seqs. An absent key is a proof of zero candidates. The
/// chosen index (including one that proves emptiness) gets a serve
/// credit toward its demotion accounting.
fn best_candidates<'a>(indexes: &'a [ValueIndex], p: &Pattern) -> Cands<'a> {
    let mut best: Option<(&'a ValueIndex, &'a BTreeSet<u64>)> = None;
    let mut applicable = false;
    for ix in indexes {
        let Some(PatField::Actual(v)) = p.fields().get(ix.pos) else {
            continue;
        };
        applicable = true;
        match ix.map.get(v) {
            None => {
                ix.served.set(ix.served.get() + 1);
                return Cands::Empty;
            }
            Some(set) => {
                if best.is_none_or(|(_, b)| set.len() < b.len()) {
                    best = Some((ix, set));
                }
            }
        }
    }
    match (applicable, best) {
        (false, _) => Cands::Scan,
        (true, None) => Cands::Empty,
        (true, Some((ix, set))) => {
            ix.served.set(ix.served.get() + 1);
            Cands::Set(set)
        }
    }
}

/// One signature bucket of the [`IndexedStore`].
///
/// `indexes` lives in a `RefCell` because promotion happens on the
/// read-side (`&self`) match paths; the store itself is only ever used
/// behind a `Mutex`, so the cell never sees concurrent access. A dropped
/// (emptied) bucket loses its promoted indexes — they are rebuilt on
/// demand if the signature gets hot again.
#[derive(Debug, Clone)]
struct Bucket {
    /// Insertion-ordered entries (key = global insertion sequence).
    entries: BTreeMap<u64, Tuple>,
    /// Value indexes; position 0 (the head index) is always present.
    indexes: RefCell<Vec<ValueIndex>>,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            entries: BTreeMap::new(),
            indexes: RefCell::new(vec![ValueIndex::empty(0)]),
        }
    }
}

impl Bucket {
    /// Insert under `seq`. Returns `true` if the sequence number was
    /// fresh. A duplicate seq would silently shadow the older tuple in
    /// `entries` while leaving stale index entries behind, so callers
    /// must treat `false` as a contract violation (see `insert_tracked`
    /// / `restore_at`).
    fn insert(&mut self, seq: u64, t: Tuple) -> bool {
        if self.entries.contains_key(&seq) {
            return false;
        }
        for ix in self.indexes.get_mut().iter_mut() {
            if let Some(v) = t.get(ix.pos) {
                ix.map.entry(v.clone()).or_default().insert(seq);
                ix.maintenance.set(ix.maintenance.get() + 1);
            }
        }
        self.entries.insert(seq, t);
        true
    }

    fn remove(&mut self, seq: u64) -> Option<Tuple> {
        let t = self.entries.remove(&seq)?;
        for ix in self.indexes.get_mut().iter_mut() {
            if let Some(v) = t.get(ix.pos) {
                if let Some(set) = ix.map.get_mut(v) {
                    set.remove(&seq);
                    if set.is_empty() {
                        ix.map.remove(v);
                    }
                    ix.maintenance.set(ix.maintenance.get() + 1);
                }
            }
        }
        Some(t)
    }

    /// Oldest matching seq plus the number of tuples examined. An
    /// expensive attempt promotes indexes for the pattern's constant
    /// fields before returning (so the *next* attempt is cheap).
    fn find_first(&self, p: &Pattern, cfg: &StoreConfig, builds: &Cell<u64>) -> (Option<u64>, u64) {
        let mut probes = 0u64;
        let found = {
            let indexes = self.indexes.borrow();
            match best_candidates(&indexes, p) {
                Cands::Empty => None,
                Cands::Set(set) => set.iter().copied().find(|seq| {
                    probes += 1;
                    p.matches(&self.entries[seq])
                }),
                Cands::Scan => self.entries.keys().copied().find(|seq| {
                    probes += 1;
                    p.matches(&self.entries[seq])
                }),
            }
        };
        self.maybe_promote(p, probes, cfg, builds);
        (found, probes)
    }

    /// All matching seqs (oldest first) plus the number examined.
    fn find_all(&self, p: &Pattern, cfg: &StoreConfig, builds: &Cell<u64>) -> (Vec<u64>, u64) {
        let mut probes = 0u64;
        let found: Vec<u64> = {
            let indexes = self.indexes.borrow();
            match best_candidates(&indexes, p) {
                Cands::Empty => Vec::new(),
                Cands::Set(set) => set
                    .iter()
                    .copied()
                    .filter(|seq| {
                        probes += 1;
                        p.matches(&self.entries[seq])
                    })
                    .collect(),
                Cands::Scan => self
                    .entries
                    .keys()
                    .copied()
                    .filter(|seq| {
                        probes += 1;
                        p.matches(&self.entries[seq])
                    })
                    .collect(),
            }
        };
        self.maybe_promote(p, probes, cfg, builds);
        (found, probes)
    }

    /// Lazy index promotion: after an attempt that examined more than
    /// `promote_after_probes` tuples in a bucket of promotable size,
    /// build value indexes for the pattern's constant positions (up to
    /// `max_value_indexes` per bucket, head index included).
    fn maybe_promote(&self, p: &Pattern, probes: u64, cfg: &StoreConfig, builds: &Cell<u64>) {
        if probes <= cfg.promote_after_probes || self.entries.len() < cfg.promote_min_tuples {
            return;
        }
        let mut indexes = self.indexes.borrow_mut();
        for (pos, field) in p.fields().iter().enumerate() {
            if indexes.len() >= cfg.max_value_indexes {
                break;
            }
            if !matches!(field, PatField::Actual(_)) || indexes.iter().any(|ix| ix.pos == pos) {
                continue;
            }
            let mut ix = ValueIndex::empty(pos);
            for (seq, t) in &self.entries {
                if let Some(v) = t.get(pos) {
                    ix.map.entry(v.clone()).or_default().insert(*seq);
                }
            }
            indexes.push(ix);
            builds.set(builds.get() + 1);
        }
    }

    /// Demotion guard, the inverse of [`Bucket::maybe_promote`]: a
    /// promoted index whose upkeep has far outrun the attempts it served
    /// (`DEMOTE_COST_RATIO` maintenance ops per serve, after a warm-up
    /// floor scaled from `promote_min_tuples`) is costing more than it
    /// saves on this churn-heavy bucket. The coldest such index (fewest
    /// serves) is dropped; the eager head index is never demoted. A
    /// demoted position can re-promote later if the access pattern turns
    /// around — it restarts with fresh accounting, and the warm-up floor
    /// keeps the cycle amortized.
    fn maybe_demote(&mut self, cfg: &StoreConfig, demotions: &Cell<u64>) {
        let warmup = (cfg.promote_min_tuples as u64).saturating_mul(4);
        let indexes = self.indexes.get_mut();
        let victim = indexes
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.pos != 0)
            .filter(|(_, ix)| {
                let m = ix.maintenance.get();
                m >= warmup && m > DEMOTE_COST_RATIO * ix.served.get()
            })
            .min_by_key(|(_, ix)| ix.served.get())
            .map(|(i, _)| i);
        if let Some(i) = victim {
            indexes.remove(i);
            demotions.set(demotions.get() + 1);
        }
    }

    fn promoted_indexes(&self) -> usize {
        self.indexes.borrow().len().saturating_sub(1)
    }
}

/// Maintenance ops a promoted index may spend per attempt it serves
/// before the demotion guard drops it (see [`Bucket::maybe_demote`]).
const DEMOTE_COST_RATIO: u64 = 8;

/// Antituple (miss) cache: patterns recently observed to match nothing.
///
/// Keyed by `(signature hash, head actual)` so an insert only has to
/// check two keys — a pattern whose head is the constant `h` can never
/// match a tuple whose head differs from `h`, and patterns without a
/// constant head live under `None`. Removals never create matches, so
/// only inserts invalidate. Epoch eviction (drop everything at the cap)
/// keeps the structure trivially correct: a forgotten miss just costs
/// one re-probe.
#[derive(Debug, Default, Clone)]
struct MissCache {
    entries: RefCell<HashMap<MissKey, HashSet<Pattern>>>,
    len: Cell<usize>,
}

/// `(signature hash, constant head if any)` — see [`MissCache`].
type MissKey = (u64, Option<Value>);

impl MissCache {
    fn key(p: &Pattern) -> MissKey {
        (p.signature().stable_hash(), p.head_actual().cloned())
    }

    /// Whether `p` is cached as a known miss.
    fn contains(&self, p: &Pattern) -> bool {
        self.len.get() > 0
            && self
                .entries
                .borrow()
                .get(&Self::key(p))
                .is_some_and(|set| set.contains(p))
    }

    /// Record that `p` matched nothing. `cap == 0` disables caching.
    fn note_miss(&self, p: &Pattern, cap: usize) {
        if cap == 0 {
            return;
        }
        if self.len.get() >= cap {
            self.entries.borrow_mut().clear();
            self.len.set(0);
        }
        if self
            .entries
            .borrow_mut()
            .entry(Self::key(p))
            .or_default()
            .insert(p.clone())
        {
            self.len.set(self.len.get() + 1);
        }
    }

    /// Drop every cached pattern the inserted tuple `t` (of signature
    /// hash `sig_hash`) could satisfy. Only the tuple's own head key and
    /// the headless key can hold such patterns.
    fn invalidate(&self, sig_hash: u64, t: &Tuple) {
        if self.len.get() == 0 {
            return;
        }
        let mut map = self.entries.borrow_mut();
        let mut keys = vec![(sig_hash, None)];
        if let Some(head) = t.get(0) {
            keys.push((sig_hash, Some(head.clone())));
        }
        for key in keys {
            if let Some(set) = map.get_mut(&key) {
                let before = set.len();
                set.retain(|p| !p.matches(t));
                self.len.set(self.len.get() - (before - set.len()));
                if set.is_empty() {
                    map.remove(&key);
                }
            }
        }
    }

    fn clear(&self) {
        self.entries.borrow_mut().clear();
        self.len.set(0);
    }

    fn len(&self) -> usize {
        self.len.get()
    }
}

/// Signature-indexed tuple store with adaptive value-level secondary
/// indexes and an antituple (miss) cache.
#[derive(Debug, Default, Clone)]
pub struct IndexedStore {
    buckets: StableMap<u64, Bucket>,
    next_seq: u64,
    len: usize,
    /// Signature-hash → occupancy. Kept separate from `buckets` because
    /// emptied buckets are removed, while a census entry must survive at
    /// count 0 to preserve its high-water mark.
    census: StableMap<u64, SignatureOccupancy>,
    matches: MatchCounters,
    cfg: StoreConfig,
    miss_cache: MissCache,
    index_builds: Cell<u64>,
    index_demotions: Cell<u64>,
}

impl IndexedStore {
    /// An empty store with the default [`StoreConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with explicit tuning knobs.
    pub fn with_config(cfg: StoreConfig) -> Self {
        IndexedStore {
            cfg,
            ..Self::default()
        }
    }

    fn bucket_for_pattern(&self, p: &Pattern) -> Option<&Bucket> {
        self.buckets.get(&p.signature().stable_hash())
    }

    /// Replica digest of the stored tuples: XOR over signature buckets
    /// of H(signature hash, the bucket's tuples oldest first, count).
    /// Every pattern matches within one bucket, so the interleaving of
    /// insertions across buckets cannot be observed and does not count;
    /// the withdraw order inside each bucket does. Buckets are disjoint
    /// across shards, so the XOR of every shard's digest equals the
    /// digest of the unsharded store. An empty store digests to 0.
    pub fn digest(&self) -> u64 {
        self.buckets.iter().fold(0, |acc, (sig, bucket)| {
            let mut h = linda_tuple::StableHasher::default();
            h.write_u64(*sig);
            for t in bucket.entries.values() {
                t.hash(&mut h);
            }
            h.write_u64(0x5eed ^ bucket.entries.len() as u64);
            acc ^ h.finish()
        })
    }

    /// Shared insert path: miss-cache invalidation, bucket insert, and
    /// len/census bookkeeping. Every way a tuple can (re)enter the store
    /// — `insert`, `insert_tracked`, and the `restore_at` undo — funnels
    /// through here, so no path can leave a stale cached miss behind.
    /// Returns whether `seq` was fresh (see `Bucket::insert`).
    fn insert_at(&mut self, seq: u64, t: Tuple) -> bool {
        let sig = t.signature();
        let key = sig.stable_hash();
        let cfg = self.cfg;
        self.miss_cache.invalidate(key, &t);
        let bucket = self.buckets.entry(key).or_default();
        let fresh = bucket.insert(seq, t);
        bucket.maybe_demote(&cfg, &self.index_demotions);
        if fresh {
            self.len += 1;
            let entry = self
                .census
                .entry(key)
                .or_insert_with(|| SignatureOccupancy {
                    signature: sig,
                    count: 0,
                    high_water: 0,
                });
            entry.count += 1;
            entry.high_water = entry.high_water.max(entry.count);
        }
        fresh
    }

    fn census_remove(&mut self, key: u64, n: usize) {
        if n > 0 {
            if let Some(e) = self.census.get_mut(&key) {
                e.count = e.count.saturating_sub(n);
            }
        }
    }

    // ----- tracked operations -------------------------------------------
    //
    // The AGS execution engine needs *exact* rollback: an aborted atomic
    // guarded statement must leave the store bit-identical (including
    // tuple age/insertion order) at every replica. These inherent methods
    // expose the internal sequence number so an undo log can restore a
    // withdrawn tuple at its original position.

    /// Insert and return the internal insertion sequence (for undo).
    pub fn insert_tracked(&mut self, t: Tuple) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fresh = self.insert_at(seq, t);
        debug_assert!(fresh, "insert_tracked allocated a duplicate seq {seq}");
        seq
    }

    /// Withdraw the oldest match together with its sequence number.
    pub fn take_tracked(&mut self, p: &Pattern) -> Option<(u64, Tuple)> {
        if self.miss_cache.contains(p) {
            self.matches.record_cache_hit();
            return None;
        }
        let key = p.signature().stable_hash();
        let cfg = self.cfg;
        let Some(bucket) = self.buckets.get_mut(&key) else {
            self.matches.record(0, 0);
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return None;
        };
        let (found, probes) = bucket.find_first(p, &cfg, &self.index_builds);
        self.matches.record(probes, found.is_some() as u64);
        let Some(seq) = found else {
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return None;
        };
        let t = bucket.remove(seq)?;
        bucket.maybe_demote(&cfg, &self.index_demotions);
        self.len -= 1;
        if bucket.entries.is_empty() {
            self.buckets.remove(&key);
        }
        self.census_remove(key, 1);
        Some((seq, t))
    }

    /// Withdraw all matches together with their sequence numbers.
    pub fn take_all_tracked(&mut self, p: &Pattern) -> Vec<(u64, Tuple)> {
        if self.miss_cache.contains(p) {
            self.matches.record_cache_hit();
            return Vec::new();
        }
        let key = p.signature().stable_hash();
        let cfg = self.cfg;
        let Some(bucket) = self.buckets.get_mut(&key) else {
            self.matches.record(0, 0);
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return Vec::new();
        };
        let (seqs, probes) = bucket.find_all(p, &cfg, &self.index_builds);
        self.matches.record(probes, seqs.len() as u64);
        if seqs.is_empty() {
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return Vec::new();
        }
        let out: Vec<(u64, Tuple)> = seqs
            .into_iter()
            .filter_map(|seq| bucket.remove(seq).map(|t| (seq, t)))
            .collect();
        bucket.maybe_demote(&cfg, &self.index_demotions);
        self.len -= out.len();
        if bucket.entries.is_empty() {
            self.buckets.remove(&key);
        }
        self.census_remove(key, out.len());
        out
    }

    /// Remove the tuple inserted under `seq` (undo of `insert_tracked`).
    pub fn remove_at(&mut self, seq: u64, sig_hash: u64) -> Option<Tuple> {
        let cfg = self.cfg;
        let bucket = self.buckets.get_mut(&sig_hash)?;
        let t = bucket.remove(seq)?;
        bucket.maybe_demote(&cfg, &self.index_demotions);
        self.len -= 1;
        if bucket.entries.is_empty() {
            self.buckets.remove(&sig_hash);
        }
        self.census_remove(sig_hash, 1);
        Some(t)
    }

    /// Withdraw *every* tuple stored under the signature with this
    /// stable hash, oldest first — the whole-bucket handoff used when a
    /// cross-shard AGS temporarily moves a signature to another replica
    /// group. Derived state for the signature (value indexes, promotion
    /// history) leaves with the bucket; cached misses stay correct
    /// because a removal can never create a match, and re-installing the
    /// tuples later funnels through `insert`, which invalidates.
    pub fn checkout_signature(&mut self, sig_hash: u64) -> Vec<Tuple> {
        let Some(bucket) = self.buckets.remove(&sig_hash) else {
            return Vec::new();
        };
        let out: Vec<Tuple> = bucket.entries.into_values().collect();
        self.len -= out.len();
        self.census_remove(sig_hash, out.len());
        out
    }

    /// Re-insert a tuple at its original sequence position (undo of
    /// `take_tracked`), restoring its age exactly. Invalidates any
    /// cached miss the restored tuple satisfies (via `insert_at`).
    ///
    /// # Contract
    ///
    /// `seq` must not currently be occupied — it must come from a
    /// preceding `take_tracked`/`take_all_tracked` on this store. A
    /// duplicate seq used to *silently overwrite* the resident tuple
    /// (corrupting `len` and leaving a stale head-index entry); it is now
    /// rejected: the store is left unchanged, `false` is returned, and
    /// debug builds panic.
    pub fn restore_at(&mut self, seq: u64, t: Tuple) -> bool {
        let fresh = self.insert_at(seq, t);
        debug_assert!(fresh, "restore_at seq {seq} is already occupied");
        fresh
    }
}

impl Store for IndexedStore {
    fn insert(&mut self, t: Tuple) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fresh = self.insert_at(seq, t);
        debug_assert!(fresh, "insert allocated a duplicate seq {seq}");
    }

    fn take(&mut self, p: &Pattern) -> Option<Tuple> {
        self.take_tracked(p).map(|(_, t)| t)
    }

    fn read(&self, p: &Pattern) -> Option<Tuple> {
        if self.miss_cache.contains(p) {
            self.matches.record_cache_hit();
            return None;
        }
        let cfg = self.cfg;
        let Some(bucket) = self.bucket_for_pattern(p) else {
            self.matches.record(0, 0);
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return None;
        };
        let (found, probes) = bucket.find_first(p, &cfg, &self.index_builds);
        self.matches.record(probes, found.is_some() as u64);
        if found.is_none() {
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
        }
        found.map(|seq| bucket.entries[&seq].clone())
    }

    fn count(&self, p: &Pattern) -> usize {
        if self.miss_cache.contains(p) {
            self.matches.record_cache_hit();
            return 0;
        }
        let cfg = self.cfg;
        let Some(bucket) = self.bucket_for_pattern(p) else {
            self.matches.record(0, 0);
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return 0;
        };
        let (found, probes) = bucket.find_all(p, &cfg, &self.index_builds);
        self.matches.record(probes, found.len() as u64);
        if found.is_empty() {
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
        }
        found.len()
    }

    fn take_all(&mut self, p: &Pattern) -> Vec<Tuple> {
        self.take_all_tracked(p)
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    fn read_all(&self, p: &Pattern) -> Vec<Tuple> {
        if self.miss_cache.contains(p) {
            self.matches.record_cache_hit();
            return Vec::new();
        }
        let cfg = self.cfg;
        let Some(bucket) = self.bucket_for_pattern(p) else {
            self.matches.record(0, 0);
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
            return Vec::new();
        };
        let (found, probes) = bucket.find_all(p, &cfg, &self.index_builds);
        self.matches.record(probes, found.len() as u64);
        if found.is_empty() {
            self.miss_cache.note_miss(p, cfg.miss_cache_cap);
        }
        found
            .into_iter()
            .map(|seq| bucket.entries[&seq].clone())
            .collect()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.buckets.clear();
        self.census.clear();
        self.miss_cache.clear();
        self.len = 0;
    }

    fn snapshot(&self) -> Vec<Tuple> {
        let mut all: Vec<(u64, &Tuple)> = self
            .buckets
            .values()
            .flat_map(|b| b.entries.iter().map(|(s, t)| (*s, t)))
            .collect();
        all.sort_unstable_by_key(|(s, _)| *s);
        all.into_iter().map(|(_, t)| t.clone()).collect()
    }

    fn match_stats(&self) -> MatchStats {
        self.matches.stats()
    }

    fn signature_census(&self) -> Vec<SignatureOccupancy> {
        let mut out: Vec<SignatureOccupancy> = self.census.values().cloned().collect();
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        out
    }

    fn signature_len(&self, sig_hash: u64) -> usize {
        self.census.get(&sig_hash).map_or(0, |e| e.count)
    }

    fn index_report(&self) -> IndexReport {
        IndexReport {
            value_indexes: self.buckets.values().map(Bucket::promoted_indexes).sum(),
            index_builds: self.index_builds.get(),
            index_demotions: self.index_demotions.get(),
            miss_cached: self.miss_cache.len(),
        }
    }
}

/// Baseline store: a flat insertion-ordered vector with linear scans.
/// Exists to quantify what signature indexing buys (ablation A2).
#[derive(Debug, Default, Clone)]
pub struct LinearStore {
    entries: Vec<(u64, Tuple)>,
    next_seq: u64,
    census: StableMap<u64, SignatureOccupancy>,
    matches: MatchCounters,
}

impl LinearStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn census_insert(&mut self, sig: Signature) {
        let entry = self
            .census
            .entry(sig.stable_hash())
            .or_insert_with(|| SignatureOccupancy {
                signature: sig,
                count: 0,
                high_water: 0,
            });
        entry.count += 1;
        entry.high_water = entry.high_water.max(entry.count);
    }

    fn census_remove(&mut self, key: u64, n: usize) {
        if n > 0 {
            if let Some(e) = self.census.get_mut(&key) {
                e.count = e.count.saturating_sub(n);
            }
        }
    }
}

impl Store for LinearStore {
    fn insert(&mut self, t: Tuple) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.census_insert(t.signature());
        self.entries.push((seq, t));
    }

    fn take(&mut self, p: &Pattern) -> Option<Tuple> {
        let mut probes = 0u64;
        let idx = self.entries.iter().position(|(_, t)| {
            probes += 1;
            p.matches(t)
        });
        self.matches.record(probes, idx.is_some() as u64);
        let idx = idx?;
        let t = self.entries.remove(idx).1;
        self.census_remove(t.signature().stable_hash(), 1);
        Some(t)
    }

    fn read(&self, p: &Pattern) -> Option<Tuple> {
        let mut probes = 0u64;
        let found = self
            .entries
            .iter()
            .find(|(_, t)| {
                probes += 1;
                p.matches(t)
            })
            .map(|(_, t)| t.clone());
        self.matches.record(probes, found.is_some() as u64);
        found
    }

    fn count(&self, p: &Pattern) -> usize {
        let n = self.entries.iter().filter(|(_, t)| p.matches(t)).count();
        self.matches.record(self.entries.len() as u64, n as u64);
        n
    }

    fn take_all(&mut self, p: &Pattern) -> Vec<Tuple> {
        // Drain-partition: matches are moved out, non-matches moved back.
        // No tuple payload is ever cloned on this withdraw path.
        let probes = self.entries.len() as u64;
        let mut out = Vec::new();
        let mut kept = Vec::with_capacity(self.entries.len());
        for (seq, t) in self.entries.drain(..) {
            if p.matches(&t) {
                out.push(t);
            } else {
                kept.push((seq, t));
            }
        }
        self.entries = kept;
        self.matches.record(probes, out.len() as u64);
        self.census_remove(p.signature().stable_hash(), out.len());
        out
    }

    fn read_all(&self, p: &Pattern) -> Vec<Tuple> {
        let out: Vec<Tuple> = self
            .entries
            .iter()
            .filter(|(_, t)| p.matches(t))
            .map(|(_, t)| t.clone())
            .collect();
        self.matches
            .record(self.entries.len() as u64, out.len() as u64);
        out
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.census.clear();
    }

    fn snapshot(&self) -> Vec<Tuple> {
        self.entries.iter().map(|(_, t)| t.clone()).collect()
    }

    fn match_stats(&self) -> MatchStats {
        self.matches.stats()
    }

    fn signature_census(&self) -> Vec<SignatureOccupancy> {
        let mut out: Vec<SignatureOccupancy> = self.census.values().cloned().collect();
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        out
    }

    fn signature_len(&self, sig_hash: u64) -> usize {
        self.census.get(&sig_hash).map_or(0, |e| e.count)
    }
}

/// Backing representation of an [`AdaptiveStore`].
#[derive(Debug, Clone)]
enum AdaptiveInner {
    Linear(LinearStore),
    Indexed(IndexedStore),
}

/// A store that starts as a cheap linear scan and promotes itself to the
/// indexed representation when the live probe-efficiency figures say the
/// scan has become hot (the census/gauge data from the observatory PR,
/// finally consumed). Promotion replays the snapshot in insertion order,
/// so oldest-match results are identical before and after — the switch
/// is invisible to every caller except the probe counters.
///
/// There is no demotion: once a space has demonstrated it is hot, the
/// index maintenance cost is assumed to stay worth paying.
#[derive(Debug, Clone)]
pub struct AdaptiveStore {
    cfg: StoreConfig,
    inner: AdaptiveInner,
    /// Match totals accumulated by the linear phase, merged into
    /// [`Store::match_stats`] so monotonic-counter consumers never see a
    /// reset at promotion.
    base: MatchStats,
    /// Linear-phase census at promotion (high-water marks survive the
    /// replay, which would otherwise under-report drained signatures).
    carry: Vec<SignatureOccupancy>,
}

impl Default for AdaptiveStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveStore {
    /// An empty adaptive store with the default [`StoreConfig`].
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// An empty adaptive store with explicit tuning knobs.
    pub fn with_config(cfg: StoreConfig) -> Self {
        AdaptiveStore {
            cfg,
            inner: AdaptiveInner::Linear(LinearStore::new()),
            base: MatchStats::default(),
            carry: Vec::new(),
        }
    }

    /// Whether the store has promoted to the indexed representation.
    pub fn promoted(&self) -> bool {
        matches!(self.inner, AdaptiveInner::Indexed(_))
    }

    /// Re-evaluate the promotion decision. Called by [`crate::LocalSpace`]
    /// after match-shaped operations; promotes when the space is big
    /// enough and either a recent attempt scanned past
    /// `promote_after_probes` tuples on average, or sustained efficiency
    /// dropped below `promote_below_bp` basis points.
    pub fn tick(&mut self) {
        let AdaptiveInner::Linear(lin) = &self.inner else {
            return;
        };
        if lin.len() < self.cfg.promote_min_tuples {
            return;
        }
        let stats = lin.match_stats();
        let hot = stats.probes_per_attempt() > self.cfg.promote_after_probes as f64
            || (stats.attempts >= 16 && stats.efficiency_bp() < self.cfg.promote_below_bp);
        if !hot {
            return;
        }
        let mut idx = IndexedStore::with_config(self.cfg);
        for t in lin.snapshot() {
            idx.insert(t);
        }
        self.base = self.base.plus(&stats);
        self.carry = lin.signature_census();
        self.inner = AdaptiveInner::Indexed(idx);
    }

    fn as_store(&self) -> &dyn Store {
        match &self.inner {
            AdaptiveInner::Linear(s) => s,
            AdaptiveInner::Indexed(s) => s,
        }
    }

    fn as_store_mut(&mut self) -> &mut dyn Store {
        match &mut self.inner {
            AdaptiveInner::Linear(s) => s,
            AdaptiveInner::Indexed(s) => s,
        }
    }
}

impl Store for AdaptiveStore {
    fn insert(&mut self, t: Tuple) {
        self.as_store_mut().insert(t);
    }

    fn take(&mut self, p: &Pattern) -> Option<Tuple> {
        self.as_store_mut().take(p)
    }

    fn read(&self, p: &Pattern) -> Option<Tuple> {
        self.as_store().read(p)
    }

    fn count(&self, p: &Pattern) -> usize {
        self.as_store().count(p)
    }

    fn take_all(&mut self, p: &Pattern) -> Vec<Tuple> {
        self.as_store_mut().take_all(p)
    }

    fn read_all(&self, p: &Pattern) -> Vec<Tuple> {
        self.as_store().read_all(p)
    }

    fn len(&self) -> usize {
        self.as_store().len()
    }

    fn clear(&mut self) {
        // The census contract says `clear` resets occupancy history, so
        // the carried linear-phase high-water marks go too. Match totals
        // survive (they are "since the store was created", like the
        // underlying stores' own counters).
        self.carry.clear();
        self.as_store_mut().clear();
    }

    fn snapshot(&self) -> Vec<Tuple> {
        self.as_store().snapshot()
    }

    fn match_stats(&self) -> MatchStats {
        self.base.plus(&self.as_store().match_stats())
    }

    fn signature_census(&self) -> Vec<SignatureOccupancy> {
        let mut out = self.as_store().signature_census();
        for carried in &self.carry {
            match out.iter_mut().find(|o| o.signature == carried.signature) {
                Some(o) => o.high_water = o.high_water.max(carried.high_water),
                // Signatures drained before promotion are absent from the
                // replayed store; keep their history at count 0.
                None => out.push(SignatureOccupancy {
                    signature: carried.signature.clone(),
                    count: 0,
                    high_water: carried.high_water,
                }),
            }
        }
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        out
    }

    fn signature_len(&self, sig_hash: u64) -> usize {
        self.as_store().signature_len(sig_hash)
    }

    fn index_report(&self) -> IndexReport {
        self.as_store().index_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linda_tuple::{pat, tuple};

    fn stores() -> Vec<Box<dyn Store>> {
        vec![
            Box::new(IndexedStore::new()),
            Box::new(LinearStore::new()),
            Box::new(AdaptiveStore::new()),
        ]
    }

    #[test]
    fn insert_take_roundtrip() {
        for mut s in stores() {
            s.insert(tuple!("a", 1));
            assert_eq!(s.len(), 1);
            assert_eq!(s.take(&pat!("a", ?int)), Some(tuple!("a", 1)));
            assert_eq!(s.len(), 0);
            assert!(s.is_empty());
            assert_eq!(s.take(&pat!("a", ?int)), None);
        }
    }

    #[test]
    fn oldest_match_fifo() {
        for mut s in stores() {
            s.insert(tuple!("t", 1));
            s.insert(tuple!("t", 2));
            s.insert(tuple!("t", 3));
            assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 1)));
            assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 2)));
            assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 3)));
        }
    }

    #[test]
    fn oldest_match_skips_nonmatching_newer_head() {
        for mut s in stores() {
            s.insert(tuple!("x", 1));
            s.insert(tuple!("y", 2));
            s.insert(tuple!("x", 3));
            // Head-indexed path: pattern with head actual "y".
            assert_eq!(s.take(&pat!("y", ?int)), Some(tuple!("y", 2)));
            // Generic path: all-formal pattern sees oldest overall.
            assert_eq!(s.take(&pat!(?str, ?int)), Some(tuple!("x", 1)));
            assert_eq!(s.take(&pat!(?str, ?int)), Some(tuple!("x", 3)));
        }
    }

    #[test]
    fn read_does_not_remove() {
        for mut s in stores() {
            s.insert(tuple!("a", 1));
            assert_eq!(s.read(&pat!("a", ?int)), Some(tuple!("a", 1)));
            assert_eq!(s.len(), 1);
            assert!(s.contains(&pat!("a", ?int)));
            assert!(!s.contains(&pat!("b", ?int)));
        }
    }

    #[test]
    fn count_and_read_all() {
        for mut s in stores() {
            for i in 0..5 {
                s.insert(tuple!("n", i));
            }
            s.insert(tuple!("other", 1.0));
            assert_eq!(s.count(&pat!("n", ?int)), 5);
            assert_eq!(s.count(&pat!("n", 3)), 1);
            assert_eq!(s.count(&pat!("zzz", ?int)), 0);
            let all = s.read_all(&pat!("n", ?int));
            assert_eq!(all.len(), 5);
            assert_eq!(all[0], tuple!("n", 0));
            assert_eq!(all[4], tuple!("n", 4));
            assert_eq!(s.len(), 6);
        }
    }

    #[test]
    fn take_all_removes_only_matches() {
        for mut s in stores() {
            for i in 0..4 {
                s.insert(tuple!("job", i));
            }
            s.insert(tuple!("done", 0));
            let taken = s.take_all(&pat!("job", ?int));
            assert_eq!(taken.len(), 4);
            assert_eq!(taken[0], tuple!("job", 0));
            assert_eq!(s.len(), 1);
            assert_eq!(s.take(&pat!("done", ?int)), Some(tuple!("done", 0)));
        }
    }

    #[test]
    fn signatures_do_not_cross_match() {
        for mut s in stores() {
            s.insert(tuple!("a", 1));
            s.insert(tuple!("a", 1.0));
            s.insert(tuple!("a", 1, 2));
            assert_eq!(s.take(&pat!("a", ?float)), Some(tuple!("a", 1.0)));
            assert_eq!(s.take(&pat!("a", ?int, ?int)), Some(tuple!("a", 1, 2)));
            assert_eq!(s.take(&pat!("a", ?int)), Some(tuple!("a", 1)));
        }
    }

    #[test]
    fn duplicate_tuples_are_a_multiset() {
        for mut s in stores() {
            s.insert(tuple!("dup"));
            s.insert(tuple!("dup"));
            assert_eq!(s.count(&pat!("dup")), 2);
            assert_eq!(s.take(&pat!("dup")), Some(tuple!("dup")));
            assert_eq!(s.count(&pat!("dup")), 1);
        }
    }

    #[test]
    fn empty_tuple_storage() {
        for mut s in stores() {
            s.insert(tuple!());
            assert_eq!(s.take(&pat!()), Some(tuple!()));
        }
    }

    #[test]
    fn snapshot_preserves_insertion_order() {
        for mut s in stores() {
            s.insert(tuple!("b", 2));
            s.insert(tuple!("a", 1));
            s.insert(tuple!("c", 3.0));
            assert_eq!(
                s.snapshot(),
                vec![tuple!("b", 2), tuple!("a", 1), tuple!("c", 3.0)]
            );
        }
    }

    #[test]
    fn clear_empties() {
        for mut s in stores() {
            s.insert(tuple!(1));
            s.insert(tuple!(2));
            s.clear();
            assert_eq!(s.len(), 0);
            assert_eq!(s.take(&pat!(?int)), None);
        }
    }

    #[test]
    fn head_index_cleanup_after_removal() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("k", 1));
        assert_eq!(s.take(&pat!("k", ?int)), Some(tuple!("k", 1)));
        // Bucket is gone; reinsert works and matches again.
        s.insert(tuple!("k", 2));
        assert_eq!(s.read(&pat!("k", ?int)), Some(tuple!("k", 2)));
    }

    #[test]
    fn mid_pattern_actuals_filter() {
        for mut s in stores() {
            s.insert(tuple!("p", 1, "x"));
            s.insert(tuple!("p", 2, "y"));
            assert_eq!(s.take(&pat!("p", ?int, "y")), Some(tuple!("p", 2, "y")));
        }
    }

    #[test]
    fn signature_census_counts_and_high_water() {
        for mut s in stores() {
            for i in 0..3 {
                s.insert(tuple!("job", i));
            }
            s.insert(tuple!("flag"));
            let census = s.signature_census();
            assert_eq!(census.len(), 2);
            let job = census
                .iter()
                .find(|c| c.signature.to_string() == "<str,int>")
                .unwrap();
            assert_eq!((job.count, job.high_water), (3, 3));
            // Draining below the high-water mark keeps the mark.
            s.take(&pat!("job", ?int));
            s.take(&pat!("job", ?int));
            let job_hash = tuple!("job", 0).signature().stable_hash();
            assert_eq!(s.signature_len(job_hash), 1);
            let census = s.signature_census();
            let job = census
                .iter()
                .find(|c| c.signature.to_string() == "<str,int>")
                .unwrap();
            assert_eq!((job.count, job.high_water), (1, 3));
            // take_all empties the signature but the census entry stays.
            s.take_all(&pat!("job", ?int));
            assert_eq!(s.signature_len(job_hash), 0);
            let census = s.signature_census();
            let job = census
                .iter()
                .find(|c| c.signature.to_string() == "<str,int>")
                .unwrap();
            assert_eq!((job.count, job.high_water), (0, 3));
            // clear resets the census entirely.
            s.clear();
            assert!(s.signature_census().is_empty());
        }
    }

    #[test]
    fn census_tracks_tracked_undo_paths() {
        let mut s = IndexedStore::new();
        let sig = tuple!("t", 0).signature().stable_hash();
        let seq = s.insert_tracked(tuple!("t", 0));
        assert_eq!(s.signature_len(sig), 1);
        s.remove_at(seq, sig);
        assert_eq!(s.signature_len(sig), 0);
        s.insert(tuple!("t", 1));
        let (seq, t) = s.take_tracked(&pat!("t", ?int)).unwrap();
        assert_eq!(s.signature_len(sig), 0);
        s.restore_at(seq, t);
        assert_eq!(s.signature_len(sig), 1);
        let c = &s.signature_census()[0];
        assert_eq!((c.count, c.high_water), (1, 1), "undo is not a new peak");
    }

    #[test]
    fn match_stats_count_probes_and_hits() {
        // Indexed: miss on an absent signature costs zero probes.
        let s = IndexedStore::new();
        assert!(!s.contains(&pat!("nope", ?int)));
        let st = s.match_stats();
        assert_eq!((st.attempts, st.probes, st.hits), (1, 0, 0));

        // Linear: the same miss scans the whole store.
        let mut lin = LinearStore::new();
        for i in 0..5 {
            lin.insert(tuple!("job", i));
        }
        assert!(!lin.contains(&pat!("nope", ?int)));
        let st = lin.match_stats();
        assert_eq!((st.attempts, st.probes, st.hits), (1, 5, 0));
        assert_eq!(st.probes_per_attempt(), 5.0);
        assert_eq!(st.efficiency(), 0.0);

        // A successful head-indexed take probes exactly one tuple.
        let mut idx = IndexedStore::new();
        idx.insert(tuple!("a", 1));
        idx.insert(tuple!("b", 2));
        assert!(idx.take(&pat!("b", ?int)).is_some());
        let st = idx.match_stats();
        assert_eq!((st.attempts, st.probes, st.hits), (1, 1, 1));
        assert_eq!(st.efficiency(), 1.0);

        // Deltas for counter feeding.
        assert!(idx.take(&pat!("a", ?int)).is_some());
        let newer = idx.match_stats();
        assert_eq!(newer.since(&st).attempts, 1);
    }

    #[test]
    fn efficiency_basis_points() {
        let st = MatchStats {
            attempts: 1,
            probes: 1563,
            hits: 1,
            cache_hits: 0,
        };
        // Integer percent would floor this to 0; basis points keep it
        // distinguishable from idle.
        assert_eq!(st.efficiency_bp(), 6);
        let idle = MatchStats::default();
        assert_eq!(idle.efficiency_bp(), 10_000);
    }

    #[test]
    fn repeated_miss_is_cache_hit_with_zero_probes() {
        let mut s = IndexedStore::new();
        for i in 0..4 {
            s.insert(tuple!("job", i));
        }
        // First miss probes the bucket and seeds the cache.
        assert_eq!(s.take(&pat!("job", 99)), None);
        let st1 = s.match_stats();
        assert_eq!(st1.cache_hits, 0);
        assert!(st1.probes > 0);
        // Repeats are answered by the cache: attempt counted, zero probes.
        for _ in 0..3 {
            assert_eq!(s.take(&pat!("job", 99)), None);
        }
        assert!(!s.contains(&pat!("job", 99)));
        assert_eq!(s.count(&pat!("job", 99)), 0);
        assert!(s.read_all(&pat!("job", 99)).is_empty());
        assert!(s.take_all(&pat!("job", 99)).is_empty());
        let st2 = s.match_stats();
        let delta = st2.since(&st1);
        assert_eq!(delta.attempts, 7, "cache hits still count as attempts");
        assert_eq!(delta.probes, 0, "cache hits probe nothing");
        assert_eq!(delta.cache_hits, 7);
        assert_eq!(s.index_report().miss_cached, 1);
    }

    #[test]
    fn miss_cache_invalidated_only_by_matching_insert() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("job", 1));
        assert_eq!(s.take(&pat!("job", 0)), None); // cached miss
                                                   // Near misses — same signature, same head, different value — do
                                                   // NOT invalidate: the cached pattern still cannot match.
        s.insert(tuple!("job", 5));
        s.insert(tuple!("other", 0));
        let before = s.match_stats();
        assert_eq!(s.take(&pat!("job", 0)), None);
        let d = s.match_stats().since(&before);
        assert_eq!((d.probes, d.cache_hits), (0, 1), "near miss kept cache");
        // A genuinely matching insert invalidates; the take now succeeds.
        s.insert(tuple!("job", 0));
        assert_eq!(s.take(&pat!("job", 0)), Some(tuple!("job", 0)));
    }

    #[test]
    fn miss_cache_headless_pattern_invalidated() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("a", 1));
        let p = pat!(?str, 7);
        assert_eq!(s.read(&p), None);
        assert_eq!(s.index_report().miss_cached, 1);
        s.insert(tuple!("z", 7));
        assert_eq!(s.read(&p), Some(tuple!("z", 7)));
    }

    #[test]
    fn miss_cache_empty_tuple() {
        let mut s = IndexedStore::new();
        assert_eq!(s.take(&pat!()), None);
        assert_eq!(s.index_report().miss_cached, 1);
        s.insert(tuple!());
        assert_eq!(s.take(&pat!()), Some(tuple!()));
    }

    #[test]
    fn miss_cache_survives_unrelated_take_all() {
        let mut s = IndexedStore::new();
        for i in 0..3 {
            s.insert(tuple!("job", i));
        }
        assert_eq!(s.read(&pat!("job", 99)), None);
        // Withdrawals can never create a match; the cache entry stays and
        // stays correct.
        assert_eq!(s.take_all(&pat!("job", ?int)).len(), 3);
        let before = s.match_stats();
        assert_eq!(s.read(&pat!("job", 99)), None);
        assert_eq!(s.match_stats().since(&before).cache_hits, 1);
    }

    #[test]
    fn miss_cache_epoch_eviction_at_cap() {
        let mut s = IndexedStore::with_config(StoreConfig {
            miss_cache_cap: 2,
            ..StoreConfig::default()
        });
        assert_eq!(s.take(&pat!("a", 1)), None);
        assert_eq!(s.take(&pat!("a", 2)), None);
        assert_eq!(s.index_report().miss_cached, 2);
        // Third distinct miss crosses the cap: the whole epoch drops,
        // then the new miss is cached.
        assert_eq!(s.take(&pat!("a", 3)), None);
        assert_eq!(s.index_report().miss_cached, 1);
        // Evicted patterns are re-probed, not wrong.
        s.insert(tuple!("a", 1));
        assert_eq!(s.take(&pat!("a", 1)), Some(tuple!("a", 1)));
    }

    #[test]
    fn miss_cache_disabled_by_zero_cap() {
        let mut s = IndexedStore::with_config(StoreConfig {
            miss_cache_cap: 0,
            ..StoreConfig::default()
        });
        assert_eq!(s.take(&pat!("a", 1)), None);
        assert_eq!(s.take(&pat!("a", 1)), None);
        let st = s.match_stats();
        assert_eq!((st.cache_hits, s.index_report().miss_cached), (0, 0));
    }

    #[test]
    fn second_field_index_promotes_and_serves() {
        let cfg = StoreConfig {
            promote_min_tuples: 8,
            promote_after_probes: 4,
            ..StoreConfig::default()
        };
        let mut s = IndexedStore::with_config(cfg);
        for i in 0..64 {
            s.insert(tuple!("task", i, 0.5));
        }
        assert_eq!(s.index_report().value_indexes, 0);
        // All tuples share the head "task", so the head index is useless
        // here: the first attempt scans, crosses the promotion bar, and
        // builds a position-1 index.
        let before = s.match_stats();
        assert_eq!(
            s.read(&pat!("task", 63, ?float)),
            Some(tuple!("task", 63, 0.5))
        );
        let first = s.match_stats().since(&before);
        assert_eq!(first.probes, 64, "first attempt pays the scan");
        let rep = s.index_report();
        assert_eq!((rep.value_indexes, rep.index_builds), (1, 1));
        // Subsequent bound-second-field attempts are O(1).
        let before = s.match_stats();
        assert_eq!(
            s.read(&pat!("task", 17, ?float)),
            Some(tuple!("task", 17, 0.5))
        );
        assert_eq!(s.match_stats().since(&before).probes, 1);
        // A miss on an absent indexed value probes nothing at all.
        let before = s.match_stats();
        assert_eq!(s.read(&pat!("task", -1, ?float)), None);
        assert_eq!(s.match_stats().since(&before).probes, 0);
        // The index tracks withdrawals: taking by indexed value stays
        // oldest-match correct as entries disappear.
        assert_eq!(
            s.take(&pat!("task", 17, ?float)),
            Some(tuple!("task", 17, 0.5))
        );
        assert_eq!(s.take(&pat!("task", 17, ?float)), None);
        assert_eq!(s.len(), 63);
    }

    #[test]
    fn promotion_respects_max_value_indexes() {
        let cfg = StoreConfig {
            promote_min_tuples: 4,
            promote_after_probes: 1,
            max_value_indexes: 2,
            ..StoreConfig::default()
        };
        let mut s = IndexedStore::with_config(cfg);
        for i in 0..8 {
            s.insert(tuple!("t", i, i * 10, i * 100));
        }
        // This pattern has constants at positions 1, 2, 3 — but only one
        // slot remains beside the head index.
        s.read(&pat!("t", 3, 30, 300));
        let rep = s.index_report();
        assert_eq!(rep.value_indexes, 1, "cap is bucket-wide, head included");
    }

    #[test]
    fn small_buckets_never_promote() {
        let mut s = IndexedStore::new(); // promote_min_tuples = 32
        for i in 0..16 {
            s.insert(tuple!("t", i));
        }
        s.read(&pat!("t", 15)); // scans 16 > promote_after_probes
        assert_eq!(s.index_report().value_indexes, 0);
    }

    #[test]
    fn adaptive_store_promotes_when_hot() {
        let cfg = StoreConfig {
            promote_min_tuples: 16,
            promote_after_probes: 8,
            ..StoreConfig::default()
        };
        let mut s = AdaptiveStore::with_config(cfg);
        for i in 0..64 {
            s.insert(tuple!("n", i));
        }
        s.tick();
        assert!(!s.promoted(), "no match traffic yet");
        let pre_stats = s.match_stats();
        assert_eq!(s.read(&pat!("n", 63)), Some(tuple!("n", 63))); // 64-probe scan
        s.tick();
        assert!(s.promoted(), "expensive scan promotes");
        // Totals are monotonic across the switch.
        let post = s.match_stats();
        assert!(post.attempts > pre_stats.attempts);
        assert!(post.probes >= 64);
        // Results identical post-promotion; oldest-match preserved.
        assert_eq!(s.take(&pat!("n", ?int)), Some(tuple!("n", 0)));
        assert_eq!(s.take(&pat!("n", ?int)), Some(tuple!("n", 1)));
        assert_eq!(s.len(), 62);
    }

    #[test]
    fn adaptive_store_stays_linear_when_small() {
        let mut s = AdaptiveStore::new();
        for i in 0..8 {
            s.insert(tuple!("n", i));
        }
        for i in 0..32 {
            s.read(&pat!("n", i % 8));
        }
        s.tick();
        assert!(!s.promoted(), "below promote_min_tuples");
    }

    #[test]
    fn adaptive_census_survives_promotion() {
        let cfg = StoreConfig {
            promote_min_tuples: 4,
            promote_after_probes: 2,
            ..StoreConfig::default()
        };
        let mut s = AdaptiveStore::with_config(cfg);
        for i in 0..6 {
            s.insert(tuple!("peak", i));
        }
        for _ in 0..4 {
            s.take(&pat!("peak", ?int));
        }
        // Drain a whole signature before promotion.
        s.insert(tuple!("gone"));
        s.take(&pat!("gone"));
        // Force promotion via an expensive scan over a big-enough store.
        for i in 0..4 {
            s.insert(tuple!("x", i, i));
        }
        s.read(&pat!("x", 99, ?int));
        s.tick();
        assert!(s.promoted());
        let census = s.signature_census();
        let peak = census
            .iter()
            .find(|c| c.signature.to_string() == "<str,int>")
            .unwrap();
        assert_eq!(
            (peak.count, peak.high_water),
            (2, 6),
            "high-water carried across promotion"
        );
        let gone = census
            .iter()
            .find(|c| c.signature.to_string() == "<str>")
            .unwrap();
        assert_eq!((gone.count, gone.high_water), (0, 1));
    }

    #[test]
    fn indexed_and_linear_agree_on_random_workload() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut idx = IndexedStore::new();
        let mut lin = LinearStore::new();
        let heads = ["a", "b", "c"];
        for _ in 0..2000 {
            let op: u8 = rng.gen_range(0..4);
            let head = heads[rng.gen_range(0..heads.len())];
            let v: i64 = rng.gen_range(0..5);
            match op {
                0 => {
                    let t = tuple!(head, v);
                    idx.insert(t.clone());
                    lin.insert(t);
                }
                1 => {
                    let p = pat!(head, ?int);
                    assert_eq!(idx.take(&p), lin.take(&p));
                }
                2 => {
                    let p = pat!(head, v);
                    assert_eq!(idx.read(&p), lin.read(&p));
                }
                _ => {
                    let p = pat!(?str, v);
                    assert_eq!(idx.count(&p), lin.count(&p));
                }
            }
            assert_eq!(idx.len(), lin.len());
        }
        assert_eq!(idx.snapshot(), lin.snapshot());
    }
}

#[cfg(test)]
mod tracked_tests {
    use super::*;
    use linda_tuple::{pat, tuple};

    #[test]
    fn tracked_roundtrip_preserves_age() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("t", 1));
        s.insert(tuple!("t", 2));
        s.insert(tuple!("t", 3));
        // Withdraw the middle one by value, then restore it.
        let (seq, t) = s.take_tracked(&pat!("t", 2)).unwrap();
        assert_eq!(t, tuple!("t", 2));
        s.restore_at(seq, t);
        // Age order must be exactly as before the withdrawal.
        assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 1)));
        assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 2)));
        assert_eq!(s.take(&pat!("t", ?int)), Some(tuple!("t", 3)));
    }

    #[test]
    fn remove_at_undoes_insert() {
        let mut s = IndexedStore::new();
        let t = tuple!("x", 9);
        let sig = t.signature().stable_hash();
        let seq = s.insert_tracked(t);
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove_at(seq, sig), Some(tuple!("x", 9)));
        assert_eq!(s.len(), 0);
        assert_eq!(s.remove_at(seq, sig), None);
    }

    #[test]
    fn restore_at_rejects_occupied_seq() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("t", 1));
        let (seq, t) = s.take_tracked(&pat!("t", 1)).unwrap();
        assert!(s.restore_at(seq, t));
        // The slot is occupied again: a second restore at the same seq
        // must not overwrite it or corrupt `len`.
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.restore_at(seq, tuple!("t", 99))
        }));
        if cfg!(debug_assertions) {
            assert!(dup.is_err(), "debug builds panic on duplicate seq");
        } else {
            assert!(!dup.unwrap(), "release builds report the rejection");
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.read(&pat!("t", ?int)), Some(tuple!("t", 1)));
        assert_eq!(s.count(&pat!("t", 99)), 0, "duplicate must not land");
    }

    #[test]
    fn take_all_tracked_restores() {
        let mut s = IndexedStore::new();
        for i in 0..4 {
            s.insert(tuple!("job", i));
        }
        s.insert(tuple!("other"));
        let taken = s.take_all_tracked(&pat!("job", ?int));
        assert_eq!(taken.len(), 4);
        assert_eq!(s.len(), 1);
        for (seq, t) in taken {
            s.restore_at(seq, t);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.take(&pat!("job", 0)), Some(tuple!("job", 0)));
    }

    #[test]
    fn restore_at_invalidates_cached_miss() {
        // The AGS rollback path re-creates tuples: a miss cached while
        // the tuple was withdrawn must not survive its restoration.
        let mut s = IndexedStore::new();
        s.insert(tuple!("lock"));
        let (seq, t) = s.take_tracked(&pat!("lock")).unwrap();
        assert_eq!(s.read(&pat!("lock")), None); // cached
        s.restore_at(seq, t);
        assert_eq!(s.read(&pat!("lock")), Some(tuple!("lock")));
    }

    #[test]
    fn zero_miss_cache_cap_disables_caching() {
        // The default caches misses; a zero cap turns the cache off.
        let mut s = IndexedStore::with_config(StoreConfig {
            miss_cache_cap: 0,
            ..StoreConfig::default()
        });
        assert_eq!(s.take(&pat!("job", 1)), None);
        assert_eq!(s.take(&pat!("job", 1)), None);
        assert_eq!(s.match_stats().cache_hits, 0, "zero cap disabled caching");
        assert_eq!(s.index_report().miss_cached, 0);
        let mut s = IndexedStore::new();
        assert_eq!(s.take(&pat!("job", 1)), None);
        assert_eq!(s.take(&pat!("job", 1)), None);
        assert_eq!(s.match_stats().cache_hits, 1);
    }

    #[test]
    fn promote_min_tuples_gates_promotion() {
        // A raised promotion bar keeps a scan that would promote under
        // the default (promote_min_tuples = 32) from building an index.
        let scan = |mut s: IndexedStore| {
            for i in 0..64 {
                s.insert(tuple!("t", i, i));
            }
            s.read(&pat!("t", 63, ?int)); // 64-probe scan
            s.index_report().value_indexes
        };
        assert_eq!(scan(IndexedStore::new()), 1);
        let gated = IndexedStore::with_config(StoreConfig {
            promote_min_tuples: usize::MAX,
            ..StoreConfig::default()
        });
        assert_eq!(scan(gated), 0);
    }

    #[test]
    fn value_index_demotion_on_churn() {
        let cfg = StoreConfig {
            promote_min_tuples: 8,
            promote_after_probes: 4,
            ..StoreConfig::default()
        };
        let mut s = IndexedStore::with_config(cfg);
        for i in 0..64 {
            s.insert(tuple!("task", i, 0.5));
        }
        // All heads are equal, so this scan is expensive and promotes a
        // position-1 index.
        s.read(&pat!("task", 63, ?float));
        assert_eq!(s.index_report().value_indexes, 1);
        // Churn the bucket without ever binding position 1: the index
        // pays maintenance on every insert/remove and serves nothing.
        for i in 64..120 {
            s.insert(tuple!("task", i, 0.5));
            assert!(s.take(&pat!("task", ?int, ?float)).is_some());
        }
        let rep = s.index_report();
        assert_eq!(rep.value_indexes, 0, "churn-dominated index dropped");
        assert_eq!(rep.index_demotions, 1);
        // Matching is unaffected (demotion is derived state only).
        assert_eq!(
            s.read(&pat!("task", 100, ?float)),
            Some(tuple!("task", 100, 0.5))
        );
    }

    #[test]
    fn demotion_spares_a_serving_index() {
        let cfg = StoreConfig {
            promote_min_tuples: 8,
            promote_after_probes: 4,
            ..StoreConfig::default()
        };
        let mut s = IndexedStore::with_config(cfg);
        for i in 0..64 {
            s.insert(tuple!("task", i, 0.5));
        }
        s.read(&pat!("task", 63, ?float));
        assert_eq!(s.index_report().value_indexes, 1);
        // Same churn volume, but every cycle also *uses* the index: the
        // serve credits keep maintenance under the demotion ratio.
        for i in 64..120 {
            s.insert(tuple!("task", i, 0.5));
            assert!(s.take(&pat!("task", i, ?float)).is_some());
        }
        let rep = s.index_report();
        assert_eq!(rep.value_indexes, 1, "serving index survives churn");
        assert_eq!(rep.index_demotions, 0);
    }

    #[test]
    fn checkout_signature_moves_whole_bucket() {
        let mut s = IndexedStore::new();
        s.insert(tuple!("a", 1));
        s.insert(tuple!("b"));
        s.insert(tuple!("a", 2));
        s.insert(tuple!("a", 3));
        let sig = tuple!("a", 0).signature().stable_hash();
        let moved = s.checkout_signature(sig);
        assert_eq!(
            moved,
            vec![tuple!("a", 1), tuple!("a", 2), tuple!("a", 3)],
            "oldest first"
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.signature_len(sig), 0);
        assert_eq!(s.take(&pat!("a", ?int)), None);
        // Absent signature checks out as empty.
        assert!(s.checkout_signature(0xdead_beef).is_empty());
        // Re-install preserves relative age; a miss cached while the
        // bucket was away is invalidated by the re-insert.
        for t in moved {
            s.insert(t);
        }
        assert_eq!(s.take(&pat!("a", ?int)), Some(tuple!("a", 1)));
        assert_eq!(s.take(&pat!("a", ?int)), Some(tuple!("a", 2)));
        let census = s.signature_census();
        let a = census
            .iter()
            .find(|c| c.signature.to_string() == "<str,int>")
            .unwrap();
        assert_eq!(a.high_water, 3, "checkout keeps occupancy history");
    }

    #[test]
    fn tracked_ops_do_not_double_count() {
        // One tracked take = one attempt; the Store-trait wrappers add
        // nothing on top.
        let mut s = IndexedStore::new();
        s.insert(tuple!("t", 1));
        s.insert(tuple!("t", 2));
        let before = s.match_stats();
        assert!(s.take(&pat!("t", ?int)).is_some()); // via take_tracked
        let d = s.match_stats().since(&before);
        assert_eq!(d.attempts, 1);
        let before = s.match_stats();
        assert_eq!(s.take_all(&pat!("t", ?int)).len(), 1); // via take_all_tracked
        let d = s.match_stats().since(&before);
        assert_eq!(d.attempts, 1);
    }
}
