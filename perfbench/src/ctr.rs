//! Readings of the counters and histograms the program already exports:
//! the per-stage `ftlinda_*` histograms, `OrderStats`, `NetStats` and the
//! matching engine's `MatchStats`.

use crate::stats::growth;
use linda_obs::RegistrySnapshot;
use std::collections::BTreeMap;

/// Count and sum of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Sum of observations (seconds, or entries for `ftlinda_batch_size`).
    pub sum: f64,
}

impl Hist {
    fn of(snap: &RegistrySnapshot, name: &str) -> Hist {
        snap.histogram(name).map_or_else(Hist::default, |h| Hist {
            count: h.count(),
            sum: h.sum_seconds(),
        })
    }

    fn since(&self, before: &Hist) -> Hist {
        if self.count < before.count {
            return *self;
        }
        Hist {
            count: self.count - before.count,
            sum: self.sum - before.sum,
        }
    }

    fn add(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observation, scaled; 0 when empty.
    pub fn mean(&self, scale: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64 * scale
        }
    }
}

/// The instruments of one registry (one runtime incarnation or one
/// process) that the ledger reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Instruments {
    /// `ftlinda_ags_submit_seconds` (origin side).
    pub submit: Hist,
    /// `ftlinda_ags_order_seconds` (origin side).
    pub order: Hist,
    /// `ftlinda_ags_notify_seconds` (origin side).
    pub notify: Hist,
    /// `ftlinda_ags_total_seconds` (origin side).
    pub total: Hist,
    /// `ftlinda_ags_execute_seconds` (every replica).
    pub execute: Hist,
    /// `ftlinda_checkpoint_seconds` (every replica).
    pub checkpoint: Hist,
    /// `ftlinda_batch_flush_seconds` (coordinator).
    pub batch_flush: Hist,
    /// `ftlinda_batch_size` (coordinator; sums entries).
    pub batch_size: Hist,
    /// `ftlinda_blocked_retries_total{outcome="fired"}`: blocked AGSs woken
    /// and fired.
    pub wakeups: u64,
    /// `ftlinda_net_reconnects_total`, all links.
    pub reconnects: u64,
}

impl Instruments {
    /// Extract the ledger's instruments from a registry snapshot.
    pub fn of(snap: &RegistrySnapshot) -> Instruments {
        let family_sum = |name: &str, filter: &str| -> u64 {
            snap.counter_family(name).map_or(0, |c| {
                c.iter()
                    .filter(|(labels, _)| labels.contains(filter))
                    .map(|(_, v)| *v)
                    .sum()
            })
        };
        Instruments {
            submit: Hist::of(snap, "ftlinda_ags_submit_seconds"),
            order: Hist::of(snap, "ftlinda_ags_order_seconds"),
            notify: Hist::of(snap, "ftlinda_ags_notify_seconds"),
            total: Hist::of(snap, "ftlinda_ags_total_seconds"),
            execute: Hist::of(snap, "ftlinda_ags_execute_seconds"),
            checkpoint: Hist::of(snap, "ftlinda_checkpoint_seconds"),
            batch_flush: Hist::of(snap, "ftlinda_batch_flush_seconds"),
            batch_size: Hist::of(snap, "ftlinda_batch_size"),
            wakeups: family_sum("ftlinda_blocked_retries_total", "outcome=\"fired\""),
            reconnects: family_sum("ftlinda_net_reconnects_total", ""),
        }
    }

    fn since(&self, b: &Instruments) -> Instruments {
        Instruments {
            submit: self.submit.since(&b.submit),
            order: self.order.since(&b.order),
            notify: self.notify.since(&b.notify),
            total: self.total.since(&b.total),
            execute: self.execute.since(&b.execute),
            checkpoint: self.checkpoint.since(&b.checkpoint),
            batch_flush: self.batch_flush.since(&b.batch_flush),
            batch_size: self.batch_size.since(&b.batch_size),
            wakeups: growth(b.wakeups, self.wakeups),
            reconnects: growth(b.reconnects, self.reconnects),
        }
    }

    fn add(&mut self, o: &Instruments) {
        self.submit.add(&o.submit);
        self.order.add(&o.order);
        self.notify.add(&o.notify);
        self.total.add(&o.total);
        self.execute.add(&o.execute);
        self.checkpoint.add(&o.checkpoint);
        self.batch_flush.add(&o.batch_flush);
        self.batch_size.add(&o.batch_size);
        self.wakeups += o.wakeups;
        self.reconnects += o.reconnects;
    }
}

/// `OrderStats` counters, summed over every ordering group read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Order {
    /// Ordered multicasts issued by coordinators.
    pub multicasts: u64,
    /// Membership view changes.
    pub view_changes: u64,
    /// Retransmissions and resubmissions.
    pub retransmits: u64,
}

impl Order {
    /// Read one group's `OrderStats`.
    pub fn of(s: &consul_sim::OrderStats) -> Order {
        Order {
            multicasts: s.ordered_multicasts(),
            view_changes: s.view_changes(),
            retransmits: s.retransmits(),
        }
    }
}

/// The program's counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct CtrSample {
    /// Per registry (key names the runtime incarnation or process):
    /// whether the benchmark client submits through it, and its
    /// instruments. Origin-side histograms are read only from client
    /// registries, so a TCP pong server's own AGSs stay out of the
    /// client's stage means.
    pub sources: BTreeMap<String, (bool, Instruments)>,
    /// Ordering-layer counters.
    pub order: Order,
    /// Transport messages and bytes sent.
    pub net: (u64, u64),
    /// Matching-engine totals at the client's replica.
    pub matching: linda_space::MatchStats,
}

/// Growth of every counter between two samples.
#[derive(Debug, Clone, Default)]
pub struct CtrDelta {
    /// Origin-side instruments of the client registries.
    pub client: Instruments,
    /// Instruments summed over every registry.
    pub all: Instruments,
    /// Ordering-layer counters.
    pub order: Order,
    /// Transport messages and bytes.
    pub net: (u64, u64),
    /// Matching-engine growth at the client's replica.
    pub matching: linda_space::MatchStats,
}

impl CtrDelta {
    /// Fold another interval's growth into this one.
    pub fn add(&mut self, o: &CtrDelta) {
        self.client.add(&o.client);
        self.all.add(&o.all);
        self.order.multicasts += o.order.multicasts;
        self.order.view_changes += o.order.view_changes;
        self.order.retransmits += o.order.retransmits;
        self.net.0 += o.net.0;
        self.net.1 += o.net.1;
        self.matching.attempts += o.matching.attempts;
        self.matching.probes += o.matching.probes;
        self.matching.hits += o.matching.hits;
        self.matching.cache_hits += o.matching.cache_hits;
    }

    /// What accrued between `before` and `after`. A registry absent from
    /// `before` was created inside the interval and counts from zero.
    pub fn between(before: &CtrSample, after: &CtrSample) -> CtrDelta {
        let mut d = CtrDelta::default();
        for (key, (client, inst)) in &after.sources {
            let grown = match before.sources.get(key) {
                Some((_, b)) => inst.since(b),
                None => inst.clone(),
            };
            if *client {
                d.client.add(&grown);
            }
            d.all.add(&grown);
        }
        d.order = Order {
            multicasts: growth(before.order.multicasts, after.order.multicasts),
            view_changes: growth(before.order.view_changes, after.order.view_changes),
            retransmits: growth(before.order.retransmits, after.order.retransmits),
        };
        d.net = (
            growth(before.net.0, after.net.0),
            growth(before.net.1, after.net.1),
        );
        d.matching = after.matching.since(&before.matching);
        d
    }
}

/// Sum of the matching-engine totals over every space of a replica.
pub fn match_totals(report: Option<ftlinda::IntrospectReport>) -> linda_space::MatchStats {
    let mut m = linda_space::MatchStats::default();
    for s in report.map(|r| r.spaces).unwrap_or_default() {
        m.attempts += s.match_stats.attempts;
        m.probes += s.match_stats.probes;
        m.hits += s.match_stats.hits;
        m.cache_hits += s.match_stats.cache_hits;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(count: u64, sum: f64) -> Instruments {
        Instruments {
            submit: Hist { count, sum },
            execute: Hist { count, sum },
            wakeups: count,
            ..Instruments::default()
        }
    }

    #[test]
    fn delta_counts_new_registries_from_zero_and_splits_client_side() {
        let mut before = CtrSample::default();
        before.sources.insert("h1".into(), (true, inst(10, 1.0)));
        before.sources.insert("h0".into(), (false, inst(5, 0.5)));
        let mut after = before.clone();
        after.sources.insert("h1".into(), (true, inst(30, 3.0)));
        // h0 restarted: its new registry holds less than before.
        after.sources.insert("h0".into(), (false, inst(2, 0.2)));
        after.sources.insert("h0#1".into(), (false, inst(4, 0.4)));
        let d = CtrDelta::between(&before, &after);
        assert_eq!(d.client.submit.count, 20);
        assert!((d.client.submit.mean(1.0) - 0.1).abs() < 1e-12);
        assert_eq!(d.all.execute.count, 26);
        assert_eq!(d.all.wakeups, 26);
    }
}
