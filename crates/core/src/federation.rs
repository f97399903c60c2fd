//! Transport-agnostic observability federation.
//!
//! PRs 3/5/8 built cross-replica trace assembly and the merged
//! `/metrics/cluster` page against one assumption: every member's
//! registry is reachable through a shared in-process runtime map. A TCP
//! cluster breaks that — each process holds exactly one member — so the
//! merge logic lives here, written against [`MemberSource`] instead of
//! the map: a member is either *local* (same address space, read its
//! logs directly) or *remote* (another OS process, scrape its HTTP
//! exporter's leaf endpoints). Sim clusters federate over all-local
//! sources and behave exactly as before; TCP clusters mix one local
//! source with N−1 remote ones and get the same merged artifacts.
//!
//! The remote protocol is deliberately dumb: two GET endpoints serving
//! the text wire formats from `linda-obs` —
//!
//! - `/spans/<id>` → [`linda_obs::spans_wire`] (local spans of one
//!   trace plus the span ring's eviction horizon), and
//! - `/metrics/snapshot` → [`linda_obs::RegistrySnapshot::to_wire`]
//!   (the full snapshot with merge modes and histogram layouts intact).
//!
//! Both are *leaves*: they never fan out themselves, so the fan-out
//! endpoints (`/cluster/trace/<id>`, `/metrics/cluster`) can call them
//! on every peer without recursion. An unreachable live member is never
//! papered over: traces list it in
//! [`linda_obs::TraceTree::truncated_hosts`], and the merged metrics
//! page reports it in `ftlinda_federation_unreachable`.

use crate::runtime::Runtime;
use crate::server::http_get;
use consul_sim::HostId;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

/// Per-peer budget for one federation fetch. Short: a scrape of an N
/// member cluster does N−1 of these sequentially off one exporter
/// thread, and a dead member costs the full timeout.
pub const FEDERATION_TIMEOUT: Duration = Duration::from_millis(1500);

/// One member's observability state, reachable either directly (same
/// process) or over its HTTP exporter (another process).
#[derive(Clone)]
pub enum MemberSource {
    /// A member whose runtime lives in this address space.
    Local(Runtime),
    /// A member in another OS process, scraped at its exporter address.
    Remote {
        /// The member's id.
        host: HostId,
        /// Its HTTP exporter address.
        http: SocketAddr,
    },
}

impl MemberSource {
    /// The member's id.
    pub fn host(&self) -> HostId {
        match self {
            MemberSource::Local(rt) => rt.host(),
            MemberSource::Remote { host, .. } => *host,
        }
    }

    /// This member's spans of trace `id`, plus one eviction horizon per
    /// span ring consulted ([`linda_obs::SpanLog::evicted_newest_micros`]).
    /// `Err` means the member could not be reached or spoke garbage.
    fn spans_of(
        &self,
        id: linda_obs::TraceId,
    ) -> Result<(Vec<linda_obs::SpanRecord>, Vec<Option<u64>>), String> {
        match self {
            MemberSource::Local(rt) => Ok(local_spans(rt, id)),
            MemberSource::Remote { http, .. } => {
                let (status, body) = http_get(*http, &format!("/spans/{id}"), FEDERATION_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("/spans/{id} answered {status}"));
                }
                let (spans, horizon) = linda_obs::parse_spans_wire(&body)?;
                Ok((spans, vec![horizon]))
            }
        }
    }

    /// This member's full registry snapshot. `Err` means unreachable or
    /// malformed.
    fn snapshot(&self) -> Result<linda_obs::RegistrySnapshot, String> {
        match self {
            MemberSource::Local(rt) => Ok(rt.metrics_snapshot()),
            MemberSource::Remote { http, .. } => {
                let (status, body) = http_get(*http, "/metrics/snapshot", FEDERATION_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("/metrics/snapshot answered {status}"));
                }
                linda_obs::RegistrySnapshot::from_wire(&body)
            }
        }
    }
}

/// The spans of trace `id` in a local member's logs, plus each log's
/// eviction horizon ([`linda_obs::SpanLog::evicted_newest_micros`]).
pub(crate) fn local_spans(
    rt: &Runtime,
    id: linda_obs::TraceId,
) -> (Vec<linda_obs::SpanRecord>, Vec<Option<u64>>) {
    let mut spans = Vec::new();
    let mut horizons = Vec::new();
    // One span log per shard registry; per-shard local-id bases keep
    // trace ids disjoint, so collecting from all lanes is safe.
    for obs in rt.obs_all() {
        let log = obs.spans();
        spans.extend(log.spans_of(id));
        horizons.push(log.evicted_newest_micros());
    }
    (spans, horizons)
}

/// Assemble the cluster-wide span tree of `id` from every live member.
///
/// Spans from all reachable sources merge into one tree (span `host`
/// fields keep per-host attribution; kernel spans' `shard` fields keep
/// the per-shard lanes). A live member that cannot be reached — or whose
/// reply does not parse — is recorded in
/// [`linda_obs::TraceTree::truncated_hosts`] rather than silently
/// producing a smaller tree; members the failure detector already
/// declared dead are skipped without marking (their spans are gone with
/// the process, which the ordered Fail record documents elsewhere).
pub fn federate_trace(
    sources: &[MemberSource],
    live: &HashSet<HostId>,
    id: linda_obs::TraceId,
) -> linda_obs::TraceTree {
    let mut spans: Vec<linda_obs::SpanRecord> = Vec::new();
    let mut horizons: Vec<Option<u64>> = Vec::new();
    let mut unreachable: Vec<HostId> = Vec::new();
    for src in sources {
        // A local runtime is always readable — even a crashed Sim host's
        // span log survives in-process, and skipping it would shrink
        // traces the pre-federation assembler used to serve whole.
        if matches!(src, MemberSource::Remote { .. }) && !live.contains(&src.host()) {
            continue;
        }
        match src.spans_of(id) {
            Ok((s, h)) => {
                spans.extend(s);
                horizons.extend(h);
            }
            Err(_) => unreachable.push(src.host()),
        }
    }
    let mut tree = linda_obs::TraceTree::assemble(id, spans);
    tree.mark_truncation(horizons);
    for h in unreachable {
        tree.mark_host_truncated(h.0);
    }
    tree
}

/// Merge `extra` (this process's cluster-level registry) with every live
/// member's snapshot into one [`linda_obs::RegistrySnapshot`] —
/// counters/gauge-children sum (or max, per merge mode), histograms
/// merge bucket-wise. Live members that cannot be reached are counted in
/// the returned snapshot's `ftlinda_federation_unreachable` gauge so a
/// partial page is visibly partial.
pub fn federate_metrics(
    sources: &[MemberSource],
    live: &HashSet<HostId>,
    extra: &linda_obs::Registry,
) -> linda_obs::RegistrySnapshot {
    let mut ordered: Vec<&MemberSource> = sources.iter().collect();
    ordered.sort_by_key(|s| s.host().0);
    // Fetch every member first: the unreachable count must land in the
    // base snapshot taken below, so the page that observed the misses is
    // the page that reports them.
    let mut fetched: Vec<linda_obs::RegistrySnapshot> = Vec::new();
    let mut missed = 0;
    for src in ordered {
        if !live.contains(&src.host()) {
            continue;
        }
        match src.snapshot() {
            Ok(s) => fetched.push(s),
            Err(_) => missed += 1,
        }
    }
    extra
        .gauge(
            "ftlinda_federation_unreachable",
            "Live members whose snapshot could not be fetched during the last federated scrape",
        )
        .set(missed);
    let mut snap = extra.snapshot();
    for s in &fetched {
        snap.merge(s);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_source_failure_marks_truncated_host() {
        // An address nothing listens on: connection refused, fast.
        let dead = MemberSource::Remote {
            host: HostId(7),
            http: "127.0.0.1:1".parse().unwrap(),
        };
        let live: HashSet<HostId> = [HostId(7)].into_iter().collect();
        let id = linda_obs::TraceId::new(0, 1);
        let tree = federate_trace(std::slice::from_ref(&dead), &live, id);
        assert!(tree.truncated);
        assert_eq!(tree.truncated_hosts, vec![7]);

        // The same member, declared dead: skipped without marking.
        let tree = federate_trace(&[dead], &HashSet::new(), id);
        assert!(!tree.truncated);
        assert!(tree.truncated_hosts.is_empty());
    }

    #[test]
    fn unreachable_members_are_counted_on_the_merged_page() {
        let reg = linda_obs::Registry::new();
        let dead = MemberSource::Remote {
            host: HostId(3),
            http: "127.0.0.1:1".parse().unwrap(),
        };
        let live: HashSet<HostId> = [HostId(3)].into_iter().collect();
        let snap = federate_metrics(&[dead], &live, &reg);
        assert_eq!(snap.gauge("ftlinda_federation_unreachable"), Some(1));
    }
}
