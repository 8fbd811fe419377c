// Live introspection for the serving front end: the JSON bodies behind
// the HTTP side channel's /statusz, /tracez, /cachez, and /healthz
// endpoints (server.cc routes the paths; these builders render state).
//
// Everything here is pull-model and read-only: a handler samples live
// state (gauges, the trace ring, the slow-query log, cache counters)
// into plain structs/strings and formats them; nothing touches a query
// hot path. All four bodies are strict JSON so dashboards and the CI
// smoke (`curl ... | python3 -m json.tool`) can parse them unmodified.

#ifndef I3_NET_INTROSPECTION_H_
#define I3_NET_INTROSPECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/replica_set.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace i3 {
namespace net {

/// \brief Everything /statusz renders: build identity, static serving
/// configuration, and live gauges, sampled by the server at request time.
struct ServerStatus {
  std::string build_compiler;  ///< e.g. __VERSION__
  std::string build_mode;      ///< "release" / "debug"
  uint32_t protocol_version = 0;

  uint32_t shards = 0;
  uint32_t loop_threads = 0;
  uint32_t batch_max = 0;
  uint64_t max_queue = 0;
  uint64_t max_connections = 0;
  uint64_t result_cache_entries = 0;
  uint64_t slow_threshold_us = 0;
  uint32_t slo_window_seconds = 0;

  uint64_t uptime_s = 0;
  uint64_t documents = 0;
  uint64_t open_connections = 0;
  int64_t queue_depth = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_shed = 0;
  uint64_t requests_error = 0;

  /// Replication summary (all zero when no shard is replicated); the
  /// per-replica detail lives on /healthz.
  uint32_t replicated_shards = 0;
  uint64_t failovers = 0;
  uint64_t recoveries = 0;
  uint64_t scrub_pages_healed = 0;

  /// Pre-rendered per-tenant SLO windows (SloTracker::ToJson), spliced
  /// in verbatim as the "slo" member.
  std::string slo_json;
};

std::string StatuszJson(const ServerStatus& status);

/// \brief /tracez: the sampled-trace ring plus the slow-query log.
std::string TracezJson(double sample_rate,
                       const std::vector<obs::QueryTrace>& recent,
                       const obs::SlowQueryLog& slow_log);

/// \brief /cachez: per-level hit/miss/ratio + occupancy from the metrics
/// snapshot, and the result cache's per-stripe entry counts (balance).
std::string CachezJson(const obs::MetricsSnapshot& snapshot,
                       const std::vector<size_t>& result_cache_stripes);

/// \brief /healthz. Beyond ok/stopping, renders per-shard replica health
/// for every replicated shard (ShardedIndex::ShardReplicaStatuses):
/// replica states and watermarks/lag, quarantined-page counts, scrub
/// progress, and failover/recovery totals -- strict JSON, so probes can
/// alert on "any replica not healthy" without scraping /metrics.
std::string HealthzJson(bool ok, uint64_t uptime_s,
                        const std::vector<ReplicaSetStatus>& shards);

/// Unreplicated form (identical to passing no shards).
std::string HealthzJson(bool ok, uint64_t uptime_s);

/// \brief One-shot HTTP/1.1 responses with the conformance headers every
/// side-channel reply carries: Content-Type, exact Content-Length, and
/// Connection: close (the server closes after the flush).
std::string HttpOk(const std::string& content_type, const std::string& body);
std::string HttpNotFound();

}  // namespace net
}  // namespace i3

#endif  // I3_NET_INTROSPECTION_H_
