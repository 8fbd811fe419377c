// The async network serving front end: an epoll-based event-loop TCP
// server answering the length-prefixed query protocol (net/protocol.h)
// over a ShardedIndex.
//
// Architecture (DESIGN.md §12):
//
//   listener (EPOLLEXCLUSIVE in every loop's epoll set)
//        │ accept: the loop that accepts a connection owns it
//        ▼
//   [event loop 1..loop_threads], each wake-up, on one thread:
//     read ──> decode ──> admission ──> result-cache probe ──┬─ hit/shed ─┐
//                                                            │            │
//             SearchBatch (<= batch_max per call) <── admitted            │
//                  │                                                      │
//                  └──encode──> connection write buffer <─────────────────┘
//
//  - Each loop thread owns its epoll set and its connections; no
//    connection structure is ever touched by another thread, so the I/O
//    plane needs no locks.
//  - Parsed requests pass admission control (per-tenant token buckets +
//    a global bound on admitted-but-unanswered requests) on the loop
//    that read them. Rejected requests get an immediate "shed" response
//    that never waits behind index work -- the fast path a saturating
//    tenant cannot congest.
//  - After reading everything one epoll wake-up delivered, the loop
//    answers the admitted requests itself, up to `batch_max` per
//    ShardedIndex::SearchBatch call (per-item alpha and degraded
//    outcome), and encodes each response straight into its connection's
//    write buffer: a request is answered on the thread that read it.
//    Partial writes are buffered under EPOLLOUT.
//  - Deadlines propagate from the wire: a request's relative
//    `deadline_ms` becomes an absolute QueryControl deadline at
//    admission, so the wait for the batch counts against the budget and
//    an overrun degrades or fails exactly like a library-level deadline.
//  - A connection whose first bytes are an HTTP request line is served
//    as a one-shot HTTP client: `GET /metrics` returns the process
//    metrics registry in Prometheus text format, and /statusz, /tracez,
//    /cachez, /healthz return live JSON introspection
//    (net/introspection.h); anything else 404.
//  - Observability rides the same paths without taxing them: a request
//    with the wire trace flag gets a server-stamped trace id and a span
//    timeline (admission, queue wait, per-shard search, encode) returned
//    in-band; every request's latency feeds per-tenant rolling SLO
//    windows (obs/slo.h); and requests over a threshold land in the
//    slow-query log (obs/slow_log.h) with replayable request bytes --
//    the untraced fast path pays two relaxed loads for all of it.
//
// Protocol violations (bad magic, oversized length prefix) answer with a
// clean error response and close the connection -- a desynchronized
// stream cannot be trusted further. Malformed-but-framed requests answer
// with an error and keep the connection (framing is still sound).

#ifndef I3_NET_SERVER_H_
#define I3_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/sharded_index.h"
#include "net/protocol.h"
#include "net/result_cache.h"
#include "net/token_bucket.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace i3 {
namespace net {

struct ServerOptions {
  /// Interface to bind ("127.0.0.1" for loopback-only serving).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  /// Event-loop threads. Each owns an epoll set and the connections it
  /// accepted, and answers every request it reads on its own thread.
  uint32_t loop_threads = 2;
  /// Requests a loop answers with one SearchBatch call. A batch never
  /// waits for fill -- a loop answers what one wake-up read, in calls of
  /// up to this many requests.
  uint32_t batch_max = 16;
  /// Default per-tenant admission limit (rate <= 0 = unlimited).
  TenantLimit default_limit;
  /// Per-tenant overrides.
  std::vector<std::pair<uint32_t, TenantLimit>> tenant_limits;
  /// Admitted-but-unanswered requests, counted across all loops, beyond
  /// which the server sheds regardless of tenant budgets (overload
  /// backstop). 0 sheds every search request -- useful to tests, not to
  /// production.
  size_t max_queue = 4096;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Whole-query result cache entries (net/result_cache.h); 0 disables.
  /// Hits are answered right after admission, so cached requests still
  /// spend tenant tokens but skip the batch and the index.
  size_t result_cache_entries = 4096;
  /// Slow-query log (obs/slow_log.h): requests finishing at or over this
  /// latency are captured with their span timeline and canonical request
  /// bytes. 0 captures every request (tests/diagnosis, not production).
  uint64_t slow_threshold_us = 50000;
  /// Over-threshold ring size and rolling slowest-N size.
  size_t slow_log_ring = 64;
  size_t slow_log_top = 8;
  /// Per-tenant rolling SLO window (obs/slo.h).
  uint32_t slo_window_seconds = 60;
  uint32_t slo_max_tenants = 16;
};

/// \brief The serving front end. Start() binds and spawns the event
/// loops; Stop() (or destruction) shuts everything down. Searches
/// run against the caller-owned index, which must outlive the server.
class Server {
 public:
  Server(ShardedIndex* index, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens, and starts serving. InvalidArgument /
  /// IOError on bad options or socket failure.
  Status Start();

  /// \brief Stops accepting, closes every connection, joins all
  /// threads. Idempotent. Each loop finishes the SearchBatch call it is
  /// in; requests it admitted but has not started are dropped (their
  /// connections are closing anyway).
  void Stop();

  /// The bound port (after Start(); with options.port == 0 this is the
  /// kernel-assigned ephemeral port).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Cumulative dispositions (also exported as metrics; these accessors
  /// keep tests independent of registry state).
  uint64_t requests_ok() const { return ok_count_.load(); }
  uint64_t requests_shed() const { return shed_count_.load(); }
  uint64_t requests_error() const { return error_count_.load(); }

  /// The server's slow-query log and SLO windows (read-only views for
  /// tests and embedding processes; the HTTP side channel renders both).
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }
  const obs::SloTracker& slo() const { return slo_; }

 private:
  struct Connection;
  struct Loop;

  /// One admitted request, answered later in the same wake-up by the loop
  /// that read it.
  struct WorkItem {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    uint64_t arrival_ns = 0;
    /// When admission + cache probe finished (the batch charges queue
    /// wait against this).
    uint64_t admitted_ns = 0;
    /// Wire trace flag and the server-stamped id (0 when untraced).
    uint64_t trace_id = 0;
    uint32_t tenant = 0;
    bool traced = false;
    /// Canonical result-cache key; empty when the response must not be
    /// cached (cache disabled or the request opted out via no_cache).
    std::string cache_key;
    /// The decoded request, kept for slow-query capture (canonical
    /// re-encode on the slow path only; holding it here adds no
    /// allocation -- it is moved, not copied).
    Request request;
    ShardedIndex::BatchItem item;
  };

  void RunLoop(Loop* loop);

  void AcceptAll(Loop* loop);
  void HandleReadable(Connection* conn);
  /// Consumes complete frames from conn's read buffer; returns false if
  /// the connection must close (protocol violation).
  bool ConsumeFrames(Connection* conn);
  /// Dispatches one decoded request: ping, shed, cache hit, or admit to
  /// the loop's pending batch.
  void DispatchRequest(Connection* conn, Request req, uint64_t arrival_ns);
  /// Serves the HTTP side channel; returns false to close.
  bool ConsumeHttp(Connection* conn);

  /// Answers the loop's admitted requests, batch_max per SearchBatch
  /// call, and flushes the answered connections. Once Stop() is under
  /// way, requests of batches not yet started are dropped.
  void AnswerPending(Loop* loop);
  void AnswerBatch(Loop* loop, WorkItem* batch, size_t n);
  /// Returns n admitted requests' slots to the max_queue budget.
  void ReleaseAdmitted(size_t n);

  /// Appends an encoded response to conn's write buffer; the caller
  /// flushes once it is done touching conn.
  void QueueResponse(Connection* conn, const Response& resp);
  void FlushWrites(Connection* conn);
  void CloseConnection(Connection* conn);
  void UpdateEpoll(Connection* conn);

  void RecordOutcome(ResponseOutcome outcome, bool degraded,
                     bool deadline_miss, uint32_t tenant,
                     uint64_t arrival_ns);

  /// \brief Files a slow-query record when (done - arrival) qualifies;
  /// below the bar this is two relaxed loads and a return (the zero-
  /// allocation fast path). `trace` may be null (untraced request): the
  /// record then synthesizes coarse server stages from the timestamps.
  void MaybeLogSlow(const Request& req, ResponseOutcome outcome,
                    uint64_t trace_id, uint64_t arrival_ns,
                    uint64_t admitted_ns, uint64_t search_ns,
                    uint64_t done_ns, const obs::QueryTrace* trace);

  /// \brief Builds the wire trace section from a finished span timeline.
  static WireTrace BuildWireTrace(uint64_t trace_id, uint64_t total_ns,
                                  const obs::QueryTrace& trace);

  ShardedIndex* index_;
  ServerOptions options_;
  TenantRateLimiter limiter_;
  ResultCache result_cache_;
  obs::SlowQueryLog slow_log_;
  obs::SloTracker slo_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Steady-clock Start() time (uptime on /statusz and /healthz).
  uint64_t start_ns_ = 0;
  /// Trace-id generator: mixed counter, stamped per traced request.
  std::atomic<uint64_t> next_trace_seq_{1};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Loop>> loops_;

  /// Open connections across all loops (max_connections, /statusz).
  std::atomic<size_t> open_connections_{0};
  /// Admitted-but-unanswered requests across all loops (max_queue,
  /// /statusz queue_depth).
  std::atomic<size_t> unanswered_{0};

  std::atomic<uint64_t> ok_count_{0};
  std::atomic<uint64_t> shed_count_{0};
  std::atomic<uint64_t> error_count_{0};

  // Cached metric handles (registration is slow-path; see obs/metrics.h).
  obs::Gauge* connections_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* shed_metric_;
  obs::Counter* protocol_errors_metric_;
  obs::Counter* degraded_metric_;
  obs::Counter* requests_metric_[3];   ///< by ResponseOutcome
  obs::Histogram* latency_us_[3];      ///< by ResponseOutcome
  obs::Histogram* batch_size_;
  obs::Counter* traced_requests_metric_;
  obs::Counter* slow_queries_metric_;
};

}  // namespace net
}  // namespace i3

#endif  // I3_NET_SERVER_H_
