#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/introspection.h"
#include "obs/clock.h"
#include "obs/export.h"

namespace i3 {
namespace net {

namespace {

/// epoll user-data tag of the listener; connection ids start above it.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kFirstConnId = 1;

constexpr size_t kReadChunk = 4096;
/// An HTTP request line + headers larger than this is not /metrics.
constexpr size_t kMaxHttpHeader = 8192;

/// Best-effort request id of an undecodable-but-framed payload, so the
/// error response still matches the client's outstanding request.
uint64_t PeekRequestId(const uint8_t* payload, size_t len) {
  if (len < 12) return 0;
  const uint16_t magic = static_cast<uint16_t>(payload[0]) |
                         static_cast<uint16_t>(payload[1]) << 8;
  if (magic != kRequestMagic) return 0;
  uint64_t id = 0;
  for (int i = 7; i >= 0; --i) id = id << 8 | payload[4 + i];
  return id;
}

Response ErrorResponse(uint64_t request_id, const Status& st) {
  Response resp;
  resp.outcome = ResponseOutcome::kError;
  resp.request_id = request_id;
  resp.code = st.code();
  resp.message = st.message().substr(0, kMaxErrorMessage);
  return resp;
}

/// SplitMix64 finalizer over the trace-id sequence: ids look random on
/// the wire (no cross-request guessing of "the next id") while staying a
/// bijection of a plain counter -- no RNG state, no collisions.
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string HexEncode(const std::string& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

}  // namespace

/// Per-connection state, touched only by the thread of its loop.
struct Server::Connection {
  Loop* loop = nullptr;
  uint64_t id = 0;
  int fd = -1;
  /// Unconsumed inbound bytes (partial frames accumulate here).
  std::vector<uint8_t> read_buf;
  /// Encoded-but-unsent outbound bytes.
  std::string write_buf;
  size_t write_pos = 0;
  /// Protocol sniffed from the first bytes: binary frames or one-shot
  /// HTTP (metrics scrape).
  enum class Mode { kUnknown, kBinary, kHttp } mode = Mode::kUnknown;
  /// Set when the connection must close once write_buf drains.
  bool close_after_flush = false;
  /// Whether EPOLLOUT is currently armed.
  bool want_write = false;
};

/// One event loop: its epoll set, the connections it accepted, and the
/// requests it admitted in the current wake-up. Touched only by `thread`.
struct Server::Loop {
  int epoll_fd = -1;
  /// Connection table (id -> connection); ids are per loop and start
  /// above the listener's epoll tag.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  uint64_t next_conn_id = kFirstConnId;
  /// Admitted requests of this wake-up, answered after the reads.
  std::vector<WorkItem> pending;
  /// Per-batch scratch, reused across wake-ups.
  std::vector<ShardedIndex::BatchItem> items;
  std::vector<obs::QueryTrace> traces;
  /// Declared last: it runs RunLoop over the members above.
  std::thread thread;
};

Server::Server(ShardedIndex* index, ServerOptions options)
    : index_(index),
      options_(std::move(options)),
      limiter_(options_.default_limit),
      result_cache_(ResultCacheOptions{options_.result_cache_entries, 0}),
      slow_log_(obs::SlowQueryLog::Options{options_.slow_log_ring,
                                           options_.slow_log_top,
                                           options_.slow_threshold_us}),
      slo_(obs::SloTracker::Options{options_.slo_window_seconds,
                                    options_.slo_max_tenants}) {
  for (const auto& [tenant, limit] : options_.tenant_limits) {
    limiter_.SetLimit(tenant, limit);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  connections_gauge_ =
      reg.GetGauge("i3_net_connections", "Open client connections.");
  queue_depth_gauge_ = reg.GetGauge(
      "i3_net_queue_depth", "Admitted requests not yet answered.");
  shed_metric_ = reg.GetCounter(
      "i3_requests_shed_total",
      "Requests rejected by admission control (token bucket or queue "
      "bound) before reaching the index.");
  protocol_errors_metric_ = reg.GetCounter(
      "i3_net_protocol_errors_total",
      "Frames rejected as malformed, oversized, or desynchronized.");
  degraded_metric_ = reg.GetCounter(
      "i3_net_degraded_responses_total",
      "OK responses flagged degraded (partial top-k after shard "
      "failures).");
  const char* outcomes[3] = {"ok", "shed", "error"};
  for (int i = 0; i < 3; ++i) {
    requests_metric_[i] =
        reg.GetCounter("i3_net_requests_total", "Requests by disposition.",
                       {{"outcome", outcomes[i]}});
    latency_us_[i] = reg.GetHistogram(
        "i3_request_latency_us",
        "Wire-request latency from admission to response enqueue.",
        {{"outcome", outcomes[i]}});
  }
  batch_size_ = reg.GetHistogram(
      "i3_net_batch_size", "Requests answered per SearchBatch call.");
  traced_requests_metric_ = reg.GetCounter(
      "i3_net_traced_requests_total",
      "Requests that carried the wire trace flag (span timeline "
      "returned in-band).");
  slow_queries_metric_ = reg.GetCounter(
      "i3_slow_queries_total",
      "Requests captured by the slow-query log (over the latency "
      "threshold or among the rolling slowest).");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("already running");
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  if (options_.loop_threads == 0) {
    return Status::InvalidArgument("loop_threads must be >= 1");
  }
  if (options_.batch_max == 0) {
    return Status::InvalidArgument("batch_max must be >= 1");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(
                                                 std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Stop();
    return Status::InvalidArgument("bad host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::IOError("bind: " +
                                      std::string(std::strerror(errno)));
    Stop();
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status st = Status::IOError("listen: " +
                                      std::string(std::strerror(errno)));
    Stop();
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  // The listener sits in every loop's epoll set; EPOLLEXCLUSIVE wakes one
  // loop (or a few) per incoming connection instead of all of them, and
  // whichever loop accepts a connection owns it for its lifetime.
  for (uint32_t i = 0; i < options_.loop_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = kListenerTag;
    const int epoll_fd = loop->epoll_fd;
    loops_.push_back(std::move(loop));
    if (epoll_fd < 0 ||
        ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      Stop();
      return Status::IOError("epoll setup failed");
    }
  }

  stopping_.store(false);
  start_ns_ = obs::NowNanos();
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { RunLoop(l); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!stopping_.exchange(true)) {
    // Final pull-model refresh: an embedding process that snapshots the
    // registry after Stop() still sees current SLO windows.
    slo_.ExportMetrics(obs::NowNanos());
    // Wake every loop: a shut-down listener reports EPOLLHUP to each
    // epoll set it sits in, EPOLLEXCLUSIVE ones included. A loop inside
    // a SearchBatch call sees stopping_ when the call returns.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Each loop closed its connections on exit; tear down the loop and
  // listener descriptors here so a failed Start() can also call Stop().
  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Server::RunLoop(Loop* loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop->epoll_fd, events, kMaxEvents, /*timeout=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        // EPOLLHUP here is Stop() shutting the listener down.
        if (!(events[i].events & (EPOLLHUP | EPOLLERR))) AcceptAll(loop);
        continue;
      }
      auto it = loop->conns.find(tag);
      if (it == loop->conns.end()) continue;
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(conn);
        if (loop->conns.find(tag) == loop->conns.end()) continue;  // closed
      }
      if (events[i].events & EPOLLOUT) FlushWrites(conn);
    }
    // Run to completion: everything this wake-up admitted is answered
    // here, on the thread that read it.
    AnswerPending(loop);
  }
  // Shutdown: close every connection (the peers see a clean close).
  std::vector<Connection*> open;
  open.reserve(loop->conns.size());
  for (auto& [id, conn] : loop->conns) open.push_back(conn.get());
  for (Connection* conn : open) CloseConnection(conn);
}

void Server::AcceptAll(Loop* loop) {
  while (true) {
    // Another loop woken for the same connection may have taken it:
    // EAGAIN then simply ends this round.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (open_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->loop = loop;
    conn->id = loop->next_conn_id++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    connections_gauge_->Add(1);
    loop->conns.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleReadable(Connection* conn) {
  uint8_t chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->read_buf.insert(conn->read_buf.end(), chunk, chunk + n);
      if (n < static_cast<ssize_t>(sizeof(chunk))) break;
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConnection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  if (conn->read_buf.empty()) return;
  if (conn->mode == Connection::Mode::kUnknown) {
    // Sniff once: an HTTP metrics scrape starts with "GET "; anything
    // else is the binary protocol (whose length prefix can never spell
    // ASCII "GET " -- that value exceeds kMaxFramePayload).
    if (conn->read_buf.size() < 4) return;
    conn->mode = std::memcmp(conn->read_buf.data(), "GET ", 4) == 0
                     ? Connection::Mode::kHttp
                     : Connection::Mode::kBinary;
  }
  const bool keep = conn->mode == Connection::Mode::kHttp
                        ? ConsumeHttp(conn)
                        : ConsumeFrames(conn);
  // A protocol violation (or a one-shot HTTP exchange) closes after any
  // queued response drains. FlushWrites may free conn, so it is the last
  // thing this handler touches.
  if (!keep) conn->close_after_flush = true;
  FlushWrites(conn);
}

bool Server::ConsumeFrames(Connection* conn) {
  size_t consumed = 0;
  const uint64_t arrival_ns = obs::NowNanos();
  while (true) {
    const uint8_t* base = conn->read_buf.data() + consumed;
    const size_t avail = conn->read_buf.size() - consumed;
    uint32_t payload_len = 0;
    const FrameStatus fs = NextFrame(base, avail, &payload_len);
    if (fs == FrameStatus::kNeedMore) break;
    if (fs == FrameStatus::kTooLarge) {
      protocol_errors_metric_->Increment();
      QueueResponse(
          conn, ErrorResponse(0, Status::InvalidArgument(
                                     "frame exceeds maximum payload size")));
      conn->read_buf.clear();
      return false;  // stream cannot be resynchronized
    }
    const uint8_t* payload = base + kFrameHeaderBytes;
    auto req = DecodeRequest(payload, payload_len);
    consumed += kFrameHeaderBytes + payload_len;
    if (!req.ok()) {
      protocol_errors_metric_->Increment();
      QueueResponse(conn, ErrorResponse(PeekRequestId(payload, payload_len),
                                        req.status()));
      // Framing is still sound (the length prefix was honored), so the
      // connection survives a malformed payload.
      continue;
    }
    DispatchRequest(conn, req.MoveValue(), arrival_ns);
  }
  conn->read_buf.erase(conn->read_buf.begin(),
                       conn->read_buf.begin() + consumed);
  return true;
}

void Server::DispatchRequest(Connection* conn, Request req,
                             uint64_t arrival_ns) {
  if (req.type == MessageType::kPing) {
    Response pong;
    pong.request_id = req.request_id;
    QueueResponse(conn, pong);
    return;
  }
  // Trace opt-in: the server stamps the id (clients cannot forge
  // cross-request correlation) and carries the flag with the work item.
  // Untraced requests pay nothing here beyond the flag test.
  const bool traced = req.trace;
  uint64_t trace_id = 0;
  if (traced) {
    traced_requests_metric_->Increment();
    trace_id =
        MixTraceId(next_trace_seq_.fetch_add(1, std::memory_order_relaxed));
  }
  // Admission control, on the loop thread: a rejected request costs one
  // bucket probe and an immediate response -- it never queues behind
  // index work, which is what keeps shed latency bounded under overload.
  const char* shed_reason = nullptr;
  if (!limiter_.Admit(req.tenant, arrival_ns)) {
    shed_reason = "tenant rate limit exceeded";
  } else {
    const uint64_t admit_done_ns = traced ? obs::NowNanos() : 0;
    // Result-cache probe, after admission (a cached answer still spends
    // tenant tokens -- the cache must not turn one tenant's hot query
    // into free capacity) but before the batch: a hit is answered right
    // here and never touches the index.
    std::string cache_key;
    if (result_cache_.enabled()) {
      if (req.no_cache) {
        result_cache_.CountBypass();
      } else {
        cache_key = ResultCache::KeyOf(req);
        Response cached;
        if (result_cache_.Lookup(cache_key, index_->generation(),
                                 &cached)) {
          cached.request_id = req.request_id;
          const uint64_t done_ns = obs::NowNanos();
          obs::QueryTrace hit_trace;
          if (traced) {
            hit_trace.label = "serve";
            hit_trace.start_ns = arrival_ns;
            hit_trace.total_ns = done_ns - arrival_ns;
            hit_trace.AddStage("admission", admit_done_ns - arrival_ns);
            hit_trace.AddStage("result_cache", done_ns - admit_done_ns);
            hit_trace.Annotate("result_cache_hit", 1);
            cached.has_trace = true;
            cached.trace =
                BuildWireTrace(trace_id, hit_trace.total_ns, hit_trace);
          }
          QueueResponse(conn, cached);
          RecordOutcome(ResponseOutcome::kOk, /*degraded=*/false,
                        /*deadline_miss=*/false, req.tenant, arrival_ns);
          MaybeLogSlow(req, ResponseOutcome::kOk, trace_id, arrival_ns,
                       done_ns, /*search_ns=*/0, done_ns,
                       traced ? &hit_trace : nullptr);
          return;
        }
      }
    }
    if (unanswered_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_queue) {
      unanswered_.fetch_sub(1, std::memory_order_relaxed);
      shed_reason = "server overloaded (queue full)";
    } else {
      queue_depth_gauge_->Add(1);
      WorkItem item;
      item.conn_id = conn->id;
      item.request_id = req.request_id;
      item.arrival_ns = arrival_ns;
      item.admitted_ns = obs::NowNanos();
      item.trace_id = trace_id;
      item.tenant = req.tenant;
      item.traced = traced;
      item.cache_key = std::move(cache_key);
      item.item.query = req.ToQuery();
      if (req.deadline_ms > 0) {
        // Propagate the wire deadline: anchor the absolute budget now so
        // the wait for the batch is charged against it.
        item.item.query.control =
            QueryControl::AfterMicros(uint64_t{req.deadline_ms} * 1000);
      }
      item.item.alpha = req.alpha;
      item.request = std::move(req);
      conn->loop->pending.push_back(std::move(item));
    }
  }
  if (shed_reason != nullptr) {
    shed_metric_->Increment();
    Response shed;
    shed.outcome = ResponseOutcome::kShed;
    shed.request_id = req.request_id;
    shed.message = shed_reason;
    const uint64_t done_ns = obs::NowNanos();
    obs::QueryTrace shed_trace;
    if (traced) {
      shed_trace.label = "serve";
      shed_trace.start_ns = arrival_ns;
      shed_trace.total_ns = done_ns - arrival_ns;
      shed_trace.AddStage("admission", done_ns - arrival_ns);
      shed_trace.Annotate("shed", 1);
      shed.has_trace = true;
      shed.trace =
          BuildWireTrace(trace_id, shed_trace.total_ns, shed_trace);
    }
    QueueResponse(conn, shed);
    RecordOutcome(ResponseOutcome::kShed, /*degraded=*/false,
                  /*deadline_miss=*/false, req.tenant, arrival_ns);
    MaybeLogSlow(req, ResponseOutcome::kShed, trace_id, arrival_ns,
                 done_ns, /*search_ns=*/0, done_ns,
                 traced ? &shed_trace : nullptr);
  }
}

bool Server::ConsumeHttp(Connection* conn) {
  static constexpr char kDelim[] = "\r\n\r\n";
  const auto& buf = conn->read_buf;
  auto it = std::search(buf.begin(), buf.end(), kDelim, kDelim + 4);
  if (it == buf.end()) {
    return buf.size() <= kMaxHttpHeader;  // keep reading headers
  }
  const std::string request_line(buf.begin(), it);
  const size_t path_begin = request_line.find(' ');
  const size_t path_end = request_line.find(' ', path_begin + 1);
  std::string path = "/";
  if (path_begin != std::string::npos && path_end != std::string::npos) {
    path = request_line.substr(path_begin + 1, path_end - path_begin - 1);
  }
  const uint64_t now_ns = obs::NowNanos();
  const uint64_t uptime_s =
      start_ns_ == 0 ? 0 : (now_ns - start_ns_) / 1000000000ull;
  std::string http;
  if (path == "/metrics") {
    // Pull-model gauges refresh at scrape time, not per request.
    slo_.ExportMetrics(now_ns);
    http = HttpOk(
        "text/plain; version=0.0.4",
        obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot()));
  } else if (path == "/statusz") {
    ServerStatus s;
    s.build_compiler = __VERSION__;
#ifdef NDEBUG
    s.build_mode = "release";
#else
    s.build_mode = "debug";
#endif
    s.protocol_version = kProtocolVersion;
    s.shards = index_->num_shards();
    s.loop_threads = options_.loop_threads;
    s.batch_max = options_.batch_max;
    s.max_queue = options_.max_queue;
    s.max_connections = options_.max_connections;
    s.result_cache_entries = options_.result_cache_entries;
    s.slow_threshold_us = slow_log_.threshold_us();
    s.slo_window_seconds = slo_.window_seconds();
    s.uptime_s = uptime_s;
    s.documents = index_->DocumentCount();
    // Counters shared by every loop; the loops' connection tables stay
    // their own.
    s.open_connections = open_connections_.load(std::memory_order_relaxed);
    s.queue_depth = static_cast<int64_t>(
        unanswered_.load(std::memory_order_relaxed));
    s.requests_ok = requests_ok();
    s.requests_shed = requests_shed();
    s.requests_error = requests_error();
    for (const auto& rs : index_->ShardReplicaStatuses()) {
      s.replicated_shards += 1;
      s.failovers += rs.failovers;
      s.recoveries += rs.recoveries;
      s.scrub_pages_healed += rs.scrub_pages_healed;
    }
    s.slo_json = slo_.ToJson(now_ns);
    http = HttpOk("application/json", StatuszJson(s));
  } else if (path == "/tracez") {
    http = HttpOk("application/json",
                  TracezJson(obs::Tracer::Global().sample_rate(),
                             obs::Tracer::Global().Recent(), slow_log_));
  } else if (path == "/cachez") {
    http = HttpOk("application/json",
                  CachezJson(obs::MetricsRegistry::Global().Snapshot(),
                             result_cache_.StripeOccupancy()));
  } else if (path == "/healthz") {
    const bool healthy = running_.load(std::memory_order_acquire) &&
                         !stopping_.load(std::memory_order_acquire);
    http = HttpOk("application/json",
                  HealthzJson(healthy, uptime_s,
                              index_->ShardReplicaStatuses()));
  } else {
    http = HttpNotFound();
  }
  conn->write_buf += http;
  return false;  // one-shot: close after the response flushes
}

void Server::QueueResponse(Connection* conn, const Response& resp) {
  // Append-only: the caller flushes when it is done touching conn
  // (FlushWrites may close and free the connection).
  EncodeResponse(resp, &conn->write_buf);
}

void Server::FlushWrites(Connection* conn) {
  while (conn->write_pos < conn->write_buf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
               conn->write_buf.size() - conn->write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateEpoll(conn);
      }
      return;
    }
    CloseConnection(conn);
    return;
  }
  conn->write_buf.clear();
  conn->write_pos = 0;
  if (conn->want_write) {
    conn->want_write = false;
    UpdateEpoll(conn);
  }
  if (conn->close_after_flush) CloseConnection(conn);
}

void Server::UpdateEpoll(Connection* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(Connection* conn) {
  ::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_gauge_->Sub(1);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  conn->loop->conns.erase(conn->id);  // frees conn
}

void Server::RecordOutcome(ResponseOutcome outcome, bool degraded,
                           bool deadline_miss, uint32_t tenant,
                           uint64_t arrival_ns) {
  const uint64_t now_ns = obs::NowNanos();
  const uint64_t latency_us = (now_ns - arrival_ns) / 1000;
  const int idx = static_cast<int>(outcome);
  requests_metric_[idx]->Increment();
  latency_us_[idx]->Record(latency_us);
  slo_.Record(tenant, latency_us, outcome == ResponseOutcome::kShed,
              deadline_miss, now_ns);
  switch (outcome) {
    case ResponseOutcome::kOk:
      ok_count_.fetch_add(1, std::memory_order_relaxed);
      if (degraded) degraded_metric_->Increment();
      break;
    case ResponseOutcome::kShed:
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kError:
      error_count_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

WireTrace Server::BuildWireTrace(uint64_t trace_id, uint64_t total_ns,
                                 const obs::QueryTrace& trace) {
  WireTrace wt;
  wt.trace_id = trace_id;
  wt.total_ns = total_ns;
  wt.spans.reserve(trace.stages.size());
  for (const auto& stage : trace.stages) {
    WireTraceSpan span;
    span.name = stage.name;
    span.total_ns = stage.total_ns;
    span.calls = static_cast<uint32_t>(
        std::min<uint64_t>(stage.calls, UINT32_MAX));
    wt.spans.push_back(std::move(span));
  }
  wt.annotations.reserve(trace.annotations.size());
  for (const auto& [key, value] : trace.annotations) {
    wt.annotations.push_back(WireTraceAnnotation{key, value});
  }
  return wt;
}

void Server::MaybeLogSlow(const Request& req, ResponseOutcome outcome,
                          uint64_t trace_id, uint64_t arrival_ns,
                          uint64_t admitted_ns, uint64_t search_ns,
                          uint64_t done_ns, const obs::QueryTrace* trace) {
  const uint64_t total_us = (done_ns - arrival_ns) / 1000;
  if (!slow_log_.Qualifies(total_us)) return;
  slow_queries_metric_->Increment();
  obs::SlowQueryRecord rec;
  rec.trace_id = trace_id;
  rec.when_ns = done_ns;
  rec.total_us = total_us;
  rec.tenant = req.tenant;
  rec.outcome = ResponseOutcomeName(outcome);
  std::string frame;
  EncodeRequest(req, &frame);
  rec.request_hex = HexEncode(frame);
  if (trace != nullptr) {
    rec.trace = *trace;
  } else {
    // Untraced request: synthesize the coarse stages the timestamps
    // alone can attribute -- admission, index search, and the remainder
    // (queue wait + batch assembly + dispatch).
    rec.trace.label = "serve";
    rec.trace.start_ns = arrival_ns;
    rec.trace.total_ns = done_ns - arrival_ns;
    rec.trace.AddStage("admission", admitted_ns - arrival_ns);
    if (search_ns > 0) rec.trace.AddStage("search", search_ns);
    const uint64_t accounted = (admitted_ns - arrival_ns) + search_ns;
    if (rec.trace.total_ns > accounted) {
      rec.trace.AddStage("queue_and_dispatch",
                         rec.trace.total_ns - accounted);
    }
  }
  slow_log_.Record(std::move(rec));
}

void Server::ReleaseAdmitted(size_t n) {
  unanswered_.fetch_sub(n, std::memory_order_relaxed);
  queue_depth_gauge_->Sub(static_cast<int64_t>(n));
}

void Server::AnswerPending(Loop* loop) {
  std::vector<WorkItem>& pending = loop->pending;
  size_t done = 0;
  while (done < pending.size() && !stopping_.load(std::memory_order_acquire)) {
    const size_t n =
        std::min<size_t>(options_.batch_max, pending.size() - done);
    AnswerBatch(loop, pending.data() + done, n);
    ReleaseAdmitted(n);
    // Flush once per connection per batch; FlushWrites may close and
    // free a connection, so each one is looked up again by id.
    for (size_t i = done; i < done + n; ++i) {
      auto it = loop->conns.find(pending[i].conn_id);
      if (it == loop->conns.end()) continue;
      Connection* conn = it->second.get();
      if (conn->write_pos < conn->write_buf.size()) FlushWrites(conn);
    }
    done += n;
  }
  // Stop() is under way: the requests not started are dropped.
  if (done < pending.size()) ReleaseAdmitted(pending.size() - done);
  pending.clear();
}

void Server::AnswerBatch(Loop* loop, WorkItem* batch, size_t n) {
  const uint64_t batch_start_ns = obs::NowNanos();
  batch_size_->Record(n);
  std::vector<ShardedIndex::BatchItem>& items = loop->items;
  std::vector<obs::QueryTrace>& traces = loop->traces;
  items.clear();
  // The traces vector is sized once per batch BEFORE any pointer is
  // taken; it must not grow while items reference its elements.
  traces.assign(n, obs::QueryTrace());
  for (size_t i = 0; i < n; ++i) {
    WorkItem& w = batch[i];
    items.push_back(std::move(w.item));
    if (!w.traced) continue;
    obs::QueryTrace& t = traces[i];
    t.label = "serve";
    t.start_ns = w.arrival_ns;
    t.AddStage("admission", w.admitted_ns - w.arrival_ns);
    t.AddStage("queue_wait", batch_start_ns - w.admitted_ns);
    t.Annotate("batch_size", n);
    // Request-scoped trace: the index layers accumulate their stages
    // (shard sweeps, descent, cell-cache hits) into this object.
    items[i].query.control.trace = &t;
    items[i].query.control.trace_id = w.trace_id;
  }
  // Capture the generation BEFORE the search: a mutation completing
  // mid-search bumps the counter past this value, so the entry we tag
  // with it can never be served after that mutation (Lookup requires
  // an exact match against the current generation).
  const uint64_t generation = index_->generation();
  auto results = index_->SearchBatch(items);
  for (size_t i = 0; i < n; ++i) {
    const WorkItem& w = batch[i];
    auto& r = results[i];
    Response resp;
    resp.request_id = w.request_id;
    if (r.status.ok() && r.degraded && w.request.require_complete) {
      // All-or-nothing: the client said a partial top-k is worse than
      // failing, so surface the failing shard's own error instead.
      Status refusal(r.first_error.ok() ? StatusCode::kResourceExhausted
                                        : r.first_error.code(),
                     "incomplete result (require_complete): " +
                         r.first_error.message());
      resp = ErrorResponse(w.request_id, refusal);
    } else if (r.status.ok()) {
      resp.outcome = ResponseOutcome::kOk;
      resp.degraded = r.degraded;
      resp.results = std::move(r.results);
      // Only complete answers are cacheable: a degraded top-k is
      // missing failed shards' documents and must not outlive the
      // failure.
      if (!resp.degraded && !w.cache_key.empty()) {
        result_cache_.Insert(w.cache_key, generation, resp.results);
      }
    } else {
      resp = ErrorResponse(w.request_id, r.status);
    }
    const bool deadline_miss = resp.outcome == ResponseOutcome::kError &&
                               resp.code == StatusCode::kDeadlineExceeded;
    if (w.traced) {
      obs::QueryTrace& t = traces[i];
      // Time the encode against a scratch buffer first -- the real
      // encode must carry the trace, and the trace must contain the
      // encode stage. The double encode is traced-path-only cost, and
      // it keeps the result bytes identical to the untraced twin
      // (asserted by the differential test).
      std::string scratch;
      const uint64_t encode_start_ns = obs::NowNanos();
      EncodeResponse(resp, &scratch);
      t.AddStage("encode", obs::NowNanos() - encode_start_ns);
      t.Annotate("results", resp.results.size());
      t.total_ns = obs::NowNanos() - w.arrival_ns;
      resp.has_trace = true;
      resp.trace = BuildWireTrace(w.trace_id, t.total_ns, t);
    }
    const uint64_t done_ns = obs::NowNanos();
    RecordOutcome(resp.outcome, resp.degraded, deadline_miss, w.tenant,
                  w.arrival_ns);
    MaybeLogSlow(w.request, resp.outcome, w.trace_id, w.arrival_ns,
                 w.admitted_ns, r.search_ns, done_ns,
                 w.traced ? &traces[i] : nullptr);
    // The client may have left while its request waited; its answer is
    // dropped.
    auto it = loop->conns.find(w.conn_id);
    if (it != loop->conns.end()) QueueResponse(it->second.get(), resp);
  }
}

}  // namespace net
}  // namespace i3
