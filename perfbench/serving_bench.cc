// perfbench_serving: one run of the serving benchmark.
//
// Serves a generated corpus through the real stack -- an in-process
// net::Server over a one-shard ShardedIndex over I3Index (or, for
// ingest-replicated, over a 2-replica ReplicaSet of I3Index) -- and checks
// every answer it times. Writes go through the public Insert / Update /
// Delete. See perfbench/README.md for the workloads and metrics.
//
//   perfbench_serving --workload NAME --seed N --seconds S --trace 0|1
//                     [--scratch DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 sets the wire trace
// flag on the timed requests and prints the per-layer metrics instead.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Human-readable detail goes to the lines before it. Exit code 0 means
// the run finished (check "correct"); 2 means bad arguments or a stack
// that could not be built.
//
// Steadiness rules the run keeps: no simulated device latency, no sleeps,
// no maintenance threads (ReplicaSet maintenance_interval_ms = 0, the
// generator drives kill, recovery and scrub), every write issued by the
// one generator thread in seeded order, and closed-loop connections driven
// from that same thread. With the server's loop thread and 2 workers and
// no shard pool, the process runs 4 threads, all pinned to one CPU.

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "i3/cell_codec.h"
#include "i3/i3_index.h"
#include "i3/replica_ops.h"
#include "model/replica_set.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "oracle_check.h"
#include "storage/checksum.h"

namespace perfbench {
namespace {

using i3::DocId;
using i3::Query;
using i3::Rng;
using i3::ScoredDoc;
using i3::Semantics;
using i3::SpatialDocument;
using i3::Status;
namespace net = i3::net;

constexpr double kAlpha = 0.5;
constexpr uint32_t kTopK = 10;
constexpr uint64_t kCorpusSeed = 1;
/// ingest-replicated write rounds (1 write + 4 reads) per second of
/// window time.
constexpr double kIngestRoundsPerSecond = 1200;
/// Windows per second of the read phase.
constexpr double kWindowsPerSecond = 10;
/// Writes per window of the write phase.
constexpr uint32_t kWritesPerWindow = 50;
/// Stack builds per run; setup_s is their median.
constexpr uint32_t kSetupReps = 3;
/// Queries in the cold-cache direct pass.
constexpr uint32_t kColdQueries = 3000;
/// Writes after the reads (workloads without an ingest phase).
constexpr uint32_t kPostReadWrites = 8000;
/// ingest-replicated: wire reads per write.
constexpr uint32_t kReadsPerWrite = 4;

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  const char* name;
  uint32_t docs;
  /// One I3 shard (false) or one 2-replica ReplicaSet shard (true).
  bool replicated;
  /// Closed-loop wire connections, all driven by the generator thread.
  uint32_t connections;
  /// 0: every query distinct (uniform location anywhere in the space).
  /// Otherwise queries are drawn Zipf(zipf_theta)-skewed from a fixed
  /// pool of this many queries located at document locations.
  uint32_t pool_size;
  double zipf_theta;
  /// Query terms are drawn uniformly from term ranks [0, term_span) of
  /// the generator's Zipf vocabulary (rank 0 is the most frequent term).
  uint32_t term_span;
  /// Buffer-pool pages and decoded-cell cache MiB of each I3Index
  /// (serve defaults: 512 pages = 2 MiB, 16 MiB).
  uint32_t pool_pages;
  uint32_t cell_cache_mb;
};

// spill-uniform and ingest-replicated are in BENCHMARK.json; hot-zipf is
// kept runnable but ungated (perfbench/README.md says why).
const WorkloadSpec kWorkloads[] = {
    // name, docs, replicated, connections, pool, theta, term span,
    // pool pages, cell cache MiB
    {"spill-uniform", 30000, false, 1, 0, 0.0, 500, 256, 2},
    {"hot-zipf", 20000, false, 2, 2000, 1.0, 150, 512, 16},
    {"ingest-replicated", 12000, true, 1, 4000, 0.6, 300, 512, 16},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ------------------------------------------------------------- helpers

uint64_t Now() { return i3::obs::NowNanos(); }

/// Keeps timed loops whose results are otherwise unused from being
/// optimized away.
volatile uint32_t g_sink = 0;

/// Nearest-rank quantile of raw samples (sorts in place).
double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The timed phases are cut into short windows, and each end-to-end
/// timing reports the 5th percentile of its per-window values on the fast
/// side: the 5th for a latency, the 95th for a rate. Interference from the
/// rest of the host only ever adds time, and on a shared virtual machine
/// it comes in episodes that slowed a window's p50 by up to 70%; this
/// percentile ignores them as long as a twentieth of the windows are
/// quiet, where a median moves as soon as half are disturbed. A slower
/// program is slower in every window, so it still shows.
double QuietPercentile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = (higher_is_better ? 0.95 : 0.05) * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

/// Steps of one clock probe (about 0.1 ms), and the time one step takes
/// at the reference clock every end-to-end timing is reported at. On the
/// reference host (perfbench/README.md) a step took 2.3-2.6 ns as the
/// host moved its clock.
constexpr uint32_t kClockProbeSteps = 40000;
constexpr double kReferenceStepNs = 2.5;

/// Nanoseconds of one clock probe: a dependent chain of multiply and
/// xor-shift steps on registers only. Each step costs a fixed number of
/// core cycles, whatever the program left in the caches, so the probe
/// reads the core clock the host is giving this CPU at the moment.
uint64_t ClockProbeNs() {
  uint64_t x = g_sink | 1;
  const uint64_t t0 = Now();
  for (uint32_t i = 0; i < kClockProbeSteps; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 32;
  }
  const uint64_t dt = Now() - t0;
  g_sink = g_sink ^ static_cast<uint32_t>(x);
  return dt;
}

/// Clock probes taken around one measured span. This virtual machine's
/// core clock follows the load on the whole host: between hours the same
/// code ran up to 70% slower, pure register arithmetic included, and two
/// 10-run sets of this benchmark taken apart spread by 30-47%. A timing
/// measured in the span, times Scale(), is the time it would have taken
/// at the reference clock; a rate is divided by it. The probe's median
/// ignores a probe stretched by a preemption.
class ClockScale {
 public:
  void Sample() {
    const uint64_t ns = ClockProbeNs();
    probes_.push_back(ns);
    probe_ns_ += ns;
  }
  /// Reference step time over measured step time: below 1 when the host
  /// runs this CPU slower than the reference clock.
  double Scale() const {
    if (probes_.empty()) return 1.0;
    return kReferenceStepNs * kClockProbeSteps /
           Median(std::vector<double>(probes_.begin(), probes_.end()));
  }
  /// Time spent in the probes themselves.
  uint64_t probe_ns() const { return probe_ns_; }

 private:
  std::vector<uint64_t> probes_;
  uint64_t probe_ns_ = 0;
};

/// Per-window values taken to the reference clock: times are multiplied
/// by their window's scale, rates divided by it.
std::vector<double> AtReferenceClock(const std::vector<double>& values,
                                     const std::vector<double>& scales,
                                     bool rate) {
  std::vector<double> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = rate ? values[i] / scales[i] : values[i] * scales[i];
  }
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t ThreadCount() {
  size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

/// Pins the process -- and so every thread it starts later -- to the CPU
/// it is running on. Each hand-off between the client, the server's loop
/// and its workers is then a context switch on a running core rather than
/// a cross-core wake-up of an idle one, whose latency moves by tens of
/// microseconds from run to run on a virtual machine. The scheduler placed
/// the process on a CPU with room for it; a fixed choice would put two
/// runs started together on the same CPU, where each halved the other's
/// qps. Returns the CPU, or -1 if it could not be read or set.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

/// Process-wide counter and histogram totals from the metrics registry,
/// summed over label sets.
struct Counters {
  std::map<std::string, double> values;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hist;  // count, sum

  static Counters Take() {
    Counters c;
    for (const auto& s : i3::obs::MetricsRegistry::Global().Snapshot()
                             .samples) {
      if (s.type == i3::obs::MetricType::kHistogram) {
        auto& h = c.hist[s.name];
        h.first += s.histogram.count();
        h.second += s.histogram.sum();
      } else {
        c.values[s.name] += s.value;
      }
    }
    return c;
  }
  double Delta(const Counters& before, const std::string& name) const {
    auto a = values.find(name);
    auto b = before.values.find(name);
    return (a == values.end() ? 0.0 : a->second) -
           (b == before.values.end() ? 0.0 : b->second);
  }
  double HistMeanDelta(const Counters& before, const std::string& name) const {
    auto a = hist.find(name);
    auto b = before.hist.find(name);
    if (a == hist.end()) return 0.0;
    uint64_t count = a->second.first, sum = a->second.second;
    if (b != before.hist.end()) {
      count -= b->second.first;
      sum -= b->second.second;
    }
    return Ratio(static_cast<double>(sum), static_cast<double>(count));
  }
};

double HitRatio(const Counters& after, const Counters& before,
                const std::string& family) {
  const double hits = after.Delta(before, family + "_hits_total");
  const double misses = after.Delta(before, family + "_misses_total");
  return Ratio(hits, hits + misses);
}

net::Request ToRequest(const Query& q, uint64_t id) {
  net::Request req;
  req.request_id = id;
  req.k = q.k;
  req.semantics = q.semantics;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = kAlpha;
  req.terms = q.terms;
  return req;
}

// -------------------------------------------------------------- corpus

/// Queries of one workload. Distinct-query workloads generate a fresh
/// query per call; pool workloads draw from a fixed pool (pool_index
/// reports which entry, -1 for distinct queries).
class QuerySource {
 public:
  QuerySource(const WorkloadSpec& spec, const i3::Dataset& ds, uint64_t seed,
              uint64_t stream)
      : spec_(spec),
        ds_(ds),
        rng_(seed * 1000003 + stream),
        zipf_(std::max<uint32_t>(spec.pool_size, 1), spec.zipf_theta) {
    if (spec.pool_size > 0) {
      // The pool is the same for every stream of a seed, so the direct
      // pass, the wire phase and the checks see the same hot queries.
      Rng pool_rng(seed * 1000003 + 7);
      for (uint32_t i = 0; i < spec.pool_size; ++i) {
        pool_.push_back(Make(&pool_rng));
      }
    }
  }

  /// The workload's request stream: fresh queries, or Zipf draws from
  /// the pool.
  const Query& Next(int64_t* pool_index) {
    if (pool_.empty()) {
      scratch_ = Make(&rng_);
      *pool_index = -1;
      return scratch_;
    }
    const size_t i = zipf_.Sample(&rng_);
    *pool_index = static_cast<int64_t>(i);
    return pool_[i];
  }

  /// The workload's query population with every query weighted equally:
  /// fresh queries, or the pool entries in order. The direct and cold
  /// passes use it, so one hot query cannot set their median.
  const Query& NextEach() {
    if (pool_.empty()) {
      scratch_ = Make(&rng_);
      return scratch_;
    }
    return pool_[cursor_++ % pool_.size()];
  }

  size_t pool_size() const { return pool_.size(); }

 private:
  Query Make(Rng* rng) const {
    Query q;
    if (spec_.pool_size == 0) {
      q.location = {rng->UniformDouble(ds_.space.min_x, ds_.space.max_x),
                    rng->UniformDouble(ds_.space.min_y, ds_.space.max_y)};
    } else {
      const auto i = rng->UniformInt(0, ds_.docs.size() - 1);
      q.location = ds_.docs[i].location;
    }
    const int64_t qn = rng->UniformInt(1, 3);
    while (q.terms.size() < static_cast<size_t>(qn)) {
      const auto t =
          static_cast<i3::TermId>(rng->UniformInt(0, spec_.term_span - 1));
      if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end()) {
        q.terms.push_back(t);
      }
    }
    q.k = kTopK;
    q.semantics = rng->Chance(0.3) ? Semantics::kAnd : Semantics::kOr;
    q.Normalize();
    return q;
  }

  const WorkloadSpec& spec_;
  const i3::Dataset& ds_;
  Rng rng_;
  i3::ZipfSampler zipf_;
  std::vector<Query> pool_;
  size_t cursor_ = 0;
  Query scratch_;
};

/// One write of the seeded insert/update/delete mix. Kinds follow a fixed
/// 10-op cycle (4 inserts, 3 updates, 3 deletes), so every run writes the
/// same proportions; the seed picks the documents.
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kDelete } kind;
  SpatialDocument old_doc;  // update, delete
  SpatialDocument new_doc;  // insert, update
};

/// Generates the write mix over the live corpus. New documents are
/// jittered copies of live ones (Twitter-like terms, clustered
/// locations), so inserts land in dense cells and drive splits.
class WriteSource {
 public:
  WriteSource(std::vector<SpatialDocument> live, const i3::Rect& space,
              uint64_t seed)
      : live_(std::move(live)), space_(space), rng_(seed * 1000003 + 11) {
    for (const SpatialDocument& d : live_) {
      next_id_ = std::max<DocId>(next_id_, d.id + 1);
    }
  }

  WriteOp Next() {
    static constexpr char kCycle[] = "IUDIUDIUDI";
    const char kind = kCycle[ops_++ % 10];
    WriteOp op;
    const size_t i = Pick();
    if (kind == 'I') {
      op.kind = WriteOp::Kind::kInsert;
      op.new_doc = Jitter(live_[i], next_id_++);
      live_.push_back(op.new_doc);
    } else if (kind == 'U') {
      op.kind = WriteOp::Kind::kUpdate;
      op.old_doc = live_[i];
      op.new_doc = Jitter(live_[Pick()], op.old_doc.id);
      live_[i] = op.new_doc;
    } else {
      op.kind = WriteOp::Kind::kDelete;
      op.old_doc = live_[i];
      live_[i] = std::move(live_.back());
      live_.pop_back();
    }
    return op;
  }

 private:
  size_t Pick() { return rng_.UniformInt(0, live_.size() - 1); }

  SpatialDocument Jitter(const SpatialDocument& base, DocId id) {
    SpatialDocument d = base;
    d.id = id;
    const double sigma = space_.Width() / 2000.0;
    d.location.x = std::clamp(base.location.x + rng_.Gaussian(0, sigma),
                              space_.min_x, space_.max_x);
    d.location.y = std::clamp(base.location.y + rng_.Gaussian(0, sigma),
                              space_.min_y, space_.max_y);
    for (auto& wt : d.terms) {
      wt.weight = static_cast<float>(rng_.UniformDouble(0.45, 0.55));
    }
    return d;
  }

  std::vector<SpatialDocument> live_;
  i3::Rect space_;
  Rng rng_;
  DocId next_id_ = 0;
  uint64_t ops_ = 0;
};

// --------------------------------------------------------------- stack

struct Stack {
  std::unique_ptr<i3::ShardedIndex> index;
  i3::ReplicaSet* replicas = nullptr;  // owned by index
  std::unique_ptr<net::Server> server;

  ~Stack() {
    if (server) server->Stop();
  }
  /// The stack's (first) I3Index, for page-level measurements; every
  /// shard and replica BuildStack makes is one.
  i3::I3Index* AnyI3() {
    i3::SpatialKeywordIndex* s =
        replicas != nullptr ? replicas->replica(0) : index->shard(0);
    return static_cast<i3::I3Index*>(s);
  }
};

/// Builds the served configuration: `spatialkw_cli serve`'s defaults (one
/// I3 shard, 512-page pool, 16 MiB cell cache, 4096-entry result cache, 2
/// workers), inserts the corpus through the public write path and starts
/// the server. Probes `clock` every 1,000 documents.
i3::Result<std::unique_ptr<Stack>> BuildStack(const WorkloadSpec& spec,
                                          const i3::Dataset& ds,
                                          const std::string& scratch_dir,
                                          ClockScale* clock) {
  auto stack = std::make_unique<Stack>();
  i3::I3Options opt;
  opt.space = ds.space;
  opt.buffer_pool.capacity_pages = spec.pool_pages;
  opt.cell_cache_bytes = size_t{spec.cell_cache_mb} << 20;
  std::vector<std::unique_ptr<i3::SpatialKeywordIndex>> shards;
  if (spec.replicated) {
    i3::ReplicaSetOptions ropt;
    ropt.replication_factor = 2;
    ropt.maintenance_interval_ms = 0;
    ropt.snapshot_dir = scratch_dir;
    auto set = i3::ReplicaSet::Create(
        [&opt](uint32_t) { return std::make_unique<i3::I3Index>(opt); },
        i3::MakeI3ReplicaOps([opt](uint32_t) { return opt; }), ropt);
    if (!set.ok()) return set.status();
    stack->replicas = set.ValueOrDie().get();
    shards.push_back(set.MoveValue());
  } else {
    shards.push_back(std::make_unique<i3::I3Index>(opt));
  }
  i3::ShardedIndexOptions sopt;
  sopt.num_shards = 1;
  sopt.search_threads = 0;
  stack->index =
      std::make_unique<i3::ShardedIndex>(std::move(shards), sopt);
  for (size_t i = 0; i < ds.docs.size(); ++i) {
    if (i % 1000 == 0) clock->Sample();
    I3_RETURN_NOT_OK(stack->index->Insert(ds.docs[i]));
  }
  clock->Sample();
  stack->server =
      std::make_unique<net::Server>(stack->index.get(), net::ServerOptions{});
  I3_RETURN_NOT_OK(stack->server->Start());
  return stack;
}

// ----------------------------------------------------------- wire load

/// Aggregated server span timeline of traced responses.
struct SpanTotals {
  uint64_t responses = 0;
  uint64_t engine_responses = 0;  // reached a worker (not a cache hit)
  uint64_t client_ns = 0;
  uint64_t server_top_ns = 0;  // summed top-level server spans
  uint64_t queue_wait_ns = 0;
  uint64_t shard_ns = 0;
  uint64_t cell_lookup_ns = 0;
  uint64_t topk_score_ns = 0;

  void Add(const net::WireTrace& t, uint64_t client_ns_in) {
    ++responses;
    client_ns += client_ns_in;
    bool engine = false;
    for (const net::WireTraceSpan& s : t.spans) {
      const bool shard = s.name.rfind("shard", 0) == 0;
      if (shard || s.name == "admission" || s.name == "queue_wait" ||
          s.name == "result_cache" || s.name == "encode") {
        server_top_ns += s.total_ns;
      }
      if (shard) {
        shard_ns += s.total_ns;
        engine = true;
      }
      if (s.name == "queue_wait") queue_wait_ns += s.total_ns;
      if (s.name == "cell_lookup") cell_lookup_ns += s.total_ns;
      if (s.name == "topk_score") topk_score_ns += s.total_ns;
    }
    if (engine) ++engine_responses;
  }
};

/// Everything the run counts and checks.
struct RunState {
  AnswerChecker checker;
  CheckLedger ledger;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool trace = false;
  /// Samples of the run's own frames for the codec timings.
  std::vector<std::string> request_frames;
  std::vector<net::Response> responses;
  SpanTotals spans;

  explicit RunState(const i3::Rect& space) : checker(space) {}

  /// Keeps the first 512 request frames and their responses.
  void KeepFrame(const net::Request& req, const net::Response& resp) {
    if (request_frames.size() >= 512) return;
    std::string frame;
    net::EncodeRequest(req, &frame);
    request_frames.push_back(std::move(frame));
    responses.push_back(resp);
  }
};

/// Closed-loop wire load: each connection sends its next request only
/// after its previous reply arrived; all connections are served by the
/// calling thread through poll().
class WireLoad {
 public:
  struct Result {
    std::vector<uint64_t> latency_ns;
    uint64_t completed = 0;
    uint64_t elapsed_ns = 0;
  };

  WireLoad(uint16_t port, uint32_t connections) {
    net::ClientOptions copts;
    copts.port = port;
    copts.recv_timeout_ms = 60000;
    for (uint32_t i = 0; i < connections; ++i) {
      auto c = net::Client::Connect(copts);
      if (c.ok()) clients_.push_back(c.MoveValue());
    }
  }

  bool ok(uint32_t want) const { return clients_.size() == want; }

  /// Runs until `deadline_ns` (whole requests: every request sent is
  /// awaited) or `max_requests` if nonzero. `next(query, pool_index)`
  /// supplies queries; `on_reply(query, pool_index, resp)` sees every
  /// reply outside the latency timer.
  template <typename NextFn, typename ReplyFn>
  Result Drive(uint64_t deadline_ns, uint64_t max_requests, bool trace,
               bool no_cache, RunState* st, NextFn&& next,
               ReplyFn&& on_reply) {
    struct Slot {
      Query query;
      int64_t pool_index = -1;
      uint64_t sent_ns = 0;
      bool busy = false;
    };
    std::vector<Slot> slots(clients_.size());
    Result out;
    uint64_t sent = 0;
    const uint64_t start = Now();
    auto send = [&](size_t c) {
      Slot& s = slots[c];
      s.query = next(&s.pool_index);
      net::Request req = ToRequest(s.query, ++request_id_);
      req.trace = trace;
      req.no_cache = no_cache;
      ++st->attempted;
      ++sent;
      s.sent_ns = Now();
      if (!clients_[c]->Send(req).ok()) {
        ++st->failed;
        return;
      }
      s.busy = true;
    };
    auto more = [&]() {
      return (max_requests == 0 || sent < max_requests) &&
             (deadline_ns == 0 || Now() < deadline_ns);
    };
    for (size_t c = 0; c < clients_.size() && more(); ++c) send(c);
    std::vector<pollfd> fds(clients_.size());
    for (;;) {
      size_t busy = 0;
      for (size_t c = 0; c < clients_.size(); ++c) {
        fds[c] = {clients_[c]->fd(), static_cast<short>(slots[c].busy
                                                            ? POLLIN
                                                            : 0),
                  0};
        busy += slots[c].busy;
      }
      if (busy == 0) break;
      if (clients_.size() > 1 &&
          poll(fds.data(), fds.size(), 60000) <= 0) {
        break;
      }
      for (size_t c = 0; c < clients_.size(); ++c) {
        if (!slots[c].busy) continue;
        if (clients_.size() > 1 && (fds[c].revents & POLLIN) == 0) continue;
        Slot& s = slots[c];
        auto resp = clients_[c]->ReadResponse();
        const uint64_t done = Now();
        s.busy = false;
        if (!resp.ok() ||
            resp.ValueOrDie().outcome != net::ResponseOutcome::kOk ||
            resp.ValueOrDie().degraded) {
          ++st->failed;
        } else {
          const uint64_t ns = done - s.sent_ns;
          out.latency_ns.push_back(ns);
          ++out.completed;
          const net::Response& r = resp.ValueOrDie();
          if (trace && r.has_trace) st->spans.Add(r.trace, ns);
          st->ledger.Record("wire response shape",
                            st->checker.CheckShape(s.query, r.results));
          st->KeepFrame(ToRequest(s.query, r.request_id), r);
          on_reply(s.query, s.pool_index, r);
        }
        if (more()) send(c);
      }
    }
    out.elapsed_ns = Now() - start;
    return out;
  }

 private:
  std::vector<std::unique_ptr<net::Client>> clients_;
  uint64_t request_id_ = 0;
};

// ---------------------------------------------------------------- run

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
};

class Run {
 public:
  Run(const WorkloadSpec& spec, const Options& opts, i3::Dataset ds)
      : spec_(spec),
        opts_(opts),
        ds_(std::move(ds)),
        st_(ds_.space),
        sample_rng_(opts.seed * 1000003 + 13),
        check_rng_(opts.seed * 1000003 + 17) {}

  int Execute();

 private:
  Status Setup();
  void ColdPass();
  void ReadPhase(double seconds);
  std::vector<uint64_t> DirectWindow(double seconds);
  void WireWindow(double seconds, bool timed);
  void IngestWindow(double seconds);
  void OnReply(const Query& q, int64_t pool_index, const net::Response& r);
  void WritePhase();
  void RecoverAndScrub();
  void LayerTimings();
  void CheckSample(const char* what, const std::vector<Query>& queries);
  Status ApplyWrite(const WriteOp& op, uint64_t* ns);
  void Report();

  const WorkloadSpec& spec_;
  Options opts_;
  i3::Dataset ds_;
  RunState st_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<WriteSource> writes_;
  std::unique_ptr<QuerySource> direct_src_, wire_src_;
  std::unique_ptr<WireLoad> load_;
  std::map<std::string, std::pair<double, const char*>> e2e_, layer_;

  /// Per-window figures of the timed phases as measured, with each
  /// window's clock scale (see QuietPercentile and ClockScale).
  struct Windows {
    std::vector<double> search_p50, qps, lat_p50, lat_p90, scale;
    std::vector<double> write_p50, write_scale;
    /// Every timed wire latency, in 1-us buckets up to 10 ms (the last
    /// bucket takes the rest), for the run's p99.
    std::vector<uint64_t> wire_us = std::vector<uint64_t>(10001);
    uint64_t wire_samples = 0;
    void AddWire(const std::vector<uint64_t>& ns) {
      for (uint64_t v : ns) ++wire_us[std::min<uint64_t>(v / 1000, 10000)];
      wire_samples += ns.size();
    }
    /// Upper edge of the bucket that holds the nearest-rank p99.
    double WireP99Us() const {
      const uint64_t rank = (99 * wire_samples + 99) / 100;
      uint64_t seen = 0;
      for (size_t b = 0; b < wire_us.size(); ++b) {
        seen += wire_us[b];
        if (seen >= rank && rank > 0) return static_cast<double>(b + 1);
      }
      return 0.0;
    }
  } win_;

  std::vector<Query> sample_;  // queries checked against the oracle
  std::vector<std::pair<Query, std::vector<ScoredDoc>>> sampled_;
  std::vector<uint64_t> first_answer_;  // per pool entry, 0 = not seen
  uint64_t repeats_ = 0, pool_draws_ = 0, ingest_checks_ = 0;
  Rng sample_rng_, check_rng_;
  std::vector<uint64_t> write_ns_;
  uint64_t write_pages_ = 0;
  Counters read_before_, read_after_;
  uint64_t read_queries_ = 0;      // direct + wire searches in read phases
  uint64_t read_device_pages_ = 0;
};

void Set(std::map<std::string, std::pair<double, const char*>>* m,
         const char* name, double value, const char* unit) {
  (*m)[name] = {value, unit};
}

Status Run::Setup() {
  std::vector<double> secs, raw;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    stack_.reset();  // the previous build is torn down untimed
    ClockScale clock;
    const uint64_t t0 = Now();
    auto built = BuildStack(spec_, ds_, opts_.scratch, &clock);
    if (!built.ok()) return built.status();
    raw.push_back((Now() - t0 - clock.probe_ns()) / 1e9);
    secs.push_back(raw.back() * clock.Scale());
    stack_ = built.MoveValue();
  }
  Set(&e2e_, "setup_s", Median(secs), "s");
  std::printf("setup: %u builds of %zu docs, median %.3f s (%.3f s at the "
              "reference clock)\n",
              kSetupReps, ds_.docs.size(), Median(raw), Median(secs));
  std::printf("reference raw_setup_s %.6f\n", Median(raw));
  for (const SpatialDocument& d : ds_.docs) {
    I3_RETURN_NOT_OK(st_.checker.Insert(d));
  }
  return Status::OK();
}

/// The paper's cost model: device page reads per query, every query
/// starting from cold caches. Single caller, so the I3 search stats of
/// the last search belong to that query.
void Run::ColdPass() {
  QuerySource src(spec_, ds_, opts_.seed, 1);
  i3::ShardedIndex& index = *stack_->index;
  i3::SpatialKeywordIndex* inner = index.shard(0);
  uint64_t head = 0, data = 0, total = 0, blockmax = 0, signature = 0;
  for (uint32_t i = 0; i < kColdQueries; ++i) {
    const Query& q = src.NextEach();
    index.ClearCache();
    const i3::IoStats before = index.io_stats();
    ++st_.attempted;
    auto r = index.Search(q, kAlpha);
    if (!r.ok()) {
      ++st_.failed;
      continue;
    }
    const i3::IoStats d = index.io_stats().Since(before);
    head += d.reads(i3::IoCategory::kI3HeadFile);
    data += d.reads(i3::IoCategory::kI3DataFile);
    total += d.TotalReads();
    const i3::SearchStatsView v = inner->LastSearchStats();
    blockmax += v.Get("blockmax_prunes");
    signature += v.Get("cells_pruned_signature");
    st_.ledger.Record("cold direct shape",
                      st_.checker.CheckShape(q, r.ValueOrDie()));
    if (i < 8) sample_.push_back(q);
  }
  const double n = kColdQueries;
  Set(&e2e_, "cold_pages_per_query", total / n, "pages");
  Set(&layer_, "i3.head_pages_per_query", head / n, "pages");
  Set(&layer_, "i3.data_pages_per_query", data / n, "pages");
  Set(&layer_, "i3.blockmax_prunes_per_query", blockmax / n, "count");
  Set(&layer_, "i3.signature_prunes_per_query", signature / n, "count");
  index.ClearCache();
}

/// The timed read phase: after warm-ups, kWindowsPerSecond windows per
/// second of `seconds`, each a direct part (30%) and a wire part (70%). The
/// wire window is reads only (spill-uniform, hot-zipf) or the ingest
/// rounds (ingest-replicated, replica 1 held down throughout).
void Run::ReadPhase(double seconds) {
  direct_src_ = std::make_unique<QuerySource>(spec_, ds_, opts_.seed, 2);
  wire_src_ = std::make_unique<QuerySource>(spec_, ds_, opts_.seed, 3);
  first_answer_.assign(wire_src_->pool_size(), 0);
  load_ = std::make_unique<WireLoad>(stack_->server->port(),
                                     spec_.connections);
  if (!load_->ok(spec_.connections) ||
      (spec_.replicated && !stack_->replicas->KillReplica(1).ok())) {
    ++st_.attempted;
    ++st_.failed;
    return;
  }
  DirectWindow(seconds * 0.05);
  WireWindow(seconds * 0.1, false);

  read_before_ = Counters::Take();
  const uint64_t wpages_before = stack_->index->io_stats().TotalWrites();
  const int windows =
      std::max(4, static_cast<int>(std::lround(seconds * kWindowsPerSecond)));
  const double window_s = seconds * 0.85 / windows;
  size_t threads = 0;
  for (int w = 0; w < windows; ++w) {
    ClockScale clock;
    clock.Sample();
    std::vector<uint64_t> ns = DirectWindow(window_s * 0.3);
    win_.search_p50.push_back(Quantile(&ns, 0.5) / 1e3);
    if (w == 0) threads = ThreadCount();
    clock.Sample();
    if (spec_.replicated) {
      IngestWindow(window_s * 0.7);
    } else {
      WireWindow(window_s * 0.7, true);
    }
    clock.Sample();
    win_.scale.push_back(clock.Scale());
    if (spec_.replicated) win_.write_scale.push_back(clock.Scale());
  }
  read_after_ = Counters::Take();
  if (spec_.replicated) {
    write_pages_ = stack_->index->io_stats().TotalWrites() - wpages_before;
  }

  const struct {
    const char* name;
    const std::vector<double>& values;
    bool rate;
  } timings[] = {{"search_p50_us", win_.search_p50, false},
                 {"qps", win_.qps, true},
                 {"lat_p50_us", win_.lat_p50, false},
                 {"lat_p90_us", win_.lat_p90, false}};
  for (const auto& t : timings) {
    Set(&e2e_, t.name,
        QuietPercentile(AtReferenceClock(t.values, win_.scale, t.rate), t.rate),
        t.rate ? "1/s" : "us");
    std::printf("reference raw_%s %.6f\n", t.name,
                QuietPercentile(t.values, t.rate));
  }
  Set(&layer_, "net.result_cache_hit_ratio",
      HitRatio(read_after_, read_before_, "i3_result_cache"), "ratio");
  Set(&layer_, "net.batch_size_mean",
      read_after_.HistMeanDelta(read_before_, "i3_net_batch_size"), "count");
  const uint64_t n = win_.wire_samples;
  std::printf(
      "read phase: %d windows; %" PRIu64 " timed wire searches over %u "
      "connection(s), %zu threads; clock scale %.3f (median window); "
      "quiet windows at the reference clock: search p50 %.1f us, "
      "wire p50 %.1f us, p90 %.1f us (about %" PRIu64 " samples per window "
      "beyond its p90); repeat share %.3f",
      windows, n, spec_.connections, threads, Median(win_.scale),
      e2e_["search_p50_us"].first, e2e_["lat_p50_us"].first,
      e2e_["lat_p90_us"].first, n / windows / 10,
      Ratio(repeats_, pool_draws_));
  if (spec_.replicated) {
    std::printf("; %zu writes, %" PRIu64 " read-after-write checks",
                write_ns_.size(), ingest_checks_);
  }
  std::printf("\nreference raw_lat_p99_us %.0f\n", win_.WireP99Us());
  for (auto& [q, got] : sampled_) {
    st_.ledger.Record("wire vs oracle",
                      st_.checker.CheckAgainstOracle(q, kAlpha, got));
    sample_.push_back(q);
  }
}

/// One in-process caller, no result cache; returns the latencies.
std::vector<uint64_t> Run::DirectWindow(double seconds) {
  i3::ShardedIndex& index = *stack_->index;
  std::vector<uint64_t> ns;
  const uint64_t end = Now() + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t pages_before = index.io_stats().TotalReads();
  for (uint64_t t = Now(); t < end; t = Now()) {
    const Query& q = direct_src_->NextEach();
    ++st_.attempted;
    const uint64_t t0 = Now();
    auto r = index.Search(q, kAlpha);
    const uint64_t dt = Now() - t0;
    if (!r.ok()) {
      ++st_.failed;
      continue;
    }
    ns.push_back(dt);
    ++read_queries_;
    st_.ledger.Record("direct shape",
                      st_.checker.CheckShape(q, r.ValueOrDie()));
  }
  read_device_pages_ += index.io_stats().TotalReads() - pages_before;
  return ns;
}

/// Checks every wire reply beyond its shape: a warm repeat of a pool
/// query must equal the first answer to it (reset by writes), and a
/// seeded sample is kept for the oracle.
void Run::OnReply(const Query& q, int64_t pool_index,
                  const net::Response& r) {
  if (pool_index >= 0) {
    ++pool_draws_;
    const uint64_t sum = net::ResultChecksum(r.results);
    uint64_t& f = first_answer_[pool_index];
    if (f == 0) {
      f = sum;
    } else {
      ++repeats_;
      st_.ledger.Record("warm repeat equals cold answer",
                        f == sum ? "" : "checksum differs");
    }
  }
  if (!spec_.replicated && sampled_.size() < 24 &&
      sample_rng_.Chance(0.002)) {
    sampled_.emplace_back(q, r.results);
  }
}

/// Reads only, closed loop over every connection.
void Run::WireWindow(double seconds, bool timed) {
  const uint64_t pages_before = stack_->index->io_stats().TotalReads();
  WireLoad::Result res = load_->Drive(
      Now() + static_cast<uint64_t>(seconds * 1e9), 0, timed && st_.trace,
      false, &st_,
      [&](int64_t* pool_index) -> const Query& {
        return wire_src_->Next(pool_index);
      },
      [&](const Query& q, int64_t pool_index, const net::Response& r) {
        OnReply(q, pool_index, r);
      });
  if (!timed) return;
  read_device_pages_ +=
      stack_->index->io_stats().TotalReads() - pages_before;
  read_queries_ += res.completed;
  win_.qps.push_back(Ratio(res.completed, res.elapsed_ns / 1e9));
  win_.AddWire(res.latency_ns);
  win_.lat_p50.push_back(Quantile(&res.latency_ns, 0.5) / 1e3);
  win_.lat_p90.push_back(Quantile(&res.latency_ns, 0.9) / 1e3);
}

/// ingest-replicated: rounds of one write followed by `kReadsPerWrite`
/// wire reads, all from this thread. The round count is fixed by
/// `seconds` (kIngestRoundsPerSecond, about this host's rate), not by the
/// clock, so the same seed writes the same corpus. A seeded 5% of rounds
/// (at most 64 per run) check the read right after the write against the
/// oracle, over the wire and directly; check time is excluded.
void Run::IngestWindow(double seconds) {
  std::vector<uint64_t> read_ns, write_ns;
  uint64_t timed_ns = 0, reads = 0;
  const int64_t rounds = std::max<int64_t>(
      1, std::llround(seconds * kIngestRoundsPerSecond));
  for (int64_t round = 0; round < rounds; ++round) {
    const uint64_t t0 = Now();
    ++st_.attempted;
    uint64_t ns = 0;
    if (ApplyWrite(writes_->Next(), &ns).ok()) {
      write_ns.push_back(ns);
    } else {
      ++st_.failed;
    }
    // The corpus changed: earlier answers to pool queries are stale.
    std::fill(first_answer_.begin(), first_answer_.end(), 0);
    WireLoad::Result res = load_->Drive(
        0, kReadsPerWrite, st_.trace, false, &st_,
        [&](int64_t* pool_index) -> const Query& {
          return wire_src_->Next(pool_index);
        },
        [&](const Query& q, int64_t pool_index, const net::Response& r) {
          OnReply(q, pool_index, r);
        });
    timed_ns += Now() - t0;
    reads += res.completed;
    read_ns.insert(read_ns.end(), res.latency_ns.begin(),
                   res.latency_ns.end());
    if (ingest_checks_ < 64 && check_rng_.Chance(0.05)) {
      ++ingest_checks_;
      int64_t pool_index;
      sample_.assign(1, wire_src_->Next(&pool_index));
      CheckSample("read after write", sample_);
    }
  }
  win_.qps.push_back(Ratio(reads, timed_ns / 1e9));
  win_.write_p50.push_back(Quantile(&write_ns, 0.5) / 1e3);
  win_.AddWire(read_ns);
  win_.lat_p50.push_back(Quantile(&read_ns, 0.5) / 1e3);
  win_.lat_p90.push_back(Quantile(&read_ns, 0.9) / 1e3);
  write_ns_.insert(write_ns_.end(), write_ns.begin(), write_ns.end());
}

Status Run::ApplyWrite(const WriteOp& op, uint64_t* ns) {
  i3::ShardedIndex& index = *stack_->index;
  Status st, mirror;
  const uint64_t t0 = Now();
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      st = index.Insert(op.new_doc);
      *ns = Now() - t0;
      mirror = st_.checker.Insert(op.new_doc);
      break;
    case WriteOp::Kind::kUpdate:
      st = index.Update(op.old_doc, op.new_doc);
      *ns = Now() - t0;
      mirror = st_.checker.Update(op.old_doc, op.new_doc);
      break;
    case WriteOp::Kind::kDelete:
      st = index.Delete(op.old_doc);
      *ns = Now() - t0;
      mirror = st_.checker.Delete(op.old_doc);
      break;
  }
  return st.ok() ? mirror : st;
}

/// spill-uniform / hot-zipf: the seeded write mix after the read phase,
/// in windows of kWritesPerWindow ops, then reads right after the
/// writes, checked against the oracle over the wire (the result cache
/// must not serve pre-write answers) and directly.
void Run::WritePhase() {
  const uint64_t pages_before = stack_->index->io_stats().TotalWrites();
  std::vector<uint64_t> chunk;
  ClockScale clock;
  clock.Sample();
  for (uint32_t i = 0; i < kPostReadWrites; ++i) {
    ++st_.attempted;
    uint64_t ns = 0;
    if (ApplyWrite(writes_->Next(), &ns).ok()) {
      write_ns_.push_back(ns);
      chunk.push_back(ns);
    } else {
      ++st_.failed;
    }
    if ((i + 1) % kWritesPerWindow == 0) {
      win_.write_p50.push_back(Quantile(&chunk, 0.5) / 1e3);
      chunk.clear();
      clock.Sample();
      win_.write_scale.push_back(clock.Scale());
      clock = ClockScale();
      clock.Sample();
    }
  }
  write_pages_ = stack_->index->io_stats().TotalWrites() - pages_before;
  CheckSample("post-write", sample_);
}

/// Checks `queries` wire (cache allowed), wire (cache bypassed) and
/// direct against the oracle on the current corpus.
void Run::CheckSample(const char* what, const std::vector<Query>& queries) {
  WireLoad load(stack_->server->port(), 1);
  if (!load.ok(1)) {
    ++st_.attempted;
    ++st_.failed;
    return;
  }
  const std::string label = what;
  for (bool no_cache : {false, true}) {
    size_t i = 0;
    load.Drive(0, queries.size(), false, no_cache, &st_,
               [&](int64_t* pool_index) -> const Query& {
                 *pool_index = -1;
                 return queries[i++];
               },
               [&](const Query& q, int64_t, const net::Response& r) {
                 st_.ledger.Record(
                     (label + " wire vs oracle").c_str(),
                     st_.checker.CheckAgainstOracle(q, kAlpha, r.results));
               });
  }
  for (const Query& q : queries) {
    ++st_.attempted;
    auto r = stack_->index->Search(q, kAlpha);
    if (!r.ok()) {
      ++st_.failed;
      continue;
    }
    st_.ledger.Record((label + " direct vs oracle").c_str(),
                      st_.checker.CheckAgainstOracle(q, kAlpha,
                                                     r.ValueOrDie()));
  }
}

/// ingest-replicated, after the interleaved phase: online recovery of
/// the held-down replica (snapshot + catch-up), the recovered replica
/// checked against the oracle, then one full scrub sweep.
void Run::RecoverAndScrub() {
  i3::ReplicaSet& set = *stack_->replicas;
  const i3::ReplicaSetStatus down = set.GetStatus();
  const uint64_t missed = down.replicas[1].lag;
  ++st_.attempted;
  const uint64_t t0 = Now();
  const Status rec = set.RecoverReplica(1);
  const double recovery_ms = (Now() - t0) / 1e6;
  if (!rec.ok()) {
    ++st_.failed;
    std::fprintf(stderr, "RecoverReplica: %s\n", rec.ToString().c_str());
    return;
  }
  QuerySource src(spec_, ds_, opts_.seed, 4);
  for (int i = 0; i < 16; ++i) {
    int64_t pool_index;
    const Query& q = src.Next(&pool_index);
    ++st_.attempted;
    auto r = set.replica(1)->Search(q, kAlpha);
    if (!r.ok()) {
      ++st_.failed;
      continue;
    }
    st_.ledger.Record("recovered replica vs oracle",
                      st_.checker.CheckAgainstOracle(q, kAlpha,
                                                     r.ValueOrDie()));
  }

  // One full sweep: every data page of both replicas verified once.
  uint64_t pages = 0;
  for (uint32_t r = 0; r < 2; ++r) {
    pages += static_cast<i3::I3Index*>(set.replica(r))->DataPageCount();
  }
  const uint64_t verified0 = set.GetStatus().scrub_pages_verified;
  const uint64_t s0 = Now();
  uint64_t verified = verified0;
  while (verified < verified0 + pages) {
    ++st_.attempted;
    if (!set.ScrubTick().ok()) ++st_.failed;
    verified = set.GetStatus().scrub_pages_verified;
  }
  const double scrub_s = (Now() - s0) / 1e9;
  const i3::ReplicaSetStatus after = set.GetStatus();
  if (after.scrub_corrupt_found != 0) {
    st_.ledger.Record("scrub", "scrub found corrupt pages");
  }

  // The snapshot recovery installs, sized by saving one the same way.
  uint64_t snapshot_bytes = 0;
  const std::string path = opts_.scratch + "/size_probe.snap";
  i3::I3Options opt;
  opt.space = ds_.space;
  if (i3::MakeI3ReplicaOps([opt](uint32_t) { return opt; })
          .save(*set.replica(0), path)
          .ok()) {
    std::error_code ec;
    snapshot_bytes = std::filesystem::file_size(path, ec);
    std::filesystem::remove(path, ec);
  }
  Set(&layer_, "model.recovery_ms", recovery_ms, "ms");
  Set(&layer_, "model.catchup_ops", static_cast<double>(missed), "count");
  Set(&layer_, "storage.scrub_pages_per_s", Ratio(verified - verified0,
                                                  scrub_s),
      "1/s");
  Set(&layer_, "storage.snapshot_bytes", static_cast<double>(snapshot_bytes),
      "B");
  std::printf("recovery: %.1f ms for %" PRIu64
              " missed ops; scrub: %" PRIu64 " pages in %.3f s\n",
              recovery_ms, missed, verified - verified0, scrub_s);
}

/// Timers around public calls the server spans do not reach: protocol
/// codec on the run's own frames, CRC32C and cell decode on the run's own
/// pages, and traced-vs-untraced and wire-vs-direct latency on one query
/// sample.
void Run::LayerTimings() {
  // Protocol codec.
  const size_t frames = st_.request_frames.size();
  double decode_ns = 0, encode_ns = 0, req_encode_ns = 0, resp_decode_ns = 0;
  if (frames > 0) {
    constexpr int kReps = 50;
    std::vector<net::Request> reqs;
    std::vector<std::string> resp_frames(frames);
    uint64_t t0 = Now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const std::string& f : st_.request_frames) {
        auto r = net::DecodeRequest(
            reinterpret_cast<const uint8_t*>(f.data()) + 4, f.size() - 4);
        if (rep == 0 && r.ok()) reqs.push_back(r.MoveValue());
      }
    }
    decode_ns = (Now() - t0) / double(kReps * frames);
    t0 = Now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t i = 0; i < frames; ++i) {
        resp_frames[i].clear();
        net::EncodeResponse(st_.responses[i], &resp_frames[i]);
      }
    }
    encode_ns = (Now() - t0) / double(kReps * frames);
    std::string scratch;
    t0 = Now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const net::Request& r : reqs) {
        scratch.clear();
        net::EncodeRequest(r, &scratch);
      }
    }
    req_encode_ns = (Now() - t0) / double(kReps * std::max<size_t>(
                                                    reqs.size(), 1));
    t0 = Now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const std::string& f : resp_frames) {
        auto r = net::DecodeResponse(
            reinterpret_cast<const uint8_t*>(f.data()) + 4, f.size() - 4);
        if (!r.ok()) st_.ledger.Record("response codec", "decode failed");
      }
    }
    resp_decode_ns = (Now() - t0) / double(kReps * frames);
  }
  Set(&layer_, "net.request_decode_ns", decode_ns, "ns");
  Set(&layer_, "net.response_encode_ns", encode_ns, "ns");

  // Span attribution of the traced wire phase.
  const SpanTotals& sp = st_.spans;
  const double resp = std::max<double>(sp.responses, 1);
  const double engine = std::max<double>(sp.engine_responses, 1);
  Set(&layer_, "net.queue_wait_us", sp.queue_wait_ns / engine / 1e3, "us");
  Set(&layer_, "model.shard_search_us", sp.shard_ns / engine / 1e3, "us");
  Set(&layer_, "i3.cell_lookup_us", sp.cell_lookup_ns / engine / 1e3, "us");
  Set(&layer_, "i3.topk_score_us", sp.topk_score_ns / engine / 1e3, "us");
  const double codec_us =
      (req_encode_ns + decode_ns + resp_decode_ns) / 1e3;
  Set(&layer_, "obs.unattributed_us",
      (double(sp.client_ns) - double(sp.server_top_ns)) / resp / 1e3 -
          codec_us,
      "us");

  // CRC32C and cell decode on up to 256 of the run's data pages.
  i3::I3Index* i3 = stack_->AnyI3();
  std::vector<std::vector<uint8_t>> pages;
  const uint64_t count = i3->DataPageCount();
  for (uint64_t p = 0; p < count && pages.size() < 256;
       p += std::max<uint64_t>(count / 256, 1)) {
    auto bytes = i3->ReadDataPageBytes(p);
    if (bytes.ok() && !bytes.ValueOrDie().empty()) {
      pages.push_back(bytes.MoveValue());
    }
  }
  uint32_t crc_sink = 0;
  uint64_t t0 = Now();
  constexpr int kCrcReps = 20;
  for (int rep = 0; rep < kCrcReps; ++rep) {
    for (const auto& p : pages) crc_sink ^= i3::Crc32c(p.data(), p.size());
  }
  Set(&layer_, "storage.crc32c_ns_per_page",
      Ratio(Now() - t0, double(kCrcReps) * pages.size()), "ns");
  uint64_t tuples = 0, decode_total_ns = 0;
  {
    i3::codec::DecodeScratch scratch;
    for (int rep = 0; rep < 5; ++rep) {
      for (const auto& p : pages) {
        if (!i3::codec::IsV2Page(p.data(), p.size())) continue;
        auto groups = i3::codec::GroupCount(p.data(), p.size());
        if (!groups.ok()) continue;
        for (uint32_t g = 0; g < groups.ValueOrDie(); ++g) {
          i3::codec::GroupRef ref;
          if (!i3::codec::ReadGroupRef(p.data(), p.size(), g, &ref).ok()) {
            continue;
          }
          i3::codec::DecodedGroup out;
          const uint64_t d0 = Now();
          const Status ds =
              i3::codec::DecodeGroup(p.data(), p.size(), ref, &scratch, &out);
          decode_total_ns += Now() - d0;
          if (ds.ok()) tuples += out.n;
        }
      }
    }
  }
  Set(&layer_, "i3.decode_ns_per_tuple", Ratio(decode_total_ns, tuples),
      "ns");
  g_sink = crc_sink;

  // Traced vs untraced and wire vs direct, alternating on one sample of
  // cache-bypassing requests.
  QuerySource src(spec_, ds_, opts_.seed, 5);
  std::vector<Query> qs;
  for (int i = 0; i < 400; ++i) {
    int64_t pool_index;
    qs.push_back(src.Next(&pool_index));
  }
  WireLoad load(stack_->server->port(), 1);
  std::vector<uint64_t> traced, untraced, direct;
  if (load.ok(1)) {
    for (int round = 0; round < 2; ++round) {
      for (bool trace : {round == 0, round != 0}) {
        size_t i = 0;
        auto res = load.Drive(
            0, qs.size(), trace, true, &st_,
            [&](int64_t* pool_index) -> const Query& {
              *pool_index = -1;
              return qs[i++];
            },
            [](const Query&, int64_t, const net::Response&) {});
        auto& dst = trace ? traced : untraced;
        dst.insert(dst.end(), res.latency_ns.begin(), res.latency_ns.end());
      }
      for (const Query& q : qs) {
        ++st_.attempted;
        const uint64_t d0 = Now();
        auto r = stack_->index->Search(q, kAlpha);
        direct.push_back(Now() - d0);
        if (!r.ok()) ++st_.failed;
      }
    }
  }
  const double untraced_p50 = Quantile(&untraced, 0.5);
  Set(&layer_, "obs.trace_overhead_us",
      (Quantile(&traced, 0.5) - untraced_p50) / 1e3, "us");
  Set(&layer_, "net.wire_overhead_us",
      (untraced_p50 - Quantile(&direct, 0.5)) / 1e3, "us");
}

void Run::Report() {
  const double write_n = std::max<double>(write_ns_.size(), 1);
  uint64_t wsum = 0;
  for (uint64_t v : write_ns_) wsum += v;
  Set(&e2e_, "write_p50_us",
      QuietPercentile(AtReferenceClock(win_.write_p50, win_.write_scale, false),
                  false),
      "us");
  std::printf("reference raw_write_p50_us %.6f\n",
              QuietPercentile(win_.write_p50, false));
  Set(&layer_, "i3.write_pages_per_op", write_pages_ / write_n, "pages");
  Set(&layer_, "model.replicated_write_us",
      spec_.replicated ? wsum / write_n / 1e3 : 0.0, "us");
  if (!spec_.replicated) {
    Set(&layer_, "model.recovery_ms", 0.0, "ms");
    Set(&layer_, "model.catchup_ops", 0.0, "count");
    Set(&layer_, "storage.scrub_pages_per_s", 0.0, "1/s");
    Set(&layer_, "storage.snapshot_bytes", 0.0, "B");
  }
  i3::ShardedIndex& index = *stack_->index;
  Set(&e2e_, "index_bytes_per_doc",
      Ratio(index.SizeInfo().TotalBytes(), index.DocumentCount()), "B");
  Set(&e2e_, "peak_rss_mb", PeakRssMb(), "MB");
  Set(&layer_, "storage.pool_hit_ratio",
      HitRatio(read_after_, read_before_, "i3_buffer_pool"), "ratio");
  Set(&layer_, "i3.cell_cache_hit_ratio",
      HitRatio(read_after_, read_before_, "i3_cell_cache"), "ratio");
  Set(&layer_, "storage.device_reads_per_query",
      Ratio(read_device_pages_, read_queries_), "pages");

  std::printf("checks: %" PRIu64 " made, %" PRIu64 " failed%s%s\n",
              st_.ledger.checks, st_.ledger.failures,
              st_.ledger.ok() ? "" : "; first: ",
              st_.ledger.first_failure.c_str());
  const auto& shown = st_.trace ? layer_ : e2e_;
  const auto& other = st_.trace ? e2e_ : layer_;
  for (const auto& [name, v] : other) {
    std::printf("  (%s %.6g %s)\n", name.c_str(), v.first, v.second);
  }
  std::string json = "{\"correct\": ";
  json += st_.ledger.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(st_.attempted);
  json += ", \"failed\": " + std::to_string(st_.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : shown) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(v.first) ? v.first : 0.0, v.second);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run::Execute() {
  st_.trace = opts_.trace;
  std::error_code ec;
  std::filesystem::create_directories(opts_.scratch, ec);
  Status s = Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 2;
  }
  writes_ = std::make_unique<WriteSource>(ds_.docs, ds_.space, opts_.seed);

  ColdPass();
  ReadPhase(opts_.seconds);
  if (spec_.replicated) {
    RecoverAndScrub();
  } else {
    WritePhase();
  }
  if (opts_.trace) LayerTimings();
  Report();
  return 0;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else if (flag == "--scratch") {
      opts.scratch = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = FindWorkload(opts.workload);
  if (spec == nullptr || opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_serving --workload spill-uniform|hot-zipf|"
                 "ingest-replicated --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const int cpu = PinToOneCpu();
  // The corpus is the same for every seed (like a fixed dataset file);
  // the seed drives the queries, the query pool and the writes.
  i3::Dataset ds = i3::Generate(i3::TwitterSpec(spec->docs, kCorpusSeed));
  std::printf("workload %s seed %" PRIu64 ": %zu docs, %.0f s, cpu %d\n",
              spec->name, opts.seed, ds.docs.size(), opts.seconds, cpu);
  Run run(*spec, opts, std::move(ds));
  return run.Execute();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
