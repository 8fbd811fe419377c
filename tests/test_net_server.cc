// End-to-end tests of the serving front end (net/server.h) over loopback:
// a differential harness proving wire responses byte-identical (by
// order-sensitive checksum) to direct ShardedIndex::Search calls under a
// seeded concurrent mixed workload; protocol-abuse scenarios (garbage,
// oversized frames, slow dribbling writers, pipelining); the HTTP metrics
// side channel; the admission-control contract -- a saturating tenant
// is shed fast with bounded latency while other tenants are unaffected;
// and the run-to-completion loops' batching of a pipelined burst.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/token_bucket.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace i3 {
namespace net {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

CorpusOptions ServingCorpus() {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 30;
  return copt;
}

std::unique_ptr<ShardedIndex> MakeIndex(const CorpusOptions& copt,
                                        uint64_t seed) {
  auto res = ShardedIndex::Create(
      [&copt](uint32_t) {
        I3Options opt;
        opt.space = copt.space;
        opt.page_size = 128;
        opt.signature_bits = 64;
        return std::make_unique<I3Index>(opt);
      },
      {.num_shards = 4});
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  auto index = res.MoveValue();
  for (const auto& d : MakeCorpus(copt, seed)) {
    EXPECT_TRUE(index->Insert(d).ok());
  }
  return index;
}

Request SearchRequest(const Query& q, uint64_t id, double alpha,
                      uint32_t tenant = 0) {
  Request req;
  req.request_id = id;
  req.tenant = tenant;
  req.k = q.k;
  req.semantics = q.semantics;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = alpha;
  req.terms = q.terms;
  return req;
}

class NetServerTest : public ::testing::Test {
 protected:
  /// Starts a server (replacing any running one) over the shared index,
  /// built on first use.
  void StartServer(ServerOptions opts = {}) {
    if (index_ == nullptr) index_ = MakeIndex(ServingCorpus(), /*seed=*/21);
    server_ = std::make_unique<Server>(index_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  Result<std::unique_ptr<Client>> Connect(ClientOptions opts = {}) {
    opts.port = server_->port();
    if (opts.recv_timeout_ms == 0) opts.recv_timeout_ms = 10000;
    return Client::Connect(opts);
  }

  std::unique_ptr<ShardedIndex> index_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, PingPong) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.ValueOrDie()->Ping().ok());
  }
}

// The core differential property: responses served over the wire carry
// exactly the results a direct library call produces -- same docs, same
// scores, same order -- proven via the order-sensitive checksum.
TEST_F(NetServerTest, WireResultsMatchDirectSearch) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  auto queries = MakeQueries(copt, /*num_queries=*/30, /*qn=*/2, /*k=*/10,
                             Semantics::kOr, /*seed=*/31);
  const auto and_queries =
      MakeQueries(copt, /*num_queries=*/30, /*qn=*/2, /*k=*/10,
                  Semantics::kAnd, /*seed=*/32);
  queries.insert(queries.end(), and_queries.begin(), and_queries.end());

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const double alpha = i % 2 == 0 ? 0.5 : 0.8;
    auto direct = index_->Search(queries[i], alpha);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto wire =
        client.ValueOrDie()->Call(SearchRequest(queries[i], i, alpha));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const Response& resp = wire.ValueOrDie();
    ASSERT_EQ(resp.outcome, ResponseOutcome::kOk) << resp.message;
    EXPECT_EQ(resp.request_id, i);
    EXPECT_FALSE(resp.degraded);
    EXPECT_EQ(ResultChecksum(resp.results),
              ResultChecksum(direct.ValueOrDie()))
        << "query " << i;
  }
  EXPECT_EQ(server_->requests_error(), 0u);
}

// N concurrent clients, pipelined batches, seeded mixed AND/OR workload:
// every response matches its request id and the direct result checksum,
// under whatever batching/reordering the server does internally -- with
// every connection on one loop, and spread over four.
TEST_F(NetServerTest, ConcurrentClientsDifferential) {
  const CorpusOptions copt = ServingCorpus();
  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  index_ = MakeIndex(copt, /*seed=*/21);

  // Precompute direct baselines (the index is concurrent-search safe, but
  // a fixed baseline keeps the comparison exact and race-free).
  std::vector<std::vector<Query>> workload(kClients);
  std::vector<std::vector<uint64_t>> baseline(kClients);
  for (int c = 0; c < kClients; ++c) {
    workload[c] =
        MakeQueries(copt, kPerClient, /*qn=*/2, /*k=*/10,
                    c % 2 == 0 ? Semantics::kAnd : Semantics::kOr,
                    /*seed=*/100 + c);
    for (const Query& q : workload[c]) {
      auto direct = index_->Search(q, 0.5);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      baseline[c].push_back(ResultChecksum(direct.ValueOrDie()));
    }
  }

  for (const uint32_t loops : {1u, 4u}) {
    SCOPED_TRACE("loop_threads " + std::to_string(loops));
    ServerOptions sopts;
    sopts.loop_threads = loops;
    sopts.batch_max = 8;
    StartServer(sopts);

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientOptions copts;
        copts.port = server_->port();
        copts.recv_timeout_ms = 20000;
        auto client = Client::Connect(copts);
        if (!client.ok()) {
          ++failures;
          return;
        }
        // Pipeline in bursts of 4, then read the burst back. Responses on
        // one connection may interleave across batches; match by id.
        constexpr int kBurst = 4;
        for (int base = 0; base < kPerClient; base += kBurst) {
          for (int i = base; i < base + kBurst; ++i) {
            const uint64_t id = uint64_t{static_cast<uint32_t>(c)} << 32 | i;
            if (!client.ValueOrDie()
                     ->Send(SearchRequest(workload[c][i], id, 0.5))
                     .ok()) {
              ++failures;
              return;
            }
          }
          for (int i = 0; i < kBurst; ++i) {
            auto resp = client.ValueOrDie()->ReadResponse();
            if (!resp.ok() ||
                resp.ValueOrDie().outcome != ResponseOutcome::kOk) {
              ++failures;
              return;
            }
            const uint64_t id = resp.ValueOrDie().request_id;
            const int qi = static_cast<int>(id & 0xffffffff);
            const int qc = static_cast<int>(id >> 32);
            if (qc != c || qi < base || qi >= base + kBurst ||
                ResultChecksum(resp.ValueOrDie().results) !=
                    baseline[qc][qi]) {
              ++failures;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server_->requests_ok(), uint64_t{kClients} * kPerClient);
    EXPECT_EQ(server_->requests_error(), 0u);
    EXPECT_EQ(server_->requests_shed(), 0u);
  }
}

// A client dribbling one frame a few bytes at a time (slow writer /
// pathological segmentation) must still be served correctly.
TEST_F(NetServerTest, SlowPartialWritesAreReassembled) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/41);
  ClientOptions copts;
  copts.write_chunk = 3;
  copts.write_chunk_delay_us = 200;
  auto client = Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok());
    auto wire = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(wire.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }
}

// Malformed-but-framed payloads get an error response and the connection
// survives; an oversized length prefix gets an error response and a
// close; raw garbage cannot crash the server. In every case the server
// keeps serving other clients.
TEST_F(NetServerTest, ProtocolAbuseGetsCleanErrors) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 1, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/51);

  {  // Malformed payload inside a sound frame: error, connection lives.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    std::string frame;
    EncodeRequest(SearchRequest(queries[0], 77, 0.5), &frame);
    frame[kFrameHeaderBytes] ^= 0xff;  // break the magic
    ASSERT_TRUE(client.ValueOrDie()
                    ->SendBytes(frame.data(), frame.size())
                    .ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    // Framing stayed sound, so the same connection still serves.
    EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
  }
  {  // Damaged payload with an intact request id: the error echoes it.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    std::string frame;
    EncodeRequest(SearchRequest(queries[0], 0xabcd, 0.5), &frame);
    frame[kFrameHeaderBytes + 20] = 9;  // semantics out of range
    ASSERT_TRUE(client.ValueOrDie()
                    ->SendBytes(frame.data(), frame.size())
                    .ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    EXPECT_EQ(resp.ValueOrDie().request_id, 0xabcdu);
  }
  {  // Oversized length prefix: error response, then the server closes.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    const uint32_t huge = kMaxFramePayload + 1;
    uint8_t hdr[4];
    for (int i = 0; i < 4; ++i) hdr[i] = static_cast<uint8_t>(huge >> i * 8);
    ASSERT_TRUE(client.ValueOrDie()->SendBytes(hdr, sizeof(hdr)).ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    auto after = client.ValueOrDie()->ReadResponse();
    EXPECT_FALSE(after.ok());  // clean close
  }
  {  // Seeded raw-garbage storm across fresh connections.
    Rng rng(61);
    for (int iter = 0; iter < 20; ++iter) {
      auto client = Connect({.recv_timeout_ms = 2000});
      ASSERT_TRUE(client.ok());
      std::string junk;
      const int n = static_cast<int>(rng.UniformInt(1, 200));
      for (int i = 0; i < n; ++i) {
        junk.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      ASSERT_TRUE(
          client.ValueOrDie()->SendBytes(junk.data(), junk.size()).ok());
      client.ValueOrDie()->CloseWrite();
      // Whatever comes back (error frames, a close, or a timeout while
      // the server waits for more bytes) must be clean, not a crash.
      while (client.ValueOrDie()->ReadResponse().ok()) {
      }
    }
  }
  // The server survived it all.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
}

TEST_F(NetServerTest, HttpMetricsSideChannel) {
  StartServer();
  // Generate some traffic so the serving metrics exist and move.
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 3, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/71);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(resp.ok());
  }

  auto metrics = HttpGet("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.ValueOrDie();
  EXPECT_NE(text.find("HTTP/1.1 200 OK"), std::string::npos);
  for (const char* series :
       {"i3_net_connections", "i3_net_queue_depth", "i3_requests_shed_total",
        "i3_net_requests_total", "i3_request_latency_us",
        "i3_net_batch_size"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }

  auto missing = HttpGet("127.0.0.1", server_->port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing.ValueOrDie().find("404"), std::string::npos);
}

// Admission control, tenant isolation, and shed latency: a tenant with a
// tiny budget saturates; its overflow is shed fast (never touching the
// index) while a second tenant's requests all succeed.
TEST_F(NetServerTest, SaturatedTenantShedsFastAndIsolated) {
  ServerOptions opts;
  opts.loop_threads = 2;
  // Tenant 1 gets ~5 requests of budget; tenant 2 is unlimited.
  opts.tenant_limits.push_back({1, {.rate = 1.0, .burst = 5.0}});
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 60, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/81);

  auto hog = Connect();
  auto polite = Connect();
  ASSERT_TRUE(hog.ok());
  ASSERT_TRUE(polite.ok());

  int hog_ok = 0, hog_shed = 0;
  uint64_t worst_shed_us = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t t0 = obs::NowNanos();
    auto resp = hog.ValueOrDie()->Call(
        SearchRequest(queries[i], i, 0.5, /*tenant=*/1));
    const uint64_t elapsed_us = (obs::NowNanos() - t0) / 1000;
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.ValueOrDie().outcome == ResponseOutcome::kShed) {
      ++hog_shed;
      worst_shed_us = std::max(worst_shed_us, elapsed_us);
      EXPECT_TRUE(resp.ValueOrDie().results.empty());
      EXPECT_FALSE(resp.ValueOrDie().message.empty());
    } else {
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
      ++hog_ok;
    }
  }
  // The burst passes, the overflow sheds.
  EXPECT_GE(hog_ok, 5);
  EXPECT_GE(hog_shed, 40);
  // Shed responses never run a search; even a generous bound (loopback
  // RTT + loop-thread turn) separates them from index latency.
  EXPECT_LT(worst_shed_us, 100000u);

  // The polite tenant is untouched by the hog's saturation.
  for (size_t i = 0; i < 20; ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok());
    auto resp = polite.ValueOrDie()->Call(
        SearchRequest(queries[i], 1000 + i, 0.5, /*tenant=*/2));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }

  EXPECT_EQ(server_->requests_shed(), static_cast<uint64_t>(hog_shed));
  EXPECT_EQ(server_->requests_error(), 0u);

  // The shed counter and queue gauge are visible on /metrics.
  auto metrics = HttpGet("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics.ValueOrDie();
  // Anchor at line start so the sample line matches, not its HELP line.
  const size_t pos = text.find("\ni3_requests_shed_total ");
  ASSERT_NE(pos, std::string::npos);
  const double shed_value =
      std::strtod(text.c_str() + pos + strlen("\ni3_requests_shed_total "),
                  nullptr);
  EXPECT_GE(shed_value, static_cast<double>(hog_shed));
}

// max_queue = 0 sheds every search deterministically (the overload
// backstop with the bar on the floor) while pings still answer.
TEST_F(NetServerTest, QueueBoundShedsWhenFull) {
  ServerOptions opts;
  opts.max_queue = 0;
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/91);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kShed);
    EXPECT_NE(resp.ValueOrDie().message.find("overloaded"),
              std::string::npos);
  }
  EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
  EXPECT_EQ(server_->requests_shed(), queries.size());
}

// Run to completion: a pipelined burst that arrives in one read is
// admitted in one loop wake-up and answered in SearchBatch calls of more
// than one request, and every answer is byte-identical to the response a
// direct search produces.
class NetLoopTest : public NetServerTest {};

TEST_F(NetLoopTest, PipelinedBurstIsAnsweredInBatches) {
  ServerOptions opts;
  opts.loop_threads = 1;
  opts.batch_max = 8;
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  constexpr size_t kBurst = 24;
  const auto queries = MakeQueries(copt, kBurst, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/95);
  std::vector<std::string> expected(kBurst);
  std::string frames;
  for (size_t i = 0; i < kBurst; ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    Response want;
    want.request_id = i;
    want.results = direct.MoveValue();
    EncodeResponse(want, &expected[i]);
    Request req = SearchRequest(queries[i], i, 0.5);
    req.no_cache = true;  // every request must reach the index
    EncodeRequest(req, &frames);
  }

  auto batch_hist = [] {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    const obs::MetricSample* s = snap.Find("i3_net_batch_size");
    return s == nullptr ? obs::HistogramSnapshot() : s->histogram;
  };
  const obs::HistogramSnapshot before = batch_hist();

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client& conn = *client.ValueOrDie();
  // One write: the whole burst lands in the loop's first read.
  ASSERT_TRUE(conn.SendBytes(frames.data(), frames.size()).ok());
  std::vector<bool> seen(kBurst, false);
  for (size_t n = 0; n < kBurst; ++n) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const uint64_t id = resp.ValueOrDie().request_id;
    ASSERT_LT(id, kBurst);
    EXPECT_FALSE(seen[id]) << "duplicate answer " << id;
    seen[id] = true;
    std::string got;
    EncodeResponse(resp.ValueOrDie(), &got);
    EXPECT_EQ(got, expected[id]) << "request " << id;
  }

  // Every request went through a batch, and the batches averaged more
  // than one request: some SearchBatch call answered several at once.
  const obs::HistogramSnapshot after = batch_hist();
  const uint64_t batches = after.count() - before.count();
  const uint64_t answered = after.sum() - before.sum();
  EXPECT_EQ(answered, kBurst);
  EXPECT_GE(batches, 1u);
  EXPECT_LT(batches, kBurst) << "every request was its own batch";
  EXPECT_EQ(server_->requests_ok(), kBurst);
}

// Token-bucket unit behavior backing the admission tests: deterministic
// virtual time, refill capping, per-tenant independence.
TEST(TokenBucketTest, RefillAndBurstSemantics) {
  const uint64_t ns = 1000000000ull;
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/4.0);
  uint64_t now = 50 * ns;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(now)) << i;
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += ns / 2;  // +0.5s = +1 token at rate 2/s
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += 60 * ns;  // long idle refills to burst, not beyond
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(now)) << i;
  EXPECT_FALSE(bucket.TryAcquire(now));

  TokenBucket unlimited(/*rate=*/0.0, /*burst=*/0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(unlimited.TryAcquire(now));

  TenantRateLimiter limiter({.rate = 0.0, .burst = 0.0});
  limiter.SetLimit(7, {.rate = 1.0, .burst = 2.0});
  EXPECT_TRUE(limiter.Admit(7, now));
  EXPECT_TRUE(limiter.Admit(7, now));
  EXPECT_FALSE(limiter.Admit(7, now));
  // Other tenants ride the unlimited default.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(limiter.Admit(8, now));
}

}  // namespace
}  // namespace net
}  // namespace i3
