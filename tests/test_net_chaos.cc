// Chaos-under-load tests of the serving front end: the fault-injected
// storage stack of tests/test_chaos.cc, now behind the TCP server, with
// concurrent wire clients in flight while fault profiles fire.
//
// The serving contract under chaos: every in-flight request ends in a
// well-formed response -- ok (complete or flagged degraded) or a clean
// error frame -- never a crash, a hang, or a torn connection caused by
// index faults. After Heal() the server answers byte-identically (by
// result checksum) to its own pre-fault baseline. Seed count follows
// I3_CHAOS_SEEDS like the library-level chaos suite. Stop() with a slow
// search in flight returns once that one search does, and every client
// sees answers or a clean close.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/clock.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace net {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

uint64_t ChaosSeeds() {
  const char* env = std::getenv("I3_CHAOS_SEEDS");
  if (env == nullptr) return 3;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n > 0 ? n : 3;
}

struct ServingChaosRig {
  static constexpr uint32_t kShards = 4;
  std::vector<FaultInjectionPageFile*> injectors;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<Server> server;

  void HealAll() {
    for (auto* f : injectors) f->Heal();
  }
  void ArmAll(const FaultProfile& base, uint64_t seed) {
    for (size_t s = 0; s < injectors.size(); ++s) {
      FaultProfile p = base;
      p.seed = seed * kShards + s + 1;
      injectors[s]->injector()->SetProfile(p);
    }
  }
};

CorpusOptions ChaosCorpus() {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 25;
  return copt;
}

void InitRig(ServingChaosRig* rig, uint64_t corpus_seed,
             ServerOptions opts = {}) {
  rig->injectors.assign(ServingChaosRig::kShards, nullptr);
  auto res = ShardedIndex::Create(
      [rig](uint32_t shard) {
        I3Options opt;
        opt.space = {0.0, 0.0, 100.0, 100.0};
        opt.page_size = 128;
        opt.signature_bits = 64;
        opt.page_file_factory = [rig, shard](size_t page_size) {
          auto file = std::make_unique<FaultInjectionPageFile>(
              std::make_unique<InMemoryPageFile>(page_size));
          rig->injectors[shard] = file.get();
          return file;
        };
        return std::make_unique<I3Index>(opt);
      },
      {.num_shards = ServingChaosRig::kShards});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  rig->index = res.MoveValue();
  for (auto* f : rig->injectors) ASSERT_NE(f, nullptr);
  for (const auto& d : MakeCorpus(ChaosCorpus(), corpus_seed)) {
    ASSERT_TRUE(rig->index->Insert(d).ok());
  }
  rig->server = std::make_unique<Server>(rig->index.get(), opts);
  ASSERT_TRUE(rig->server->Start().ok());
}

Request SearchRequest(const Query& q, uint64_t id, uint32_t deadline_ms = 0) {
  Request req;
  req.request_id = id;
  req.k = q.k;
  req.semantics = q.semantics;
  req.deadline_ms = deadline_ms;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = 0.5;
  req.terms = q.terms;
  return req;
}

Result<std::unique_ptr<Client>> Connect(const Server& server) {
  ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  return Client::Connect(copts);
}

// Fault profiles firing on every shard while concurrent clients keep
// requests in flight: each one ends ok / degraded / clean error, the
// connections stay whole, and healing restores the pre-fault baseline.
TEST(NetChaosTest, ServingUnderFaultsEndsEveryRequestCleanly) {
  ServingChaosRig rig;
  ServerOptions sopts;
  sopts.loop_threads = 3;
  sopts.batch_max = 8;
  InitRig(&rig, /*corpus_seed=*/11, sopts);
  const CorpusOptions copt = ChaosCorpus();
  const auto queries = MakeQueries(copt, /*num_queries=*/24, /*qn=*/2,
                                   /*k=*/10, Semantics::kOr, /*seed=*/12);

  // Pre-fault baseline, collected over the wire itself.
  rig.index->ClearCache();
  std::vector<uint64_t> baseline;
  {
    auto client = Connect(*rig.server);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk)
          << resp.ValueOrDie().message;
      ASSERT_FALSE(resp.ValueOrDie().degraded);
      baseline.push_back(ResultChecksum(resp.ValueOrDie().results));
    }
  }

  FaultProfile profile;
  profile.read_error_rate = 0.05;
  profile.corrupt_rate = 0.05;
  profile.latency_spike_rate = 0.02;
  profile.latency_spike_us = 30;

  const uint64_t seeds = ChaosSeeds();
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    rig.ArmAll(profile, seed);
    rig.index->ClearCache();

    constexpr int kClients = 4;
    std::atomic<uint64_t> ok_count{0};
    std::atomic<uint64_t> degraded_count{0};
    std::atomic<uint64_t> error_count{0};
    std::atomic<bool> contract_broken{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Connect(*rig.server);
        if (!client.ok()) {
          contract_broken.store(true);
          return;
        }
        for (size_t i = t; i < queries.size();
             i += static_cast<size_t>(kClients)) {
          auto resp =
              client.ValueOrDie()->Call(SearchRequest(queries[i], i));
          if (!resp.ok()) {  // transport must survive index faults
            contract_broken.store(true);
            return;
          }
          const Response& r = resp.ValueOrDie();
          if (r.request_id != i) contract_broken.store(true);
          switch (r.outcome) {
            case ResponseOutcome::kOk:
              ok_count.fetch_add(1);
              if (r.degraded) degraded_count.fetch_add(1);
              break;
            case ResponseOutcome::kError:
              // Clean index failure: IOError/Corruption from the fault
              // stack (or a deadline). Anything else is contract-breaking.
              if (r.code != StatusCode::kIOError &&
                  r.code != StatusCode::kCorruption &&
                  r.code != StatusCode::kDeadlineExceeded) {
                contract_broken.store(true);
              }
              error_count.fetch_add(1);
              break;
            default:  // shed is impossible: no limits armed
              contract_broken.store(true);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(contract_broken.load()) << "seed " << seed;
    EXPECT_EQ(ok_count.load() + error_count.load(), queries.size())
        << "seed " << seed;

    // Healed: the wire serves the pre-fault baseline byte-identically.
    rig.HealAll();
    rig.index->ClearCache();
    auto client = Connect(*rig.server);
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
      EXPECT_FALSE(resp.ValueOrDie().degraded) << "seed " << seed;
      EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results), baseline[i])
          << "seed " << seed << " query " << i;
    }
  }
  EXPECT_EQ(rig.server->requests_shed(), 0u);
}

// A hard shard failure surfaces on the wire as ok + degraded: a partial
// top-k of the surviving shards, never a torn response or a total error.
TEST(NetChaosTest, HardShardFailureSetsDegradedFlagOnWire) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/21);
  // Zipf head term: matches on every shard, so losing one shard visibly
  // shrinks the result set.
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 300;
  q.semantics = Semantics::kOr;
  q.Normalize();

  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  rig.index->ClearCache();
  auto full = client.ValueOrDie()->Call(SearchRequest(q, 1));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full.ValueOrDie().outcome, ResponseOutcome::kOk);
  ASSERT_FALSE(full.ValueOrDie().degraded);
  ASSERT_GT(full.ValueOrDie().results.size(), 4u);

  rig.injectors[1]->set_fail_all(true);
  rig.index->ClearCache();
  auto partial = client.ValueOrDie()->Call(SearchRequest(q, 2));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_EQ(partial.ValueOrDie().outcome, ResponseOutcome::kOk)
      << partial.ValueOrDie().message;
  EXPECT_TRUE(partial.ValueOrDie().degraded);
  EXPECT_GT(partial.ValueOrDie().results.size(), 0u);
  EXPECT_LT(partial.ValueOrDie().results.size(),
            full.ValueOrDie().results.size());
  // Only healthy shards' documents are present.
  for (const auto& sd : partial.ValueOrDie().results) {
    EXPECT_NE(rig.index->ShardOf(sd.doc), 1u) << "doc " << sd.doc;
  }

  rig.injectors[1]->Heal();
  rig.index->ClearCache();
  auto healed = client.ValueOrDie()->Call(SearchRequest(q, 3));
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_FALSE(healed.ValueOrDie().degraded);
  EXPECT_EQ(ResultChecksum(healed.ValueOrDie().results),
            ResultChecksum(full.ValueOrDie().results));
}

// Wire flag bit 2 (require_complete): a client that cannot tolerate a
// silently-partial top-k gets the failing shard's typed error instead of
// a degraded response. Complete answers are unaffected by the flag.
TEST(NetChaosTest, RequireCompleteRefusesDegradedWithTypedError) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/25);
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 300;
  q.semantics = Semantics::kOr;
  q.Normalize();
  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // no_cache everywhere: this test is about what the *index* answers (a
  // cached complete response legitimately satisfies require_complete and
  // would short-circuit the refusal under test).
  Request strict = SearchRequest(q, 1);
  strict.require_complete = true;
  strict.no_cache = true;
  rig.index->ClearCache();
  auto full = client.ValueOrDie()->Call(strict);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_FALSE(full.ValueOrDie().degraded);

  rig.injectors[1]->set_fail_all(true);
  rig.index->ClearCache();

  // Without the flag: ok + degraded partial, as ever.
  Request lax = SearchRequest(q, 2);
  lax.no_cache = true;
  auto partial = client.ValueOrDie()->Call(lax);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_EQ(partial.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_TRUE(partial.ValueOrDie().degraded);

  // With the flag: a clean typed error carrying the shard's own failure
  // code, not a partial result and not a torn connection.
  strict.request_id = 3;
  auto refused = client.ValueOrDie()->Call(strict);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused.ValueOrDie().outcome, ResponseOutcome::kError);
  EXPECT_EQ(refused.ValueOrDie().code, StatusCode::kIOError);
  EXPECT_NE(refused.ValueOrDie().message.find("incomplete result"),
            std::string::npos)
      << refused.ValueOrDie().message;
  EXPECT_TRUE(refused.ValueOrDie().results.empty());

  // Healed: the strict request serves the full answer again.
  rig.injectors[1]->Heal();
  rig.index->ClearCache();
  strict.request_id = 4;
  auto healed = client.ValueOrDie()->Call(strict);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_FALSE(healed.ValueOrDie().degraded);
  EXPECT_EQ(ResultChecksum(healed.ValueOrDie().results),
            ResultChecksum(full.ValueOrDie().results));
}

// Every shard failing hard is a clean error frame (there is no partial
// answer to serve) -- and the connection still serves after healing.
TEST(NetChaosTest, TotalShardFailureIsACleanErrorFrame) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/31);
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 20;
  q.semantics = Semantics::kOr;
  q.Normalize();

  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok());
  for (auto* f : rig.injectors) f->set_fail_all(true);
  rig.index->ClearCache();
  auto resp = client.ValueOrDie()->Call(SearchRequest(q, 1));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
  EXPECT_EQ(resp.ValueOrDie().code, StatusCode::kIOError);
  EXPECT_FALSE(resp.ValueOrDie().message.empty());
  EXPECT_TRUE(resp.ValueOrDie().results.empty());

  rig.HealAll();
  rig.index->ClearCache();
  auto after = client.ValueOrDie()->Call(SearchRequest(q, 2));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_FALSE(after.ValueOrDie().degraded);
}

// Wire deadlines propagate into the query plan: a budget that cannot
// cover the slowed-down shard sweep ends in a degraded partial result or
// a clean DeadlineExceeded error -- and a generous budget still serves.
TEST(NetChaosTest, WireDeadlinePropagatesUnderLatencyFaults) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/41);
  const CorpusOptions copt = ChaosCorpus();
  const auto queries = MakeQueries(copt, /*num_queries=*/8, /*qn=*/2,
                                   /*k=*/10, Semantics::kOr, /*seed=*/42);

  // Every storage op eats a 5ms latency spike; a 1ms budget cannot cover
  // a cold-cache sweep of 4 shards.
  FaultProfile slow;
  slow.latency_spike_rate = 1.0;
  slow.latency_spike_us = 5000;
  rig.ArmAll(slow, /*seed=*/1);

  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok());
  int expired = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    rig.index->ClearCache();
    auto resp = client.ValueOrDie()->Call(
        SearchRequest(queries[i], i, /*deadline_ms=*/1));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const Response& r = resp.ValueOrDie();
    if (r.outcome == ResponseOutcome::kError) {
      EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded) << r.message;
      ++expired;
    } else {
      ASSERT_EQ(r.outcome, ResponseOutcome::kOk);
      // The budget died mid-sweep: partial results must say so.
      if (r.degraded) ++expired;
    }
  }
  EXPECT_GT(expired, 0) << "1ms budgets against 5ms-per-op storage "
                           "never expired -- deadline not propagating";

  // A generous budget under the same faults serves complete results.
  rig.index->ClearCache();
  auto resp = client.ValueOrDie()->Call(
      SearchRequest(queries[0], 100, /*deadline_ms=*/30000));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_FALSE(resp.ValueOrDie().degraded);
}

// Stop() while a latency-faulted search is in flight: the loop finishes
// the SearchBatch call it is in, drops the requests it admitted but has
// not started, closes its connections and exits. Stop() returns after
// about one search, not after the whole backlog, and each client sees
// only well-formed answers followed by a clean close -- never a hang, a
// torn frame or a reset.
TEST(NetLoopTest, StopDuringInFlightSearchIsPrompt) {
  ServingChaosRig rig;
  ServerOptions sopts;
  sopts.loop_threads = 1;
  sopts.batch_max = 1;  // one search per SearchBatch call
  InitRig(&rig, /*corpus_seed=*/51, sopts);
  const CorpusOptions copt = ChaosCorpus();
  constexpr size_t kPipelined = 8;
  const auto queries = MakeQueries(copt, kPipelined, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/52);
  std::vector<uint64_t> expected;
  for (const Query& q : queries) {
    auto direct = rig.index->Search(q, 0.5);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    expected.push_back(ResultChecksum(direct.ValueOrDie()));
  }

  // Every storage op now sleeps 5 ms, so each cold search takes many
  // milliseconds and the pipelined backlog takes several times longer.
  FaultProfile slow;
  slow.latency_spike_rate = 1.0;
  slow.latency_spike_us = 5000;
  rig.ArmAll(slow, /*seed=*/1);
  rig.index->ClearCache();

  auto busy = Connect(*rig.server);
  auto idle = Connect(*rig.server);
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  ASSERT_TRUE(idle.ValueOrDie()->Ping().ok());  // accepted and served
  std::string frames;
  for (size_t i = 0; i < kPipelined; ++i) {
    Request req = SearchRequest(queries[i], i);
    req.no_cache = true;
    EncodeRequest(req, &frames);
  }
  ASSERT_TRUE(busy.ValueOrDie()->SendBytes(frames.data(), frames.size()).ok());

  // The first answer means the loop has moved on to the next search of
  // the backlog; stop it there.
  auto first = busy.ValueOrDie()->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t stop_start_ns = obs::NowNanos();
  rig.server->Stop();
  const uint64_t stop_ms = (obs::NowNanos() - stop_start_ns) / 1000000;
  EXPECT_LT(stop_ms, 10000u) << "Stop() waited out the backlog";

  // What the busy client gets: the first answer, at most a few more (the
  // search in flight when Stop() began), then a clean close.
  std::vector<Response> answers = {first.MoveValue()};
  Status end;
  while (true) {
    auto resp = busy.ValueOrDie()->ReadResponse();
    if (!resp.ok()) {
      end = resp.status();
      break;
    }
    answers.push_back(resp.MoveValue());
  }
  EXPECT_EQ(end.code(), StatusCode::kIOError) << end.ToString();
  EXPECT_NE(end.message().find("closed by server"), std::string::npos)
      << end.ToString();
  EXPECT_LT(answers.size(), kPipelined)
      << "every queued search ran after Stop()";
  for (const Response& r : answers) {
    ASSERT_LT(r.request_id, kPipelined);
    ASSERT_EQ(r.outcome, ResponseOutcome::kOk) << r.message;
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(ResultChecksum(r.results), expected[r.request_id])
        << "request " << r.request_id;
  }
  auto idle_end = idle.ValueOrDie()->ReadResponse();
  ASSERT_FALSE(idle_end.ok());
  EXPECT_NE(idle_end.status().message().find("closed by server"),
            std::string::npos)
      << idle_end.status().ToString();
}

}  // namespace
}  // namespace net
}  // namespace i3
