// Differential and concurrency tests of the zero-copy page read path:
// DataFile::View / PageView must decode exactly what the legacy TuplePage
// materialization decodes, on every pool configuration, and the pinned-frame
// window must stay valid while other readers churn the LRU (run under
// ASan/TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "i3/data_file.h"

namespace i3 {
namespace {

// A deterministic random page image: several sources interleaved, with the
// occasional slot-count shortfall leaving free slots.
TuplePage RandomPage(Rng* rng, uint32_t capacity, uint32_t n_sources) {
  TuplePage page;
  const uint32_t n = static_cast<uint32_t>(
      rng->UniformInt(0, static_cast<int64_t>(capacity)));
  for (uint32_t s = 0; s < n; ++s) {
    StoredTuple st;
    st.source = static_cast<SourceId>(rng->UniformInt(1, n_sources));
    st.tuple.term = static_cast<TermId>(rng->UniformInt(0, 1 << 20));
    st.tuple.doc = static_cast<DocId>(rng->UniformInt(0, 1 << 30));
    st.tuple.location.x = rng->UniformDouble(-180.0, 180.0);
    st.tuple.location.y = rng->UniformDouble(-90.0, 90.0);
    st.tuple.weight = static_cast<float>(rng->UniformDouble(0.0, 1.0));
    page.slots.push_back(st);
  }
  return page;
}

void ExpectSameTuple(const SpatialTuple& a, const SpatialTuple& b) {
  EXPECT_EQ(a.term, b.term);
  EXPECT_EQ(a.doc, b.doc);
  EXPECT_EQ(a.location.x, b.location.x);
  EXPECT_EQ(a.location.y, b.location.y);
  EXPECT_EQ(a.weight, b.weight);
}

// View must agree with the legacy decode on random pages, for both a
// pinning pool and the uncached (capacity-0) pool.
void RunDifferential(BufferPoolOptions pool) {
  DataFile df(512, pool);  // 16 slots/page
  Rng rng(20260805);
  constexpr uint32_t kPages = 64;
  constexpr uint32_t kSources = 5;

  std::vector<TuplePage> images;
  for (uint32_t p = 0; p < kPages; ++p) {
    auto id = df.AllocatePage();
    ASSERT_TRUE(id.ok());
    images.push_back(RandomPage(&rng, df.capacity(), kSources));
    ASSERT_TRUE(df.Write(id.ValueOrDie(), images.back()).ok());
  }

  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t p = 0; p < kPages; ++p) {
      auto view_res = df.View(p);
      ASSERT_TRUE(view_res.ok());
      const PageView& view = view_res.ValueOrDie();
      const TuplePage& img = images[p];

      for (SourceId src = 1; src <= kSources; ++src) {
        std::vector<SpatialTuple> legacy;
        for (const StoredTuple& st : img.slots) {
          if (st.source == src) legacy.push_back(st.tuple);
        }
        std::vector<SpatialTuple> visited;
        const uint32_t n = view.ForEachOfSource(
            src, [&](const SpatialTuple& t) { visited.push_back(t); });
        ASSERT_EQ(n, legacy.size());
        ASSERT_EQ(n, img.CountSource(src));
        for (size_t i = 0; i < legacy.size(); ++i) {
          ExpectSameTuple(visited[i], legacy[i]);
        }
      }

      uint32_t occupied = 0;
      view.ForEachSlot([&](SourceId src, const SpatialTuple& t) {
        ASSERT_LT(occupied, img.slots.size());
        EXPECT_EQ(src, img.slots[occupied].source);
        ExpectSameTuple(t, img.slots[occupied].tuple);
        ++occupied;
      });
      EXPECT_EQ(occupied, img.slots.size());
    }
    // Cold-cache the pool between rounds so both hit and miss paths of
    // PinPage are exercised.
    df.ClearCache();
  }
}

TEST(ZeroCopyDifferentialTest, PinnedPoolMatchesLegacyDecode) {
  BufferPoolOptions pool;
  pool.capacity_pages = 8;  // far fewer frames than pages: eviction churn
  RunDifferential(pool);
}

TEST(ZeroCopyDifferentialTest, LargePoolMatchesLegacyDecode) {
  BufferPoolOptions pool;
  pool.capacity_pages = 1024;  // everything stays cached after round one
  RunDifferential(pool);
}

TEST(ZeroCopyDifferentialTest, UncachedPoolMatchesLegacyDecode) {
  RunDifferential(BufferPoolOptions{});  // capacity 0: scratch-backed views
}

TEST(ZeroCopyDifferentialTest, NestedViewsAreIndependent) {
  // A caller may hold one view while opening another (the invariant checker
  // and overflow chains do); both must decode their own page.
  DataFile df(512, BufferPoolOptions{});  // scratch stack, depth 2
  Rng rng(7);
  TuplePage a = RandomPage(&rng, df.capacity(), 3);
  TuplePage b = RandomPage(&rng, df.capacity(), 3);
  ASSERT_TRUE(df.AllocatePage().ok());
  ASSERT_TRUE(df.AllocatePage().ok());
  ASSERT_TRUE(df.Write(0, a).ok());
  ASSERT_TRUE(df.Write(1, b).ok());

  auto va = df.View(0);
  ASSERT_TRUE(va.ok());
  {
    auto vb = df.View(1);  // nested: destroyed before va (LIFO)
    ASSERT_TRUE(vb.ok());
    uint32_t n = 0;
    vb.ValueOrDie().ForEachSlot([&](SourceId, const SpatialTuple& t) {
      ExpectSameTuple(t, b.slots[n].tuple);
      ++n;
    });
    EXPECT_EQ(n, b.slots.size());
  }
  uint32_t n = 0;
  va.ValueOrDie().ForEachSlot([&](SourceId, const SpatialTuple& t) {
    ExpectSameTuple(t, a.slots[n].tuple);
    ++n;
  });
  EXPECT_EQ(n, a.slots.size());
}

// Concurrent readers over a pool much smaller than the page set: every view
// pins its frame while other threads force misses, evictions, and frame
// recycling. Each page's content encodes its id, so any use-after-recycle
// shows up as a value mismatch (and as a race under TSan).
TEST(ZeroCopyConcurrencyTest, PinnedWindowSurvivesEvictionChurn) {
  BufferPoolOptions pool;
  pool.capacity_pages = 4;
  DataFile df(512, pool);
  constexpr uint32_t kPages = 32;
  const uint32_t capacity = df.capacity();

  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(df.AllocatePage().ok());
    TuplePage page;
    for (uint32_t s = 0; s < capacity; ++s) {
      StoredTuple st;
      st.source = p + 1;
      st.tuple.term = p;
      st.tuple.doc = p * 1000 + s;
      st.tuple.location = {static_cast<double>(p), static_cast<double>(s)};
      st.tuple.weight = static_cast<float>(s);
      page.slots.push_back(st);
    }
    ASSERT_TRUE(df.Write(p, page).ok());
  }

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kReadsPerThread; ++i) {
        const PageId p = static_cast<PageId>(
            rng.UniformInt(0, static_cast<int64_t>(kPages) - 1));
        auto view_res = df.View(p);
        if (!view_res.ok()) {
          ++failures;
          return;
        }
        const PageView& view = view_res.ValueOrDie();
        uint32_t n = 0;
        uint64_t doc_sum = 0;
        view.ForEachOfSource(p + 1, [&](const SpatialTuple& t) {
          doc_sum += t.doc;
          if (t.term != p) ++failures;
          ++n;
        });
        if (n != capacity) ++failures;
        const uint64_t expect =
            static_cast<uint64_t>(capacity) * (p * 1000) +
            static_cast<uint64_t>(capacity) * (capacity - 1) / 2;
        if (doc_sum != expect) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace i3
