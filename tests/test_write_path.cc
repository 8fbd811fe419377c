// Write-path pins: a seeded insert/update/delete churn whose data-page
// bytes, charged page I/O and index size are fixed numbers. The I3 write
// path edits one keyword cell of a v2 page in place (i3/cell_codec.h);
// these figures were recorded from the whole-page read-modify-write
// path it replaced, so any drift in page layout, placement or the I/O
// sequence fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "i3/i3_index.h"
#include "obs/metrics.h"
#include "storage/checksum.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;

/// The benchmark write mix: a fixed 10-op cycle of 4 inserts, 3 updates
/// and 3 deletes over the live corpus. Inserts and updates are jittered
/// copies of live documents, so they land in dense cells and drive
/// splits and relocations.
class Churn {
 public:
  Churn(std::vector<SpatialDocument> live, const Rect& space, uint64_t seed)
      : live_(std::move(live)), space_(space), rng_(seed) {
    for (const SpatialDocument& d : live_) {
      next_id_ = std::max<DocId>(next_id_, d.id + 1);
    }
  }

  /// Applies the next op of the cycle to `index`.
  Status Step(SpatialKeywordIndex* index) {
    static constexpr char kCycle[] = "IUDIUDIUDI";
    const char kind = kCycle[ops_++ % 10];
    const size_t i = Pick();
    if (kind == 'I') {
      SpatialDocument d = Jitter(live_[i], next_id_++);
      live_.push_back(d);
      return index->Insert(d);
    }
    if (kind == 'U') {
      const SpatialDocument old_doc = live_[i];
      live_[i] = Jitter(live_[Pick()], old_doc.id);
      I3_RETURN_NOT_OK(index->Delete(old_doc));
      return index->Insert(live_[i]);
    }
    const SpatialDocument old_doc = live_[i];
    live_[i] = std::move(live_.back());
    live_.pop_back();
    return index->Delete(old_doc);
  }

  size_t live_count() const { return live_.size(); }

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
  Rect space_;
  Rng rng_;
  DocId next_id_ = 0;
  uint64_t ops_ = 0;
};

/// A v2 index with checksums on and a 32-page pool (so the churn misses
/// the pool and pays device reads), loaded with 3,000 documents and then
/// churned by 20,000 ops.
std::unique_ptr<I3Index> BuildChurned() {
  I3Options opt;
  opt.space = Rect{0.0, 0.0, 100.0, 100.0};
  opt.checksum_pages = true;
  opt.compress_pages = true;
  opt.buffer_pool.capacity_pages = 32;
  auto index = std::make_unique<I3Index>(opt);
  CorpusOptions copt;
  copt.num_docs = 3000;
  copt.vocab_size = 120;
  copt.space = opt.space;
  std::vector<SpatialDocument> corpus = MakeCorpus(copt, 7919);
  for (const SpatialDocument& d : corpus) {
    EXPECT_TRUE(index->Insert(d).ok());
  }
  Churn churn(std::move(corpus), opt.space, 7919);
  for (int op = 0; op < 20000; ++op) {
    Status st = churn.Step(index.get());
    EXPECT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
    if (!st.ok()) break;
  }
  EXPECT_EQ(index->DocumentCount(), churn.live_count());
  return index;
}

obs::Counter* I3Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "",
                                                   {{"index", "I3"}});
}

TEST(WritePathGoldenTest, ChurnPagesIoAndSizeMatchRecordedFigures) {
  obs::Counter* relocations = I3Counter("i3_cell_relocations_total");
  obs::Counter* splits = I3Counter("i3_cell_splits_total");
  const uint64_t relocations_before = relocations->Value();
  const uint64_t splits_before = splits->Value();
  std::unique_ptr<I3Index> index = BuildChurned();
  // The churn the cell edits leave in place: whole-cell moves off a full
  // page, and splits of dense cells.
  EXPECT_EQ(relocations->Value() - relocations_before, 1179u);
  EXPECT_EQ(splits->Value() - splits_before, 28u);
  const IoStats io = index->io_stats();  // before the fingerprint reads

  uint32_t crc = 0;
  for (PageId p = 0; p < index->DataPageCount(); ++p) {
    auto bytes = index->ReadDataPageBytes(p);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    crc = Crc32c(bytes.ValueOrDie().data(), bytes.ValueOrDie().size(), crc);
  }

  EXPECT_EQ(index->DocumentCount(), 5000u);
  EXPECT_EQ(index->DataPageCount(), 93u);
  EXPECT_EQ(crc, 698327887u);
  EXPECT_EQ(io.reads(IoCategory::kI3DataFile), 44578u);
  EXPECT_EQ(io.writes(IoCategory::kI3DataFile), 87960u);
  EXPECT_EQ(io.reads(IoCategory::kI3HeadFile), 0u);
  EXPECT_EQ(io.writes(IoCategory::kI3HeadFile), 37623u);
  const IndexSizeInfo size = index->SizeInfo();
  ASSERT_EQ(size.components.size(), 3u);
  EXPECT_EQ(size.components[0].second, 6888u);  // head file
  EXPECT_EQ(size.components[1].second, 380928u);  // data file
  EXPECT_EQ(size.components[2].second, 1560u);  // lookup table

  auto check = index->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

}  // namespace
}  // namespace i3
