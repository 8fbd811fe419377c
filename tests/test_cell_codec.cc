// Unit tests of the v2 compressed cell-page codec (i3/cell_codec.h):
// lossless round-trips across all three weight modes, directory block-max
// semantics, SIMD-vs-portable bit-unpacker parity, the subset-stable cell
// envelope that drives the v2 split rule, and -- because compression can
// run with page checksums disabled -- the promise that truncated or
// bit-flipped pages surface as clean Status::Corruption, never as
// out-of-bounds reads or garbage accepted silently at the structural layer.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "i3/cell_codec.h"
#include "i3/data_file.h"

namespace i3 {
namespace codec {
namespace {

// Deterministic tuple soup: `sources` cells, round-robin interleaved the
// way real pages store them, spatially clustered per cell so coordinate
// residuals exercise the truncated-XOR path.
std::vector<StoredTuple> MakeSlots(uint32_t sources, uint32_t per_source,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<StoredTuple> slots;
  std::vector<double> cx(sources), cy(sources);
  for (uint32_t s = 0; s < sources; ++s) {
    cx[s] = rng.UniformDouble(0.0, 100.0);
    cy[s] = rng.UniformDouble(0.0, 100.0);
  }
  for (uint32_t i = 0; i < per_source; ++i) {
    for (uint32_t s = 0; s < sources; ++s) {
      StoredTuple st;
      st.source = s + 1;
      st.tuple.term = s + 100;
      st.tuple.doc = rng.UniformInt(0, 1 << 20);
      st.tuple.location = {cx[s] + rng.UniformDouble(-0.5, 0.5),
                           cy[s] + rng.UniformDouble(-0.5, 0.5)};
      st.tuple.weight = static_cast<float>(rng.UniformDouble(0.05, 1.0));
      slots.push_back(st);
    }
  }
  return slots;
}

// Full read pipeline: header -> directory -> per-group decode, rebuilding
// source -> tuples (slot order preserved within a group).
Status DecodeWholePage(const uint8_t* page, size_t page_size,
                       std::map<SourceId, std::vector<SpatialTuple>>* out) {
  auto count = GroupCount(page, page_size);
  if (!count.ok()) return count.status();
  for (uint32_t g = 0; g < count.ValueOrDie(); ++g) {
    GroupRef ref;
    I3_RETURN_NOT_OK(ReadGroupRef(page, page_size, g, &ref));
    DecodeScratch scratch;
    DecodedGroup dec;
    I3_RETURN_NOT_OK(DecodeGroup(page, page_size, ref, &scratch, &dec));
    std::vector<SpatialTuple>& tuples = (*out)[ref.source];
    for (uint32_t i = 0; i < dec.n; ++i) {
      SpatialTuple t;
      t.term = ref.term;
      t.doc = dec.docs[i];
      t.location = {dec.xs[i], dec.ys[i]};
      t.weight = dec.weights[i];
      tuples.push_back(t);
    }
  }
  return Status::OK();
}

std::map<SourceId, std::vector<SpatialTuple>> BySource(
    const std::vector<StoredTuple>& slots) {
  std::map<SourceId, std::vector<SpatialTuple>> out;
  for (const StoredTuple& st : slots) out[st.source].push_back(st.tuple);
  return out;
}

void ExpectExactEqual(
    const std::map<SourceId, std::vector<SpatialTuple>>& want,
    const std::map<SourceId, std::vector<SpatialTuple>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [source, tuples] : want) {
    auto it = got.find(source);
    ASSERT_NE(it, got.end()) << "missing source " << source;
    ASSERT_EQ(tuples.size(), it->second.size()) << "source " << source;
    for (size_t i = 0; i < tuples.size(); ++i) {
      // Bit-exact, not approximate: the codec's contract is losslessness.
      EXPECT_EQ(tuples[i].doc, it->second[i].doc);
      EXPECT_EQ(tuples[i].term, it->second[i].term);
      EXPECT_EQ(tuples[i].location.x, it->second[i].location.x);
      EXPECT_EQ(tuples[i].location.y, it->second[i].location.y);
      EXPECT_EQ(tuples[i].weight, it->second[i].weight);
    }
  }
}

TEST(CellCodecTest, RoundTripInterleavedGroups) {
  const std::vector<StoredTuple> slots = MakeSlots(5, 35, 7);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used = EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used.ok()) << used.status().message();
  EXPECT_EQ(used.ValueOrDie(),
            EncodedPageSize(slots.data(), slots.size()));
  EXPECT_TRUE(IsV2Page(page.data(), page.size()));

  std::map<SourceId, std::vector<SpatialTuple>> got;
  ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
  ExpectExactEqual(BySource(slots), got);
}

TEST(CellCodecTest, EmptyAndSingleTuplePages) {
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used = EncodePage(nullptr, 0, page.data(), page.size());
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(used.ValueOrDie(), kV2PageHeaderBytes);
  auto count = GroupCount(page.data(), page.size());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 0u);

  const std::vector<StoredTuple> one = MakeSlots(1, 1, 3);
  std::fill(page.begin(), page.end(), 0);
  ASSERT_TRUE(
      EncodePage(one.data(), one.size(), page.data(), page.size()).ok());
  std::map<SourceId, std::vector<SpatialTuple>> got;
  ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
  ExpectExactEqual(BySource(one), got);
}

// Weight-mode selection is observable through the group header byte
// (offset + 5 per the layout comment) and through the encoded size.
uint8_t WeightModeOf(const uint8_t* page, size_t page_size, uint32_t g) {
  GroupRef ref;
  EXPECT_TRUE(ReadGroupRef(page, page_size, g, &ref).ok());
  return page[ref.offset + 5];
}

TEST(CellCodecTest, WeightModesRoundTripExactly) {
  // Mode 2 (constant): every weight identical.
  std::vector<StoredTuple> constant = MakeSlots(1, 60, 11);
  for (StoredTuple& st : constant) st.tuple.weight = 0.625f;
  // Mode 1 (q16): weights on an exactly representable lattice
  // (step = (max - min) / 65535 = 1.0f, integer offsets round-trip).
  std::vector<StoredTuple> lattice = MakeSlots(1, 60, 13);
  for (size_t i = 0; i < lattice.size(); ++i) {
    lattice[i].tuple.weight = static_cast<float>(i * 1000);
  }
  lattice.back().tuple.weight = 65535.0f;
  // Mode 0 (raw): arbitrary floats that defeat exact quantization.
  const std::vector<StoredTuple> raw = MakeSlots(1, 60, 17);

  const std::vector<StoredTuple>* groups[] = {&constant, &lattice, &raw};
  for (const std::vector<StoredTuple>* slots : groups) {
    std::vector<uint8_t> page(kDefaultPageSize, 0);
    ASSERT_TRUE(EncodePage(slots->data(), slots->size(), page.data(),
                           page.size())
                    .ok());
    std::map<SourceId, std::vector<SpatialTuple>> got;
    ASSERT_TRUE(DecodeWholePage(page.data(), page.size(), &got).ok());
    ExpectExactEqual(BySource(*slots), got);
  }

  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(EncodePage(constant.data(), constant.size(), page.data(),
                         page.size())
                  .ok());
  EXPECT_EQ(WeightModeOf(page.data(), page.size(), 0), 2);
  std::fill(page.begin(), page.end(), 0);
  ASSERT_TRUE(EncodePage(lattice.data(), lattice.size(), page.data(),
                         page.size())
                  .ok());
  EXPECT_EQ(WeightModeOf(page.data(), page.size(), 0), 1);
  // Constant and quantized layouts must actually be smaller than raw.
  EXPECT_LT(EncodedPageSize(constant.data(), constant.size()),
            EncodedPageSize(raw.data(), raw.size()));
  EXPECT_LT(EncodedPageSize(lattice.data(), lattice.size()),
            EncodedPageSize(raw.data(), raw.size()));
}

TEST(CellCodecTest, BlockMaxIsTheGroupMaximumWeight) {
  const std::vector<StoredTuple> slots = MakeSlots(4, 30, 23);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  auto count = GroupCount(page.data(), page.size());
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count.ValueOrDie(), 4u);
  for (uint32_t g = 0; g < 4; ++g) {
    GroupRef ref;
    ASSERT_TRUE(ReadGroupRef(page.data(), page.size(), g, &ref).ok());
    float want = 0.0f;
    for (const StoredTuple& st : slots) {
      if (st.source == ref.source) want = std::max(want, st.tuple.weight);
    }
    EXPECT_EQ(ref.block_max, want) << "group " << g;
  }
}

TEST(CellCodecTest, FindGroupLocatesEverySourceAndRejectsOthers) {
  const std::vector<StoredTuple> slots = MakeSlots(6, 10, 29);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  ASSERT_TRUE(
      EncodePage(slots.data(), slots.size(), page.data(), page.size()).ok());
  for (uint32_t s = 1; s <= 6; ++s) {
    GroupRef ref;
    auto found = FindGroup(page.data(), page.size(), s, &ref);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found.ValueOrDie());
    EXPECT_EQ(ref.source, s);
    EXPECT_EQ(ref.count, 10u);
  }
  GroupRef ref;
  auto found = FindGroup(page.data(), page.size(), 999, &ref);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.ValueOrDie());
}

TEST(CellCodecTest, PackUnpackParityAtEveryWidth) {
  Rng rng(31);
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    const uint32_t n = 97;
    const uint64_t mask =
        bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
    std::vector<uint32_t> vals(n);
    for (uint32_t& v : vals) {
      v = static_cast<uint32_t>(
          static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) * 7919 & mask);
    }
    // Pad like a real page: the SIMD path may read whole 32-bit windows
    // past the packed bytes as long as they are within `src_readable`.
    std::vector<uint8_t> packed((n * bits + 7) / 8 + 16, 0xAB);
    internal::PackBits(vals.data(), n, bits, packed.data());
    std::vector<uint32_t> portable(n, 0), dispatched(n, 0);
    internal::UnpackBitsPortable(packed.data(), n, bits, portable.data());
    internal::UnpackBits(packed.data(), packed.size(), n, bits,
                         dispatched.data());
    EXPECT_EQ(vals, portable) << "portable, bits=" << bits;
    EXPECT_EQ(portable, dispatched) << "dispatched, bits=" << bits;
  }
}

TEST(CellCodecTest, TruncationIsDetectedNeverOverread) {
  const std::vector<StoredTuple> slots = MakeSlots(3, 25, 37);
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  auto used_res =
      EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used_res.ok());
  const size_t used = used_res.ValueOrDie();

  const auto want = BySource(slots);
  for (size_t cut = 0; cut <= used + 8; ++cut) {
    // A fresh exactly-sized buffer, so any overread trips ASan.
    std::vector<uint8_t> trunc(page.begin(), page.begin() + cut);
    std::map<SourceId, std::vector<SpatialTuple>> got;
    const Status st = DecodeWholePage(trunc.data(), trunc.size(), &got);
    if (st.ok()) {
      // Decoding may only succeed once every group's payload survived --
      // and then it must be the exact original data.
      EXPECT_GE(cut, used) << "decode succeeded on a truncated page";
      ExpectExactEqual(want, got);
    } else {
      EXPECT_TRUE(st.IsCorruption()) << st.message();
    }
  }
}

TEST(CellCodecTest, BitFlipsNeverCrashAndErrorsAreCorruption) {
  const std::vector<StoredTuple> slots = MakeSlots(2, 20, 41);
  std::vector<uint8_t> page(1024, 0);
  auto used_res =
      EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_TRUE(used_res.ok());
  const size_t used = used_res.ValueOrDie();

  for (size_t byte = 0; byte < used; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = page;
      damaged[byte] ^= static_cast<uint8_t>(1u << bit);
      std::map<SourceId, std::vector<SpatialTuple>> got;
      if (IsV2Page(damaged.data(), damaged.size())) {
        const Status st =
            DecodeWholePage(damaged.data(), damaged.size(), &got);
        // Payload flips can decode to wrong-but-well-formed values (that
        // is what checksum_pages is for); structural damage must be a
        // clean Corruption. Either way: no crash, no overread, and no
        // status class other than Corruption.
        if (!st.ok()) {
          EXPECT_TRUE(st.IsCorruption()) << st.message();
        }
      }
      // else: the flip hit the magic/version -- the page now reads as v1,
      // which is the sniffing contract, not an error.
    }
  }
}

TEST(CellCodecTest, EnvelopeBoundsTheCellAndEverySubset) {
  Rng rng(43);
  const std::vector<StoredTuple> slots = MakeSlots(1, 200, 47);
  std::vector<SpatialTuple> cell;
  for (const StoredTuple& st : slots) cell.push_back(st.tuple);

  const size_t env = CellEnvelopeBytes(cell.data(), cell.size());
  EXPECT_GE(env, EncodedPageSize(slots.data(), slots.size()));

  // Random subsets, re-based to their own first tuple exactly like a
  // quadrant split would store them: the parent envelope must still bound
  // both their envelope and their exact encoding.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<StoredTuple> sub_slots;
    std::vector<SpatialTuple> sub;
    for (const StoredTuple& st : slots) {
      if (rng.Chance(0.4)) {
        sub_slots.push_back(st);
        sub.push_back(st.tuple);
      }
    }
    if (sub.empty()) continue;
    EXPECT_LE(CellEnvelopeBytes(sub.data(), sub.size()), env);
    EXPECT_LE(EncodedPageSize(sub_slots.data(), sub_slots.size()), env);
  }
}

TEST(CellCodecTest, V1BytesAreNotMistakenForV2) {
  std::vector<uint8_t> page(kDefaultPageSize, 0);
  EXPECT_FALSE(IsV2Page(page.data(), page.size()));
  // A v1 page starts with a slot whose source id counts up from 1 --
  // nowhere near the magic.
  StoredTuple st;
  st.source = 1;
  st.tuple = {5, 42, {1.0, 2.0}, 0.5f};
  std::memcpy(page.data(), &st.source, 4);
  EXPECT_FALSE(IsV2Page(page.data(), page.size()));
  EXPECT_FALSE(IsV2Page(page.data(), 4));  // shorter than the header
}

TEST(CellCodecTest, OverflowingEncodeWritesNothing) {
  const std::vector<StoredTuple> slots = MakeSlots(2, 40, 53);
  ASSERT_GT(EncodedPageSize(slots.data(), slots.size()), 256u);
  std::vector<uint8_t> page(256, 0);
  auto used = EncodePage(slots.data(), slots.size(), page.data(), page.size());
  ASSERT_FALSE(used.ok());
  EXPECT_EQ(used.status().code(), StatusCode::kResourceExhausted);
  for (uint8_t b : page) EXPECT_EQ(b, 0);
}

// ------------------------------------------------------------ edit path
//
// Every group-local edit must leave exactly the bytes EncodePage produces
// for the edited slot sequence. The tests below keep that slot sequence
// as a model -- cells in first-appearance order, tuples in slot order --
// and compare whole pages, tail bytes included, after each edit.

class EditModel {
 public:
  explicit EditModel(size_t page_size) : page_(page_size, 0) {
    EXPECT_TRUE(EncodePage(nullptr, 0, page_.data(), page_.size()).ok());
  }

  uint8_t* page() { return page_.data(); }
  size_t page_size() const { return page_.size(); }

  /// AppendToGroup on the page and the model; the page must match the
  /// encoding of the model, or stay untouched on ResourceExhausted.
  Status Append(uint32_t source, const std::vector<SpatialTuple>& tuples) {
    const std::vector<uint8_t> before = page_;
    Status st = AppendToGroup(page_.data(), page_.size(), source,
                              tuples.data(), tuples.size());
    if (st.code() == StatusCode::kResourceExhausted) {
      EXPECT_EQ(page_, before) << "a refused append changed the page";
      return st;
    }
    if (st.ok()) {
      std::vector<SpatialTuple>& cell = Cell(source);
      cell.insert(cell.end(), tuples.begin(), tuples.end());
    }
    return st;
  }

  Result<bool> Remove(uint32_t source, uint32_t doc) {
    auto removed = RemoveFromGroup(page_.data(), page_.size(), source, doc);
    if (removed.ok() && removed.ValueOrDie()) {
      std::vector<SpatialTuple>& cell = Cell(source);
      for (auto it = cell.begin(); it != cell.end(); ++it) {
        if (it->doc == doc) {
          cell.erase(it);
          break;
        }
      }
      DropEmpty();
    }
    return removed;
  }

  std::vector<SpatialTuple> Take(uint32_t source) {
    std::vector<SpatialTuple> out;
    EXPECT_TRUE(TakeGroup(page_.data(), page_.size(), source, &out).ok());
    std::vector<SpatialTuple> want = Cell(source);
    Cell(source).clear();
    DropEmpty();
    EXPECT_EQ(out.size(), want.size());
    for (size_t i = 0; i < want.size() && i < out.size(); ++i) {
      EXPECT_TRUE(out[i] == want[i]) << "tuple " << i;
    }
    return out;
  }

  /// The page bytes EncodePage gives the model's slots.
  std::vector<uint8_t> Canonical() const {
    std::vector<StoredTuple> slots;
    for (const auto& [source, tuples] : cells_) {
      for (const SpatialTuple& t : tuples) slots.push_back({source, t});
    }
    std::vector<uint8_t> out(page_.size(), 0);
    EXPECT_TRUE(
        EncodePage(slots.data(), slots.size(), out.data(), out.size()).ok());
    return out;
  }

  void ExpectCanonical(const std::string& what) const {
    const std::vector<uint8_t> want = Canonical();
    ASSERT_EQ(want.size(), page_.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(page_[i], want[i]) << what << ": first difference at byte "
                                   << i << " of " << UsedBytes(want.data());
    }
  }

  /// The model's tuples of `source` (none when absent).
  std::vector<SpatialTuple> tuples(uint32_t source) const {
    for (const auto& [s, tuples] : cells_) {
      if (s == source) return tuples;
    }
    return {};
  }

  /// Directory index of `source` on the page.
  uint32_t GroupIndex(uint32_t source) const {
    for (uint32_t g = 0; g < cells_.size(); ++g) {
      if (cells_[g].first == source) return g;
    }
    return UINT32_MAX;
  }

 private:
  std::vector<SpatialTuple>& Cell(uint32_t source) {
    for (auto& [s, tuples] : cells_) {
      if (s == source) return tuples;
    }
    cells_.push_back({source, {}});
    return cells_.back().second;
  }

  void DropEmpty() {
    for (auto it = cells_.begin(); it != cells_.end();) {
      it = it->second.empty() ? cells_.erase(it) : it + 1;
    }
  }

  std::vector<uint8_t> page_;
  std::vector<std::pair<uint32_t, std::vector<SpatialTuple>>> cells_;
};

SpatialTuple Tup(uint32_t term, uint32_t doc, double x, double y, float w) {
  return SpatialTuple{term, doc, {x, y}, w};
}

/// Group header fields (layout in cell_codec.h).
struct HeaderBytes {
  uint32_t min_doc;
  uint8_t doc_bits, weight_mode, x_bytes, y_bytes;
};

HeaderBytes HeaderOf(const uint8_t* page, size_t page_size, uint32_t g) {
  GroupRef ref;
  EXPECT_TRUE(ReadGroupRef(page, page_size, g, &ref).ok());
  HeaderBytes h;
  std::memcpy(&h.min_doc, page + ref.offset, 4);
  h.doc_bits = page[ref.offset + 4];
  h.weight_mode = page[ref.offset + 5];
  h.x_bytes = page[ref.offset + 6];
  h.y_bytes = page[ref.offset + 7];
  return h;
}

// A second cell on both sides of the edited one, so every edit also moves
// the bytes of a neighbour.
void AddNeighbours(EditModel* m) {
  ASSERT_TRUE(m->Append(1, {Tup(10, 5, 1.0, 1.0, 0.2f),
                            Tup(10, 9, 1.5, 1.25, 0.3f)})
                  .ok());
  ASSERT_TRUE(m->Append(2, {Tup(20, 100, 50.0, 50.0, 0.5f)}).ok());
  ASSERT_TRUE(m->Append(3, {Tup(30, 7, 90.0, 10.0, 0.9f),
                            Tup(30, 3, 90.5, 10.5, 0.1f)})
                  .ok());
  m->ExpectCanonical("neighbours");
}

TEST(CellCodecEditTest, DocBitsGrowAcrossAPowerOfTwo) {
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  // Deltas 0..7 need 3 bits; delta 8 needs 4.
  for (uint32_t d = 0; d < 8; ++d) {
    ASSERT_TRUE(m.Append(2, {Tup(20, 100 + d, 50.0, 50.0, 0.5f)}).ok());
    m.ExpectCanonical("delta " + std::to_string(d));
  }
  EXPECT_EQ(HeaderOf(m.page(), m.page_size(), m.GroupIndex(2)).doc_bits, 3);
  ASSERT_TRUE(m.Append(2, {Tup(20, 108, 50.0, 50.0, 0.5f)}).ok());
  m.ExpectCanonical("delta 8");
  EXPECT_EQ(HeaderOf(m.page(), m.page_size(), m.GroupIndex(2)).doc_bits, 4);
  // Appends inside the new width extend the stream, crossing partial bytes.
  for (uint32_t d = 9; d < 16; ++d) {
    ASSERT_TRUE(m.Append(2, {Tup(20, 100 + d, 50.0, 50.0, 0.5f)}).ok());
    m.ExpectCanonical("delta " + std::to_string(d));
  }
}

TEST(CellCodecEditTest, WeightModeChangesConstToQ16ToRaw) {
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  ASSERT_TRUE(m.Append(2, {Tup(20, 101, 50.0, 50.0, 0.5f)}).ok());
  m.ExpectCanonical("const append");
  EXPECT_EQ(HeaderOf(m.page(), m.page_size(), m.GroupIndex(2)).weight_mode,
            2);
  // Integer weights 0..65535 sit on the q16 lattice exactly (step 1.0).
  EditModel q(kDefaultPageSize);
  AddNeighbours(&q);
  ASSERT_TRUE(q.Append(4, {Tup(40, 1, 5.0, 5.0, 0.0f)}).ok());
  ASSERT_TRUE(q.Append(4, {Tup(40, 2, 5.0, 5.0, 0.0f)}).ok());
  EXPECT_EQ(HeaderOf(q.page(), q.page_size(), q.GroupIndex(4)).weight_mode,
            2);
  ASSERT_TRUE(q.Append(4, {Tup(40, 3, 5.0, 5.0, 65535.0f)}).ok());
  q.ExpectCanonical("const -> q16");
  EXPECT_EQ(HeaderOf(q.page(), q.page_size(), q.GroupIndex(4)).weight_mode,
            1);
  ASSERT_TRUE(q.Append(4, {Tup(40, 4, 5.0, 5.0, 1234.0f)}).ok());
  q.ExpectCanonical("q16 in-range append");
  EXPECT_EQ(HeaderOf(q.page(), q.page_size(), q.GroupIndex(4)).weight_mode,
            1);
  ASSERT_TRUE(q.Append(4, {Tup(40, 5, 5.0, 5.0, 0.3f)}).ok());
  q.ExpectCanonical("q16 -> raw");
  EXPECT_EQ(HeaderOf(q.page(), q.page_size(), q.GroupIndex(4)).weight_mode,
            0);
  ASSERT_TRUE(q.Append(4, {Tup(40, 6, 5.0, 5.0, 0.7f)}).ok());
  q.ExpectCanonical("raw in-range append");
  ASSERT_TRUE(q.Append(4, {Tup(40, 7, 5.0, 5.0, 70000.0f)}).ok());
  q.ExpectCanonical("raw new maximum");
  ASSERT_TRUE(q.Append(4, {Tup(40, 8, 5.0, 5.0, -1.0f)}).ok());
  q.ExpectCanonical("raw new minimum");
}

TEST(CellCodecEditTest, DocBelowMinDocReencodes) {
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  ASSERT_TRUE(m.Append(2, {Tup(20, 130, 50.0, 50.0, 0.5f)}).ok());
  const SpatialTuple low = Tup(20, 40, 50.0, 50.0, 0.5f);
  // The envelope needs the group's largest doc, which only the stream has.
  std::vector<SpatialTuple> grown = m.tuples(2);
  grown.push_back(low);
  auto env = EnvelopeWith(m.page(), m.page_size(), 2, low);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.ValueOrDie(), CellEnvelopeBytes(grown.data(), grown.size()));
  ASSERT_TRUE(m.Append(2, {low}).ok());
  m.ExpectCanonical("doc below min_doc");
  EXPECT_EQ(HeaderOf(m.page(), m.page_size(), m.GroupIndex(2)).min_doc, 40u);
}

TEST(CellCodecEditTest, ResidualWideningReencodes) {
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  const uint32_t before =
      HeaderOf(m.page(), m.page_size(), m.GroupIndex(1)).x_bytes;
  // Far from the base: the XOR residual reaches the exponent bytes.
  const SpatialTuple far = Tup(10, 11, -75.0, 1.0, 0.25f);
  std::vector<SpatialTuple> grown = m.tuples(1);
  grown.push_back(far);
  auto env = EnvelopeWith(m.page(), m.page_size(), 1, far);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.ValueOrDie(), CellEnvelopeBytes(grown.data(), grown.size()));
  ASSERT_TRUE(m.Append(1, {far}).ok());
  m.ExpectCanonical("residual widening");
  EXPECT_GT(HeaderOf(m.page(), m.page_size(), m.GroupIndex(1)).x_bytes,
            before);
}

TEST(CellCodecEditTest, TakeFirstMiddleAndLastGroup) {
  for (uint32_t victim : {1u, 2u, 3u}) {
    EditModel m(kDefaultPageSize);
    AddNeighbours(&m);
    m.Take(victim);
    m.ExpectCanonical("take group " + std::to_string(victim));
    GroupRef ref;
    auto found = FindGroup(m.page(), m.page_size(), victim, &ref);
    ASSERT_TRUE(found.ok());
    EXPECT_FALSE(found.ValueOrDie());
  }
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  m.Take(2);
  m.Take(1);
  m.Take(3);
  m.ExpectCanonical("every group taken");
  EXPECT_EQ(UsedBytes(m.page()), kV2PageHeaderBytes);
  EXPECT_TRUE(m.Take(9).empty());  // absent: no-op
}

TEST(CellCodecEditTest, RemoveTuplesAndAGroupsLastTuple) {
  EditModel m(kDefaultPageSize);
  AddNeighbours(&m);
  for (uint32_t d = 0; d < 6; ++d) {
    ASSERT_TRUE(m.Append(2, {Tup(20, 101 + d, 50.0 + d, 50.0 - d,
                                 0.5f + 0.01f * d)})
                    .ok());
  }
  m.ExpectCanonical("setup");
  // First tuple (the coordinate base), a middle one, the last one.
  for (uint32_t doc : {100u, 103u, 106u}) {
    auto removed = m.Remove(2, doc);
    ASSERT_TRUE(removed.ok());
    EXPECT_TRUE(removed.ValueOrDie());
    m.ExpectCanonical("remove doc " + std::to_string(doc));
  }
  auto missing = m.Remove(2, 100);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.ValueOrDie());
  // Group 2's only tuple: the group goes, its neighbours move down.
  ASSERT_TRUE(m.Append(5, {Tup(50, 77, 3.0, 4.0, 0.4f)}).ok());
  auto last = m.Remove(5, 77);
  ASSERT_TRUE(last.ok() && last.ValueOrDie());
  m.ExpectCanonical("remove a group's last tuple");
  GroupRef ref;
  auto found = FindGroup(m.page(), m.page_size(), 5, &ref);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.ValueOrDie());
}

TEST(CellCodecEditTest, FillsPageToExactlyPageSize) {
  // One cell at one location with one weight: after the first 256 docs fix
  // the width at 8 bits, every append adds exactly one byte.
  const size_t kPage = 512;
  EditModel m(kPage);
  std::vector<SpatialTuple> seed;
  for (uint32_t d = 0; d < 256; ++d) seed.push_back(Tup(1, d, 7.0, 7.0, 0.5f));
  ASSERT_TRUE(m.Append(1, seed).ok());
  m.ExpectCanonical("seed");
  uint32_t doc = 0;
  while (UsedBytes(m.page()) < kPage) {
    ASSERT_TRUE(m.Append(1, {Tup(1, doc++ % 256, 7.0, 7.0, 0.5f)}).ok());
  }
  m.ExpectCanonical("full");
  EXPECT_EQ(UsedBytes(m.page()), kPage);
  EXPECT_EQ(m.Append(1, {Tup(1, 3, 7.0, 7.0, 0.5f)}).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(m.Append(2, {Tup(2, 3, 7.0, 7.0, 0.5f)}).code(),
            StatusCode::kResourceExhausted);
  m.ExpectCanonical("refused appends");
}

TEST(CellCodecEditTest, RandomEditSequencesMatchEncodePage) {
  // Small pages, so appends also run into a full page and are refused.
  uint32_t refused = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    EditModel m(kV2MinPageSize);
    // Weight regimes: constant, the q16 integer lattice, and raw floats.
    const int regime = static_cast<int>(seed % 3);
    auto weight = [&]() -> float {
      if (regime == 0) return 0.5f;
      if (regime == 1) return static_cast<float>(rng.UniformInt(0, 8) * 4096);
      return static_cast<float>(rng.UniformDouble(0.45, 0.55));
    };
    for (int step = 0; step < 1500; ++step) {
      const uint32_t source = static_cast<uint32_t>(rng.UniformInt(1, 6));
      const double roll = rng.UniformDouble(0.0, 1.0);
      if (roll < 0.6) {
        const SpatialTuple t =
            Tup(source, static_cast<uint32_t>(rng.UniformInt(0, 5000)),
                10.0 * source + rng.UniformDouble(0.0, 1.0),
                5.0 + rng.UniformDouble(0.0, 0.01), weight());
        auto env = EnvelopeWith(m.page(), m.page_size(), source, t);
        ASSERT_TRUE(env.ok());
        std::vector<SpatialTuple> grown = m.tuples(source);
        grown.push_back(t);
        ASSERT_EQ(env.ValueOrDie(),
                  CellEnvelopeBytes(grown.data(), grown.size()));
        Status st = m.Append(source, {t});
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kResourceExhausted);
        refused += !st.ok();
      } else if (roll < 0.9) {
        const std::vector<SpatialTuple> cell = m.tuples(source);
        if (cell.empty()) continue;
        const uint32_t doc =
            cell[rng.UniformInt(0, cell.size() - 1)].doc;
        ASSERT_TRUE(m.Remove(source, doc).ok());
      } else {
        m.Take(source);
      }
      m.ExpectCanonical("seed " + std::to_string(seed) + " step " +
                        std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(refused, 0u);
}

// Forwards to a test-owned backing so two DataFile generations can look at
// the same physical pages (the DataFile ctor takes ownership of its file).
class SharedPageFile final : public PageFile {
 public:
  explicit SharedPageFile(PageFile* base)
      : PageFile(base->page_size()), base_(base) {}
  PageId PageCount() const override { return base_->PageCount(); }
  Result<PageId> AllocatePage() override { return base_->AllocatePage(); }
  Status ReadPage(PageId id, void* buf, IoCategory category) override {
    return base_->ReadPage(id, buf, category);
  }
  Status WritePage(PageId id, const void* buf,
                   IoCategory category) override {
    return base_->WritePage(id, buf, category);
  }
  const uint8_t* PeekPage(PageId id) const override {
    return base_->PeekPage(id);
  }

 private:
  PageFile* base_;
};

TEST(CellCodecTest, V1PagesStayReadableWithCompressionOn) {
  InMemoryPageFile backing(kDefaultPageSize);

  // Generation 1: uncompressed writer fills a page with v1 slots.
  TuplePage original;
  for (const StoredTuple& st : MakeSlots(3, 15, 59)) {
    original.slots.push_back(st);
  }
  {
    DataFile v1(std::make_unique<SharedPageFile>(&backing), {},
                /*compress=*/false);
    auto page = v1.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page.ValueOrDie(), 0u);
    ASSERT_TRUE(v1.Write(0, original).ok());
  }
  ASSERT_FALSE(IsV2Page(backing.PeekPage(0), kDefaultPageSize));

  // Generation 2: the same physical page, opened by a compressed-mode
  // data file. The per-page sniff must hand back the identical tuples.
  DataFile v2(std::make_unique<SharedPageFile>(&backing), {},
              /*compress=*/true);
  ASSERT_TRUE(v2.compress());
  auto read = v2.Read(0);
  ASSERT_TRUE(read.ok()) << read.status().message();
  const TuplePage& got = read.ValueOrDie();
  ASSERT_EQ(got.slots.size(), original.slots.size());
  for (size_t i = 0; i < got.slots.size(); ++i) {
    EXPECT_EQ(got.slots[i].source, original.slots[i].source);
    EXPECT_TRUE(got.slots[i].tuple == original.slots[i].tuple);
  }

  // And a page this generation writes itself comes out v2.
  auto fresh = v2.AllocatePage();
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(v2.Write(fresh.ValueOrDie(), original).ok());
  EXPECT_TRUE(
      IsV2Page(backing.PeekPage(fresh.ValueOrDie()), kDefaultPageSize));
  auto reread = v2.Read(fresh.ValueOrDie());
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.ValueOrDie().slots.size(), original.slots.size());
}

}  // namespace
}  // namespace codec
}  // namespace i3
