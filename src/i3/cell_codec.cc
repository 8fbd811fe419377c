#include "i3/cell_codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "i3/data_file.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define I3_UNPACK_X86 1
#include <immintrin.h>
#endif

namespace i3 {
namespace codec {

namespace {

// ------------------------------------------------------- little-endian I/O

template <typename T>
T LoadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreLe(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, 8);
  return u;
}

double BitsDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, 8);
  return d;
}

uint32_t BitsFor(uint32_t v) {
  return v == 0 ? 0 : 32u - static_cast<uint32_t>(__builtin_clz(v));
}

/// Significant low bytes of an XOR residual: byte count covering the
/// highest set bit (0 for a zero residual).
uint32_t SigBytes(uint64_t x) {
  if (x == 0) return 0;
  return (64u - static_cast<uint32_t>(__builtin_clzll(x)) + 7u) / 8u;
}

// -------------------------------------------------------------- weight q16

constexpr uint8_t kWeightRaw = 0;    // 4B float32 per tuple
constexpr uint8_t kWeightQ16 = 1;    // w_min + q * w_step, 2B per tuple
constexpr uint8_t kWeightConst = 2;  // one float32 for the whole group

uint32_t QuantizeQ16(float w, float w_min, float w_step) {
  const double q = std::lrint((static_cast<double>(w) - w_min) / w_step);
  if (q < 0.0) return 0;
  if (q > 65535.0) return 65535;
  return static_cast<uint32_t>(q);
}

// ----------------------------------------------------------- group planning

struct GroupPlan {
  uint32_t min_doc = 0;
  uint8_t doc_bits = 0;
  uint8_t weight_mode = kWeightRaw;
  uint8_t x_bytes = 0;
  uint8_t y_bytes = 0;
  float w_min = 0.0f;   // q16 minimum / constant value
  float w_step = 0.0f;  // q16 step
  float block_max = 0.0f;
  double base_x = 0.0;
  double base_y = 0.0;
  size_t bytes = 0;  // group header + payload (directory entry excluded)
};

size_t GroupHeaderBytes(uint8_t weight_mode) {
  return 24 + (weight_mode == kWeightQ16 ? 8 : 0) +
         (weight_mode == kWeightConst ? 4 : 0);
}

size_t WeightBytesPerTuple(uint8_t weight_mode) {
  return weight_mode == kWeightRaw ? 4 : (weight_mode == kWeightQ16 ? 2 : 0);
}

size_t DeltaBytes(size_t n, uint32_t doc_bits) {
  return (n * doc_bits + 7) / 8;
}

size_t GroupBytes(uint8_t weight_mode, size_t n, uint32_t doc_bits,
                  uint32_t x_bytes, uint32_t y_bytes) {
  return GroupHeaderBytes(weight_mode) + DeltaBytes(n, doc_bits) +
         n * (WeightBytesPerTuple(weight_mode) + x_bytes + y_bytes);
}

/// True when `w` survives the exact 16-bit round trip (the search path
/// must replay v1 scores bit for bit).
bool Q16Exact(float w, float w_min, float w_step) {
  const uint32_t q = QuantizeQ16(w, w_min, w_step);
  return (w_min + static_cast<float>(q) * w_step) == w;
}

/// Plans the group of `t[0..n)` (n >= 1, all one keyword cell, in slot
/// order); the first tuple is the coordinate base.
GroupPlan PlanGroup(const SpatialTuple* t, size_t n) {
  GroupPlan g;
  g.base_x = t[0].location.x;
  g.base_y = t[0].location.y;
  uint32_t min_doc = UINT32_MAX, max_doc = 0;
  float w_min = t[0].weight, w_max = t[0].weight;
  uint32_t xb = 0, yb = 0;
  for (size_t i = 0; i < n; ++i) {
    min_doc = std::min(min_doc, t[i].doc);
    max_doc = std::max(max_doc, t[i].doc);
    w_min = std::min(w_min, t[i].weight);
    w_max = std::max(w_max, t[i].weight);
    xb = std::max(xb, SigBytes(DoubleBits(t[i].location.x) ^
                               DoubleBits(g.base_x)));
    yb = std::max(yb, SigBytes(DoubleBits(t[i].location.y) ^
                               DoubleBits(g.base_y)));
  }
  g.min_doc = min_doc;
  g.doc_bits = static_cast<uint8_t>(BitsFor(max_doc - min_doc));
  g.x_bytes = static_cast<uint8_t>(xb);
  g.y_bytes = static_cast<uint8_t>(yb);
  g.block_max = w_max;

  if (w_min == w_max) {
    g.weight_mode = kWeightConst;
    g.w_min = w_min;
  } else {
    // Keep 16-bit quantization only when every weight round-trips.
    const float step = (w_max - w_min) / 65535.0f;
    bool exact = step > 0.0f;
    for (size_t i = 0; i < n && exact; ++i) {
      exact = Q16Exact(t[i].weight, w_min, step);
    }
    if (exact) {
      g.weight_mode = kWeightQ16;
      g.w_min = w_min;
      g.w_step = step;
    } else {
      g.weight_mode = kWeightRaw;
    }
  }
  g.bytes = GroupBytes(g.weight_mode, n, g.doc_bits, g.x_bytes, g.y_bytes);
  return g;
}

/// Writes the `g.bytes` bytes of the planned group of `t[0..n)` to `out`.
void EncodeGroup(const GroupPlan& g, const SpatialTuple* t, size_t n,
                 uint8_t* out) {
  uint8_t* p = out;
  StoreLe<uint32_t>(p + 0, g.min_doc);
  p[4] = g.doc_bits;
  p[5] = g.weight_mode;
  p[6] = g.x_bytes;
  p[7] = g.y_bytes;
  StoreLe<double>(p + 8, g.base_x);
  StoreLe<double>(p + 16, g.base_y);
  p += 24;
  if (g.weight_mode == kWeightQ16) {
    StoreLe<float>(p, g.w_min);
    StoreLe<float>(p + 4, g.w_step);
    p += 8;
  } else if (g.weight_mode == kWeightConst) {
    StoreLe<float>(p, g.w_min);
    p += 4;
  }

  std::vector<uint32_t> deltas(n);
  for (size_t i = 0; i < n; ++i) deltas[i] = t[i].doc - g.min_doc;
  internal::PackBits(deltas.data(), static_cast<uint32_t>(n), g.doc_bits, p);
  p += DeltaBytes(n, g.doc_bits);

  for (size_t i = 0; i < n; ++i) {
    if (g.weight_mode == kWeightRaw) {
      StoreLe<float>(p, t[i].weight);
      p += 4;
    } else if (g.weight_mode == kWeightQ16) {
      StoreLe<uint16_t>(p, static_cast<uint16_t>(QuantizeQ16(
                               t[i].weight, g.w_min, g.w_step)));
      p += 2;
    }
  }

  const uint64_t bx = DoubleBits(g.base_x);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = DoubleBits(t[i].location.x) ^ bx;
    std::memcpy(p, &r, g.x_bytes);  // low bytes, little-endian
    p += g.x_bytes;
  }
  const uint64_t by = DoubleBits(g.base_y);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = DoubleBits(t[i].location.y) ^ by;
    std::memcpy(p, &r, g.y_bytes);
    p += g.y_bytes;
  }
  assert(static_cast<size_t>(p - out) == g.bytes);
}

/// The cells of a slot sequence, grouped in first-appearance order of
/// their source, tuples in slot order.
struct PageGroups {
  std::vector<uint32_t> sources;
  std::vector<std::vector<SpatialTuple>> tuples;
  std::vector<GroupPlan> plans;
  size_t total = 0;  // encoded page bytes
};

PageGroups PlanPage(const StoredTuple* slots, size_t n) {
  PageGroups page;
  for (size_t s = 0; s < n; ++s) {
    size_t g = 0;
    while (g < page.sources.size() && page.sources[g] != slots[s].source) ++g;
    if (g == page.sources.size()) {
      page.sources.push_back(slots[s].source);
      page.tuples.emplace_back();
    }
    page.tuples[g].push_back(slots[s].tuple);
  }
  page.total = kV2PageHeaderBytes + page.sources.size() * kV2DirEntryBytes;
  for (const std::vector<SpatialTuple>& group : page.tuples) {
    page.plans.push_back(PlanGroup(group.data(), group.size()));
    page.total += page.plans.back().bytes;
  }
  return page;
}

/// CellEnvelopeBytes of a cell of `n` tuples with these widths.
size_t EnvelopeBytes(size_t n, uint32_t doc_bits, uint32_t xb, uint32_t yb) {
  // Weight term: the worse of mode 0 (24B header + 4B/tuple) and mode 1
  // (32B header + 2B/tuple), so whichever mode any subset lands on is
  // covered; mode 2 is smaller than both.
  const size_t weight_bytes = std::max<size_t>(4 * n, 8 + 2 * n);
  return kV2PageHeaderBytes + kV2DirEntryBytes + 24 + DeltaBytes(n, doc_bits) +
         weight_bytes + static_cast<size_t>(xb + yb) * n;
}

}  // namespace

bool IsV2Page(const uint8_t* page, size_t page_size) {
  if (page_size < kV2PageHeaderBytes) return false;
  return LoadLe<uint32_t>(page) == kV2PageMagic &&
         LoadLe<uint16_t>(page + 4) == kV2FormatVersion;
}

size_t EncodedPageSize(const StoredTuple* slots, size_t n) {
  return PlanPage(slots, n).total;
}

size_t CellEnvelopeBytes(const SpatialTuple* tuples, size_t n) {
  if (n == 0) return kV2PageHeaderBytes;
  uint32_t min_doc = tuples[0].doc;
  uint32_t max_doc = tuples[0].doc;
  const uint64_t bx = DoubleBits(tuples[0].location.x);
  const uint64_t by = DoubleBits(tuples[0].location.y);
  uint32_t xb = 0;
  uint32_t yb = 0;
  for (size_t i = 0; i < n; ++i) {
    min_doc = std::min(min_doc, tuples[i].doc);
    max_doc = std::max(max_doc, tuples[i].doc);
    xb = std::max(xb, SigBytes(DoubleBits(tuples[i].location.x) ^ bx));
    yb = std::max(yb, SigBytes(DoubleBits(tuples[i].location.y) ^ by));
  }
  return EnvelopeBytes(n, BitsFor(max_doc - min_doc), xb, yb);
}

size_t GroupFootprint(const SpatialTuple* tuples, size_t n) {
  return kV2DirEntryBytes + PlanGroup(tuples, n).bytes;
}

Result<size_t> EncodePage(const StoredTuple* slots, size_t n, uint8_t* out,
                          size_t page_size) {
  const PageGroups page = PlanPage(slots, n);
  if (page.total > page_size) {
    return Status::ResourceExhausted(
        "v2 page encoding needs " + std::to_string(page.total) +
        " bytes, page holds " + std::to_string(page_size));
  }
  if (page.sources.size() > UINT16_MAX) {
    return Status::ResourceExhausted("too many keyword cells on one page");
  }

  StoreLe<uint32_t>(out, kV2PageMagic);
  StoreLe<uint16_t>(out + 4, kV2FormatVersion);
  StoreLe<uint16_t>(out + 6, static_cast<uint16_t>(page.sources.size()));
  StoreLe<uint32_t>(out + 8, static_cast<uint32_t>(page.total));

  size_t off = kV2PageHeaderBytes + page.sources.size() * kV2DirEntryBytes;
  for (size_t gi = 0; gi < page.sources.size(); ++gi) {
    const GroupPlan& g = page.plans[gi];
    const std::vector<SpatialTuple>& t = page.tuples[gi];
    uint8_t* dir = out + kV2PageHeaderBytes + gi * kV2DirEntryBytes;
    StoreLe<uint32_t>(dir + 0, page.sources[gi]);
    StoreLe<uint32_t>(dir + 4, t[0].term);
    StoreLe<uint32_t>(dir + 8, static_cast<uint32_t>(t.size()));
    StoreLe<uint32_t>(dir + 12, static_cast<uint32_t>(off));
    StoreLe<float>(dir + 16, g.block_max);
    EncodeGroup(g, t.data(), t.size(), out + off);
    off += g.bytes;
  }
  assert(off == page.total);
  return page.total;
}

// ---------------------------------------------------------------- read path

Result<uint32_t> GroupCount(const uint8_t* page, size_t page_size) {
  if (!IsV2Page(page, page_size)) {
    return Status::Corruption("not a v2 page");
  }
  const uint32_t gc = LoadLe<uint16_t>(page + 6);
  const uint32_t used = LoadLe<uint32_t>(page + 8);
  if (used > page_size ||
      kV2PageHeaderBytes + static_cast<size_t>(gc) * kV2DirEntryBytes >
          used) {
    return Status::Corruption("v2 page header out of bounds");
  }
  return gc;
}

Status ReadGroupRef(const uint8_t* page, size_t page_size, uint32_t g,
                    GroupRef* out) {
  auto gc = GroupCount(page, page_size);
  if (!gc.ok()) return gc.status();
  if (g >= gc.ValueOrDie()) {
    return Status::Corruption("v2 group index out of range");
  }
  const uint8_t* dir =
      page + kV2PageHeaderBytes + static_cast<size_t>(g) * kV2DirEntryBytes;
  out->source = LoadLe<uint32_t>(dir + 0);
  out->term = LoadLe<uint32_t>(dir + 4);
  out->count = LoadLe<uint32_t>(dir + 8);
  out->offset = LoadLe<uint32_t>(dir + 12);
  out->block_max = LoadLe<float>(dir + 16);
  return Status::OK();
}

namespace {

/// Directory index of the group of `source` (entry in `*out`), or -1.
Result<int64_t> LocateGroup(const uint8_t* page, size_t page_size,
                            uint32_t source, GroupRef* out) {
  auto gc_res = GroupCount(page, page_size);
  if (!gc_res.ok()) return gc_res.status();
  const uint32_t gc = gc_res.ValueOrDie();
  for (uint32_t g = 0; g < gc; ++g) {
    const uint8_t* dir =
        page + kV2PageHeaderBytes + static_cast<size_t>(g) * kV2DirEntryBytes;
    if (LoadLe<uint32_t>(dir) == source) {
      I3_RETURN_NOT_OK(ReadGroupRef(page, page_size, g, out));
      return static_cast<int64_t>(g);
    }
  }
  return int64_t{-1};
}

}  // namespace

Result<bool> FindGroup(const uint8_t* page, size_t page_size, uint32_t source,
                       GroupRef* out) {
  auto gi = LocateGroup(page, page_size, source, out);
  if (!gi.ok()) return gi.status();
  return gi.ValueOrDie() >= 0;
}

// ------------------------------------------------------------ decode scratch

namespace {

struct ScratchBufs {
  std::vector<uint32_t> docs;
  std::vector<float> weights;
  std::vector<double> xs, ys;

  void Ensure(uint32_t n) {
    if (docs.size() < n) {
      docs.resize(n);
      weights.resize(n);
      xs.resize(n);
      ys.resize(n);
    }
  }
};

struct ScratchStack {
  std::vector<std::unique_ptr<ScratchBufs>> levels;
  size_t depth = 0;
};
thread_local ScratchStack t_decode_scratch;

}  // namespace

DecodeScratch::DecodeScratch() {
  ScratchStack& s = t_decode_scratch;
  if (s.depth == s.levels.size()) {
    s.levels.push_back(std::make_unique<ScratchBufs>());
  }
  slot_ = s.levels[s.depth].get();
  ++s.depth;
}

DecodeScratch::~DecodeScratch() {
  assert(t_decode_scratch.depth > 0);
  --t_decode_scratch.depth;
}

namespace {

/// A validated group header with the byte extents of its columns.
struct GroupLayout {
  uint32_t min_doc = 0;
  uint8_t doc_bits = 0;
  uint8_t weight_mode = kWeightRaw;
  uint8_t x_bytes = 0;
  uint8_t y_bytes = 0;
  double base_x = 0.0;
  double base_y = 0.0;
  float w_min = 0.0f;   // q16 minimum / constant value
  float w_step = 0.0f;  // q16 step
  size_t header = 0;    // bytes before the delta stream
  size_t deltas = 0;    // delta stream bytes
  size_t bytes = 0;     // whole group
};

/// Parses and bounds-checks the header of group `g`; every column extent
/// lies inside the page's used bytes on success.
Status ParseGroup(const uint8_t* page, size_t page_size, const GroupRef& g,
                  GroupLayout* out) {
  const uint32_t used = LoadLe<uint32_t>(page + 8);
  // Sanity cap: a directory count larger than the bit capacity of the page
  // cannot be honest (it would also make the scratch resize unbounded).
  if (g.count == 0 || g.count > page_size * 8) {
    return Status::Corruption("v2 group count out of bounds");
  }
  if (g.offset < kV2PageHeaderBytes ||
      static_cast<size_t>(g.offset) + 24 > used || used > page_size) {
    return Status::Corruption("v2 group header out of bounds");
  }
  const uint8_t* p = page + g.offset;
  GroupLayout& l = *out;
  l.min_doc = LoadLe<uint32_t>(p + 0);
  l.doc_bits = p[4];
  l.weight_mode = p[5];
  l.x_bytes = p[6];
  l.y_bytes = p[7];
  l.base_x = LoadLe<double>(p + 8);
  l.base_y = LoadLe<double>(p + 16);
  if (l.doc_bits > 32 || l.weight_mode > kWeightConst || l.x_bytes > 8 ||
      l.y_bytes > 8) {
    return Status::Corruption("v2 group field out of range");
  }
  l.header = GroupHeaderBytes(l.weight_mode);
  l.deltas = DeltaBytes(g.count, l.doc_bits);
  l.bytes =
      GroupBytes(l.weight_mode, g.count, l.doc_bits, l.x_bytes, l.y_bytes);
  if (static_cast<size_t>(g.offset) + l.bytes > used) {
    return Status::Corruption("v2 group payload out of bounds");
  }
  if (l.weight_mode != kWeightRaw) l.w_min = LoadLe<float>(p + 24);
  if (l.weight_mode == kWeightQ16) l.w_step = LoadLe<float>(p + 28);
  return Status::OK();
}

}  // namespace

Status DecodeGroup(const uint8_t* page, size_t page_size, const GroupRef& g,
                   DecodeScratch* scratch, DecodedGroup* out) {
  GroupLayout l;
  I3_RETURN_NOT_OK(ParseGroup(page, page_size, g, &l));
  const size_t n = g.count;

  ScratchBufs* bufs = static_cast<ScratchBufs*>(scratch->slot_);
  bufs->Ensure(g.count);
  uint32_t* docs = bufs->docs.data();
  float* weights = bufs->weights.data();
  double* xs = bufs->xs.data();
  double* ys = bufs->ys.data();

  const uint8_t* deltas = page + g.offset + l.header;
  internal::UnpackBits(deltas, page_size - (g.offset + l.header), g.count,
                       l.doc_bits, docs);
  for (size_t i = 0; i < n; ++i) docs[i] += l.min_doc;

  const uint8_t* wp = deltas + l.deltas;
  if (l.weight_mode == kWeightRaw) {
    for (size_t i = 0; i < n; ++i) weights[i] = LoadLe<float>(wp + 4 * i);
  } else if (l.weight_mode == kWeightQ16) {
    for (size_t i = 0; i < n; ++i) {
      const float q = static_cast<float>(LoadLe<uint16_t>(wp + 2 * i));
      weights[i] = l.w_min + q * l.w_step;
    }
  } else {
    for (size_t i = 0; i < n; ++i) weights[i] = l.w_min;
  }

  const uint8_t* xp = wp + n * WeightBytesPerTuple(l.weight_mode);
  const uint64_t bx = DoubleBits(l.base_x);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = 0;
    std::memcpy(&r, xp + i * l.x_bytes, l.x_bytes);
    xs[i] = BitsDouble(r ^ bx);
  }
  const uint8_t* yp = xp + n * l.x_bytes;
  const uint64_t by = DoubleBits(l.base_y);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = 0;
    std::memcpy(&r, yp + i * l.y_bytes, l.y_bytes);
    ys[i] = BitsDouble(r ^ by);
  }

  out->docs = docs;
  out->weights = weights;
  out->xs = xs;
  out->ys = ys;
  out->n = g.count;
  return Status::OK();
}

// ---------------------------------------------------------------- edit path

namespace {

uint8_t* DirEntry(uint8_t* page, uint32_t g) {
  return page + kV2PageHeaderBytes + static_cast<size_t>(g) * kV2DirEntryBytes;
}

/// New contents of one group for SpliceGroup.
struct GroupBody {
  uint32_t source = 0;
  uint32_t term = 0;
  uint32_t count = 0;
  float block_max = 0.0f;
  const uint8_t* bytes = nullptr;
  size_t len = 0;
};

/// \brief The one page-level move of every edit: replaces group `gi` with
/// `body` (gi below the group count), appends `body` as a new last group
/// (gi equal to it), or drops group `gi` (body null). `old_bytes` is the
/// current size of group `gi`. Every other group's bytes move unchanged;
/// directory offsets, the group count and used_bytes are patched and the
/// bytes freed past used_bytes are zeroed. ResourceExhausted, with the
/// page untouched, when the result would not fit `page_size`.
Status SpliceGroup(uint8_t* page, size_t page_size, uint32_t gi,
                   size_t old_bytes, const GroupBody* body) {
  const uint32_t gc = LoadLe<uint16_t>(page + 6);
  const size_t used = LoadLe<uint32_t>(page + 8);
  const size_t data_start = kV2PageHeaderBytes + gc * kV2DirEntryBytes;
  auto shift_offsets = [page](uint32_t from, uint32_t to, int64_t delta) {
    for (uint32_t g = from; g < to; ++g) {
      uint8_t* off = DirEntry(page, g) + 12;
      StoreLe<uint32_t>(off,
                        static_cast<uint32_t>(LoadLe<uint32_t>(off) + delta));
    }
  };
  size_t new_used;
  if (gi == gc) {
    new_used = used + kV2DirEntryBytes + body->len;
    if (new_used > page_size || gc == UINT16_MAX) {
      return Status::ResourceExhausted("no room for a new v2 group");
    }
    // The directory grows by one entry: every group moves up by one.
    std::memmove(page + data_start + kV2DirEntryBytes, page + data_start,
                 used - data_start);
    shift_offsets(0, gc, kV2DirEntryBytes);
    uint8_t* dir = DirEntry(page, gc);
    StoreLe<uint32_t>(dir + 0, body->source);
    StoreLe<uint32_t>(dir + 4, body->term);
    StoreLe<uint32_t>(dir + 8, body->count);
    StoreLe<uint32_t>(dir + 12,
                      static_cast<uint32_t>(used + kV2DirEntryBytes));
    StoreLe<float>(dir + 16, body->block_max);
    std::memcpy(page + used + kV2DirEntryBytes, body->bytes, body->len);
    StoreLe<uint16_t>(page + 6, static_cast<uint16_t>(gc + 1));
  } else {
    const size_t off = LoadLe<uint32_t>(DirEntry(page, gi) + 12);
    const size_t end = off + old_bytes;
    if (body != nullptr) {
      new_used = used - old_bytes + body->len;
      if (new_used > page_size) {
        return Status::ResourceExhausted("no room to grow a v2 group");
      }
      std::memmove(page + off + body->len, page + end, used - end);
      std::memcpy(page + off, body->bytes, body->len);
      uint8_t* dir = DirEntry(page, gi);
      StoreLe<uint32_t>(dir + 8, body->count);
      StoreLe<float>(dir + 16, body->block_max);
      shift_offsets(gi + 1, gc,
                    static_cast<int64_t>(body->len) -
                        static_cast<int64_t>(old_bytes));
    } else {
      new_used = used - old_bytes - kV2DirEntryBytes;
      // Close the group's gap, drop its directory entry, then move every
      // group down by the entry it no longer needs.
      std::memmove(page + off, page + end, used - end);
      std::memmove(DirEntry(page, gi), DirEntry(page, gi + 1),
                   (gc - gi - 1) * kV2DirEntryBytes);
      std::memmove(page + data_start - kV2DirEntryBytes, page + data_start,
                   used - old_bytes - data_start);
      shift_offsets(0, gi, -static_cast<int64_t>(kV2DirEntryBytes));
      shift_offsets(gi, gc - 1,
                    -static_cast<int64_t>(kV2DirEntryBytes + old_bytes));
      StoreLe<uint16_t>(page + 6, static_cast<uint16_t>(gc - 1));
    }
  }
  if (new_used < used) std::memset(page + new_used, 0, used - new_used);
  StoreLe<uint32_t>(page + 8, static_cast<uint32_t>(new_used));
  return Status::OK();
}

/// Per-thread buffer a group body is assembled in before the splice.
uint8_t* BodyBuffer(size_t len) {
  thread_local std::vector<uint8_t> buf;
  if (buf.size() < len) buf.resize(len);
  return buf.data();
}

/// Appends the tuples of group `g` to `out`, in slot order.
Status AppendGroupTuples(const uint8_t* page, size_t page_size,
                         const GroupRef& g, std::vector<SpatialTuple>* out) {
  DecodeScratch scratch;
  DecodedGroup d;
  I3_RETURN_NOT_OK(DecodeGroup(page, page_size, g, &scratch, &d));
  for (uint32_t i = 0; i < d.n; ++i) {
    out->push_back({g.term, d.docs[i], {d.xs[i], d.ys[i]}, d.weights[i]});
  }
  return Status::OK();
}

/// Encodes `t[0..n)` (n >= 1) as group `gi` of `page` -- a new last group
/// when `gi` is the group count -- through SpliceGroup.
Status WriteGroup(uint8_t* page, size_t page_size, uint32_t gi,
                  size_t old_bytes, uint32_t source, const SpatialTuple* t,
                  size_t n) {
  const GroupPlan plan = PlanGroup(t, n);
  uint8_t* bytes = BodyBuffer(plan.bytes);
  EncodeGroup(plan, t, n, bytes);
  GroupBody body;
  body.source = source;
  body.term = t[0].term;
  body.count = static_cast<uint32_t>(n);
  body.block_max = plan.block_max;
  body.bytes = bytes;
  body.len = plan.bytes;
  return SpliceGroup(page, page_size, gi, old_bytes, &body);
}

/// \brief The append fast path: when the group's min doc, doc width,
/// weight mode and parameters, and residual widths all survive `t`, the
/// grown cell plans exactly as the group does now, so its encoding is the
/// current bytes with one entry added to the end of each column. Builds
/// that and splices it in; false (page untouched) when a parameter would
/// change and the group must be re-encoded instead.
Result<bool> ExtendGroup(uint8_t* page, size_t page_size, uint32_t gi,
                         const GroupRef& g, const GroupLayout& l,
                         const SpatialTuple& t) {
  if (t.doc < l.min_doc) return false;
  const uint32_t delta = t.doc - l.min_doc;
  if (BitsFor(delta) > l.doc_bits) return false;
  const uint64_t rx = DoubleBits(t.location.x) ^ DoubleBits(l.base_x);
  const uint64_t ry = DoubleBits(t.location.y) ^ DoubleBits(l.base_y);
  if (SigBytes(rx) > l.x_bytes || SigBytes(ry) > l.y_bytes) return false;

  const size_t n = g.count;
  const uint8_t* p = page + g.offset;
  const uint8_t* wcol = p + l.header + l.deltas;
  // The weight range must stay put (block_max is the group's maximum):
  // a new extreme moves w_min or the q16 step, and re-plans every weight.
  if (t.weight > g.block_max) return false;
  if (l.weight_mode == kWeightConst) {
    if (t.weight != l.w_min) return false;
  } else if (l.weight_mode == kWeightQ16) {
    if (t.weight < l.w_min || !Q16Exact(t.weight, l.w_min, l.w_step)) {
      return false;
    }
  } else {
    // Raw groups store no minimum; any stored weight at or below the new
    // one proves it is not a new minimum.
    bool above_min = false;
    for (size_t i = 0; i < n && !above_min; ++i) {
      above_min = LoadLe<float>(wcol + 4 * i) <= t.weight;
    }
    if (!above_min) return false;
  }

  const size_t wb = WeightBytesPerTuple(l.weight_mode);
  const size_t deltas = DeltaBytes(n + 1, l.doc_bits);
  const size_t len = l.bytes + (deltas - l.deltas) + wb + l.x_bytes +
                     l.y_bytes;
  uint8_t* b = BodyBuffer(len);
  std::memcpy(b, p, l.header + l.deltas);
  std::memset(b + l.header + l.deltas, 0, deltas - l.deltas);
  // OR the delta in at bit n * doc_bits: it may start inside the stream's
  // trailing partial byte, whose unused high bits are zero.
  const size_t bit = n * l.doc_bits;
  uint64_t v = static_cast<uint64_t>(delta) << (bit & 7);
  for (uint8_t* q = b + l.header + bit / 8; v != 0; ++q, v >>= 8) {
    *q |= static_cast<uint8_t>(v);
  }
  uint8_t* w = b + l.header + deltas;
  std::memcpy(w, wcol, n * wb);
  if (l.weight_mode == kWeightRaw) {
    StoreLe<float>(w + n * wb, t.weight);
  } else if (l.weight_mode == kWeightQ16) {
    StoreLe<uint16_t>(w + n * wb, static_cast<uint16_t>(QuantizeQ16(
                                      t.weight, l.w_min, l.w_step)));
  }
  const uint8_t* xcol = wcol + n * wb;
  uint8_t* x = w + (n + 1) * wb;
  std::memcpy(x, xcol, n * l.x_bytes);
  std::memcpy(x + n * l.x_bytes, &rx, l.x_bytes);
  uint8_t* y = x + (n + 1) * l.x_bytes;
  std::memcpy(y, xcol + n * l.x_bytes, n * l.y_bytes);
  std::memcpy(y + n * l.y_bytes, &ry, l.y_bytes);

  GroupBody body;
  body.source = g.source;
  body.term = g.term;
  body.count = g.count + 1;
  body.block_max = g.block_max;
  body.bytes = b;
  body.len = len;
  I3_RETURN_NOT_OK(SpliceGroup(page, page_size, gi, l.bytes, &body));
  return true;
}

}  // namespace

size_t UsedBytes(const uint8_t* page) { return LoadLe<uint32_t>(page + 8); }

Result<size_t> EnvelopeWith(const uint8_t* page, size_t page_size,
                            uint32_t source, const SpatialTuple& incoming) {
  GroupRef g;
  auto gi = LocateGroup(page, page_size, source, &g);
  if (!gi.ok()) return gi.status();
  if (gi.ValueOrDie() < 0) return CellEnvelopeBytes(&incoming, 1);
  GroupLayout l;
  I3_RETURN_NOT_OK(ParseGroup(page, page_size, g, &l));
  uint32_t doc_bits;
  if (incoming.doc >= l.min_doc) {
    doc_bits = std::max<uint32_t>(l.doc_bits,
                                  BitsFor(incoming.doc - l.min_doc));
  } else {
    // A doc below the minimum re-bases every delta; the width then
    // follows the group's largest doc, which only the stream holds.
    DecodeScratch scratch;
    DecodedGroup d;
    I3_RETURN_NOT_OK(DecodeGroup(page, page_size, g, &scratch, &d));
    doc_bits = BitsFor(*std::max_element(d.docs, d.docs + d.n) -
                       incoming.doc);
  }
  const uint32_t xb = std::max<uint32_t>(
      l.x_bytes,
      SigBytes(DoubleBits(incoming.location.x) ^ DoubleBits(l.base_x)));
  const uint32_t yb = std::max<uint32_t>(
      l.y_bytes,
      SigBytes(DoubleBits(incoming.location.y) ^ DoubleBits(l.base_y)));
  return EnvelopeBytes(g.count + 1, doc_bits, xb, yb);
}

Status AppendToGroup(uint8_t* page, size_t page_size, uint32_t source,
                     const SpatialTuple* tuples, size_t n) {
  GroupRef g;
  auto gi_res = LocateGroup(page, page_size, source, &g);
  if (!gi_res.ok()) return gi_res.status();
  const int64_t gi = gi_res.ValueOrDie();
  if (gi < 0) {
    return WriteGroup(page, page_size, LoadLe<uint16_t>(page + 6), 0, source,
                      tuples, n);
  }
  GroupLayout l;
  I3_RETURN_NOT_OK(ParseGroup(page, page_size, g, &l));
  if (n == 1) {
    auto extended = ExtendGroup(page, page_size, static_cast<uint32_t>(gi), g,
                                l, tuples[0]);
    if (!extended.ok() || extended.ValueOrDie()) return extended.status();
  }
  std::vector<SpatialTuple> cell;
  cell.reserve(g.count + n);
  I3_RETURN_NOT_OK(AppendGroupTuples(page, page_size, g, &cell));
  cell.insert(cell.end(), tuples, tuples + n);
  return WriteGroup(page, page_size, static_cast<uint32_t>(gi), l.bytes,
                    source, cell.data(), cell.size());
}

Result<bool> RemoveFromGroup(uint8_t* page, size_t page_size, uint32_t source,
                             uint32_t doc) {
  GroupRef g;
  auto gi_res = LocateGroup(page, page_size, source, &g);
  if (!gi_res.ok()) return gi_res.status();
  if (gi_res.ValueOrDie() < 0) return false;
  const uint32_t gi = static_cast<uint32_t>(gi_res.ValueOrDie());
  GroupLayout l;
  I3_RETURN_NOT_OK(ParseGroup(page, page_size, g, &l));
  std::vector<SpatialTuple> cell;
  cell.reserve(g.count);
  I3_RETURN_NOT_OK(AppendGroupTuples(page, page_size, g, &cell));
  auto it =
      std::find_if(cell.begin(), cell.end(),
                   [doc](const SpatialTuple& t) { return t.doc == doc; });
  if (it == cell.end()) return false;
  cell.erase(it);
  if (cell.empty()) {
    I3_RETURN_NOT_OK(SpliceGroup(page, page_size, gi, l.bytes, nullptr));
  } else {
    // Shrinking a cell can still grow its encoding (a q16 group whose
    // extreme weight leaves may re-plan raw); that fails like any
    // overflow, page untouched.
    I3_RETURN_NOT_OK(WriteGroup(page, page_size, gi, l.bytes, source,
                                cell.data(), cell.size()));
  }
  return true;
}

Status TakeGroup(uint8_t* page, size_t page_size, uint32_t source,
                 std::vector<SpatialTuple>* out) {
  GroupRef g;
  auto gi = LocateGroup(page, page_size, source, &g);
  if (!gi.ok()) return gi.status();
  if (gi.ValueOrDie() < 0) return Status::OK();
  GroupLayout l;
  I3_RETURN_NOT_OK(ParseGroup(page, page_size, g, &l));
  I3_RETURN_NOT_OK(AppendGroupTuples(page, page_size, g, out));
  return SpliceGroup(page, page_size, static_cast<uint32_t>(gi.ValueOrDie()),
                     l.bytes, nullptr);
}

// -------------------------------------------------------------- bit packing

namespace internal {

void PackBits(const uint32_t* vals, uint32_t n, uint32_t bits, uint8_t* dst) {
  if (bits == 0) return;
  const uint64_t mask = bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
  uint64_t buf = 0;
  uint32_t have = 0;
  uint8_t* p = dst;
  for (uint32_t i = 0; i < n; ++i) {
    buf |= (static_cast<uint64_t>(vals[i]) & mask) << have;
    have += bits;
    while (have >= 8) {
      *p++ = static_cast<uint8_t>(buf & 0xFF);
      buf >>= 8;
      have -= 8;
    }
  }
  if (have != 0) *p = static_cast<uint8_t>(buf & 0xFF);
}

void UnpackBitsPortable(const uint8_t* src, uint32_t n, uint32_t bits,
                        uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + n, 0u);
    return;
  }
  const uint64_t mask = bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
  uint64_t buf = 0;
  uint32_t have = 0;
  const uint8_t* p = src;
  for (uint32_t i = 0; i < n; ++i) {
    while (have < bits) {
      buf |= static_cast<uint64_t>(*p++) << have;
      have += 8;
    }
    out[i] = static_cast<uint32_t>(buf & mask);
    buf >>= bits;
    have -= bits;
  }
}

#ifdef I3_UNPACK_X86

// Eight values per iteration: gather the 32-bit window containing each
// value's first bit, shift it into place, mask. Sound for widths <= 25 (a
// window shifted by at most 7 bits still holds 25 payload bits); wider
// deltas -- astronomically rare at real cell sizes -- take the portable
// loop. The wrapper guarantees every gathered window lies inside the page.
__attribute__((target("avx2"))) void UnpackBitsAvx2(const uint8_t* src,
                                                    uint32_t n, uint32_t bits,
                                                    uint32_t* out) {
  const uint32_t mask = (1u << bits) - 1;
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vseven = _mm256_set1_epi32(7);
  const __m256i lane_bits = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(bits)));
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bitpos = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(i * bits)), lane_bits);
    const __m256i byteoff = _mm256_srli_epi32(bitpos, 3);
    const __m256i shift = _mm256_and_si256(bitpos, vseven);
    __m256i w = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(src), byteoff, 1);
    w = _mm256_and_si256(_mm256_srlv_epi32(w, shift), vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
  }
  for (; i < n; ++i) {
    const uint64_t bp = static_cast<uint64_t>(i) * bits;
    uint32_t w;
    std::memcpy(&w, src + (bp >> 3), 4);
    out[i] = (w >> (bp & 7)) & mask;
  }
}

// The SIMD path must reproduce the portable unpacker bit for bit across
// every dispatchable width, random payloads, and ragged counts before it
// is allowed to serve (the checksum.cc discipline).
bool SelfTestAvx2() {
  uint8_t packed[256];
  uint32_t vals[48], got[48];
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (uint32_t bits = 1; bits <= 25; ++bits) {
    const uint64_t mask = (1ull << bits) - 1;
    for (uint32_t n : {1u, 7u, 8u, 9u, 31u, 48u}) {
      for (uint32_t i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        vals[i] = static_cast<uint32_t>((lcg >> 23) & mask);
      }
      std::memset(packed, 0, sizeof(packed));
      PackBits(vals, n, bits, packed);
      UnpackBitsAvx2(packed, n, bits, got);
      for (uint32_t i = 0; i < n; ++i) {
        if (got[i] != vals[i]) return false;
      }
    }
  }
  return true;
}

bool ChooseSimd() {
  return __builtin_cpu_supports("avx2") && SelfTestAvx2();
}

#else  // !I3_UNPACK_X86

bool ChooseSimd() { return false; }

#endif  // I3_UNPACK_X86

namespace {
const bool g_use_simd = ChooseSimd();
}  // namespace

bool UsingSimdUnpack() { return g_use_simd; }

void UnpackBits(const uint8_t* src, size_t src_readable, uint32_t n,
                uint32_t bits, uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + n, 0u);
    return;
  }
#ifdef I3_UNPACK_X86
  if (g_use_simd && bits <= 25 && n >= 8) {
    // Every gathered/memcpy'd window is 4 bytes at offset (i*bits)/8.
    const size_t need = (static_cast<size_t>(n - 1) * bits) / 8 + 4;
    if (need <= src_readable) {
      UnpackBitsAvx2(src, n, bits, out);
      return;
    }
  }
#endif
  UnpackBitsPortable(src, n, bits, out);
}

}  // namespace internal

}  // namespace codec
}  // namespace i3
