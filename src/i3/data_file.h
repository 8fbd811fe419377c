// The I3 data file (Section 4.3.3).
//
// A sequence of fixed-size pages, each split into P/B fixed-width slots, one
// slot per spatial tuple. Tuples carry a *source id* identifying the
// keyword cell they belong to, so different keyword cells can share a page
// (the index's storage-utilization advantage over S2I) and a page scan can
// separate them. A slot whose source id is zero is free.
//
// Slot layout (B = 32 bytes, little-endian):
//   [0..4)   source id   (uint32; 0 = free slot)
//   [4..8)   term id     (uint32)
//   [8..12)  doc id      (uint32)
//   [12..20) x / lng     (float64)
//   [20..28) y / lat     (float64)
//   [28..32) term weight (float32)

#ifndef I3_I3_DATA_FILE_H_
#define I3_I3_DATA_FILE_H_

#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "i3/cell_cache.h"
#include "i3/cell_codec.h"
#include "model/document.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace i3 {

/// Identifier of a keyword cell within the data file. Zero marks a free
/// slot and is never allocated.
using SourceId = uint32_t;
constexpr SourceId kFreeSlot = 0;

/// Serialized tuple width B. The paper's setting (page capacity P/B = 128
/// at P = 4KB).
constexpr size_t kTupleBytes = 32;

/// \brief One occupied slot: the tuple plus its keyword-cell tag.
struct StoredTuple {
  SourceId source = kFreeSlot;
  SpatialTuple tuple;
};

/// Decodes the non-source fields of one serialized slot into a stack value.
inline SpatialTuple DecodeSlotTuple(const uint8_t* src) {
  SpatialTuple t;
  std::memcpy(&t.term, src + 4, 4);
  std::memcpy(&t.doc, src + 8, 4);
  std::memcpy(&t.location.x, src + 12, 8);
  std::memcpy(&t.location.y, src + 20, 8);
  std::memcpy(&t.weight, src + 28, 4);
  return t;
}

/// Decodes the source tag of one serialized slot.
inline SourceId DecodeSlotSource(const uint8_t* src) {
  SourceId s;
  std::memcpy(&s, src, 4);
  return s;
}

/// \brief Decoded image of one data-file page, for the writes that lay a
/// whole page out anew (a cell split, index load) and for v1 pages. Cell
/// edits use PageEdit; read paths use DataFile::View, which decodes slots
/// lazily out of the buffer-pool frame without materializing this object.
class TuplePage {
 public:
  /// Occupied slots in slot order.
  std::vector<StoredTuple> slots;

  /// Number of tuples belonging to `source`.
  uint32_t CountSource(SourceId source) const;
};

/// \brief One data page loaded for cell-level edits: DataFile::Load reads
/// it (one charged read), the DataFile cell calls change it, and
/// DataFile::Store writes it back (one charged write), however many edits
/// came between. A v2 page is held encoded and every edit is group-local
/// (the codec edit path of i3/cell_codec.h); a v1 page is held as decoded
/// slots and re-encoded whole on Store.
class PageEdit {
 public:
  PageId id() const { return id_; }

 private:
  friend class DataFile;

  PageId id_ = kInvalidPageId;
  bool grouped_ = false;        // bytes_ holds the v2 page
  std::vector<uint8_t> bytes_;  // grouped_: the encoded page
  TuplePage slots_;             // otherwise: the decoded page
};

/// \brief Zero-copy read window over one data-file page.
///
/// Obtained from DataFile::View. Points either at a pinned buffer-pool
/// frame (the frame cannot be evicted or recycled while the view lives) or,
/// for an uncached pool, at a per-thread scratch buffer the page was read
/// into. Either way the bytes are decoded lazily, slot by slot, into stack
/// values -- no TuplePage materialization, no per-read heap allocation.
///
/// Lifetime rules: a view is valid until destroyed; destroy views in LIFO
/// order per thread (scratch buffers are stacked); and -- as with every
/// read -- no writer may run concurrently.
class PageView {
 public:
  PageView() = default;
  PageView(PageView&& o) noexcept { *this = std::move(o); }
  PageView& operator=(PageView&& o) noexcept;
  PageView(const PageView&) = delete;
  PageView& operator=(const PageView&) = delete;
  ~PageView();

  /// Slots per page (P/B); slot indexes range over [0, capacity).
  uint32_t capacity() const { return capacity_; }

  /// Source tag of slot `s` (kFreeSlot for a free slot).
  SourceId SlotSource(uint32_t s) const {
    return DecodeSlotSource(data_ + s * kTupleBytes);
  }
  /// Tuple stored in slot `s` (meaningful only for occupied slots).
  SpatialTuple SlotTuple(uint32_t s) const {
    return DecodeSlotTuple(data_ + s * kTupleBytes);
  }

  /// \brief Single-pass visit of every tuple tagged `source`;
  /// `fn(const SpatialTuple&)`. Returns the number visited, so callers that
  /// would count a cell and then collect it get both in one scan.
  template <typename Fn>
  uint32_t ForEachOfSource(SourceId source, Fn&& fn) const {
    uint32_t n = 0;
    for (uint32_t s = 0; s < capacity_; ++s) {
      if (SlotSource(s) == source) {
        fn(SlotTuple(s));
        ++n;
      }
    }
    return n;
  }

  /// \brief Single-pass visit of every occupied slot;
  /// `fn(SourceId, const SpatialTuple&)`.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (uint32_t s = 0; s < capacity_; ++s) {
      const SourceId src = SlotSource(s);
      if (src != kFreeSlot) fn(src, SlotTuple(s));
    }
  }

  /// True when the underlying bytes carry the v2 compressed encoding.
  /// (A v1 page starts with a slot-0 source id -- small, sequential -- and
  /// can never alias the v2 magic; fresh zeroed pages read as empty v1.)
  bool compressed() const {
    return codec::IsV2Page(data_, page_size_);
  }

  /// \brief Format-agnostic ForEachOfSource: visits every tuple of
  /// `source`, decoding v2 groups through the block decoder. Returns the
  /// number visited, or Corruption when a damaged v2 page fails to decode.
  template <typename Fn>
  Result<uint32_t> VisitSource(SourceId source, Fn&& fn) const {
    if (!compressed()) return ForEachOfSource(source, std::forward<Fn>(fn));
    codec::GroupRef g;
    auto found = codec::FindGroup(data_, page_size_, source, &g);
    if (!found.ok()) return found.status();
    if (!found.ValueOrDie()) return 0u;
    codec::DecodeScratch scratch;
    codec::DecodedGroup d;
    I3_RETURN_NOT_OK(codec::DecodeGroup(data_, page_size_, g, &scratch, &d));
    SpatialTuple t;
    t.term = g.term;
    for (uint32_t i = 0; i < d.n; ++i) {
      t.doc = d.docs[i];
      t.location.x = d.xs[i];
      t.location.y = d.ys[i];
      t.weight = d.weights[i];
      fn(t);
    }
    return d.n;
  }

  /// \brief Format-agnostic ForEachSlot: visits every stored tuple with its
  /// source tag. v2 pages are visited group by group (first-appearance
  /// order, slot order within a group -- the exact v1 visit sequence).
  template <typename Fn>
  Status VisitSlots(Fn&& fn) const {
    if (!compressed()) {
      ForEachSlot(std::forward<Fn>(fn));
      return Status::OK();
    }
    auto gc = codec::GroupCount(data_, page_size_);
    if (!gc.ok()) return gc.status();
    codec::DecodeScratch scratch;
    for (uint32_t gi = 0; gi < gc.ValueOrDie(); ++gi) {
      codec::GroupRef g;
      I3_RETURN_NOT_OK(codec::ReadGroupRef(data_, page_size_, gi, &g));
      codec::DecodedGroup d;
      I3_RETURN_NOT_OK(
          codec::DecodeGroup(data_, page_size_, g, &scratch, &d));
      SpatialTuple t;
      t.term = g.term;
      for (uint32_t i = 0; i < d.n; ++i) {
        t.doc = d.docs[i];
        t.location.x = d.xs[i];
        t.location.y = d.ys[i];
        t.weight = d.weights[i];
        fn(g.source, t);
      }
    }
    return Status::OK();
  }

 private:
  friend class DataFile;

  BufferPool::PinnedPage pin_;
  const uint8_t* data_ = nullptr;
  uint32_t capacity_ = 0;
  size_t page_size_ = 0;
  bool owns_scratch_ = false;  // holds the top of the thread scratch stack
};

/// \brief Page-slot storage for spatial tuples with free-space tracking.
///
/// Two on-page encodings are supported. With `compress` off every page is
/// the fixed-width v1 slot array above; with it on, written pages use the
/// v2 grouped encoding of i3/cell_codec.h (several times more tuples per
/// page). Reads sniff the per-page magic, so v1 and v2 pages coexist in one
/// file and an index built without compression stays readable with it on.
/// Free space is tracked in bytes (quantized to kTupleBytes buckets), which
/// reduces to the original per-slot bookkeeping for pure-v1 files.
class DataFile {
 public:
  /// In-memory backing. `cell_cache_bytes` bounds the decoded-cell cache
  /// (0 disables it; it is also forced off for an uncached pool, whose
  /// deterministic-I/O contract every access must charge).
  explicit DataFile(size_t page_size = kDefaultPageSize,
                    BufferPoolOptions pool_options = {},
                    bool compress = false, size_t cell_cache_bytes = 0);
  /// Custom backing (disk files, fault injection, ...).
  DataFile(std::unique_ptr<PageFile> file, BufferPoolOptions pool_options,
           bool compress = false, size_t cell_cache_bytes = 0);
  /// Disk backing at `path`.
  static Result<std::unique_ptr<DataFile>> CreateOnDisk(
      const std::string& path, size_t page_size = kDefaultPageSize,
      BufferPoolOptions pool_options = {}, bool compress = false,
      size_t cell_cache_bytes = 0);

  /// Tuples per page in the v1 encoding (P/B); the split threshold of
  /// Algorithms 2-3 under the v1 format (see AppendToCell for v2).
  uint32_t capacity() const { return capacity_; }

  /// \brief Invariant-checker companion of the density test of
  /// AppendToCell: true when a stored cell with these tuples is larger
  /// than the split threshold ever allows (v1: above slot capacity; v2:
  /// envelope above the page size).
  bool CellOversized(const std::vector<SpatialTuple>& tuples) const;

  /// Whether written pages use the v2 compressed encoding.
  bool compress() const { return compress_; }

  /// Page size in bytes.
  size_t page_size() const { return file_->page_size(); }

  /// \brief A page guaranteed to accept a *new* cell of `want` tuples
  /// (v1: `want` free slots; v2: the worst-case encoded footprint of a new
  /// group), allocating a fresh page if none qualifies.
  Result<PageId> PageWithFreeSlots(uint32_t want);

  /// \brief A page guaranteed to accept the *specific* new cell `tuples`
  /// (one keyword cell, not currently on any page). Unlike
  /// PageWithFreeSlots this sizes the request by the cell's exact encoding
  /// -- group encodings are independent, so adding this group to any page
  /// costs exactly codec::GroupFootprint -- which packs far tighter than
  /// the worst-case bound when cells are large. Falls back to a fresh page
  /// if no page qualifies.
  Result<PageId> PageWithRoomForCell(const std::vector<SpatialTuple>& tuples);

  /// \brief Unconditionally appends a fresh empty page (deserialization
  /// path; normal insertion goes through PageWithFreeSlots).
  Result<PageId> AllocatePage();

  /// \brief Reads and decodes page `id` (one charged data-file read) into a
  /// TuplePage image. Query paths should prefer View.
  Result<TuplePage> Read(PageId id);

  // ------------------------------------------------------- cell edits
  //
  // The write path of Algorithms 1-3 and Section 4.5. Each mutation of a
  // keyword cell is one Load, cell calls on the PageEdit, and one Store:
  // the charged I/O is one read and one write per page touched, and the
  // stored bytes are exactly what Write of the edited slots would store.

  /// \brief Loads page `id` for editing (one charged read).
  Result<PageEdit> Load(PageId id);

  /// \brief Writes `edit` back to its page (one charged write) and updates
  /// the free-space map.
  Status Store(const PageEdit& edit);

  /// Outcome of AppendToCell.
  enum class Append {
    kAppended,   ///< the tuple is on the page image
    kMustSplit,  ///< the cell is dense: it must split (image unchanged)
    kPageFull,   ///< the cell must move to a roomier page (unchanged)
  };

  /// \brief Algorithms 2-3's insert into a non-dense keyword cell: first
  /// the density test -- v1: the cell already holds P/B tuples; v2: the
  /// cell's one-page *envelope* with `t` (codec::CellEnvelopeBytes, an
  /// upper bound covering every subset, so splits and relocations of an
  /// under-threshold cell always land) would exceed the page size, so
  /// cells pack several times more tuples before splitting -- then the fit
  /// of the grown page.
  Result<Append> AppendToCell(PageEdit* edit, SourceId source,
                              const SpatialTuple& t);

  /// \brief Adds `tuples` to the cell `source` (a new cell when the page
  /// has none) with no density test; ResourceExhausted, image unchanged,
  /// when the page cannot hold them.
  Status AddToCell(PageEdit* edit, SourceId source,
                   const std::vector<SpatialTuple>& tuples);

  /// \brief Removes the first tuple of `doc` in cell `source`; false,
  /// image unchanged, when there is none.
  Result<bool> RemoveFromCell(PageEdit* edit, SourceId source, DocId doc);

  /// \brief Removes the cell `source` from the image and returns its
  /// tuples (the fetch step of the relocation branch in Algorithms 2-3).
  Result<std::vector<SpatialTuple>> TakeCell(PageEdit* edit,
                                             SourceId source);

  /// Tuples of cell `source` on the image.
  Result<uint32_t> CellSize(const PageEdit& edit, SourceId source) const;

  /// \brief The image decoded to slots, for the one write that lays a
  /// whole page out anew (a cell split).
  Result<TuplePage> Slots(const PageEdit& edit) const;

  /// \brief Zero-copy read window over page `id` (one charged data-file
  /// read). See PageView for the lifetime rules.
  Result<PageView> View(PageId id);

  /// \brief Visits every tuple of the keyword cell `source` on page `id`
  /// through the decoded-cell cache: a fresh entry (matching the page's
  /// current write epoch) is replayed without touching the page at all; a
  /// miss views the page once, streams the tuples to `fn` *and* collects
  /// them for insertion at the pinned frame's epoch. Returns the number
  /// visited. Falls back to a plain page visit when the cache is disabled.
  /// Same exclusion contract as View: no concurrent writer.
  template <typename Fn>
  Result<uint32_t> VisitSourceCached(PageId id, SourceId source, Fn&& fn) {
    if (!cell_cache_.enabled() || !pool_.Pinnable()) {
      auto view = View(id);
      if (!view.ok()) return view.status();
      return view.ValueOrDie().VisitSource(source, std::forward<Fn>(fn));
    }
    const uint64_t key = CellCache::Key(id, source);
    const int64_t hit =
        cell_cache_.VisitIfFresh(key, pool_.PageEpoch(id), fn);
    if (hit >= 0) return static_cast<uint32_t>(hit);
    auto view = View(id);
    if (!view.ok()) return view.status();
    CellCache::Collector collect;
    auto n = view.ValueOrDie().VisitSource(
        source, [&fn, &collect](const SpatialTuple& t) {
          collect.Add(t);
          fn(t);
        });
    if (!n.ok()) return n.status();
    // Keyed to the epoch captured *at pin time*: if the page is rewritten
    // between this visit and the next probe, the bumped epoch makes the
    // entry invisible.
    cell_cache_.Insert(key, view.ValueOrDie().pin_.epoch(),
                       std::move(collect));
    return n;
  }

  /// \brief Checksum-verifying *device* read of page `id`, bypassing the
  /// buffer pool: the bytes come straight from the file stack (whose
  /// checksummed wrapper rejects damaged payloads with Corruption), so
  /// latent at-rest damage is detected even while a clean cached frame
  /// exists. One charged read. The scrubber's probe.
  Status VerifyPage(PageId id);

  /// \brief Raw logical bytes of page `id`, read through the pool (the
  /// device path verifies the stored checksum). One charged read. The
  /// heal *source*: replicas are byte-identical, so a healthy peer's page
  /// bytes are exactly what the damaged copy should hold.
  Result<std::vector<uint8_t>> ReadPageBytes(PageId id);

  /// \brief Writes raw logical page bytes through the pool: the checksum
  /// layer re-stamps the page, the write-through bumps the page epoch
  /// (invalidating decoded-cell entries) and clears any quarantine. The
  /// heal *sink* only -- the free-space map is untouched because a heal
  /// replaces a page with its byte-identical peer copy.
  Status WritePageBytes(PageId id, const std::vector<uint8_t>& bytes);

  /// Pages currently quarantined by the pool (last device read returned
  /// Corruption and no verified read/write-through has cleared it).
  size_t QuarantinedPages() const { return pool_.quarantined_count(); }

  /// \brief Encodes and writes `page` to `id` (one charged write); updates
  /// the free-space map. ResourceExhausted, nothing written, when the
  /// slots do not fit one page.
  Status Write(PageId id, const TuplePage& page);

  /// \brief Invariant-checker probe of page `id` (one charged read):
  /// verifies the stored bytes are exactly the encoding of the page's own
  /// slots -- directory counts, block-max values, used bytes and a zeroed
  /// tail included -- and that the free-space map agrees, then reports
  /// every keyword cell on the page as `cell(source, tuples)`, once each,
  /// in first-appearance order.
  Status CheckPage(PageId id,
                   const std::function<void(SourceId, uint32_t)>& cell);

  /// \brief Load + AddToCell + Store of `tuples` under `source` into `id`;
  /// ResourceExhausted, with nothing written, if the page cannot hold them
  /// (v1: too few free slots; v2: encoded overflow).
  Status InsertAll(PageId id, SourceId source,
                   const std::vector<SpatialTuple>& tuples);

  /// InsertAll of one tuple.
  Status Insert(PageId id, SourceId source, const SpatialTuple& tuple) {
    return InsertAll(id, source, {tuple});
  }

  /// \brief Load + RemoveFromCell + Store (the write only when a tuple was
  /// removed); returns true if one was.
  Result<bool> Remove(PageId id, SourceId source, DocId doc);

  /// Free capacity of `id`, expressed in tuple-slot units (free bytes /
  /// kTupleBytes) so existing v1 callers keep their semantics.
  uint32_t FreeSlots(PageId id) const {
    return fsm_.FreeSlots(id) / static_cast<uint32_t>(kTupleBytes);
  }

  PageId PageCount() const { return file_->PageCount(); }
  uint64_t SizeBytes() const { return file_->SizeBytes(); }

  const IoStats& io_stats() const { return file_->io_stats(); }
  IoStats* mutable_io_stats() { return file_->mutable_io_stats(); }
  /// Cold-cache reset: drops cached page frames *and* decoded cells.
  void ClearCache() {
    pool_.Clear();
    cell_cache_.Clear();
  }

  const BufferPool& pool() const { return pool_; }
  const CellCache& cell_cache() const { return cell_cache_; }

 private:
  /// Zeroes `out` (one page) and encodes `page` into it in the v2 or v1
  /// layout; returns the page's free bytes.
  Result<uint32_t> EncodeInto(const TuplePage& page, bool v2,
                              uint8_t* out) const;

  /// True when `page` fits one page under the active encoding (v1: slot
  /// count; v2: exact encoded size).
  bool Fits(const TuplePage& page) const;

  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  CellCache cell_cache_;
  FreeSpaceMap fsm_;  // free bytes per page, kTupleBytes-quantized buckets
  uint32_t capacity_;
  bool compress_;
  std::vector<uint8_t> scratch_;  // page-size encode buffer (write path only;
                                  // Read uses a local buffer so concurrent
                                  // readers do not share state)
};

}  // namespace i3

#endif  // I3_I3_DATA_FILE_H_
