#include "i3/data_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace i3 {

namespace {

void EncodeSlot(uint8_t* dst, const StoredTuple& st) {
  std::memcpy(dst + 0, &st.source, 4);
  std::memcpy(dst + 4, &st.tuple.term, 4);
  std::memcpy(dst + 8, &st.tuple.doc, 4);
  std::memcpy(dst + 12, &st.tuple.location.x, 8);
  std::memcpy(dst + 20, &st.tuple.location.y, 8);
  std::memcpy(dst + 28, &st.tuple.weight, 4);
}

// Per-thread stack of page-size scratch buffers backing PageView for
// uncached pools (and the fault-in copy of PinPage misses). A stack rather
// than a single buffer so nested views (e.g. an invariant checker holding
// one view while opening another) each get their own bytes; buffers are
// retained per thread, so the steady state allocates nothing.
struct ViewScratch {
  std::vector<std::vector<uint8_t>> bufs;
  size_t depth = 0;
};
thread_local ViewScratch t_view_scratch;

uint8_t* AcquireViewScratch(size_t page_size) {
  ViewScratch& s = t_view_scratch;
  if (s.depth == s.bufs.size()) s.bufs.emplace_back();
  std::vector<uint8_t>& buf = s.bufs[s.depth];
  if (buf.size() < page_size) buf.resize(page_size);
  ++s.depth;
  return buf.data();
}

void ReleaseViewScratch() {
  assert(t_view_scratch.depth > 0);
  --t_view_scratch.depth;
}

}  // namespace

PageView& PageView::operator=(PageView&& o) noexcept {
  if (owns_scratch_) ReleaseViewScratch();
  pin_ = std::move(o.pin_);  // releases any pin this view held
  data_ = o.data_;
  capacity_ = o.capacity_;
  page_size_ = o.page_size_;
  owns_scratch_ = o.owns_scratch_;
  o.data_ = nullptr;
  o.capacity_ = 0;
  o.page_size_ = 0;
  o.owns_scratch_ = false;
  return *this;
}

PageView::~PageView() {
  if (owns_scratch_) ReleaseViewScratch();
  owns_scratch_ = false;
}

uint32_t TuplePage::CountSource(SourceId source) const {
  uint32_t n = 0;
  for (const StoredTuple& st : slots) {
    if (st.source == source) ++n;
  }
  return n;
}

DataFile::DataFile(size_t page_size, BufferPoolOptions pool_options,
                   bool compress, size_t cell_cache_bytes)
    : DataFile(std::make_unique<InMemoryPageFile>(page_size), pool_options,
               compress, cell_cache_bytes) {}

DataFile::DataFile(std::unique_ptr<PageFile> file,
                   BufferPoolOptions pool_options, bool compress,
                   size_t cell_cache_bytes)
    : file_(std::move(file)),
      pool_(file_.get(), pool_options),
      // An uncached pool is the deterministic-I/O mode (every access
      // charged); serving decoded cells from memory would break it, so the
      // cell cache follows the pool off.
      cell_cache_(CellCacheOptions{
          pool_options.capacity_pages > 0 ? cell_cache_bytes : 0, 0}),
      fsm_(static_cast<uint32_t>(file_->page_size()),
           static_cast<uint32_t>(kTupleBytes)),
      capacity_(static_cast<uint32_t>(file_->page_size() / kTupleBytes)),
      compress_(compress && file_->page_size() >= codec::kV2MinPageSize),
      scratch_(file_->page_size(), 0) {}

Result<std::unique_ptr<DataFile>> DataFile::CreateOnDisk(
    const std::string& path, size_t page_size, BufferPoolOptions pool_options,
    bool compress, size_t cell_cache_bytes) {
  auto file_res = OnDiskPageFile::Create(path, page_size);
  if (!file_res.ok()) return file_res.status();
  return std::unique_ptr<DataFile>(
      new DataFile(std::move(file_res.ValueOrDie()), pool_options, compress,
                   cell_cache_bytes));
}

bool DataFile::Fits(const TuplePage& page) const {
  if (!compress_) return page.slots.size() <= capacity_;
  return codec::EncodedPageSize(page.slots.data(), page.slots.size()) <=
         file_->page_size();
}

bool DataFile::CellOversized(const std::vector<SpatialTuple>& tuples) const {
  if (!compress_) return tuples.size() > capacity_;
  return codec::CellEnvelopeBytes(tuples.data(), tuples.size()) >
         file_->page_size();
}

Result<PageId> DataFile::PageWithFreeSlots(uint32_t want) {
  // v1 pages need `want` slots; a v2 page is guaranteed to accept a *new*
  // cell whose worst-case footprint (directory entry + group header +
  // uncompressed payload) fits its free bytes -- group encodings are
  // independent, so adding one never grows the others.
  const uint32_t want_bytes =
      compress_ ? static_cast<uint32_t>(codec::NewCellUpperBoundBytes(want))
                : want * static_cast<uint32_t>(kTupleBytes);
  PageId id = fsm_.FindPageWithFreeSlots(want_bytes);
  if (id != kInvalidPageId) return id;
  return AllocatePage();
}

Result<PageId> DataFile::PageWithRoomForCell(
    const std::vector<SpatialTuple>& tuples) {
  // v1 keeps the slot-count request (identical to PageWithFreeSlots, so
  // the v1 placement sequence is unchanged); v2 asks for the cell's exact
  // encoded footprint.
  const uint32_t want_bytes =
      compress_ ? static_cast<uint32_t>(
                      codec::GroupFootprint(tuples.data(), tuples.size()))
                : static_cast<uint32_t>(tuples.size() * kTupleBytes);
  PageId id = fsm_.FindPageWithFreeSlots(want_bytes);
  if (id != kInvalidPageId) return id;
  return AllocatePage();
}

Result<PageId> DataFile::AllocatePage() {
  auto alloc = pool_.AllocatePage();
  if (!alloc.ok()) return alloc.status();
  const PageId id = alloc.ValueOrDie();
  fsm_.AddPage(id);
  return id;
}

Result<PageView> DataFile::View(PageId id) {
  PageView view;
  view.capacity_ = capacity_;
  view.page_size_ = file_->page_size();
  uint8_t* scratch = AcquireViewScratch(file_->page_size());
  if (pool_.Pinnable()) {
    // Zero-copy window: the view reads straight out of the pinned frame;
    // the scratch is only the fault-in buffer of a miss.
    Status st = pool_.PinPage(id, IoCategory::kI3DataFile, scratch,
                              &view.pin_);
    ReleaseViewScratch();
    if (!st.ok()) return st;
    view.data_ = view.pin_.data();
  } else {
    // Uncached pool (the deterministic I/O-figure mode): every access is a
    // charged read into this thread's scratch; the view owns the buffer
    // until destroyed.
    Status st = pool_.ReadPage(id, scratch, IoCategory::kI3DataFile);
    if (!st.ok()) {
      ReleaseViewScratch();
      return st;
    }
    view.data_ = scratch;
    view.owns_scratch_ = true;
  }
  return view;
}

namespace {

Status DecodeSlots(const PageView& view, TuplePage* page) {
  return view.VisitSlots([page](SourceId source, const SpatialTuple& t) {
    page->slots.push_back({source, t});
  });
}

}  // namespace

Result<TuplePage> DataFile::Read(PageId id) {
  // Decodes through the view path (one charged read, view-managed scratch;
  // Read runs concurrently from multiple threads, so no shared buffer).
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  TuplePage page;
  page.slots.reserve(capacity_);
  I3_RETURN_NOT_OK(DecodeSlots(view_res.ValueOrDie(), &page));
  return page;
}

Result<PageEdit> DataFile::Load(PageId id) {
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  const PageView& view = view_res.ValueOrDie();
  PageEdit edit;
  edit.id_ = id;
  if (compress_ && view.compressed()) {
    edit.grouped_ = true;
    edit.bytes_.assign(view.data_, view.data_ + page_size());
    return edit;
  }
  I3_RETURN_NOT_OK(DecodeSlots(view, &edit.slots_));
  if (compress_) {
    // A fresh (zeroed) page, or a v1 page of an index written without
    // compression: encode it once, and edit the v2 bytes from then on --
    // unless the slots do not even fit one v2 page.
    edit.bytes_.resize(page_size());
    if (EncodeInto(edit.slots_, /*v2=*/true, edit.bytes_.data()).ok()) {
      edit.grouped_ = true;
      edit.slots_.slots.clear();
    }
  }
  return edit;
}

Status DataFile::Store(const PageEdit& edit) {
  if (!edit.grouped_) return Write(edit.id_, edit.slots_);
  I3_RETURN_NOT_OK(pool_.WritePage(edit.id_, edit.bytes_.data(),
                                   IoCategory::kI3DataFile));
  const size_t used = codec::UsedBytes(edit.bytes_.data());
  fsm_.SetFree(edit.id_, static_cast<uint32_t>(page_size() - used));
  return Status::OK();
}

Result<DataFile::Append> DataFile::AppendToCell(PageEdit* edit,
                                                SourceId source,
                                                const SpatialTuple& t) {
  if (edit->grouped_) {
    uint8_t* page = edit->bytes_.data();
    auto envelope = codec::EnvelopeWith(page, page_size(), source, t);
    if (!envelope.ok()) return envelope.status();
    if (envelope.ValueOrDie() > page_size()) return Append::kMustSplit;
    Status st = codec::AppendToGroup(page, page_size(), source, &t, 1);
    if (st.code() == StatusCode::kResourceExhausted) return Append::kPageFull;
    if (!st.ok()) return st;
    return Append::kAppended;
  }
  std::vector<StoredTuple>& slots = edit->slots_.slots;
  if (compress_) {
    std::vector<SpatialTuple> cell;
    for (const StoredTuple& st : slots) {
      if (st.source == source) cell.push_back(st.tuple);
    }
    cell.push_back(t);
    if (codec::CellEnvelopeBytes(cell.data(), cell.size()) > page_size()) {
      return Append::kMustSplit;
    }
  } else if (edit->slots_.CountSource(source) >= capacity_) {
    // v1: the cell holds P/B tuples, so with `t` it can no longer live on
    // one page.
    return Append::kMustSplit;
  }
  slots.push_back({source, t});
  if (Fits(edit->slots_)) return Append::kAppended;
  slots.pop_back();
  return Append::kPageFull;
}

Status DataFile::AddToCell(PageEdit* edit, SourceId source,
                           const std::vector<SpatialTuple>& tuples) {
  if (edit->grouped_) {
    return codec::AppendToGroup(edit->bytes_.data(), page_size(), source,
                                tuples.data(), tuples.size());
  }
  std::vector<StoredTuple>& slots = edit->slots_.slots;
  const size_t before = slots.size();
  for (const SpatialTuple& t : tuples) slots.push_back({source, t});
  if (Fits(edit->slots_)) return Status::OK();
  slots.resize(before);
  return Status::ResourceExhausted("page " + std::to_string(edit->id_) +
                                   " lacks room for " +
                                   std::to_string(tuples.size()) +
                                   " tuples");
}

Result<bool> DataFile::RemoveFromCell(PageEdit* edit, SourceId source,
                                      DocId doc) {
  if (edit->grouped_) {
    return codec::RemoveFromGroup(edit->bytes_.data(), page_size(), source,
                                  doc);
  }
  std::vector<StoredTuple>& slots = edit->slots_.slots;
  for (auto it = slots.begin(); it != slots.end(); ++it) {
    if (it->source == source && it->tuple.doc == doc) {
      slots.erase(it);
      return true;
    }
  }
  return false;
}

Result<std::vector<SpatialTuple>> DataFile::TakeCell(PageEdit* edit,
                                                     SourceId source) {
  std::vector<SpatialTuple> taken;
  if (edit->grouped_) {
    I3_RETURN_NOT_OK(codec::TakeGroup(edit->bytes_.data(), page_size(),
                                      source, &taken));
    return taken;
  }
  std::vector<StoredTuple> kept;
  for (const StoredTuple& st : edit->slots_.slots) {
    if (st.source == source) {
      taken.push_back(st.tuple);
    } else {
      kept.push_back(st);
    }
  }
  edit->slots_.slots = std::move(kept);
  return taken;
}

Result<uint32_t> DataFile::CellSize(const PageEdit& edit,
                                    SourceId source) const {
  if (!edit.grouped_) return edit.slots_.CountSource(source);
  codec::GroupRef g;
  auto found = codec::FindGroup(edit.bytes_.data(), page_size(), source, &g);
  if (!found.ok()) return found.status();
  return found.ValueOrDie() ? g.count : 0u;
}

Result<TuplePage> DataFile::Slots(const PageEdit& edit) const {
  if (!edit.grouped_) return edit.slots_;
  PageView view;  // over the image: no pin, no scratch
  view.data_ = edit.bytes_.data();
  view.capacity_ = capacity_;
  view.page_size_ = page_size();
  TuplePage page;
  I3_RETURN_NOT_OK(DecodeSlots(view, &page));
  return page;
}

Result<uint32_t> DataFile::EncodeInto(const TuplePage& page, bool v2,
                                      uint8_t* out) const {
  std::memset(out, 0, page_size());
  if (v2) {
    auto used = codec::EncodePage(page.slots.data(), page.slots.size(), out,
                                  page_size());
    if (!used.ok()) {
      return Status::ResourceExhausted(
          "page overflow: " + std::to_string(page.slots.size()) +
          " tuples (" + used.status().message() + ")");
    }
    return static_cast<uint32_t>(page_size() - used.ValueOrDie());
  }
  if (page.slots.size() > capacity_) {
    return Status::ResourceExhausted("page overflow: " +
                                     std::to_string(page.slots.size()) +
                                     " tuples");
  }
  for (size_t s = 0; s < page.slots.size(); ++s) {
    EncodeSlot(out + s * kTupleBytes, page.slots[s]);
  }
  return (capacity_ - static_cast<uint32_t>(page.slots.size())) *
         static_cast<uint32_t>(kTupleBytes);
}

Status DataFile::Write(PageId id, const TuplePage& page) {
  auto free_bytes = EncodeInto(page, compress_, scratch_.data());
  if (!free_bytes.ok()) return free_bytes.status();
  I3_RETURN_NOT_OK(pool_.WritePage(id, scratch_.data(),
                                   IoCategory::kI3DataFile));
  fsm_.SetFree(id, free_bytes.ValueOrDie());
  return Status::OK();
}

Status DataFile::CheckPage(
    PageId id, const std::function<void(SourceId, uint32_t)>& cell) {
  auto view_res = View(id);
  if (!view_res.ok()) return view_res.status();
  const PageView& view = view_res.ValueOrDie();
  TuplePage page;
  I3_RETURN_NOT_OK(DecodeSlots(view, &page));
  std::vector<uint8_t> canonical(page_size());
  auto free_bytes = EncodeInto(page, view.compressed(), canonical.data());
  if (!free_bytes.ok()) return free_bytes.status();
  if (std::memcmp(canonical.data(), view.data_, page_size()) != 0) {
    return Status::Corruption("page " + std::to_string(id) +
                              " differs from the encoding of its slots");
  }
  if (fsm_.FreeSlots(id) != free_bytes.ValueOrDie()) {
    return Status::Corruption("free-space map disagrees with page " +
                              std::to_string(id));
  }
  std::vector<std::pair<SourceId, uint32_t>> cells;  // first-appearance
  for (const StoredTuple& st : page.slots) {
    auto it = std::find_if(cells.begin(), cells.end(), [&st](const auto& c) {
      return c.first == st.source;
    });
    if (it == cells.end()) {
      cells.push_back({st.source, 1});
    } else {
      ++it->second;
    }
  }
  for (const auto& [source, n] : cells) cell(source, n);
  return Status::OK();
}

Status DataFile::InsertAll(PageId id, SourceId source,
                           const std::vector<SpatialTuple>& tuples) {
  auto edit = Load(id);
  if (!edit.ok()) return edit.status();
  I3_RETURN_NOT_OK(AddToCell(&edit.ValueOrDie(), source, tuples));
  return Store(edit.ValueOrDie());
}

Result<bool> DataFile::Remove(PageId id, SourceId source, DocId doc) {
  auto edit = Load(id);
  if (!edit.ok()) return edit.status();
  auto removed = RemoveFromCell(&edit.ValueOrDie(), source, doc);
  if (!removed.ok() || !removed.ValueOrDie()) return removed;
  I3_RETURN_NOT_OK(Store(edit.ValueOrDie()));
  return true;
}

Status DataFile::VerifyPage(PageId id) {
  if (id >= PageCount()) {
    return Status::OutOfRange("verify of unallocated page " +
                              std::to_string(id));
  }
  std::vector<uint8_t> buf(page_size());
  return file_->ReadPage(id, buf.data(), IoCategory::kI3DataFile);
}

Result<std::vector<uint8_t>> DataFile::ReadPageBytes(PageId id) {
  if (id >= PageCount()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(id));
  }
  std::vector<uint8_t> buf(page_size());
  I3_RETURN_NOT_OK(pool_.ReadPage(id, buf.data(), IoCategory::kI3DataFile));
  return buf;
}

Status DataFile::WritePageBytes(PageId id,
                                const std::vector<uint8_t>& bytes) {
  if (id >= PageCount()) {
    return Status::OutOfRange("write of unallocated page " +
                              std::to_string(id));
  }
  if (bytes.size() != page_size()) {
    return Status::InvalidArgument("page bytes must be exactly one page");
  }
  return pool_.WritePage(id, bytes.data(), IoCategory::kI3DataFile);
}

}  // namespace i3
