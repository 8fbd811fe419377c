#include "net/result_cache.h"

namespace i3 {
namespace net {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  size_t n = options_.stripes != 0 ? options_.stripes : 8;
  if (options_.capacity_entries == 0) n = 1;
  n = std::min(n, std::max<size_t>(1, options_.capacity_entries));
  stripes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Stripe>();
    s->capacity =
        options_.capacity_entries / n + (i < options_.capacity_entries % n);
    stripes_.push_back(std::move(s));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_metric_ =
      reg.GetCounter("i3_result_cache_hits_total",
                     "Search requests answered from cached responses.");
  misses_metric_ =
      reg.GetCounter("i3_result_cache_misses_total",
                     "Cacheable search requests that reached the index.");
  bypass_metric_ =
      reg.GetCounter("i3_result_cache_bypass_total",
                     "Search requests that opted out via the wire "
                     "no_cache flag.");
  evictions_metric_ =
      reg.GetCounter("i3_result_cache_evictions_total",
                     "Cached responses dropped (SIEVE victim, stale "
                     "generation, replacement, or Clear).");
  insertions_metric_ = reg.GetCounter(
      "i3_result_cache_insertions_total",
      "Complete responses admitted after a cacheable miss.");
  entries_metric_ = reg.GetGauge(
      "i3_result_cache_entries",
      "Resident cached responses across all constructed caches.");
}

std::string ResultCache::KeyOf(const Request& req) {
  // Canonical re-encode with the fields that do not affect the result
  // zeroed. request_id/tenant are pure identity; deadline_ms is sound to
  // drop because only complete responses are cached (a complete top-k is
  // the same under any deadline that lets it finish); no_cache is always
  // zero here by construction (bypassing requests never reach KeyOf).
  // trace is observability, not identity: a traced request shares the
  // cache line of its untraced twin (the hit shows up in its timeline).
  // require_complete is a refusal policy, not identity: only complete
  // responses are cached, so a cached answer satisfies both settings.
  Request canon = req;
  canon.request_id = 0;
  canon.tenant = 0;
  canon.deadline_ms = 0;
  canon.no_cache = false;
  canon.trace = false;
  canon.require_complete = false;
  std::string key;
  EncodeRequest(canon, &key);
  return key;
}

bool ResultCache::Lookup(const std::string& key, uint64_t generation,
                         Response* out) {
  if (!enabled()) return false;
  Stripe& s = StripeOf(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    Entry& e = s.entries[it->second];
    if (e.generation == generation) {
      e.visited.store(1, std::memory_order_relaxed);
      out->outcome = ResponseOutcome::kOk;
      out->degraded = false;
      out->code = StatusCode::kOk;
      out->message.clear();
      out->results = e.results;
      hits_metric_->Increment(1);
      return true;
    }
    // Stale: some write completed since this entry's search began.
    EraseEntry(s, it->second);
    evictions_metric_->Increment(1);
  }
  misses_metric_->Increment(1);
  return false;
}

void ResultCache::Insert(const std::string& key, uint64_t generation,
                         const std::vector<ScoredDoc>& results) {
  if (!enabled()) return;
  Stripe& s = StripeOf(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Keep exactly one entry per key (racing loops, or a stale entry
    // another generation left behind).
    EraseEntry(s, it->second);
    evictions_metric_->Increment(1);
  }
  while (s.index.size() >= s.capacity) {
    if (!EvictOne(s)) return;
  }
  uint32_t idx;
  if (!s.free.empty()) {
    idx = s.free.back();
    s.free.pop_back();
  } else {
    s.entries.emplace_back();
    idx = static_cast<uint32_t>(s.entries.size() - 1);
  }
  Entry& e = s.entries[idx];
  e.key = key;
  e.generation = generation;
  e.live = true;
  e.visited.store(0, std::memory_order_relaxed);  // SIEVE: enter unvisited
  e.results = results;
  s.index[key] = idx;
  entries_metric_->Add(1);
  insertions_metric_->Increment(1);
}

void ResultCache::EraseEntry(Stripe& s, uint32_t idx) {
  Entry& e = s.entries[idx];
  s.index.erase(e.key);
  e.live = false;
  e.visited.store(0, std::memory_order_relaxed);
  e.key.clear();
  e.results.clear();
  s.free.push_back(idx);
  entries_metric_->Sub(1);
}

bool ResultCache::EvictOne(Stripe& s) {
  const size_t n = s.entries.size();
  if (s.index.empty()) return false;
  for (size_t step = 0; step < 2 * n; ++step) {
    Entry& e = s.entries[s.hand];
    const uint32_t idx = static_cast<uint32_t>(s.hand);
    s.hand = (s.hand + 1) % n;
    if (!e.live) continue;
    if (e.visited.load(std::memory_order_relaxed) != 0) {
      e.visited.store(0, std::memory_order_relaxed);
      continue;
    }
    EraseEntry(s, idx);
    evictions_metric_->Increment(1);
    return true;
  }
  return false;
}

void ResultCache::Clear() {
  for (auto& sp : stripes_) {
    Stripe& s = *sp;
    std::lock_guard<std::mutex> lock(s.mutex);
    for (size_t i = 0; i < s.entries.size(); ++i) {
      if (!s.entries[i].live) continue;
      EraseEntry(s, static_cast<uint32_t>(i));
      evictions_metric_->Increment(1);
    }
  }
}

size_t ResultCache::entry_count() const {
  size_t n = 0;
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    n += sp->index.size();
  }
  return n;
}

std::vector<size_t> ResultCache::StripeOccupancy() const {
  std::vector<size_t> out;
  out.reserve(stripes_.size());
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    out.push_back(sp->index.size());
  }
  return out;
}

}  // namespace net
}  // namespace i3
