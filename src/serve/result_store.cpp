#include "serve/result_store.hpp"

#include <utility>

namespace km::serve {

ResultStoreCounters ResultStoreCounters::since(
    const ResultStoreCounters& base) const noexcept {
  ResultStoreCounters delta;
  delta.hits = hits - base.hits;
  delta.misses = misses - base.misses;
  delta.evictions = evictions - base.evictions;
  delta.entries = entries;
  delta.bytes = bytes;
  return delta;
}

std::string ResultStoreCounters::summary() const {
  return "result_store: hits=" + std::to_string(hits) +
         " misses=" + std::to_string(misses) +
         " evictions=" + std::to_string(evictions) +
         " entries=" + std::to_string(entries) +
         " bytes=" + std::to_string(bytes);
}

ResultStore::ResultStore(std::size_t byte_budget)
    : byte_budget_(byte_budget) {}

std::string ResultStore::scenario_key(std::string_view workload,
                                      std::string_view dataset_key,
                                      const RunParams& params) {
  std::string key(workload);
  key += '\x1f';
  key += dataset_key;
  key += "\x1f" "k=" + std::to_string(params.k);
  key += "\x1f" "B=" + std::to_string(params.bandwidth_bits);
  key += "\x1f" "seed=" + std::to_string(params.seed);
  key += "\x1f" "check=" + std::to_string(params.check ? 1 : 0);
  return key;
}

std::shared_ptr<const std::string> ResultStore::find(std::string_view key) {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_use = ++tick_;
  return it->second.doc;
}

std::shared_ptr<const std::string> ResultStore::put(std::string_view key,
                                                    std::string doc) {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.last_use = ++tick_;
    return it->second.doc;  // first writer won; keep its bytes canonical
  }
  Entry entry;
  entry.doc = std::make_shared<const std::string>(std::move(doc));
  entry.last_use = ++tick_;
  bytes_ += entry.doc->size();
  auto stored = entry.doc;
  entries_.emplace(std::string(key), std::move(entry));
  evict_to_fit(key);
  return stored;
}

ResultStoreCounters ResultStore::counters() const {
  MutexLock lock(mu_);
  ResultStoreCounters out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  return out;
}

void ResultStore::clear() {
  MutexLock lock(mu_);
  entries_.clear();
  bytes_ = 0;
}

void ResultStore::evict_to_fit(std::string_view keep_key) {
  // Same LRU discipline as DatasetCache::evict_to_fit: linear scan at
  // store cardinality, never evicting the entry just touched.
  while (bytes_ > byte_budget_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep_key) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    bytes_ -= victim->second.doc->size();
    entries_.erase(victim);
    ++evictions_;
  }
}

}  // namespace km::serve
