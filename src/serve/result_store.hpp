// Result store: byte-exact km.run_result/v1 documents keyed by the full
// parameter cell, so repeating a scenario request replays the original
// document instead of re-simulating.
//
// The value is the *serialized* document (compact one-line JSON), not
// the RunResult: replay is then byte-identical by construction — the
// original wall_ms included, which is exactly the point; clients that
// diff documents strip the exempt keys the same way the golden suite
// does.
//
// Keys combine the workload name, the dataset cell's canonical identity
// (DatasetCache::canonical_key — spelling variants of one spec collide),
// and every RunParams field that is part of the deterministic parameter
// cell: k, bandwidth_bits, seed, check.  workers and trace are
// deliberately excluded — the Determinism suite proves documents are
// byte-identical across them (results.hpp keeps them out of the
// serialized params for the same reason).  An unresolved
// bandwidth (B=0) keys differently from its resolved value; both map to
// identical bytes, they just occupy two entries.
//
// LRU with a byte budget, same discipline and counter vocabulary as
// DatasetCache; one annotated mutex, O(log entries) lookups.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "runtime/workload.hpp"
#include "util/annotations.hpp"

namespace km::serve {

struct ResultStoreCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< lookups that found nothing
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;    ///< gauge
  std::uint64_t bytes = 0;      ///< gauge: stored document bytes

  ResultStoreCounters since(const ResultStoreCounters& base) const noexcept;
  /// "result_store: hits=.. misses=.. evictions=.. entries=.. bytes=..".
  std::string summary() const;
};

class ResultStore {
 public:
  static constexpr std::size_t kDefaultByteBudget = 64u << 20;

  explicit ResultStore(std::size_t byte_budget = kDefaultByteBudget);

  /// Key for one scenario cell; `dataset_key` is
  /// DatasetCache::canonical_key for the request's dataset cell.
  static std::string scenario_key(std::string_view workload,
                                  std::string_view dataset_key,
                                  const RunParams& params);

  /// The stored document, or nullptr (counts a hit or a miss).
  std::shared_ptr<const std::string> find(std::string_view key)
      KM_EXCLUDES(mu_);

  /// Stores `doc` for `key` unless an entry already exists, and returns
  /// the canonical stored document either way.  First writer wins: when
  /// two engine runs of the same cell race, every response still
  /// carries one byte sequence (the documents could otherwise differ in
  /// the exempt wall_ms field).
  std::shared_ptr<const std::string> put(std::string_view key,
                                         std::string doc) KM_EXCLUDES(mu_);

  ResultStoreCounters counters() const KM_EXCLUDES(mu_);
  void clear() KM_EXCLUDES(mu_);

 private:
  struct Entry {
    std::shared_ptr<const std::string> doc;
    std::uint64_t last_use = 0;
  };

  void evict_to_fit(std::string_view keep_key) KM_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ KM_GUARDED_BY(mu_);
  std::size_t byte_budget_ KM_GUARDED_BY(mu_);
  std::uint64_t bytes_ KM_GUARDED_BY(mu_) = 0;
  std::uint64_t tick_ KM_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ KM_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ KM_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ KM_GUARDED_BY(mu_) = 0;
};

}  // namespace km::serve
