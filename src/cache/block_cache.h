// Sharded decoded-chunk cache for the PRIMACY read path.
//
// The read path re-pays full chunk decode (ID-unmap + solver + ISOBAR merge)
// on every call; serving-style workloads are dominated by repeated
// overlapping range reads over the same hot variables, where that work is
// pure waste. DecodedBlockCache keeps recently decoded chunk bytes keyed by
// (stream identity, chunk index) so a second read of the same chunk is a
// memcpy instead of a decompression.
//
// Concurrency model: the key space is split across N shards, each guarded
// by its own mutex — concurrent readers on different shards never contend.
// Within a shard, entries form an LRU list under a byte budget
// (capacity_bytes / shard_count). A Lookup pins its entry (refcount under
// the shard lock) and returns an RAII Handle; eviction skips pinned
// entries, so a reader's view can never be freed underneath it. If every
// entry in a shard is pinned the shard temporarily overshoots its budget
// rather than blocking — eviction is deferred, never forced.
//
// All mutation goes through Lookup/Insert/Clear; the shard internals are
// private to this module (enforced by the `cache-containment` lint rule).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.h"

namespace primacy {

namespace internal {
struct CacheShard;  // mutex + map + LRU list (block_cache.cc)
struct CacheEntry;  // one decoded chunk + pin count (block_cache.cc)
}  // namespace internal

/// Read-path cache knobs, threaded through PrimacyOptions (and from there
/// CheckpointReader). Off by default: the cache trades memory for decode
/// work, which only pays when reads repeat.
struct CacheOptions {
  /// Master switch; when false no cache is constructed and every decode is
  /// byte-identical to the uncached path.
  bool enabled = false;
  /// Total decoded-byte budget across all shards. 0 behaves like a
  /// passthrough cache: every Lookup misses, every Insert is rejected.
  std::size_t capacity_bytes = 256 * 1024 * 1024;
  /// Number of independently locked shards (clamped to >= 1). More shards
  /// = less contention, slightly worse LRU fidelity (eviction is per-shard).
  std::size_t shard_count = 8;
};

/// Counters snapshot from DecodedBlockCache::Stats. Maintained internally
/// under the shard locks, so the snapshot is exact even when the build has
/// telemetry compiled out.
struct CacheStatsSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts rejected because the entry alone exceeds a shard's budget (or
  /// the budget is zero).
  std::uint64_t rejected = 0;
  std::size_t bytes = 0;    // decoded bytes currently resident
  std::size_t entries = 0;  // chunks currently resident

  double HitRatio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class DecodedBlockCache {
 public:
  /// RAII pin over one cached chunk. The entry cannot be evicted while a
  /// Handle references it; data() stays valid for the handle's lifetime.
  /// Handles are short-lived (the span of one memcpy) and must not outlive
  /// the cache they came from.
  class Handle {
   public:
    Handle() = default;
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept
        : shard_(other.shard_), entry_(other.entry_) {
      other.shard_ = nullptr;
      other.entry_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        shard_ = other.shard_;
        entry_ = other.entry_;
        other.shard_ = nullptr;
        other.entry_ = nullptr;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    /// True for a hit (the handle references a pinned entry).
    explicit operator bool() const { return entry_ != nullptr; }

    /// The cached decoded chunk bytes; valid only while the handle lives.
    ByteSpan data() const;

   private:
    friend class DecodedBlockCache;
    Handle(internal::CacheShard* shard, internal::CacheEntry* entry)
        : shard_(shard), entry_(entry) {}
    void Release();

    internal::CacheShard* shard_ = nullptr;
    internal::CacheEntry* entry_ = nullptr;
  };

  explicit DecodedBlockCache(CacheOptions options);
  ~DecodedBlockCache();

  DecodedBlockCache(const DecodedBlockCache&) = delete;
  DecodedBlockCache& operator=(const DecodedBlockCache&) = delete;

  /// Pins and returns the entry for (stream_id, chunk_index), bumping it to
  /// most-recently-used; an empty Handle on miss.
  Handle Lookup(std::uint64_t stream_id, std::uint64_t chunk_index);

  /// Caches `data` as the decoded bytes of (stream_id, chunk_index),
  /// evicting LRU unpinned entries from the target shard until it fits.
  /// Returns false when rejected: the key is already resident (first write
  /// wins — the bytes are identical by construction) or the entry alone
  /// exceeds the shard budget.
  bool Insert(std::uint64_t stream_id, std::uint64_t chunk_index, Bytes data);

  /// Drops every unpinned entry (pinned entries survive).
  void Clear();

  CacheStatsSnapshot Stats() const;

  const CacheOptions& options() const { return options_; }

 private:
  internal::CacheShard& ShardFor(std::uint64_t stream_id,
                                 std::uint64_t chunk_index) const;

  CacheOptions options_;
  std::size_t shard_budget_ = 0;  // capacity_bytes / shard count
  std::vector<std::unique_ptr<internal::CacheShard>> shards_;
};

/// Builds a shared cache from `options`, or nullptr when the options
/// disable caching (not enabled, zero capacity, or zero shards) — callers
/// treat a null cache as "decode everything".
std::shared_ptr<DecodedBlockCache> MakeBlockCache(const CacheOptions& options);

}  // namespace primacy
