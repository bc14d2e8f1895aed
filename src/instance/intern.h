#ifndef MM2_INSTANCE_INTERN_H_
#define MM2_INSTANCE_INTERN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace mm2::instance {

// Engine-wide string intern pool. Every string payload a Value ever carries
// lives here exactly once; Values store the 32-bit id, so value equality is
// id equality and the string's hash is computed once, at intern time.
//
// Lifetime/ownership: the pool is a process-wide leaky singleton
// (StringPool::Global()). Entries are append-only and never freed or moved,
// so `Get()` references stay valid for the life of the process — an
// Instance, a parsed mapping, or a bench can hold interned Values with no
// ownership protocol at all. The pool is NOT per-Instance on purpose:
// instances flow between operators (compose, diff, merge, exchange) and a
// shared id space is what makes cross-instance tuple comparison an integer
// op.
//
// Thread safety: fully concurrent. Interning is sharded 16 ways by string
// hash; each shard takes a shared lock for the (overwhelmingly common) hit
// path and upgrades to exclusive only to insert a new string — consistent
// with RelationInstance's shared-lock probes. Get()/HashOf() are lock-free:
// ids index into append-only chunk arrays whose chunk pointers are
// published with release stores, so concurrent readers resolving string
// order never contend. mm2 itself runs every call on its caller's thread;
// the pool is process-wide, so callers on different threads share it.
class StringPool {
 public:
  using StringId = std::uint32_t;

  // Cumulative pool telemetry; mirrored as `value.intern.*` gauges by the
  // chase and the engine's stats/explain commands.
  struct Stats {
    std::uint64_t strings = 0;  // distinct interned strings
    std::uint64_t bytes = 0;    // summed payload bytes (excl. map overhead)
    std::uint64_t hits = 0;     // Intern() calls resolved to existing ids
    std::uint64_t misses = 0;   // Intern() calls that inserted
  };

  static StringPool& Global();

  // Returns the canonical id for `s`, inserting it on first sight. The
  // string's 64-bit hash is computed here, once, and cached with the entry.
  StringId Intern(std::string_view s);

  // The interned string; stable reference for the life of the process.
  const std::string& Get(StringId id) const {
    return EntryOf(id).str;
  }

  // The hash cached at intern time.
  std::uint64_t HashOf(StringId id) const { return EntryOf(id).hash; }

  // Three-way comparison through the pool: equal ids are equal strings;
  // distinct ids compare lexicographically, preserving the pre-interning
  // deterministic sorted order.
  int Compare(StringId a, StringId b) const {
    if (a == b) return 0;
    return Get(a).compare(Get(b)) < 0 ? -1 : 1;
  }

  Stats GetStats() const;

  // The string hash Intern() caches; exposed so callers (and tests) can
  // check hash/equality consistency.
  static std::uint64_t HashBytes(std::string_view s);

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kChunkSize = 1024;  // entries per chunk
  static constexpr std::size_t kMaxChunks = 8192;  // 8.4M strings per shard

  struct Entry {
    std::string str;
    std::uint64_t hash = 0;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    // Guarded by mu. Keys view into entry storage, which never moves.
    std::unordered_map<std::string_view, StringId> ids;
    std::size_t count = 0;  // entries appended; guarded by mu
    // Append-only chunked entry storage. Chunk pointers are published with
    // release stores so lock-free readers see fully constructed arrays.
    std::atomic<Entry*> chunks[kMaxChunks] = {};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> bytes{0};

    ~Shard() {
      for (std::atomic<Entry*>& c : chunks) {
        delete[] c.load(std::memory_order_relaxed);
      }
    }
  };

  const Entry& EntryOf(StringId id) const {
    const Shard& shard = shards_[id & (kShards - 1)];
    std::size_t local = id >> kShardBits;
    Entry* chunk =
        shard.chunks[local / kChunkSize].load(std::memory_order_acquire);
    return chunk[local % kChunkSize];
  }

  Shard shards_[kShards];
};

}  // namespace mm2::instance

#endif  // MM2_INSTANCE_INTERN_H_
