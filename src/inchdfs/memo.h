// Memoization server (paper §6.1): the fine-grained result-reuse store that
// Incoop consults before executing a task.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "dedup/digest.h"

namespace shredder::inchdfs {

struct KeyValue;

// Immutable memoized map-task output: one bucket per reducer plus their
// digests (empty when the task ran without a memo server).
struct MemoizedMapOutput {
  std::vector<std::vector<KeyValue>> buckets;
  std::vector<dedup::ChunkDigest> bucket_digests;
};

// Immutable memoized contraction-tree node: a combined bucket.
struct MemoizedCombine {
  std::vector<KeyValue> kvs;
  dedup::ChunkDigest digest;  // content digest of kvs
};

class MemoServer {
 public:
  using MapOutputPtr = std::shared_ptr<const MemoizedMapOutput>;

  MapOutputPtr get_map(const dedup::ChunkDigest& key);
  void put_map(const dedup::ChunkDigest& key, MapOutputPtr value);

  std::optional<std::map<std::string, std::string>> get_reduce(
      const dedup::ChunkDigest& key);
  void put_reduce(const dedup::ChunkDigest& key,
                  std::map<std::string, std::string> value);

  using CombinePtr = std::shared_ptr<const MemoizedCombine>;
  CombinePtr get_combine(const dedup::ChunkDigest& key);
  void put_combine(const dedup::ChunkDigest& key, CombinePtr value);
  std::uint64_t combine_hits() const;
  std::uint64_t combine_misses() const;

 private:
  mutable Mutex mutex_;
  std::unordered_map<dedup::ChunkDigest, MapOutputPtr, dedup::ChunkDigestHash>
      map_memo_ GUARDED_BY(mutex_);
  std::unordered_map<dedup::ChunkDigest, std::map<std::string, std::string>,
                     dedup::ChunkDigestHash>
      reduce_memo_ GUARDED_BY(mutex_);
  std::unordered_map<dedup::ChunkDigest, CombinePtr, dedup::ChunkDigestHash>
      combine_memo_ GUARDED_BY(mutex_);
  std::uint64_t combine_hits_ GUARDED_BY(mutex_) = 0;
  std::uint64_t combine_misses_ GUARDED_BY(mutex_) = 0;
};

}  // namespace shredder::inchdfs
