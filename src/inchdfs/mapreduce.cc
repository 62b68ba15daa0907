#include "inchdfs/mapreduce.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <stdexcept>

#include "common/timer.h"

namespace shredder::inchdfs {

namespace {

// FNV-1a, for a partition function that is stable across platforms (memo
// keys must not depend on std::hash).
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

dedup::ChunkDigest map_memo_key(const JobSpec& job, const Split& split) {
  dedup::ChunkHasher h;
  h.update(as_bytes(job.name));
  h.update(as_bytes(job.params_digest));
  h.update(ByteSpan{split.digest.bytes.data(), split.digest.bytes.size()});
  return h.finish();
}

// Keys reducer `reducer` by its partition's digest in every map output
// (split order).
dedup::ChunkDigest reduce_memo_key(
    const JobSpec& job, std::size_t reducer,
    const std::vector<MemoServer::MapOutputPtr>& map_outputs) {
  dedup::ChunkHasher h;
  h.update(as_bytes(job.name));
  h.update(as_bytes(job.params_digest));
  const auto r64 = static_cast<std::uint64_t>(reducer);
  h.update(ByteSpan{reinterpret_cast<const std::uint8_t*>(&r64), sizeof(r64)});
  for (const auto& out : map_outputs) {
    const auto& d = out->bucket_digests[reducer];
    h.update(ByteSpan{d.bytes.data(), d.bytes.size()});
  }
  return h.finish();
}

// Content digest of a sorted KV list: a map bucket or a combined group.
dedup::ChunkDigest kv_digest(const std::vector<KeyValue>& kvs) {
  dedup::ChunkHasher h;
  const std::uint8_t sep0 = 0;
  const std::uint8_t sep1 = 1;
  for (const auto& kv : kvs) {
    h.update(as_bytes(kv.key));
    h.update(ByteSpan{&sep0, 1});
    h.update(as_bytes(kv.value));
    h.update(ByteSpan{&sep1, 1});
  }
  return h.finish();
}

// --- Contraction trees (Incoop §6.1 mechanism) ---
// Combine sorted KV buckets in content-defined groups so a changed input
// bucket only invalidates its log-depth path instead of the whole reducer.

// Combines a group of sorted KV lists into one sorted list with one value
// per key (via combine_fn) and a content digest.
std::shared_ptr<MemoizedCombine> combine_group(
    const JobSpec& job, const std::vector<const std::vector<KeyValue>*>& group) {
  // Inputs are sorted by key; a flat sort-merge beats node-based maps by a
  // wide margin on the saturated vocabularies upper tree levels see.
  std::vector<const KeyValue*> all;
  std::size_t total = 0;
  for (const auto* kvs : group) total += kvs->size();
  all.reserve(total);
  for (const auto* kvs : group) {
    for (const auto& kv : *kvs) all.push_back(&kv);
  }
  std::sort(all.begin(), all.end(), [](const KeyValue* a, const KeyValue* b) {
    return a->key != b->key ? a->key < b->key : a->value < b->value;
  });
  auto out = std::make_shared<MemoizedCombine>();
  std::vector<std::string> values;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    values.clear();
    while (j < all.size() && all[j]->key == all[i]->key) {
      values.push_back(all[j]->value);
      ++j;
    }
    out->kvs.push_back({all[i]->key, job.combine_fn(all[i]->key, values)});
    i = j;
  }
  out->digest = kv_digest(out->kvs);
  return out;
}

// Content-defined grouping: a bucket digest whose low bits are zero closes
// the current group (expected arity 8), so group membership is stable under
// local insertions/removals of buckets — the same self-synchronization idea
// as content-defined chunking.
bool closes_group(const dedup::ChunkDigest& digest) noexcept {
  return (digest.prefix64() & 0x7) == 0;
}

dedup::ChunkDigest combine_memo_key(
    const JobSpec& job, std::size_t reducer, unsigned level,
    const std::vector<const dedup::ChunkDigest*>& members) {
  dedup::ChunkHasher h;
  h.update(as_bytes(job.name));
  h.update(as_bytes(job.params_digest));
  const char tag[] = "combine";
  h.update(ByteSpan{reinterpret_cast<const std::uint8_t*>(tag), sizeof(tag)});
  const auto r64 = static_cast<std::uint64_t>(reducer);
  h.update(ByteSpan{reinterpret_cast<const std::uint8_t*>(&r64), sizeof(r64)});
  const auto l64 = static_cast<std::uint64_t>(level);
  h.update(ByteSpan{reinterpret_cast<const std::uint8_t*>(&l64), sizeof(l64)});
  for (const auto* d : members) {
    h.update(ByteSpan{d->bytes.data(), d->bytes.size()});
  }
  return h.finish();
}

}  // namespace

MapEmitter::MapEmitter(std::size_t num_reducers) : buckets_(num_reducers) {
  if (num_reducers == 0) {
    throw std::invalid_argument("MapEmitter: num_reducers must be >= 1");
  }
}

std::size_t MapEmitter::partition(const std::string& key,
                                  std::size_t num_reducers) noexcept {
  return static_cast<std::size_t>(fnv1a(key) % num_reducers);
}

void MapEmitter::emit(std::string key, std::string value) {
  auto& bucket = buckets_[partition(key, buckets_.size())];
  bucket.push_back(KeyValue{std::move(key), std::move(value)});
}

void MapEmitter::finalize() {
  for (auto& bucket : buckets_) {
    std::sort(bucket.begin(), bucket.end(),
              [](const KeyValue& a, const KeyValue& b) {
                return a.key != b.key ? a.key < b.key : a.value < b.value;
              });
  }
}

std::vector<dedup::ChunkDigest> MapEmitter::bucket_digests() const {
  std::vector<dedup::ChunkDigest> digests;
  digests.reserve(buckets_.size());
  for (const auto& bucket : buckets_) digests.push_back(kv_digest(bucket));
  return digests;
}

void JobSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("JobSpec: name required");
  if (!map_fn) throw std::invalid_argument("JobSpec: map_fn required");
  if (!reduce_fn) throw std::invalid_argument("JobSpec: reduce_fn required");
  if (num_reducers == 0) {
    throw std::invalid_argument("JobSpec: num_reducers must be >= 1");
  }
}

JobResult MapReduceEngine::run(const JobSpec& job,
                               const std::vector<Split>& splits,
                               MemoServer* memo) {
  job.validate();
  Stopwatch wall;
  JobResult result;
  result.stats.map_tasks = splits.size();

  // --- Map phase ---
  std::vector<MemoServer::MapOutputPtr> map_outputs(splits.size());
  std::atomic<std::uint64_t> reused{0};
  pool_.for_each_index(splits.size(), [&](std::size_t i) {
    const Split& split = splits[i];
    const auto key = memo != nullptr ? map_memo_key(job, split)
                                     : dedup::ChunkDigest{};
    if (memo != nullptr) {
      if (auto hit = memo->get_map(key)) {
        map_outputs[i] = std::move(hit);
        reused.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    MapEmitter emitter(job.num_reducers);
    job.map_fn(split, emitter);
    emitter.finalize();
    auto out = std::make_shared<MemoizedMapOutput>();
    // Digest the buckets before moving them out of the spent emitter.
    if (memo != nullptr) out->bucket_digests = emitter.bucket_digests();
    out->buckets = emitter.take_buckets();
    if (memo != nullptr) memo->put_map(key, out);
    map_outputs[i] = std::move(out);
  });
  result.stats.map_reused = reused.load();

  // --- Reduce phase ---
  result.stats.reduce_tasks = job.num_reducers;
  std::vector<std::map<std::string, std::string>> reduce_outputs(
      job.num_reducers);
  std::atomic<std::uint64_t> reduce_reused{0};
  pool_.for_each_index(job.num_reducers, [&](std::size_t r) {
    const auto key = memo != nullptr ? reduce_memo_key(job, r, map_outputs)
                                     : dedup::ChunkDigest{};
    if (memo != nullptr) {
      if (auto hit = memo->get_reduce(key)) {
        reduce_outputs[r] = std::move(*hit);
        reduce_reused.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }

    if (job.combine_fn && job.use_contraction && memo != nullptr &&
        map_outputs.size() > 8) {
      // Contraction tree: fold the buckets level by level in content-defined
      // groups, memoizing each group's combined result. Only groups touching
      // changed buckets recompute.
      std::vector<MemoServer::CombinePtr> level;
      std::vector<const std::vector<KeyValue>*> level_kvs;
      std::vector<const dedup::ChunkDigest*> level_digests;
      for (const auto& out : map_outputs) {
        level_kvs.push_back(&out->buckets[r]);
        level_digests.push_back(&out->bucket_digests[r]);
      }
      unsigned depth = 0;
      while (level_kvs.size() > 1 && depth < 32) {
        std::vector<MemoServer::CombinePtr> next;
        std::size_t begin = 0;
        for (std::size_t i = 0; i < level_kvs.size(); ++i) {
          const bool close = closes_group(*level_digests[i]) ||
                             i + 1 == level_kvs.size();
          if (!close) continue;
          std::vector<const std::vector<KeyValue>*> group(
              level_kvs.begin() + static_cast<std::ptrdiff_t>(begin),
              level_kvs.begin() + static_cast<std::ptrdiff_t>(i + 1));
          std::vector<const dedup::ChunkDigest*> group_digests(
              level_digests.begin() + static_cast<std::ptrdiff_t>(begin),
              level_digests.begin() + static_cast<std::ptrdiff_t>(i + 1));
          const auto ckey = combine_memo_key(job, r, depth, group_digests);
          auto node = memo->get_combine(ckey);
          if (node == nullptr) {
            node = combine_group(job, group);
            memo->put_combine(ckey, node);
          }
          next.push_back(std::move(node));
          begin = i + 1;
        }
        const bool shrunk = next.size() < level_kvs.size();
        level = std::move(next);
        level_kvs.clear();
        level_digests.clear();
        for (const auto& node : level) {
          level_kvs.push_back(&node->kvs);
          level_digests.push_back(&node->digest);
        }
        ++depth;
        if (!shrunk) break;  // singleton closers would re-close forever
      }
      // Fold whatever is left in one final (memoized) step. This also
      // covers the no-shrink exit above.
      MemoServer::CombinePtr root;
      if (level_kvs.size() > 1) {
        const auto root_key = combine_memo_key(job, r, 0xff, level_digests);
        root = memo->get_combine(root_key);
        if (root == nullptr) {
          root = combine_group(job, level_kvs);
          memo->put_combine(root_key, root);
        }
        level_kvs = {&root->kvs};
      }
      std::map<std::string, std::string> out;
      if (!level_kvs.empty()) {
        for (const auto& kv : *level_kvs[0]) {
          out.emplace(kv.key, job.reduce_fn(kv.key, {kv.value}));
        }
      }
      memo->put_reduce(key, out);
      reduce_outputs[r] = std::move(out);
      return;
    }

    std::unordered_map<std::string, std::vector<std::string>> grouped;
    std::size_t total_kvs = 0;
    for (const auto& out : map_outputs) total_kvs += out->buckets[r].size();
    grouped.reserve(total_kvs / 2 + 8);
    for (const auto& out : map_outputs) {
      for (const auto& kv : out->buckets[r]) {
        grouped[kv.key].push_back(kv.value);
      }
    }
    std::map<std::string, std::string> out;  // sorted, deterministic
    for (const auto& [k, values] : grouped) {
      out.emplace(k, job.reduce_fn(k, values));
    }
    if (memo != nullptr) memo->put_reduce(key, out);
    reduce_outputs[r] = std::move(out);
  });
  result.stats.reduce_reused = reduce_reused.load();

  // --- Merge ---
  for (auto& part : reduce_outputs) {
    result.output.merge(part);
  }
  result.stats.wall_seconds = wall.elapsed_seconds();
  return result;
}

}  // namespace shredder::inchdfs
