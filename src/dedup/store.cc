#include "dedup/store.h"

#include <utility>

#include "common/check.h"

namespace shredder::dedup {

void ChunkStore::set_observer(Observer observer) {
  MutexLock lock(mutex_);
  observer_ = std::move(observer);
  notify_locked();
}

StoreOccupancy ChunkStore::occupancy_locked() const {
  StoreOccupancy occ;
  occ.chunks = chunks_.size();
  occ.bytes = unique_bytes_;
  occ.refs = total_refs_;
  occ.zero_ref_chunks = zero_ref_chunks_;
  occ.zero_ref_bytes = zero_ref_bytes_;
  return occ;
}

void ChunkStore::notify_locked() {
  if (observer_) observer_(occupancy_locked());
}

PutOutcome ChunkStore::put_locked(const ChunkDigest& digest, Entry&& entry) {
  ++total_refs_;
  const std::uint64_t size = entry.size;
  auto [it, inserted] = chunks_.try_emplace(digest, std::move(entry));
  if (!inserted) {
    const bool revived = it->second.refs == 0;
    if (revived) {
      --zero_ref_chunks_;
      zero_ref_bytes_ -= it->second.size;
    }
    ++it->second.refs;
    notify_locked();
    return revived ? PutOutcome::kRevived : PutOutcome::kRefAdded;
  }
  unique_bytes_ += size;
  notify_locked();
  return PutOutcome::kInserted;
}

PutOutcome ChunkStore::put(const ChunkDigest& digest, ByteSpan data) {
#ifndef NDEBUG
  // Debug-mode recheck: callers increasingly hand us digests computed
  // elsewhere (the GPU fingerprint stage); this catches any drift between
  // the device hash and the canonical host hash.
  SHREDDER_CHECK_MSG(ChunkHasher::hash(data) == digest,
                     "ChunkStore::put digest mismatch");
#endif
  MutexLock lock(mutex_);
  return put_locked(digest,
                    Entry{ByteVec(data.begin(), data.end()), data.size()});
}

PutOutcome ChunkStore::put(const ChunkDigest& digest, std::uint64_t size) {
  MutexLock lock(mutex_);
  return put_locked(digest, Entry{{}, size, 1, /*has_payload=*/false});
}

std::optional<ByteVec> ChunkStore::get(const ChunkDigest& digest) const {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end() || !it->second.has_payload) return std::nullopt;
  return it->second.data;
}

bool ChunkStore::append_to(const ChunkDigest& digest, ByteVec& out) const {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end() || !it->second.has_payload) return false;
  out.insert(out.end(), it->second.data.begin(), it->second.data.end());
  return true;
}

std::optional<std::uint64_t> ChunkStore::chunk_bytes(
    const ChunkDigest& digest) const {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end()) return std::nullopt;
  return it->second.size;
}

bool ChunkStore::contains(const ChunkDigest& digest) const {
  MutexLock lock(mutex_);
  return chunks_.contains(digest);
}

bool ChunkStore::add_ref(const ChunkDigest& digest) {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end()) return false;
  if (it->second.refs == 0) {
    // Resurrection: an in-flight backup re-referenced a chunk whose last
    // snapshot was deleted before the GC sweep got to it.
    --zero_ref_chunks_;
    zero_ref_bytes_ -= it->second.size;
  }
  ++it->second.refs;
  ++total_refs_;
  notify_locked();
  return true;
}

ReleaseOutcome ChunkStore::release_ref(const ChunkDigest& digest,
                                       std::uint64_t* remaining) {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end()) return ReleaseOutcome::kUnknownDigest;
  if (it->second.refs == 0) return ReleaseOutcome::kNoRefs;
  --it->second.refs;
  --total_refs_;
  if (remaining != nullptr) *remaining = it->second.refs;
  if (it->second.refs > 0) {
    notify_locked();
    return ReleaseOutcome::kLive;
  }
  if (deferred_reclaim_) {
    ++zero_ref_chunks_;
    zero_ref_bytes_ += it->second.size;
    notify_locked();
    return ReleaseOutcome::kDeferred;
  }
  unique_bytes_ -= it->second.size;
  chunks_.erase(it);
  notify_locked();
  return ReleaseOutcome::kReclaimed;
}

SweepStats ChunkStore::sweep_zero_refs(
    const std::function<bool(const ChunkDigest&)>& keep) {
  MutexLock lock(mutex_);
  SweepStats stats;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    ++stats.scanned;
    if (it->second.refs != 0) {
      ++it;
      continue;
    }
    if (keep && keep(it->first)) {
      ++stats.kept;
      ++it;
      continue;
    }
    const std::uint64_t size = it->second.size;
    ++stats.freed_chunks;
    stats.freed_bytes += size;
    --zero_ref_chunks_;
    zero_ref_bytes_ -= size;
    unique_bytes_ -= size;
    it = chunks_.erase(it);
  }
  notify_locked();
  return stats;
}

std::vector<ChunkDigest> ChunkStore::rebuild_refs(
    const std::unordered_map<ChunkDigest, std::uint64_t, ChunkDigestHash>&
        counts) {
  MutexLock lock(mutex_);
  std::vector<ChunkDigest> zeroed;
  total_refs_ = 0;
  zero_ref_chunks_ = 0;
  zero_ref_bytes_ = 0;
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    const auto c = counts.find(it->first);
    const std::uint64_t refs = c == counts.end() ? 0 : c->second;
    it->second.refs = refs;
    total_refs_ += refs;
    if (refs == 0) {
      if (deferred_reclaim_) {
        ++zero_ref_chunks_;
        zero_ref_bytes_ += it->second.size;
        zeroed.push_back(it->first);
        ++it;
      } else {
        unique_bytes_ -= it->second.size;
        it = chunks_.erase(it);
      }
    } else {
      ++it;
    }
  }
  notify_locked();
  return zeroed;
}

std::optional<std::uint64_t> ChunkStore::ref_count(
    const ChunkDigest& digest) const {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(digest);
  if (it == chunks_.end()) return std::nullopt;
  return it->second.refs;
}

std::uint64_t ChunkStore::unique_chunks() const {
  MutexLock lock(mutex_);
  return chunks_.size();
}

std::uint64_t ChunkStore::unique_bytes() const {
  MutexLock lock(mutex_);
  return unique_bytes_;
}

std::uint64_t ChunkStore::total_refs() const {
  MutexLock lock(mutex_);
  return total_refs_;
}

std::uint64_t ChunkStore::zero_ref_chunks() const {
  MutexLock lock(mutex_);
  return zero_ref_chunks_;
}

std::uint64_t ChunkStore::zero_ref_bytes() const {
  MutexLock lock(mutex_);
  return zero_ref_bytes_;
}

StoreOccupancy ChunkStore::occupancy() const {
  MutexLock lock(mutex_);
  return occupancy_locked();
}

}  // namespace shredder::dedup
