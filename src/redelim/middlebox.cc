#include "redelim/middlebox.h"

#include <stdexcept>

namespace shredder::redelim {

ContentCache::ContentCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {
  if (capacity_bytes == 0) {
    throw std::invalid_argument("ContentCache: capacity must be > 0");
  }
}

void ContentCache::evict_to_capacity() {
  while (bytes_ > capacity_ && !lru_.empty()) {
    const auto victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    if (it != entries_.end()) {
      bytes_ -= it->second.payload.size();
      entries_.erase(it);
    }
  }
}

void ContentCache::put(const dedup::ChunkDigest& digest, ByteSpan payload) {
  const auto it = entries_.find(digest);
  if (it != entries_.end()) {
    // Refresh LRU position only.
    lru_.erase(it->second.lru_pos);
    lru_.push_front(digest);
    it->second.lru_pos = lru_.begin();
    return;
  }
  lru_.push_front(digest);
  entries_.emplace(digest,
                   Entry{ByteVec(payload.begin(), payload.end()), lru_.begin()});
  bytes_ += payload.size();
  evict_to_capacity();
}

std::optional<ByteSpan> ContentCache::get(const dedup::ChunkDigest& digest) {
  const auto it = entries_.find(digest);
  if (it == entries_.end()) return std::nullopt;
  lru_.erase(it->second.lru_pos);
  lru_.push_front(digest);
  it->second.lru_pos = lru_.begin();
  return as_bytes(it->second.payload);
}

bool ContentCache::contains(const dedup::ChunkDigest& digest) const {
  return entries_.contains(digest);
}

SenderMiddlebox::SenderMiddlebox(core::Shredder& shredder,
                                 std::uint64_t cache_bytes)
    : shredder_(&shredder), cache_(cache_bytes) {}

EncodedStream SenderMiddlebox::encode(ByteSpan flow) {
  EncodedStream out;
  out.input_bytes = flow.size();
  const auto result = shredder_->run(flow);
  out.segments.reserve(result.chunks.size());
  for (const auto& c : result.chunks) {
    const ByteSpan payload = flow.subspan(static_cast<std::size_t>(c.offset),
                                          static_cast<std::size_t>(c.size));
    const auto digest = dedup::ChunkHasher::hash(payload);
    Segment seg;
    seg.digest = digest;
    // A hit refreshes the sender-side LRU exactly as the receiver will.
    if (cache_.get(digest).has_value()) {
      ++out.tokens;
    } else {
      seg.literal.assign(payload.begin(), payload.end());
      cache_.put(digest, payload);
    }
    out.wire_bytes += seg.wire_bytes();
    out.segments.push_back(std::move(seg));
  }
  return out;
}

ReceiverMiddlebox::ReceiverMiddlebox(std::uint64_t cache_bytes)
    : cache_(cache_bytes) {}

ByteVec ReceiverMiddlebox::decode(const EncodedStream& stream) {
  ByteVec out;
  out.reserve(stream.input_bytes);
  for (const auto& seg : stream.segments) {
    if (seg.is_token()) {
      const auto payload = cache_.get(seg.digest);
      if (!payload.has_value()) {
        throw std::runtime_error(
            "ReceiverMiddlebox: token for unknown chunk (caches diverged)");
      }
      out.insert(out.end(), payload->begin(), payload->end());
    } else {
      out.insert(out.end(), seg.literal.begin(), seg.literal.end());
      cache_.put(seg.digest, as_bytes(seg.literal));
    }
  }
  return out;
}

}  // namespace shredder::redelim
