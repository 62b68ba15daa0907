#include "backup/agent.h"

#include <algorithm>

#include "common/check.h"

namespace shredder::backup {

namespace {

// Refusal of a payload, full frame or repair, that does not hash to the
// digest it is filed under.
ProtocolError digest_mismatch(const dedup::ChunkDigest& digest) {
  return ProtocolError(ProtocolViolation::kPayloadDigestMismatch,
                       "BackupAgent: payload does not hash to its digest " +
                           digest.hex());
}

}  // namespace

bool BackupAgent::begin_image(const std::string& image_id) {
  auto [it, inserted] = recipes_.try_emplace(image_id);
  if (!inserted && it->second.sealed) {
    // Re-opening a sealed image would silently fork its recipe; a
    // retransmitted begin for a still-open image is just the transport
    // re-delivering a control frame and must be harmless.
    throw ProtocolError(ProtocolViolation::kDuplicateImage,
                        "BackupAgent: image already sealed: " + image_id);
  }
  return inserted;
}

void BackupAgent::end_image(const std::string& image_id,
                            std::uint64_t expected_chunks) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  if (expected_chunks != 0 && expected_chunks != it->second.chunks.size()) {
    throw ProtocolError(
        ProtocolViolation::kRecipeLengthMismatch,
        "BackupAgent: end_image chunk count does not match recipe: " +
            image_id);
  }
  Recipe& recipe = it->second;
  if (!recipe.sealed) {  // idempotent: sealing twice changes nothing
    recipe.root = dedup::root_digest(recipe.chunks);
    recipe.sealed = true;
  }
}

bool BackupAgent::image_sealed(const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  return it != recipes_.end() && it->second.sealed;
}

std::optional<dedup::ChunkDigest> BackupAgent::image_root(
    const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end() || !it->second.sealed) return std::nullopt;
  if (!pending_repair_.empty()) {
    for (const auto& digest : it->second.chunks) {
      if (pending_repair_.count(digest)) return std::nullopt;
    }
  }
  return it->second.root;
}

BackupAgent::Recipe& BackupAgent::open_recipe(const std::string& image_id) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  if (it->second.sealed) {
    throw ProtocolError(ProtocolViolation::kSealedImage,
                        "BackupAgent: data frame for sealed image: " +
                            image_id);
  }
  return it->second;
}

void BackupAgent::validate_batch(const ExtentBatch& batch, bool stripped) {
  std::size_t covered = 0;
  std::size_t n_unique = 0;
  for (const auto& e : batch.extents) {
    if (e.first != covered || e.count == 0) {
      throw ProtocolError(ProtocolViolation::kBadExtentPartition,
                          "BackupAgent: extents do not partition the batch");
    }
    covered += e.count;
    if (e.unique) n_unique += e.count;
  }
  if (covered != batch.digests.size()) {
    throw ProtocolError(ProtocolViolation::kBadExtentPartition,
                        "BackupAgent: extents do not partition the batch");
  }
  if (batch.payload_sizes.size() != n_unique) {
    throw ProtocolError(ProtocolViolation::kPayloadCountMismatch,
                        "BackupAgent: payload_sizes/unique-chunk count "
                        "mismatch");
  }
  std::uint64_t payload_total = 0;
  for (const std::uint32_t sz : batch.payload_sizes) {
    if (sz == 0) {
      throw ProtocolError(ProtocolViolation::kEmptyChunk,
                          "BackupAgent: zero-byte unique chunk");
    }
    payload_total += sz;
  }
  // A stripped frame advertises sizes but ships no bytes; a full frame's
  // payload must slice exactly into the advertised sizes.
  const std::uint64_t expected = stripped ? 0 : payload_total;
  if (expected != batch.payload.size()) {
    throw ProtocolError(ProtocolViolation::kPayloadBytesMismatch,
                        "BackupAgent: payload bytes do not match "
                        "payload_sizes");
  }
}

void BackupAgent::verify_payloads(const ExtentBatch& batch) {
  // Every unique chunk of the frame: the digest it is filed under and its
  // payload bytes, in stream order.
  struct Unique {
    const dedup::ChunkDigest* digest;
    ByteSpan bytes;
  };
  std::vector<Unique> uniques;
  uniques.reserve(batch.payload_sizes.size());
  const ByteSpan payload = as_bytes(batch.payload);
  std::size_t payload_off = 0;
  for (const auto& e : batch.extents) {
    if (!e.unique) continue;
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const std::size_t sz = batch.payload_sizes[uniques.size()];
      uniques.push_back(
          {&batch.digests[e.first + k], payload.subspan(payload_off, sz)});
      payload_off += sz;
    }
  }
  // Hash on the pool, each range into its own slots; compare on the caller,
  // so the error names the first mismatch in stream order and no exception
  // object crosses threads.
  std::vector<dedup::ChunkDigest> hashed(uniques.size());
  hash_pool_.parallel_for(
      uniques.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hashed[i] = dedup::ChunkHasher::hash(uniques[i].bytes);
        }
      });
  for (std::size_t i = 0; i < uniques.size(); ++i) {
    if (hashed[i] != *uniques[i].digest) {
      throw digest_mismatch(*uniques[i].digest);
    }
  }
}

void BackupAgent::check_pointers(const ExtentBatch& batch) const {
  // Each unique digest of the frame and the index of its first occurrence,
  // built on the first pointer neither table resolves.
  std::unordered_map<dedup::ChunkDigest, std::uint32_t, dedup::ChunkDigestHash>
      uniques;
  for (const auto& e : batch.extents) {
    if (e.unique) continue;
    for (std::uint32_t i = e.first; i < e.first + e.count; ++i) {
      const dedup::ChunkDigest& digest = batch.digests[i];
      if (pending_repair_.count(digest) != 0 || store_.contains(digest)) {
        continue;
      }
      if (uniques.empty()) {
        for (const auto& u : batch.extents) {
          if (!u.unique) continue;
          for (std::uint32_t j = u.first; j < u.first + u.count; ++j) {
            uniques.try_emplace(batch.digests[j], j);
          }
        }
      }
      const auto earlier = uniques.find(digest);
      if (earlier == uniques.end() || earlier->second > i) {
        throw ProtocolError(
            ProtocolViolation::kUnknownPointer,
            "BackupAgent: pointer to unknown chunk (protocol violation)");
      }
    }
  }
}

void BackupAgent::reference_pointer(const dedup::ChunkDigest& digest) {
  if (const auto pending = pending_repair_.find(digest);
      pending != pending_repair_.end()) {
    // The chunk's payload is still in flight on the repair path: defer the
    // reference until the repair lands.
    ++pending->second;
    return;
  }
  const bool held = store_.add_ref(digest);
  SHREDDER_CHECK_MSG(held, "BackupAgent: a checked pointer lost its chunk");
}

void BackupAgent::receive_batch(const std::string& image_id,
                                const ExtentBatch& batch) {
  auto& recipe = open_recipe(image_id);
  validate_batch(batch, /*stripped=*/false);
  check_pointers(batch);
  verify_payloads(batch);

  // Unique payloads are read as views into the wire buffer;
  // ChunkStore::put copies each one once, into its store entry.
  const ByteSpan payload = as_bytes(batch.payload);
  std::size_t next_size = 0;  // index into payload_sizes
  std::size_t payload_off = 0;
  for (const auto& e : batch.extents) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const dedup::ChunkDigest& digest = batch.digests[e.first + k];
      if (e.unique) {
        const std::size_t sz = batch.payload_sizes[next_size++];
        store_.put(digest, payload.subspan(payload_off, sz));
        payload_off += sz;
      } else {
        reference_pointer(digest);
      }
      recipe.chunks.push_back(digest);
    }
  }
}

std::vector<dedup::ChunkDigest> BackupAgent::receive_stripped(
    const std::string& image_id, const ExtentBatch& batch) {
  auto& recipe = open_recipe(image_id);
  validate_batch(batch, /*stripped=*/true);
  check_pointers(batch);

  std::vector<dedup::ChunkDigest> newly_missing;
  for (const auto& e : batch.extents) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const dedup::ChunkDigest& digest = batch.digests[e.first + k];
      if (!e.unique) {
        reference_pointer(digest);
        recipe.chunks.push_back(digest);
        continue;
      }
      // Unique chunk whose payload was stripped by the sender. If the store
      // already holds it (an earlier image shipped the bytes) this is just a
      // reference; otherwise the digest becomes repair-pending.
      if (store_.add_ref(digest)) {
        recipe.chunks.push_back(digest);
        continue;
      }
      const auto [pending, inserted] = pending_repair_.try_emplace(digest, 1);
      if (!inserted) {
        ++pending->second;
      } else {
        newly_missing.push_back(digest);
      }
      recipe.chunks.push_back(digest);
    }
  }
  return newly_missing;
}

bool BackupAgent::receive_repair(const dedup::ChunkDigest& digest,
                                 ByteSpan payload) {
  const auto pending = pending_repair_.find(digest);
  if (pending == pending_repair_.end()) {
    return false;  // duplicated repair frame — already materialized
  }
  if (dedup::ChunkHasher::hash(payload) != digest) {
    throw digest_mismatch(digest);
  }
  const std::uint64_t refs = pending->second;
  pending_repair_.erase(pending);
  store_.put(digest, payload);  // stores with one reference
  for (std::uint64_t r = 1; r < refs; ++r) store_.add_ref(digest);
  return true;
}

std::vector<dedup::ChunkDigest> BackupAgent::missing_chunks(
    const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  std::vector<dedup::ChunkDigest> missing;
  for (const auto& digest : it->second.chunks) {
    if (pending_repair_.count(digest) &&
        std::find(missing.begin(), missing.end(), digest) == missing.end()) {
      missing.push_back(digest);
    }
  }
  return missing;
}

ByteVec BackupAgent::recreate(const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  const auto incomplete = [&] {
    return ProtocolError(ProtocolViolation::kRecipeIncomplete,
                         "BackupAgent: missing chunk during recreate (" +
                             std::to_string(pending_repair_.size()) +
                             " repairs pending)");
  };
  // Size the image once, then copy each chunk straight out of the store
  // into it: one copy per byte, no per-chunk buffer, no regrowth.
  std::uint64_t total = 0;
  for (const auto& digest : it->second.chunks) {
    const auto bytes = store_.chunk_bytes(digest);
    if (!bytes.has_value()) throw incomplete();
    total += *bytes;
  }
  ByteVec out;
  out.reserve(static_cast<std::size_t>(total));
  for (const auto& digest : it->second.chunks) {
    if (!store_.append_to(digest, out)) throw incomplete();
  }
  return out;
}

std::uint64_t BackupAgent::delete_image(const std::string& image_id) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: delete of unknown image: " + image_id);
  }
  if (!it->second.sealed) {
    throw ProtocolError(ProtocolViolation::kImageInProgress,
                        "BackupAgent: delete of in-progress image: " +
                            image_id);
  }
  for (const auto& digest : it->second.chunks) {
    if (pending_repair_.count(digest)) {
      throw ProtocolError(ProtocolViolation::kRecipeIncomplete,
                          "BackupAgent: delete of image with pending repairs: " +
                              image_id);
    }
  }
  std::uint64_t released = 0;
  for (const auto& digest : it->second.chunks) {
    // The agent's own bookkeeping took one reference per occurrence (put for
    // unique chunks, add_ref for pointers), so the walk cannot underflow.
    const dedup::ReleaseOutcome out = store_.release_ref(digest);
    SHREDDER_CHECK_MSG(out == dedup::ReleaseOutcome::kLive ||
                           out == dedup::ReleaseOutcome::kReclaimed ||
                           out == dedup::ReleaseOutcome::kDeferred,
                       "BackupAgent: recipe references an unreferenced chunk");
    ++released;
  }
  recipes_.erase(it);
  return released;
}

}  // namespace shredder::backup
