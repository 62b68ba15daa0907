#include "retention/manifest.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

namespace shredder::retention {

namespace {

std::string describe(const std::string& tenant, const std::string& image) {
  return "tenant '" + tenant + "' image '" + image + "'";
}

}  // namespace

ManifestStore::Image* ManifestStore::find_locked(const std::string& tenant,
                                                 const std::string& image) {
  const auto it = images_.find(Key{tenant, image});
  return it == images_.end() ? nullptr : &it->second;
}

const ManifestStore::Image* ManifestStore::find_locked(
    const std::string& tenant, const std::string& image) const {
  const auto it = images_.find(Key{tenant, image});
  return it == images_.end() ? nullptr : &it->second;
}

void ManifestStore::append_locked(ManifestOp op, const std::string& tenant,
                                  const std::string& image,
                                  const dedup::ChunkDigest& digest) {
  log_.push_back(ManifestRecord{op, tenant, image, digest});
}

void ManifestStore::begin_image(const std::string& tenant,
                                const std::string& image) {
  MutexLock lock(mu_);
  if (Image* img = find_locked(tenant, image);
      img != nullptr && img->state != ImageState::kDeleted) {
    throw RetentionError(RetentionViolation::kImageExists,
                         "ManifestStore::begin_image: " +
                             describe(tenant, image) + " is live");
  }
  images_[Key{tenant, image}] = Image{};
  if (dead_chunk_records_ != 0 && 2 * dead_chunk_records_ >= chunk_records_) {
    drop_dead_chunks_locked();
  }
  append_locked(ManifestOp::kBegin, tenant, image);
}

void ManifestStore::append_chunk(const std::string& tenant,
                                 const std::string& image,
                                 const dedup::ChunkDigest& digest) {
  MutexLock lock(mu_);
  Image* img = find_locked(tenant, image);
  if (img == nullptr || img->state == ImageState::kDeleted) {
    throw RetentionError(RetentionViolation::kUnknownImage,
                         "ManifestStore::append_chunk: unknown " +
                             describe(tenant, image));
  }
  if (img->state != ImageState::kInProgress) {
    throw RetentionError(RetentionViolation::kImageSealed,
                         "ManifestStore::append_chunk: " +
                             describe(tenant, image) + " already sealed");
  }
  img->digests.push_back(digest);
  append_locked(ManifestOp::kChunk, tenant, image, digest);
  ++chunk_records_;
}

void ManifestStore::seal_image(const std::string& tenant,
                               const std::string& image) {
  MutexLock lock(mu_);
  Image* img = find_locked(tenant, image);
  if (img == nullptr || img->state == ImageState::kDeleted) {
    throw RetentionError(RetentionViolation::kUnknownImage,
                         "ManifestStore::seal_image: unknown " +
                             describe(tenant, image));
  }
  if (img->state != ImageState::kInProgress) {
    throw RetentionError(RetentionViolation::kImageSealed,
                         "ManifestStore::seal_image: " +
                             describe(tenant, image) + " already sealed");
  }
  img->state = ImageState::kSealed;
  append_locked(ManifestOp::kSeal, tenant, image);
}

void ManifestStore::record_image(const std::string& tenant,
                                 const std::string& image,
                                 const std::vector<dedup::ChunkDigest>& digests) {
  begin_image(tenant, image);
  for (const dedup::ChunkDigest& d : digests) append_chunk(tenant, image, d);
  seal_image(tenant, image);
}

std::vector<dedup::ChunkDigest> ManifestStore::begin_delete(
    const std::string& tenant, const std::string& image) {
  MutexLock lock(mu_);
  Image* img = find_locked(tenant, image);
  if (img == nullptr) {
    throw RetentionError(RetentionViolation::kUnknownImage,
                         "ManifestStore::begin_delete: unknown " +
                             describe(tenant, image));
  }
  switch (img->state) {
    case ImageState::kInProgress:
      throw RetentionError(RetentionViolation::kImageInProgress,
                           "ManifestStore::begin_delete: " +
                               describe(tenant, image) + " still in progress");
    case ImageState::kDeleting:
    case ImageState::kDeleted:
      throw RetentionError(RetentionViolation::kAlreadyDeleted,
                           "ManifestStore::begin_delete: " +
                               describe(tenant, image) + " already deleted");
    case ImageState::kSealed:
      break;
  }
  img->state = ImageState::kDeleting;
  append_locked(ManifestOp::kDeleteBegin, tenant, image);
  return img->digests;
}

void ManifestStore::commit_delete(const std::string& tenant,
                                  const std::string& image) {
  MutexLock lock(mu_);
  Image* img = find_locked(tenant, image);
  if (img == nullptr || img->state != ImageState::kDeleting) {
    throw RetentionError(RetentionViolation::kUnknownImage,
                         "ManifestStore::commit_delete: " +
                             describe(tenant, image) + " is not mid-delete");
  }
  img->state = ImageState::kDeleted;
  dead_chunk_records_ += img->digests.size();
  img->digests.clear();
  img->digests.shrink_to_fit();
  append_locked(ManifestOp::kDeleteCommit, tenant, image);
}

std::optional<ImageState> ManifestStore::state(const std::string& tenant,
                                               const std::string& image) const {
  MutexLock lock(mu_);
  const Image* img = find_locked(tenant, image);
  if (img == nullptr) return std::nullopt;
  return img->state;
}

std::vector<dedup::ChunkDigest> ManifestStore::digests(
    const std::string& tenant, const std::string& image) const {
  MutexLock lock(mu_);
  const Image* img = find_locked(tenant, image);
  if (img == nullptr) {
    throw RetentionError(RetentionViolation::kUnknownImage,
                         "ManifestStore::digests: unknown " +
                             describe(tenant, image));
  }
  if (img->state == ImageState::kDeleting ||
      img->state == ImageState::kDeleted) {
    throw RetentionError(RetentionViolation::kAlreadyDeleted,
                         "ManifestStore::digests: " + describe(tenant, image) +
                             " deleted");
  }
  return img->digests;
}

std::vector<std::string> ManifestStore::images(const std::string& tenant) const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [key, img] : images_) {
    if (key.first != tenant) continue;
    if (img.state == ImageState::kDeleted) continue;
    out.push_back(key.second);
  }
  return out;  // std::map iteration order: already sorted
}

std::vector<std::pair<std::string, std::string>> ManifestStore::deleting_images()
    const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, img] : images_) {
    if (img.state == ImageState::kDeleting) out.push_back(key);
  }
  return out;
}

std::vector<std::pair<std::string, std::vector<dedup::ChunkDigest>>>
ManifestStore::live_manifests() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::vector<dedup::ChunkDigest>>> out;
  for (const auto& [key, img] : images_) {
    if (img.state == ImageState::kDeleted ||
        img.state == ImageState::kDeleting) {
      continue;
    }
    out.emplace_back(key.first + "/" + key.second, img.digests);
  }
  return out;
}

std::uint64_t ManifestStore::live_images() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [key, img] : images_) {
    (void)key;
    if (img.state != ImageState::kDeleted) ++n;
  }
  return n;
}

std::uint64_t ManifestStore::deleted_images() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [key, img] : images_) {
    (void)key;
    if (img.state == ImageState::kDeleted) ++n;
  }
  return n;
}

std::uint64_t ManifestStore::record_count() const {
  MutexLock lock(mu_);
  return log_.size();
}

std::vector<ManifestRecord> ManifestStore::log_records() const {
  MutexLock lock(mu_);
  return log_;
}

std::uint64_t ManifestStore::replay_locked(
    std::vector<ManifestRecord> records) {
  images_.clear();
  log_.clear();
  chunk_records_ = 0;
  dead_chunk_records_ = 0;
  for (ManifestRecord& r : records) {
    const Key key{r.tenant, r.image};
    const auto it = images_.find(key);
    Image* img = it == images_.end() ? nullptr : &it->second;
    bool applied = false;
    switch (r.op) {
      case ManifestOp::kBegin:
        if (img == nullptr || img->state == ImageState::kDeleted) {
          images_[key] = Image{};
          applied = true;
        }
        break;
      case ManifestOp::kChunk:
        if (img != nullptr && img->state == ImageState::kInProgress) {
          img->digests.push_back(r.digest);
          ++chunk_records_;
          applied = true;
        }
        break;
      case ManifestOp::kSeal:
        if (img != nullptr && img->state == ImageState::kInProgress) {
          img->state = ImageState::kSealed;
          applied = true;
        }
        break;
      case ManifestOp::kDeleteBegin:
        if (img != nullptr && img->state == ImageState::kSealed) {
          img->state = ImageState::kDeleting;
          applied = true;
        }
        break;
      case ManifestOp::kDeleteCommit:
        if (img != nullptr && img->state == ImageState::kDeleting) {
          img->state = ImageState::kDeleted;
          dead_chunk_records_ += img->digests.size();
          img->digests.clear();
          applied = true;
        }
        break;
    }
    // Records for impossible states (torn tail, duplicated replay) are
    // dropped rather than fatal; the surviving log stays self-consistent.
    if (applied) log_.push_back(std::move(r));
  }
  std::uint64_t deleting = 0;
  for (const auto& [key, img] : images_) {
    (void)key;
    if (img.state == ImageState::kDeleting) ++deleting;
  }
  return deleting;
}

std::uint64_t ManifestStore::rebuild_from_log(
    std::vector<ManifestRecord> records) {
  MutexLock lock(mu_);
  return replay_locked(std::move(records));
}

void ManifestStore::drop_dead_chunks_locked() {
  // An id is only reused once its delete committed, so a kChunk is dead
  // exactly when a kDeleteCommit of its id comes later in the log. Walk
  // newest first, collecting those ids.
  std::set<std::pair<std::string_view, std::string_view>> committed;
  std::vector<bool> dead(log_.size(), false);
  for (std::size_t i = log_.size(); i-- > 0;) {
    const ManifestRecord& r = log_[i];
    const std::pair<std::string_view, std::string_view> key{r.tenant, r.image};
    if (r.op == ManifestOp::kDeleteCommit) {
      committed.insert(key);
    } else if (r.op == ManifestOp::kChunk) {
      dead[i] = committed.contains(key);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    if (dead[i]) continue;
    if (kept != i) log_[kept] = std::move(log_[i]);
    ++kept;
  }
  log_.erase(log_.begin() + static_cast<std::ptrdiff_t>(kept), log_.end());
  chunk_records_ -= dead_chunk_records_;
  dead_chunk_records_ = 0;
}

ManifestStore::CompactionStats ManifestStore::compact() {
  MutexLock lock(mu_);
  CompactionStats cs;
  cs.records_before = log_.size();
  drop_dead_chunks_locked();
  std::vector<ManifestRecord> kept;
  kept.reserve(log_.size());
  for (ManifestRecord& r : log_) {
    const auto it = images_.find(Key{r.tenant, r.image});
    if (it != images_.end() && it->second.state == ImageState::kDeleted) {
      continue;
    }
    kept.push_back(std::move(r));
  }
  log_ = std::move(kept);
  for (auto it = images_.begin(); it != images_.end();) {
    if (it->second.state == ImageState::kDeleted) {
      ++cs.images_purged;
      it = images_.erase(it);
    } else {
      ++it;
    }
  }
  cs.records_after = log_.size();
  cs.dropped_records = cs.records_before - cs.records_after;
  return cs;
}

}  // namespace shredder::retention
