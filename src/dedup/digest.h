// Canonical chunk-fingerprint type of the dedup/backup stack.
//
// The index, the content-addressed store, the backup agent and the GPU
// fingerprint stage all identify chunks by SHA-256 (the digest the on-device
// hash kernel produces; see docs/fingerprint.md), and so do the case
// studies: Inc-HDFS blocks, splits and memo keys (inchdfs) and the WAN
// middlebox's cache keys and tokens (redelim). It is the repo's one hash.
#pragma once

#include <span>

#include "dedup/sha256.h"

namespace shredder::dedup {

using ChunkDigest = Sha256Digest;
using ChunkDigestHash = Sha256DigestHash;
using ChunkHasher = Sha256;

// Root digest of an image: SHA-256 over its ordered chunk digests,
// concatenated 32 bytes each. The backup server takes it over the manifest
// it records and the agent over the recipe it seals; equal roots mean the
// same chunks in the same order.
inline ChunkDigest root_digest(std::span<const ChunkDigest> digests) noexcept {
  ChunkHasher hasher;
  for (const ChunkDigest& d : digests) hasher.update(d.bytes);
  return hasher.finish();
}

}  // namespace shredder::dedup
