// Canonical chunk-fingerprint type of the dedup/backup stack.
//
// The index, the content-addressed store, the backup agent and the GPU
// fingerprint stage all identify chunks by SHA-256 (the digest the on-device
// hash kernel produces; see docs/fingerprint.md), and so do the case
// studies: Inc-HDFS blocks, splits and memo keys (inchdfs) and the WAN
// middlebox's cache keys and tokens (redelim). It is the repo's one hash.
#pragma once

#include "dedup/sha256.h"

namespace shredder::dedup {

using ChunkDigest = Sha256Digest;
using ChunkDigestHash = Sha256DigestHash;
using ChunkHasher = Sha256;

}  // namespace shredder::dedup
