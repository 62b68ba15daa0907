// Tests for the dedup substrate: SHA-256, the repo's one content hash,
// against the FIPS 180-4 vectors through both compression paths, chunk
// index and content-addressed store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dedup/digest.h"
#include "dedup/index.h"
#include "dedup/sha256.h"
#include "dedup/sha256_compress.h"
#include "dedup/store.h"

namespace shredder::dedup {
namespace {

ByteSpan str_bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

// --- SHA-256: FIPS 180-4 vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash(str_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash(str_bytes(
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha256::hash(as_bytes(a)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto data = random_bytes(50000, 3);
  Sha256 h;
  std::size_t pos = 0;
  SplitMix64 rng(4);
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(177), data.size() - pos);
    h.update(ByteSpan(data).subspan(pos, n));
    pos += n;
  }
  EXPECT_EQ(h.finish(), Sha256::hash(as_bytes(data)));
}

TEST(Sha256, FinishResets) {
  Sha256 h;
  h.update(str_bytes("abc"));
  h.finish();
  h.update(str_bytes("abc"));
  EXPECT_EQ(h.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// prefix64() keys ChunkDigestHash and the contraction-tree group cuts
// (inchdfs), so it must read the digest's first 8 bytes big-endian.
TEST(Sha256, Prefix64MatchesHexPrefix) {
  EXPECT_EQ(Sha256::hash(str_bytes("abc")).prefix64(), 0xba7816bf8f01cfeaull);
}

TEST(RootDigest, IsSha256OverConcatenatedDigests) {
  // The root the backup server and agent compare: SHA-256 of the ordered
  // digests laid end to end, 32 bytes each.
  const std::vector<ChunkDigest> digests = {Sha256::hash(str_bytes("a")),
                                            Sha256::hash(str_bytes("b")),
                                            Sha256::hash(str_bytes("a"))};
  ByteVec concatenated;
  for (const auto& d : digests) {
    concatenated.insert(concatenated.end(), d.bytes.begin(), d.bytes.end());
  }
  EXPECT_EQ(root_digest(digests), Sha256::hash(as_bytes(concatenated)));
  EXPECT_EQ(root_digest({}), Sha256::hash({}));
}

// --- SHA-256 compression paths (dedup/sha256_compress.h) ---
//
// Sha256 runs whichever compression function CPUID picked; these run the
// portable loop and the SHA-NI kernel side by side through a test-local
// padder, so both paths are checked on every machine that has both.

// Full SHA-256 of `msg` through one compression function. The padded
// message sits `offset` bytes into its buffer so the kernel reads unaligned
// blocks.
Sha256Digest digest_with(sha256_compress::CompressFn fn, ByteSpan msg,
                         std::size_t offset) {
  const std::size_t padded = (msg.size() + 9 + 63) / 64 * 64;
  std::vector<std::uint8_t> buf(offset + padded, 0);
  std::uint8_t* block = buf.data() + offset;
  if (!msg.empty()) std::memcpy(block, msg.data(), msg.size());
  block[msg.size()] = 0x80;
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[padded - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                            0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                            0x1f83d9abu, 0x5be0cd19u};
  fn(state, block, padded / 64);
  Sha256Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    d.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return d;
}

struct NistVector {
  std::string message;
  const char* hex;
};

std::vector<NistVector> nist_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256Compress, PortableMatchesNistVectors) {
  for (const auto& v : nist_vectors()) {
    EXPECT_EQ(digest_with(sha256_compress::portable, as_bytes(v.message), 0)
                  .hex(),
              v.hex)
        << v.message.size() << "-byte message";
  }
}

TEST(Sha256Compress, HardwareMatchesNistVectors) {
  if (!sha256_compress::hardware_available()) {
    GTEST_SKIP() << "CPUID reports no SHA/SSSE3/SSE4.1; SHA-NI path not run";
  }
  for (const auto& v : nist_vectors()) {
    EXPECT_EQ(digest_with(sha256_compress::hardware, as_bytes(v.message), 0)
                  .hex(),
              v.hex)
        << v.message.size() << "-byte message";
  }
}

// Every length 0..1100 (all the 55/56/63/64/119/120 padding edges and
// multi-block runs), each at a different misalignment: the hardware kernel
// equals the portable oracle block for block.
TEST(Sha256Compress, HardwareMatchesPortableAtEveryLength) {
  if (!sha256_compress::hardware_available()) {
    GTEST_SKIP() << "CPUID reports no SHA/SSSE3/SSE4.1; SHA-NI path not run";
  }
  const auto data = random_bytes(1100, 11);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteSpan msg = ByteSpan(data).first(len);
    const std::size_t offset = 1 + len % 15;
    ASSERT_EQ(digest_with(sha256_compress::hardware, msg, offset),
              digest_with(sha256_compress::portable, msg, 0))
        << "length " << len << " offset " << offset;
  }
}

// The public hasher (dispatched compression, buffered update, one-step
// padding in finish) against the portable oracle: every length 0..1100,
// input at offsets 1..15, fed through random update() split points.
TEST(Sha256Compress, HasherMatchesPortableUnderRandomSplits) {
  std::vector<std::uint8_t> storage(16 + 1100);
  SplitMix64 fill(12);
  for (auto& b : storage) b = static_cast<std::uint8_t>(fill.next());
  SplitMix64 rng(13);
  Sha256 h;
  for (std::size_t len = 0; len <= 1100; ++len) {
    const std::size_t offset = 1 + len % 15;
    const ByteSpan msg = ByteSpan(storage).subspan(offset, len);
    std::size_t pos = 0;
    while (pos < len) {
      const std::size_t n =
          std::min<std::size_t>(rng.next_below(150), len - pos);
      h.update(msg.subspan(pos, n));
      pos += n;
    }
    const Sha256Digest expect = digest_with(sha256_compress::portable, msg, 0);
    ASSERT_EQ(h.finish(), expect) << "length " << len << " offset " << offset;
    ASSERT_EQ(Sha256::hash(msg), expect) << "length " << len;
  }
}

// --- ChunkIndex ---

TEST(ChunkIndex, LookupOrInsertSemantics) {
  ChunkIndex index;
  const auto d = ChunkHasher::hash(str_bytes("chunk-1"));
  EXPECT_FALSE(index.lookup_or_insert(d, {0, 100}).has_value());
  const auto existing = index.lookup_or_insert(d, {999, 1});
  ASSERT_TRUE(existing.has_value());
  EXPECT_EQ(existing->store_offset, 0u);
  EXPECT_EQ(existing->size, 100u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(ChunkIndex, LookupMiss) {
  ChunkIndex index;
  EXPECT_FALSE(index.lookup(ChunkHasher::hash(str_bytes("nope"))).has_value());
}

TEST(ChunkIndex, ProbeAccountingAndVirtualCost) {
  ChunkIndex index(1e-6);
  const auto d = ChunkHasher::hash(str_bytes("x"));
  index.lookup_or_insert(d, {0, 1});
  index.lookup(d);
  index.lookup(d);
  EXPECT_EQ(index.probes(), 3u);
  EXPECT_NEAR(index.virtual_seconds(), 3e-6, 1e-12);
}

TEST(ChunkIndex, RejectsNegativeProbeCost) {
  EXPECT_THROW(ChunkIndex(-1.0), std::invalid_argument);
}

TEST(ChunkIndex, ConcurrentInsertsExactlyOneWinner) {
  ChunkIndex index;
  const auto d = ChunkHasher::hash(str_bytes("contested"));
  std::atomic<int> inserted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        if (!index
                 .lookup_or_insert(d, {static_cast<std::uint64_t>(t), 1})
                 .has_value()) {
          inserted++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(inserted.load(), 1);
  EXPECT_EQ(index.size(), 1u);
}

// --- ChunkStore ---

// The lifecycle cases run over payload entries and again over reference-only
// entries of the same sizes, with the same expected numbers: accounting and
// lifecycle read an entry's size, never its bytes.
enum class EntryKind { kPayload, kReferenceOnly };

class ChunkStoreLifecycle : public ::testing::TestWithParam<EntryKind> {
 protected:
  // Puts `data` with its bytes, or by digest and size only.
  PutOutcome put(ChunkStore& store, const ChunkDigest& digest,
                 const ByteVec& data) const {
    return GetParam() == EntryKind::kPayload
               ? store.put(digest, as_bytes(data))
               : store.put(digest, std::uint64_t{data.size()});
  }
};

INSTANTIATE_TEST_SUITE_P(
    EntryKinds, ChunkStoreLifecycle,
    ::testing::Values(EntryKind::kPayload, EntryKind::kReferenceOnly),
    [](const ::testing::TestParamInfo<EntryKind>& info) {
      return info.param == EntryKind::kPayload ? "Payload" : "ReferenceOnly";
    });

TEST_P(ChunkStoreLifecycle, ReleaseRefReclaimsOnLastReference) {
  ChunkStore store;
  const auto a = random_bytes(64, 7);
  const auto b = random_bytes(32, 8);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  put(store, da, a);
  put(store, db, b);
  store.add_ref(da);  // a: 2 refs, b: 1 ref
  std::uint64_t remaining = 99;
  EXPECT_EQ(store.release_ref(da, &remaining), ReleaseOutcome::kLive);
  EXPECT_EQ(remaining, 1u);
  EXPECT_TRUE(store.contains(da));
  EXPECT_EQ(store.release_ref(da, &remaining), ReleaseOutcome::kReclaimed);
  EXPECT_EQ(remaining, 0u);
  EXPECT_FALSE(store.contains(da));  // reclaimed with the last reference
  EXPECT_EQ(store.unique_chunks(), 1u);
  EXPECT_EQ(store.unique_bytes(), b.size());
  EXPECT_EQ(store.total_refs(), 1u);
}

TEST(ChunkStore, ReleaseRefUnknownDigestIsTypedAndInert) {
  ChunkStore store;
  const auto a = random_bytes(64, 7);
  const auto da = ChunkHasher::hash(as_bytes(a));
  std::uint64_t remaining = 99;
  // Unknown digest: typed outcome, `remaining` untouched, store unchanged.
  EXPECT_EQ(store.release_ref(da, &remaining),
            ReleaseOutcome::kUnknownDigest);
  EXPECT_EQ(remaining, 99u);
  EXPECT_EQ(store.total_refs(), 0u);
  store.put(da, as_bytes(a));
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kReclaimed);
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kUnknownDigest);
}

TEST_P(ChunkStoreLifecycle, DeferredReclaimParksAndResurrects) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 21);
  const auto da = ChunkHasher::hash(as_bytes(a));
  put(store, da, a);
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kDeferred);
  // Parked, not freed: still resident, counted as zero-ref.
  EXPECT_TRUE(store.contains(da));
  EXPECT_EQ(store.zero_ref_chunks(), 1u);
  EXPECT_EQ(store.zero_ref_bytes(), a.size());
  EXPECT_EQ(store.ref_count(da), 0u);
  // Double release on a parked chunk is a typed error, not an underflow.
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kNoRefs);
  // add_ref resurrects.
  EXPECT_TRUE(store.add_ref(da));
  EXPECT_EQ(store.ref_count(da), 1u);
  EXPECT_EQ(store.zero_ref_chunks(), 0u);
  // Park again, then resurrect via put, which names the revival.
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kDeferred);
  EXPECT_EQ(put(store, da, a), PutOutcome::kRevived);
  EXPECT_EQ(store.ref_count(da), 1u);
  EXPECT_EQ(store.zero_ref_bytes(), 0u);
  // A put onto the live entry is a plain added reference.
  EXPECT_EQ(put(store, da, a), PutOutcome::kRefAdded);
  EXPECT_EQ(store.ref_count(da), 2u);
}

TEST_P(ChunkStoreLifecycle, SweepFreesOnlyUnkeptZeroRefChunks) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 22);
  const auto b = random_bytes(32, 23);
  const auto c = random_bytes(16, 24);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  const auto dc = ChunkHasher::hash(as_bytes(c));
  put(store, da, a);
  put(store, db, b);
  put(store, dc, c);
  store.release_ref(da);
  store.release_ref(db);  // a and b parked; c live
  const auto stats =
      store.sweep_zero_refs([&](const ChunkDigest& d) { return d == db; });
  EXPECT_EQ(stats.scanned, 3u);
  EXPECT_EQ(stats.freed_chunks, 1u);
  EXPECT_EQ(stats.freed_bytes, a.size());
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_FALSE(store.contains(da));
  EXPECT_TRUE(store.contains(db));  // vetoed by keep (still pinned)
  EXPECT_TRUE(store.contains(dc));  // live, never a candidate
  EXPECT_EQ(store.zero_ref_chunks(), 1u);
}

TEST_P(ChunkStoreLifecycle, OccupancyObserverSeesEveryMutation) {
  ChunkStore store(/*deferred_reclaim=*/true);
  StoreOccupancy last;
  int calls = 0;
  store.set_observer([&](const StoreOccupancy& o) {
    last = o;
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // installation publishes the current state
  const auto a = random_bytes(64, 25);
  const auto da = ChunkHasher::hash(as_bytes(a));
  put(store, da, a);
  EXPECT_EQ(last.chunks, 1u);
  EXPECT_EQ(last.bytes, a.size());
  EXPECT_EQ(last.refs, 1u);
  store.add_ref(da);
  EXPECT_EQ(last.refs, 2u);
  store.release_ref(da);
  store.release_ref(da);
  EXPECT_EQ(last.refs, 0u);
  EXPECT_EQ(last.zero_ref_chunks, 1u);
  store.sweep_zero_refs();
  EXPECT_EQ(last.chunks, 0u);
  EXPECT_EQ(last.bytes, 0u);
  EXPECT_GE(calls, 6);
}

TEST_P(ChunkStoreLifecycle, RebuildRefsRecomputesFromAuthority) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 26);
  const auto b = random_bytes(32, 27);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  put(store, da, a);
  put(store, db, b);
  store.add_ref(da);  // a: 2, b: 1 — pretend these drifted from the truth
  std::unordered_map<ChunkDigest, std::uint64_t, ChunkDigestHash> counts;
  counts[da] = 5;  // manifests say 5 occurrences
  const auto zeroed = store.rebuild_refs(counts);  // b unreferenced
  EXPECT_EQ(store.ref_count(da), 5u);
  EXPECT_EQ(store.ref_count(db), 0u);  // parked, not freed
  EXPECT_EQ(store.total_refs(), 5u);
  ASSERT_EQ(zeroed.size(), 1u);
  EXPECT_EQ(zeroed[0], db);
  // Immediate-reclaim mode frees instead of parking.
  ChunkStore eager;
  put(eager, da, a);
  put(eager, db, b);
  const auto zeroed2 = eager.rebuild_refs(counts);
  EXPECT_TRUE(zeroed2.empty());
  EXPECT_FALSE(eager.contains(db));
  EXPECT_EQ(eager.unique_bytes(), a.size());
}

TEST(ChunkStore, ReferenceOnlyEntryReadsNoBytes) {
  ChunkStore store;
  const auto a = random_bytes(64, 28);
  const auto da = ChunkHasher::hash(as_bytes(a));
  EXPECT_EQ(store.put(da, std::uint64_t{a.size()}), PutOutcome::kInserted);
  EXPECT_TRUE(store.contains(da));
  EXPECT_EQ(store.ref_count(da), 1u);
  EXPECT_EQ(store.chunk_bytes(da), a.size());
  EXPECT_FALSE(store.get(da).has_value());
  ByteVec out = {1, 2, 3};
  EXPECT_FALSE(store.append_to(da, out));
  EXPECT_EQ(out, (ByteVec{1, 2, 3}));
  // A payload put onto a reference-only digest only adds its reference.
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kRefAdded);
  EXPECT_EQ(store.ref_count(da), 2u);
  EXPECT_FALSE(store.get(da).has_value());
  EXPECT_EQ(store.unique_bytes(), a.size());
}

TEST(ChunkStore, PutReportsInsertedVsRefAdded) {
  ChunkStore store;
  const auto a = random_bytes(64, 10);
  const auto da = ChunkHasher::hash(as_bytes(a));
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kInserted);
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kRefAdded);
  EXPECT_EQ(store.total_refs(), 2u);
  EXPECT_EQ(store.unique_chunks(), 1u);
}

TEST(ChunkStore, PutGetRoundTrip) {
  ChunkStore store;
  const auto data = random_bytes(1000, 5);
  const auto d = ChunkHasher::hash(as_bytes(data));
  EXPECT_EQ(store.put(d, as_bytes(data)), PutOutcome::kInserted);
  EXPECT_EQ(store.put(d, as_bytes(data)), PutOutcome::kRefAdded);  // duplicate
  EXPECT_EQ(store.get(d).value(), data);
  EXPECT_EQ(store.unique_chunks(), 1u);
  EXPECT_EQ(store.unique_bytes(), 1000u);
  EXPECT_EQ(store.total_refs(), 2u);
}

TEST(ChunkStore, GetMissing) {
  ChunkStore store;
  EXPECT_FALSE(store.get(ChunkHasher::hash(str_bytes("missing"))).has_value());
  EXPECT_FALSE(store.add_ref(ChunkHasher::hash(str_bytes("missing"))));
}

TEST(ChunkStore, AddRefCounts) {
  ChunkStore store;
  const auto data = random_bytes(10, 6);
  const auto d = ChunkHasher::hash(as_bytes(data));
  store.put(d, as_bytes(data));
  EXPECT_TRUE(store.add_ref(d));
  EXPECT_EQ(store.total_refs(), 2u);
}

TEST(ChunkStore, AppendToAppendsStoredBytesAfterExistingContent) {
  ChunkStore store;
  const auto data = random_bytes(700, 11);
  const auto d = ChunkHasher::hash(as_bytes(data));
  store.put(d, as_bytes(data));
  ByteVec out = random_bytes(33, 12);
  ByteVec expect = out;
  expect.insert(expect.end(), data.begin(), data.end());
  EXPECT_TRUE(store.append_to(d, out));
  EXPECT_EQ(out, expect);
  EXPECT_EQ(store.chunk_bytes(d), data.size());
  // A second read appends again; the store is unchanged by reading.
  EXPECT_TRUE(store.append_to(d, out));
  EXPECT_EQ(out.size(), 33 + 2 * data.size());
  EXPECT_EQ(store.total_refs(), 1u);
}

TEST(ChunkStore, AppendToUnknownDigestLeavesBufferUntouched) {
  ChunkStore store;
  const auto missing = ChunkHasher::hash(str_bytes("missing"));
  ByteVec out = random_bytes(40, 13);
  const ByteVec before = out;
  EXPECT_FALSE(store.append_to(missing, out));
  EXPECT_EQ(out, before);
  EXPECT_FALSE(store.chunk_bytes(missing).has_value());
}

TEST(ChunkStore, AppendToReadsParkedChunkLikeGet) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto data = random_bytes(300, 14);
  const auto d = ChunkHasher::hash(as_bytes(data));
  store.put(d, as_bytes(data));
  ASSERT_EQ(store.release_ref(d), ReleaseOutcome::kDeferred);
  ASSERT_EQ(store.ref_count(d), 0u);
  ByteVec out;
  EXPECT_TRUE(store.append_to(d, out));
  EXPECT_EQ(out, store.get(d).value());
  EXPECT_EQ(store.chunk_bytes(d), data.size());
  // Once swept, both reads miss.
  store.sweep_zero_refs();
  EXPECT_FALSE(store.append_to(d, out));
  EXPECT_FALSE(store.get(d).has_value());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace shredder::dedup
