// Chunking-scheme explorer: why Shredder keeps Rabin-based content-defined
// chunking and accelerates it rather than weakening it (paper §1-§2).
//
// Compares fixed-size, SampleByte and Rabin CDC on the same evolving
// payload: each version is a local edit (insertions included) of the last,
// and we measure how many bytes each scheme's chunker rediscovers in its
// fingerprint index.
//
//   ./chunking_explorer [megabytes] [versions]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "chunking/cdc.h"
#include "chunking/fixed.h"
#include "chunking/samplebyte.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "dedup/digest.h"
#include "dedup/index.h"

int main(int argc, char** argv) {
  using namespace shredder;
  const std::uint64_t megabytes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
  const int versions = argc > 2 ? std::atoi(argv[2]) : 4;

  chunking::ChunkerConfig cdc_cfg;
  cdc_cfg.window = 48;
  cdc_cfg.mask_bits = 13;
  const rabin::RabinTables tables(cdc_cfg.window);
  const chunking::SampleByteChunker samplebyte(8192, 16, 5);

  // One index per scheme. Each chunk is hashed and matched against it
  // (paper §2.1); the share of the version's bytes it already held is that
  // scheme's duplicate share.
  dedup::ChunkIndex index_fixed, index_sample, index_cdc;
  const auto duplicate_share = [](dedup::ChunkIndex& index, ByteSpan data,
                                  const std::vector<chunking::Chunk>& chunks) {
    std::uint64_t duplicate_bytes = 0;
    for (const auto& c : chunks) {
      const auto digest = dedup::ChunkHasher::hash(
          data.subspan(static_cast<std::size_t>(c.offset),
                       static_cast<std::size_t>(c.size)));
      if (index.lookup_or_insert(digest, {0, c.size})) {
        duplicate_bytes += c.size;
      }
    }
    return data.empty() ? 0.0
                        : static_cast<double>(duplicate_bytes) /
                              static_cast<double>(data.size());
  };

  // Version 0 plus a chain of edited versions; each edit inserts a little
  // new content (shifting everything after it) and rewrites a little more.
  ByteVec current = random_bytes(megabytes << 20, 11);
  SplitMix64 rng(13);
  std::printf("%-9s %-16s %-16s %-16s\n", "version", "fixed-8K",
              "samplebyte-8K", "rabin-cdc-8K");
  for (int v = 0; v <= versions; ++v) {
    const ByteSpan data = as_bytes(current);
    const double fixed =
        duplicate_share(index_fixed, data, chunking::chunk_fixed(data, 8192));
    const double sample =
        duplicate_share(index_sample, data, samplebyte.chunk(data));
    const double cdc = duplicate_share(
        index_cdc, data, chunking::chunk_serial(tables, cdc_cfg, data));
    std::printf("v%-8d %5.1f%% dup      %5.1f%% dup      %5.1f%% dup\n", v,
                100 * fixed, 100 * sample, 100 * cdc);

    // Next version: one insertion + two localized rewrites.
    const auto insert_at = rng.next_below(current.size());
    const auto inserted = random_bytes(1024 + rng.next_below(4096), rng.next());
    current.insert(current.begin() + static_cast<std::ptrdiff_t>(insert_at),
                   inserted.begin(), inserted.end());
    current = mutate_bytes(as_bytes(current), 0.01, rng.next(), 64 * 1024);
  }
  std::printf("\n(every version after v0 is ~99%% identical to its "
              "predecessor, but contains one insertion; fixed-size chunking "
              "loses alignment past it, content-defined chunking does not)\n");
  return 0;
}
