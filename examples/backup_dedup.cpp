// Cloud-backup deduplication scenario (paper case study II).
//
// Simulates a small VM fleet: a master image, per-VM snapshots with varying
// similarity, a Shredder-accelerated backup server deduplicating against a
// shared index, and a backup-site agent that stores unique chunks and can
// recreate every image bit-exactly.
//
//   ./backup_dedup [num_vms]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "backup/backup_server.h"
#include "common/bytes.h"

int main(int argc, char** argv) {
  using namespace shredder;
  using namespace shredder::backup;
  const unsigned num_vms =
      argc > 1 ? static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10)) : 5;

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 32ull << 20;
  repo_cfg.segment_bytes = 1ull << 20;
  ImageRepository repo(repo_cfg);

  BackupServerConfig server_cfg;  // Shredder GPU backend by default
  server_cfg.shredder.buffer_bytes = 8ull << 20;
  // Hash chunks on the device too: the pipeline hands chunk+digest pairs to
  // the dedup stage and the host hash stage drops off the critical path.
  server_cfg.fingerprint_on_device = true;
  // The backup stream ships as extent-coalesced batches — one wire message
  // per drained buffer, duplicate-pointer runs collapsed to {first, count}
  // extents (docs/backup_wire.md) — instead of one message per chunk.
  BackupServer server(server_cfg);
  BackupAgent agent;

  std::printf("backing up %u VMs cloned from one %s master image...\n\n",
              num_vms, human_bytes(repo_cfg.image_bytes).c_str());
  std::uint64_t logical = 0;
  for (unsigned vm = 0; vm < num_vms; ++vm) {
    // Each VM diverges a little more from the master.
    const double divergence = 0.04 * static_cast<double>(vm);
    const auto image = repo.snapshot(divergence, vm + 1);
    const auto stats = server.backup_image("vm-" + std::to_string(vm),
                                           as_bytes(image), repo, agent);
    logical += stats.bytes;
    std::printf("vm-%u: %6.2f Gbps backup bandwidth | %5.1f%% duplicate "
                "chunks | %llu chunks in %llu wire messages (%llu extents, "
                "%s) | verified: %s\n",
                vm, stats.backup_bandwidth_gbps,
                100.0 * static_cast<double>(stats.duplicate_chunks) /
                    static_cast<double>(stats.chunks),
                static_cast<unsigned long long>(stats.chunks),
                static_cast<unsigned long long>(stats.transport.link.messages),
                static_cast<unsigned long long>(stats.transport.link.extents),
                human_bytes(stats.wire_bytes).c_str(),
                stats.verified ? "yes" : "NO");
  }

  std::printf("\nfleet logical data: %s; stored at backup site: %s "
              "(dedup factor %.1fx, %llu unique chunks)\n",
              human_bytes(logical).c_str(),
              human_bytes(agent.unique_bytes()).c_str(),
              static_cast<double>(logical) /
                  static_cast<double>(agent.unique_bytes()),
              static_cast<unsigned long long>(agent.unique_chunks()));
  return 0;
}
