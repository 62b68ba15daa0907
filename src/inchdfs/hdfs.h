// Miniature in-process HDFS (paper §6.2 substrate).
//
// A NameNode maps file names to ordered lists of block references; DataNodes
// hold block payloads in memory. Replication is 1 (the paper's experiments
// are about recomputation, not fault tolerance). Stock HDFS places fixed-
// size blocks; Inc-HDFS (inc_hdfs.h) places content-defined, record-aligned
// blocks whose identity is the content digest (dedup::ChunkDigest, the
// SHA-256 the dedup stack keys chunks by) — that digest is what makes
// incremental MapReduce possible.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "dedup/digest.h"

namespace shredder::inchdfs {

struct BlockRef {
  std::uint64_t block_id = 0;
  std::uint32_t datanode = 0;
  std::uint64_t size = 0;
  dedup::ChunkDigest digest;  // content identity (Inc-HDFS)
};

class DataNode {
 public:
  explicit DataNode(std::uint32_t id) : id_(id) {}

  std::uint32_t id() const noexcept { return id_; }

  void put(std::uint64_t block_id, ByteSpan data);
  std::optional<ByteVec> get(std::uint64_t block_id) const;
  std::uint64_t bytes_stored() const;
  std::uint64_t blocks_stored() const;

 private:
  std::uint32_t id_;
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, ByteVec> blocks_ GUARDED_BY(mutex_);
  std::uint64_t bytes_ GUARDED_BY(mutex_) = 0;
};

class NameNode {
 public:
  // Registers a file with its block list. Throws if the file exists.
  void create_file(const std::string& name, std::vector<BlockRef> blocks);

  bool exists(const std::string& name) const;
  // Block list of a file; throws std::out_of_range if missing.
  std::vector<BlockRef> lookup(const std::string& name) const;
  void remove(const std::string& name);

  std::uint64_t next_block_id();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::vector<BlockRef>> files_ GUARDED_BY(mutex_);
  std::uint64_t next_block_id_ GUARDED_BY(mutex_) = 1;
};

// The assembled cluster: one NameNode, `nodes` DataNodes, round-robin block
// placement.
class MiniHdfs {
 public:
  explicit MiniHdfs(std::uint32_t nodes = 20);

  NameNode& namenode() noexcept { return namenode_; }
  DataNode& datanode(std::uint32_t id);

  // Writes pre-chunked blocks as a file, placing them round-robin.
  void write_file(const std::string& name,
                  const std::vector<ByteSpan>& blocks);

  // Reads a whole file back (concatenated blocks).
  ByteVec read_file(const std::string& name) const;

  // Per-block payloads, in order.
  std::vector<ByteVec> read_blocks(const std::string& name) const;

  std::uint64_t total_bytes_stored() const;

 private:
  NameNode namenode_;
  // deque: DataNode holds a mutex and is immovable; deque never relocates.
  std::deque<DataNode> datanodes_;
  std::uint32_t next_node_ = 0;
};

}  // namespace shredder::inchdfs
