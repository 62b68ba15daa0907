// Data sources for the Shredder Reader thread (paper §3.1, §5.2.1).
//
// The paper's Reader consumes a SAN stream at ~2 GB/s via asynchronous I/O.
// Here a DataSource hands out sequential buffers and reports the *modelled*
// read time per buffer. Shredder::run's Reader thread reads one buffer at a
// time and submits it into the pinned ring, so the ring's free slots are
// the read-ahead depth: the lio_listio-style overlap of §5.2.1.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace shredder::core {

// Sequential byte source. Implementations are single-consumer.
class DataSource {
 public:
  virtual ~DataSource() = default;

  // Reads up to dst.size() bytes into dst; returns bytes read (0 = EOF).
  virtual std::size_t read(MutableByteSpan dst) = 0;

  // Modelled seconds to deliver `bytes` from this source's backing channel.
  virtual double read_seconds(std::uint64_t bytes) const = 0;
};

// Serves a caller-owned in-memory buffer at a modelled channel bandwidth
// (default: the paper's 2 GB/s SAN reader).
class MemorySource final : public DataSource {
 public:
  MemorySource(ByteSpan data, double channel_bw);

  std::size_t read(MutableByteSpan dst) override;
  double read_seconds(std::uint64_t bytes) const override;

 private:
  ByteSpan data_;
  std::size_t offset_ = 0;
  double channel_bw_;
};

// Deterministic synthetic stream (seeded) without materialising the whole
// payload: useful for multi-GB runs.
class SyntheticSource final : public DataSource {
 public:
  SyntheticSource(std::uint64_t total, std::uint64_t seed, double channel_bw);

  std::size_t read(MutableByteSpan dst) override;
  double read_seconds(std::uint64_t bytes) const override;

 private:
  std::uint64_t total_;
  std::uint64_t produced_ = 0;
  std::uint64_t seed_;
  double channel_bw_;
};

}  // namespace shredder::core
