// Tests for the Inc-HDFS / incremental MapReduce case study: mini-HDFS,
// input formats, the Inc-HDFS client, the MapReduce engine, memoization,
// the three paper workloads, and the incremental experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/shredder.h"
#include "inchdfs/experiment.h"
#include "inchdfs/hdfs.h"
#include "inchdfs/inc_hdfs.h"
#include "inchdfs/input_format.h"
#include "inchdfs/jobs.h"
#include "inchdfs/mapreduce.h"
#include "inchdfs/textgen.h"

namespace shredder::inchdfs {
namespace {

// --- MiniHdfs ---

TEST(MiniHdfs, WriteReadRoundTrip) {
  MiniHdfs fs(5);
  const auto data = random_bytes(10000, 1);
  std::vector<ByteSpan> blocks;
  for (std::size_t off = 0; off < data.size(); off += 3000) {
    blocks.push_back(
        ByteSpan(data).subspan(off, std::min<std::size_t>(3000, data.size() - off)));
  }
  fs.write_file("f", blocks);
  EXPECT_EQ(fs.read_file("f"), data);
  EXPECT_EQ(fs.total_bytes_stored(), data.size());
}

TEST(MiniHdfs, RoundRobinPlacement) {
  MiniHdfs fs(4);
  const auto data = random_bytes(8000, 2);
  std::vector<ByteSpan> blocks;
  for (std::size_t off = 0; off < data.size(); off += 1000) {
    blocks.push_back(ByteSpan(data).subspan(off, 1000));
  }
  fs.write_file("f", blocks);
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(fs.datanode(n).blocks_stored(), 2u);
  }
}

TEST(MiniHdfs, BlockDigestsAreContentDigests) {
  MiniHdfs fs(2);
  const auto data = random_bytes(500, 3);
  fs.write_file("f", {as_bytes(data)});
  const auto refs = fs.namenode().lookup("f");
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].digest, dedup::ChunkHasher::hash(as_bytes(data)));
}

TEST(MiniHdfs, DuplicateFileRejected) {
  MiniHdfs fs(2);
  const auto data = random_bytes(10, 4);
  fs.write_file("f", {as_bytes(data)});
  EXPECT_THROW(fs.write_file("f", {as_bytes(data)}), std::invalid_argument);
}

TEST(MiniHdfs, MissingFileThrows) {
  MiniHdfs fs(2);
  EXPECT_THROW(fs.read_file("nope"), std::out_of_range);
}

TEST(NameNode, RemoveAndRecreate) {
  MiniHdfs fs(2);
  const auto data = random_bytes(10, 5);
  fs.write_file("f", {as_bytes(data)});
  fs.namenode().remove("f");
  EXPECT_FALSE(fs.namenode().exists("f"));
  fs.write_file("f", {as_bytes(data)});
  EXPECT_TRUE(fs.namenode().exists("f"));
}

// --- Input formats ---

TEST(TextInputFormat, AlignsToNextNewline) {
  const std::string text = "aaa\nbbbb\ncc\n";
  TextInputFormat fmt;
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 0), 0u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 1), 4u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 4), 4u);   // already aligned
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 5), 9u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 11), 12u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(text), 100), 12u);  // clamped
}

TEST(TextInputFormat, RecordsSplitOnNewlines) {
  const std::string text = "one\ntwo\nthree";
  TextInputFormat fmt;
  const auto records = fmt.records(as_bytes(text));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].size(), 4u);
  EXPECT_EQ(records[2].size(), 5u);  // no trailing newline
}

TEST(FixedRecordInputFormat, AlignsToMultiples) {
  FixedRecordInputFormat fmt(8);
  ByteVec data(64);
  EXPECT_EQ(fmt.align_boundary(as_bytes(data), 1), 8u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(data), 8), 8u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(data), 9), 16u);
  EXPECT_EQ(fmt.align_boundary(as_bytes(data), 63), 64u);
}

TEST(FixedRecordInputFormat, RejectsZeroRecord) {
  EXPECT_THROW(FixedRecordInputFormat(0), std::invalid_argument);
}

TEST(AlignBoundaries, DropsCollapsedDuplicatesAndCloses) {
  const std::string text = "ab\ncd\nef\n";
  TextInputFormat fmt;
  // Proposed boundaries 1 and 2 both align to 3; the result keeps one.
  const auto out = align_boundaries(fmt, as_bytes(text), {1, 2, 7});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3, 9}));
}

// --- Inc-HDFS client ---

class IncHdfsUpload : public ::testing::Test {
 protected:
  core::ShredderConfig shredder_config() {
    core::ShredderConfig sc;
    sc.chunker.window = 16;
    sc.chunker.mask_bits = 10;  // ~1 KB splits for test density
    sc.chunker.marker = 0x42;
    sc.buffer_bytes = 64 * 1024;
    sc.sim_threads = 4;
    return sc;
  }
};

TEST_F(IncHdfsUpload, GpuUploadPreservesContentAndAlignment) {
  MiniHdfs fs(4);
  IncHdfsClient client(fs);
  core::Shredder shredder(shredder_config());
  TextInputFormat fmt;
  const std::string text = make_text_corpus(200000, 6);
  const auto stats =
      client.copy_from_local_gpu("f", as_bytes(text), fmt, shredder);
  EXPECT_GT(stats.blocks, 10u);
  // Reassembles exactly.
  const auto back = fs.read_file("f");
  EXPECT_TRUE(std::equal(back.begin(), back.end(), text.begin(), text.end()));
  // Every block except the last ends on a record boundary.
  const auto blocks = fs.read_blocks("f");
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].back(), '\n') << "block " << i;
  }
}

TEST_F(IncHdfsUpload, StableSplitsUnderLocalEdit) {
  // The Inc-HDFS property (§6.2): most splits of a slightly-edited file have
  // digests already present in the original upload — even when the edit is
  // an INSERTION that shifts every later byte, which is exactly the case
  // fixed-size chunking cannot survive.
  MiniHdfs fs(4);
  IncHdfsClient client(fs);
  core::Shredder shredder(shredder_config());
  TextInputFormat fmt;
  const std::string v1 = make_text_corpus(500000, 7);
  std::string v2 = v1;
  v2.insert(150000, make_text_corpus(5000, 8));  // localized insertion

  auto reuse_rate = [&](const std::string& a, const std::string& b) {
    std::set<std::string> a_digests;
    for (const auto& ref : fs.namenode().lookup(a)) {
      a_digests.insert(ref.digest.hex());
    }
    const auto b_refs = fs.namenode().lookup(b);
    std::size_t reused = 0;
    for (const auto& ref : b_refs) {
      reused += a_digests.contains(ref.digest.hex());
    }
    return static_cast<double>(reused) / static_cast<double>(b_refs.size());
  };

  client.copy_from_local_gpu("v1", as_bytes(v1), fmt, shredder);
  client.copy_from_local_gpu("v2", as_bytes(v2), fmt, shredder);
  const double cdc_reuse = reuse_rate("v1", "v2");
  EXPECT_GT(cdc_reuse, 0.80);

  client.copy_from_local("v1f", as_bytes(v1), 1024, &fmt);
  client.copy_from_local("v2f", as_bytes(v2), 1024, &fmt);
  const double fixed_reuse = reuse_rate("v1f", "v2f");
  // Fixed-size alignment is destroyed after the insertion point.
  EXPECT_LT(fixed_reuse, 0.45);
  EXPECT_GT(cdc_reuse, fixed_reuse + 0.3);
}

TEST_F(IncHdfsUpload, ReadSplitsMatchesBlocks) {
  MiniHdfs fs(4);
  IncHdfsClient client(fs);
  core::Shredder shredder(shredder_config());
  TextInputFormat fmt;
  const std::string text = make_text_corpus(100000, 9);
  client.copy_from_local_gpu("f", as_bytes(text), fmt, shredder);
  const auto splits = client.read_splits("f");
  const auto blocks = fs.read_blocks("f");
  ASSERT_EQ(splits.size(), blocks.size());
  for (std::size_t i = 0; i < splits.size(); ++i) {
    EXPECT_EQ(splits[i].data, blocks[i]);
    EXPECT_EQ(splits[i].digest, dedup::ChunkHasher::hash(as_bytes(blocks[i])));
  }
}

// --- MapEmitter / engine mechanics ---

TEST(MapEmitter, PartitionIsStable) {
  const std::size_t r1 = MapEmitter::partition("hello", 8);
  EXPECT_EQ(r1, MapEmitter::partition("hello", 8));
  EXPECT_LT(r1, 8u);
}

TEST(MapEmitter, FinalizeSortsAndDigests) {
  MapEmitter a(2), b(2);
  a.emit("x", "1");
  a.emit("y", "2");
  b.emit("y", "2");
  b.emit("x", "1");
  a.finalize();
  b.finalize();
  EXPECT_EQ(a.bucket_digests(), b.bucket_digests());
}

TEST(MapEmitter, RejectsZeroReducers) {
  EXPECT_THROW(MapEmitter(0), std::invalid_argument);
}

Split make_split(const std::string& text) {
  Split s;
  s.data.assign(text.begin(), text.end());
  s.digest = dedup::ChunkHasher::hash(as_bytes(s.data));
  return s;
}

TEST(MapReduceEngine, WordCountCorrectness) {
  MapReduceEngine engine(4);
  const auto job = make_wordcount_job(4);
  std::vector<Split> splits = {make_split("a b b\n"), make_split("b c\na a\n")};
  const auto result = engine.run(job, splits, nullptr);
  EXPECT_EQ(result.output.at("a"), "3");
  EXPECT_EQ(result.output.at("b"), "3");
  EXPECT_EQ(result.output.at("c"), "1");
  EXPECT_EQ(result.stats.map_tasks, 2u);
  EXPECT_EQ(result.stats.map_reused, 0u);
}

TEST(MapReduceEngine, MemoReusesUnchangedSplits) {
  MapReduceEngine engine(4);
  MemoServer memo;
  const auto job = make_wordcount_job(4);
  std::vector<Split> splits = {make_split("a b\n"), make_split("c d\n"),
                               make_split("e f\n")};
  engine.run(job, splits, &memo);
  // Change one split; the other two map tasks and most reducers reuse.
  splits[1] = make_split("c d x\n");
  const auto result = engine.run(job, splits, &memo);
  EXPECT_EQ(result.stats.map_reused, 2u);
  EXPECT_EQ(result.output.at("x"), "1");
}

TEST(MapReduceEngine, FullReuseWhenNothingChanges) {
  MapReduceEngine engine(4);
  MemoServer memo;
  const auto job = make_wordcount_job(4);
  const std::vector<Split> splits = {make_split("a b\n"), make_split("c\n")};
  const auto first = engine.run(job, splits, &memo);
  const auto second = engine.run(job, splits, &memo);
  EXPECT_EQ(second.stats.map_reused, splits.size());
  EXPECT_EQ(second.stats.reduce_reused, second.stats.reduce_tasks);
  EXPECT_EQ(second.output, first.output);
}

TEST(MapReduceEngine, MemoizedMatchesVanilla) {
  MapReduceEngine engine(4);
  MemoServer memo;
  const auto job = make_cooccurrence_job(2, 4);
  const std::string text = make_text_corpus(50000, 10);
  std::vector<Split> splits;
  for (std::size_t off = 0; off < text.size(); off += 5000) {
    splits.push_back(
        make_split(text.substr(off, std::min<std::size_t>(5000, text.size() - off))));
  }
  const auto vanilla = engine.run(job, splits, nullptr);
  engine.run(job, splits, &memo);
  const auto memoized = engine.run(job, splits, &memo);
  EXPECT_EQ(memoized.output, vanilla.output);
}

TEST(MapReduceEngine, ParamsDigestInvalidatesMemo) {
  MapReduceEngine engine(2);
  MemoServer memo;
  auto job = make_cooccurrence_job(1, 2);
  const std::vector<Split> splits = {make_split("a b c\n")};
  engine.run(job, splits, &memo);
  auto wider = make_cooccurrence_job(2, 2);
  const auto result = engine.run(wider, splits, &memo);
  EXPECT_EQ(result.stats.map_reused, 0u);  // different window => no reuse
}

TEST(MapReduceEngine, ValidatesJob) {
  MapReduceEngine engine(2);
  JobSpec bad;
  EXPECT_THROW(engine.run(bad, {}, nullptr), std::invalid_argument);
}

// --- Contraction trees (opt-in incremental reduce) ---

TEST(ContractionTree, OutputMatchesFlatReduce) {
  MapReduceEngine engine(4);
  auto job = make_wordcount_job(4);
  job.use_contraction = true;
  const std::string text = make_text_corpus(200000, 33);
  std::vector<Split> splits;
  for (std::size_t off = 0; off < text.size(); off += 4000) {
    splits.push_back(make_split(
        text.substr(off, std::min<std::size_t>(4000, text.size() - off))));
  }
  const auto flat = engine.run(job, splits, nullptr);  // no memo => flat path
  MemoServer memo;
  const auto contracted = engine.run(job, splits, &memo);
  EXPECT_EQ(contracted.output, flat.output);
  EXPECT_GT(memo.combine_misses(), 0u);
}

TEST(ContractionTree, LocalChangeReusesMostGroups) {
  MapReduceEngine engine(4);
  auto job = make_wordcount_job(4);
  job.use_contraction = true;
  const std::string text = make_text_corpus(400000, 34);
  auto build = [&](const std::string& t) {
    std::vector<Split> splits;
    for (std::size_t off = 0; off < t.size(); off += 4000) {
      splits.push_back(make_split(
          t.substr(off, std::min<std::size_t>(4000, t.size() - off))));
    }
    return splits;
  };
  MemoServer memo;
  engine.run(job, build(text), &memo);
  const auto primed_misses = memo.combine_misses();
  // Change one 4 KB region: only the log-depth contraction path through it
  // should recompute.
  std::string edited = text;
  for (std::size_t i = 200000; i < 204000; ++i) {
    if (edited[i] != ' ' && edited[i] != '\n') edited[i] = 'z';
  }
  const auto r = engine.run(job, build(edited), &memo);
  const auto new_misses = memo.combine_misses() - primed_misses;
  EXPECT_GT(memo.combine_hits(), 3 * new_misses);
  EXPECT_EQ(r.stats.map_reused, r.stats.map_tasks - 1);
}

TEST(ContractionTree, KMeansCombinerPreservesResult) {
  const auto blob = make_points_blob(20000, 4, 35);
  std::vector<Split> splits;
  for (std::size_t off = 0; off < blob.size(); off += 8000) {
    Split s;
    const auto len = std::min<std::size_t>(8000, blob.size() - off);
    s.data.assign(blob.begin() + static_cast<std::ptrdiff_t>(off),
                  blob.begin() + static_cast<std::ptrdiff_t>(off + len));
    s.digest = dedup::ChunkHasher::hash(as_bytes(s.data));
    splits.push_back(std::move(s));
  }
  MapReduceEngine engine(4);
  KMeansDriver driver(4, 10, 36);
  auto job = driver.job_for(driver.initial_centroids(splits));
  const auto flat = engine.run(job, splits, nullptr);
  job.use_contraction = true;
  MemoServer memo;
  const auto contracted = engine.run(job, splits, &memo);
  // Sum order differs; centroids agree to printed precision or very nearly.
  ASSERT_EQ(contracted.output.size(), flat.output.size());
  for (const auto& [k, v] : flat.output) {
    float fx = 0, fy = 0, cx = 0, cy = 0;
    std::sscanf(v.c_str(), "%g,%g", &fx, &fy);
    std::sscanf(contracted.output.at(k).c_str(), "%g,%g", &cx, &cy);
    EXPECT_NEAR(fx, cx, 1e-3);
    EXPECT_NEAR(fy, cy, 1e-3);
  }
}

// --- K-means ---

TEST(KMeans, ConvergesToClusterCentres) {
  const auto blob = make_points_blob(20000, 4, 11);
  std::vector<Split> splits;
  for (std::size_t off = 0; off < blob.size(); off += 16000) {
    Split s;
    const auto len = std::min<std::size_t>(16000, blob.size() - off);
    s.data.assign(blob.begin() + static_cast<std::ptrdiff_t>(off),
                  blob.begin() + static_cast<std::ptrdiff_t>(off + len));
    s.digest = dedup::ChunkHasher::hash(as_bytes(s.data));
    splits.push_back(std::move(s));
  }
  MapReduceEngine engine(4);
  KMeansDriver driver(4, 30, 12);
  const auto result = driver.run(engine, splits, nullptr);
  EXPECT_GT(result.iterations, 1u);
  // Convergence quality: mean squared distance of points to their nearest
  // centroid must approach the intra-cluster noise floor (points are drawn
  // +-15 around centres spaced 100 apart; a merged pair of clusters would
  // blow this up by two orders of magnitude).
  const auto points = decode_points(as_bytes(blob));
  double inertia = 0;
  for (const auto& [px, py] : points) {
    double best = 1e300;
    for (const auto& [cx, cy] : result.centroids) {
      const double dx = px - cx;
      const double dy = py - cy;
      best = std::min(best, dx * dx + dy * dy);
    }
    inertia += best;
  }
  inertia /= static_cast<double>(points.size());
  EXPECT_LT(inertia, 300.0);
}

TEST(KMeans, MemoizedIterationMatchesVanilla) {
  const auto blob = make_points_blob(5000, 4, 13);
  Split s;
  s.data = blob;
  s.digest = dedup::ChunkHasher::hash(as_bytes(blob));
  MapReduceEngine engine(2);
  MemoServer memo;
  KMeansDriver driver(4, 10, 14);
  const auto vanilla = driver.run(engine, {s}, nullptr);
  driver.run(engine, {s}, &memo);
  const auto memoized = driver.run(engine, {s}, &memo);
  EXPECT_EQ(memoized.centroids, vanilla.centroids);
  EXPECT_EQ(memoized.aggregate_stats.map_reused,
            memoized.aggregate_stats.map_tasks);
}

TEST(KMeans, RejectsBadConfig) {
  EXPECT_THROW(KMeansDriver(0, 5, 1), std::invalid_argument);
  EXPECT_THROW(KMeansDriver(4, 0, 1), std::invalid_argument);
}

// --- Point blob generators ---

TEST(PointsBlob, RecordAlignedAndDeterministic) {
  const auto a = make_points_blob(100, 4, 15);
  const auto b = make_points_blob(100, 4, 15);
  EXPECT_EQ(a.size(), 800u);
  EXPECT_EQ(a, b);
}

TEST(PointsBlob, MutationChangesRequestedFraction) {
  const auto a = make_points_blob(100000, 4, 16);
  const auto b = mutate_points_blob(a, 0.2, 17);
  ASSERT_EQ(a.size(), b.size());
  std::size_t changed = 0;
  for (std::size_t p = 0; p < a.size(); p += 8) {
    changed += !std::equal(a.begin() + static_cast<std::ptrdiff_t>(p),
                           a.begin() + static_cast<std::ptrdiff_t>(p + 8),
                           b.begin() + static_cast<std::ptrdiff_t>(p));
  }
  const double frac = static_cast<double>(changed) / 100000.0;
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.3);
}

TEST(PointsBlob, DecodeRoundTrip) {
  const auto blob = make_points_blob(10, 2, 18);
  const auto points = decode_points(as_bytes(blob));
  EXPECT_EQ(points.size(), 10u);
  EXPECT_THROW(decode_points(ByteSpan(blob).subspan(0, 7)),
               std::invalid_argument);
}

// --- The Figure 15 experiment harness (small smoke runs) ---

class ExperimentSmoke : public ::testing::TestWithParam<Workload> {};

TEST_P(ExperimentSmoke, IncrementalFasterAndCorrect) {
  ExperimentConfig config;
  config.workload = GetParam();
  config.input_bytes = GetParam() == Workload::kKMeans ? 400 * 1024
                                                       : 1024 * 1024;
  config.change_fraction = 0.05;
  config.seed = 21;
  config.split_mask_bits = 14;  // ~16 KB splits
  config.split_min = 4 * 1024;
  config.split_max = 64 * 1024;
  // The speedup is one wall-clock ratio per run, so a busy host can sink a
  // single run: the bar is the median of three. Correctness and reuse hold
  // on every run.
  std::vector<double> speedups;
  for (int run = 0; run < 3; ++run) {
    const auto result = run_incremental_experiment(config);
    EXPECT_TRUE(result.outputs_match) << workload_name(GetParam());
    // K-means reuses heavily only in the warm-start iteration (later
    // iterations see fresh centroids), so its aggregate reuse is lower.
    const std::uint64_t floor = GetParam() == Workload::kKMeans
                                    ? result.map_tasks / 8
                                    : result.map_tasks / 2;
    EXPECT_GT(result.map_reused, floor) << workload_name(GetParam());
    speedups.push_back(result.speedup);
  }
  std::sort(speedups.begin(), speedups.end());
  EXPECT_GT(speedups[1], 1.0) << workload_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workloads, ExperimentSmoke,
                         ::testing::Values(Workload::kWordCount,
                                           Workload::kCoOccurrence,
                                           Workload::kKMeans));

TEST(Experiment, MoreChangesLessReuse) {
  auto run_with = [](double fraction) {
    ExperimentConfig config;
    config.workload = Workload::kWordCount;
    config.input_bytes = 1024 * 1024;
    config.change_fraction = fraction;
    config.seed = 22;
    config.split_mask_bits = 14;
    config.split_min = 4 * 1024;
    config.split_max = 64 * 1024;
    return run_incremental_experiment(config);
  };
  const auto low = run_with(0.02);
  const auto high = run_with(0.30);
  EXPECT_GT(low.map_reused, high.map_reused);
}

TEST(Experiment, RejectsBadFraction) {
  ExperimentConfig config;
  config.change_fraction = 1.5;
  EXPECT_THROW(run_incremental_experiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace shredder::inchdfs
