// Harness-layer tests: thread-pool correctness, RNG substream
// separation, and the headline determinism guarantee — a parallel sweep
// is bit-identical to the serial one.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "harness/harness.hpp"
#include "harness/substream.hpp"
#include "harness/thread_pool.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"

namespace pcm::harness {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EmptyBatchIsANoop) {
  ThreadPool pool(3);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, PropagatesFirstExceptionAfterFinishingBatch) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The failing batch still runs every index (results stay well-defined).
  EXPECT_EQ(ran.load(), 64);
  // The pool survives a throwing batch.
  std::atomic<int> again{0};
  pool.parallel_for(16, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 16);
}

TEST(ThreadPool, RethrowsLowestIndexExceptionAtEveryJobCount) {
  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    std::vector<std::atomic<int>> hits(32);
    try {
      pool.parallel_for(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 5) throw std::runtime_error("index 5");
        if (i == 2) throw std::runtime_error("index 2");
      });
      ADD_FAILURE() << "jobs " << jobs << ": nothing thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 2") << "jobs " << jobs;
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "jobs " << jobs << " index " << i;
  }
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1);
  EXPECT_GE(ThreadPool::resolve_jobs(-5), 1);
}

TEST(Substream, DistinctStreamsGiveDistinctSeeds) {
  // mix64 is a bijection, so substream seeds under one root never
  // collide; spot-check a large prefix and a scattered tail.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 65536; ++i)
    EXPECT_TRUE(seen.insert(substream_seed(kSeed, i)).second) << i;
  for (std::uint64_t i = 0; i < 64; ++i)
    EXPECT_TRUE(seen.insert(substream_seed(kSeed, (1ULL << 40) + i)).second) << i;
}

TEST(Substream, DifferentRootsGiveDifferentStreams) {
  EXPECT_NE(substream_seed(1, 0), substream_seed(2, 0));
  EXPECT_NE(substream_seed(1, 5), substream_seed(2, 5));
  // Deterministic across runs/platforms (pure integer arithmetic).
  EXPECT_EQ(substream_seed(1997, 0), substream_seed(1997, 0));
}

TEST(Substream, StreamsYieldIndependentLookingDraws) {
  // Adjacent streams must not produce correlated first draws.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 256; ++s) {
    analysis::Rng rng(substream_seed(kSeed, s));
    firsts.insert(rng.next());
  }
  EXPECT_EQ(firsts.size(), 256u);
}

// The acceptance-criterion test: the first sweep point of E2 (Figure 2)
// computed with --jobs 4 must be bit-identical to --jobs 1 — same means,
// same CIs, same conflict counts.
TEST(HarnessDeterminism, ParallelPointMatchesSerialBitForBit) {
  const auto topo = mesh::make_mesh2d(16);
  const MeshShape* shape = &topo->shape();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(kSeed, 256, 32, kPaperReps);

  Options serial_opt;
  serial_opt.jobs = 1;
  Options parallel_opt;
  parallel_opt.jobs = 4;
  Harness serial("test", serial_opt);
  Harness parallel("test", parallel_opt);

  for (const McastAlgorithm alg :
       {McastAlgorithm::kUMesh, McastAlgorithm::kOptTree, McastAlgorithm::kOptMesh}) {
    const Point a = serial.run_point(*topo, shape, rtm, alg, placements, 0);
    const Point b = parallel.run_point(*topo, shape, rtm, alg, placements, 0);
    EXPECT_EQ(a.latency.mean, b.latency.mean);
    EXPECT_EQ(a.latency.ci95, b.latency.ci95);
    EXPECT_EQ(a.latency.min, b.latency.min);
    EXPECT_EQ(a.latency.max, b.latency.max);
    EXPECT_EQ(a.model.mean, b.model.mean);
    EXPECT_EQ(a.model.ci95, b.model.ci95);
    EXPECT_EQ(a.mean_conflicts, b.mean_conflicts);
  }
}

TEST(HarnessOptions, ParseJobsAndJson) {
  const char* argv1[] = {"--jobs", "8", "--json", "out.json"};
  const Options o1 = parse_options(std::span<const char* const>(argv1, 4));
  EXPECT_EQ(o1.jobs, 8);
  EXPECT_EQ(o1.json_path, "out.json");
  EXPECT_FALSE(o1.help);

  const char* argv2[] = {"-h"};
  EXPECT_TRUE(parse_options(std::span<const char* const>(argv2, 1)).help);

  // --jobs is a thread count: [1, 4096], the cap pcmcast and pcmchaos use.
  // Parsing only; no pool is built from these values.
  for (const char* jobs : {"0", "4097", "-1", "2x"}) {
    const char* bad[] = {"--jobs", jobs};
    EXPECT_THROW(parse_options(std::span<const char* const>(bad, 2)),
                 std::invalid_argument)
        << jobs;
  }
  const char* cap[] = {"--jobs", "4096"};
  EXPECT_EQ(parse_options(std::span<const char* const>(cap, 2)).jobs, 4096);
  const char* bad2[] = {"--frobnicate"};
  EXPECT_THROW(parse_options(std::span<const char* const>(bad2, 1)),
               std::invalid_argument);
  const char* bad3[] = {"--json"};
  EXPECT_THROW(parse_options(std::span<const char* const>(bad3, 1)),
               std::invalid_argument);
}

TEST(JsonReportTest, SerializesTablesAndEscapes) {
  analysis::Table t({"name", "value"});
  t.add_row({"quote\"tab\t", "1"});
  JsonReport rep("bench_x", 2);
  rep.add_table("title", "out.csv", t);
  rep.set_wall_seconds(1.5);
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"bench\": \"bench_x\""), std::string::npos);
  EXPECT_NE(js.find("\"jobs\": 2"), std::string::npos);
  EXPECT_NE(js.find("\"wall_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(js.find("quote\\\"tab\\t"), std::string::npos);
  EXPECT_NE(js.find("\"csv\": \"out.csv\""), std::string::npos);
}

}  // namespace
}  // namespace pcm::harness
