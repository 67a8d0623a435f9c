#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

// Counts operator new calls made on a thread that has opted in, so a test
// can assert that a code path allocates nothing. Replacing the global
// operators is the only hook that sees std::function and shared_ptr
// allocations; they forward to malloc/free, which every sanitizer build
// intercepts as usual.
namespace {
thread_local bool t_count_allocations = false;
thread_local size_t t_allocations = 0;
}  // namespace

// gale-lint: allow(naked-new): replacement global allocator for counting
void* operator new(size_t size) {
  if (t_count_allocations) ++t_allocations;
  // gale-lint: allow(naked-new): the replacement allocator is malloc
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// noinline: inlined into a caller, GCC pairs the free with that caller's
// new expression and warns (-Wmismatched-new-delete).
// gale-lint: allow(naked-new): replacement global deallocator
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);  // gale-lint: allow(naked-new): pairs the malloc above
}
// gale-lint: allow(naked-new): replacement global deallocator
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);  // gale-lint: allow(naked-new): pairs the malloc above
}

namespace gale::util {
namespace {

TEST(ThreadPoolTest, StartupShutdownRunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.num_workers(), 3);
    std::atomic<int> remaining{100};
    for (int i = 0; i < 100; ++i) {
      pool.Enqueue([&] {
        counter.fetch_add(1);
        remaining.fetch_sub(1);
      });
    }
    while (remaining.load() > 0) std::this_thread::yield();
  }  // destructor drains and joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerPoolConstructsAndDestructs) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
}

TEST(ThreadPoolTest, WorkersReportInParallelRegion) {
  EXPECT_FALSE(InParallelRegion());
  ThreadPool pool(1);
  std::atomic<int> in_region{-1};
  std::atomic<bool> done{false};
  pool.Enqueue([&] {
    in_region.store(InParallelRegion() ? 1 : 0);
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(in_region.load(), 1);
}

TEST(ParallelismTest, ScopedOverrideAndReset) {
  ScopedParallelism outer(3);
  EXPECT_EQ(Parallelism(), 3);
  {
    ScopedParallelism inner(1);
    EXPECT_EQ(Parallelism(), 1);
  }
  EXPECT_EQ(Parallelism(), 3);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ScopedParallelism p(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ScopedParallelism p(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<size_t> seen;
  ParallelFor(7, 8, 1, [&](size_t b, size_t e) {
    seen.push_back(b);
    seen.push_back(e);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 7u);
  EXPECT_EQ(seen[1], 8u);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  ScopedParallelism p(4);
  // grain >= range forces a single shard, executed on the calling thread.
  int calls = 0;
  bool on_caller = false;
  ParallelFor(0, 100, 1000, [&](size_t b, size_t e) {
    ++calls;
    on_caller = !InParallelRegion();
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 100u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(on_caller);
}

TEST(ParallelForTest, GrainZeroTreatedAsOne) {
  ScopedParallelism p(2);
  std::atomic<size_t> total{0};
  ParallelFor(0, 64, 0, [&](size_t b, size_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ParallelForTest, SerialParallelismNeverSpawnsPool) {
  ScopedParallelism p(1);
  bool saw_worker = false;
  ParallelFor(0, 10000, 1, [&](size_t b, size_t e) {
    if (InParallelRegion()) saw_worker = true;
    (void)b;
    (void)e;
  });
  EXPECT_FALSE(saw_worker);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedParallelism p(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](size_t b, size_t) {
                    if (b >= 50) throw std::runtime_error("shard failure");
                  }),
      std::runtime_error);
  // The pool survives a throwing region and runs subsequent work.
  std::atomic<size_t> total{0};
  ParallelFor(0, 100, 1, [&](size_t b, size_t e) { total.fetch_add(e - b); });
  EXPECT_EQ(total.load(), 100u);
}

TEST(ParallelForTest, LowestShardExceptionWins) {
  ScopedParallelism p(4);
  try {
    ParallelFor(0, 4, 1, [&](size_t b, size_t) {
      throw std::runtime_error("shard " + std::to_string(b));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
}

TEST(ParallelForTest, NestedCallRunsInlineWithoutDeadlock) {
  ScopedParallelism p(4);
  std::vector<std::atomic<int>> hits(256);
  ParallelFor(0, 16, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      // Nested region: must run inline on this worker, not re-enter the
      // pool (which would deadlock a single queue).
      ParallelFor(0, 16, 1, [&](size_t nb, size_t ne) {
        for (size_t j = nb; j < ne; ++j) hits[i * 16 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShardsTest, PartitionIndependentOfThreadCount) {
  auto boundaries_at = [](int threads) {
    ScopedParallelism p(threads);
    std::vector<std::vector<size_t>> out;
    std::mutex mu;
    ParallelForShards(0, 10000, 256, [&](size_t s, size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      out.push_back({s, b, e});
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto serial = boundaries_at(1);
  EXPECT_EQ(serial.size(), NumReduceShards(10000, 256));
  EXPECT_EQ(serial, boundaries_at(2));
  EXPECT_EQ(serial, boundaries_at(4));
  EXPECT_EQ(serial, boundaries_at(7));
}

TEST(ParallelForShardsTest, ShardCountCappedAndCoversRange) {
  EXPECT_EQ(NumReduceShards(0, 100), 0u);
  EXPECT_EQ(NumReduceShards(1, 100), 1u);
  EXPECT_EQ(NumReduceShards(100, 100), 1u);
  EXPECT_EQ(NumReduceShards(101, 100), 2u);
  EXPECT_EQ(NumReduceShards(1 << 20, 1), kMaxReduceShards);

  ScopedParallelism p(4);
  std::vector<std::atomic<int>> hits(997);  // prime, uneven split
  ParallelForShards(0, hits.size(), 100, [&](size_t, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShardsTest, FixedOrderReductionMatchesSerial) {
  // The canonical use: per-shard partial sums combined in shard order must
  // give bit-identical results at any thread count.
  std::vector<double> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e3;
  }
  auto chunked_sum = [&](int threads) {
    ScopedParallelism p(threads);
    const size_t shards = NumReduceShards(values.size(), 512);
    std::vector<double> partial(shards, 0.0);
    ParallelForShards(0, values.size(), 512,
                      [&](size_t s, size_t b, size_t e) {
                        for (size_t i = b; i < e; ++i) partial[s] += values[i];
                      });
    double total = 0.0;
    for (double v : partial) total += v;
    return total;
  };
  const double serial = chunked_sum(1);
  EXPECT_EQ(serial, chunked_sum(2));
  EXPECT_EQ(serial, chunked_sum(4));
  EXPECT_EQ(serial, chunked_sum(8));
}

TEST(GrainForWorkTest, Arithmetic) {
  // Zero work per item never pays for a split.
  EXPECT_EQ(GrainForWork(0), SIZE_MAX);
  EXPECT_EQ(GrainForWork(0, 7), SIZE_MAX);
  // Exact multiples and the rounding-up remainder.
  EXPECT_EQ(GrainForWork(1), kMinShardWork);
  EXPECT_EQ(GrainForWork(kMinShardWork / 4), 4u);
  EXPECT_EQ(GrainForWork(kMinShardWork / 4 + 1), 4u);
  EXPECT_EQ(GrainForWork(kMinShardWork / 4 - 1), 5u);
  EXPECT_EQ(GrainForWork(kMinShardWork), 1u);
  EXPECT_EQ(GrainForWork(kMinShardWork + 1), 1u);
  // min_items is a floor, not an addend.
  EXPECT_EQ(GrainForWork(kMinShardWork, 32), 32u);
  EXPECT_EQ(GrainForWork(kMinShardWork / 64, 32), 64u);
  // No overflow near SIZE_MAX in either argument.
  EXPECT_EQ(GrainForWork(SIZE_MAX), 1u);
  EXPECT_EQ(GrainForWork(SIZE_MAX - 1, SIZE_MAX), SIZE_MAX);
  EXPECT_EQ(GrainForWork(1, SIZE_MAX), SIZE_MAX);
  static_assert(GrainForWork(2) == kMinShardWork / 2);
}

TEST(GrainForWorkTest, HugeGrainRunsOneInlineShard) {
  ScopedParallelism p(4);
  int calls = 0;
  ParallelFor(0, 1000, SIZE_MAX, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1000u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(GrainForWorkTest, BelowThresholdRunsInlineInsideDispatch) {
  ScopedParallelism p(4);
  // 64 items of kMinShardWork / 64 units: one shard's worth in total.
  const size_t grain = GrainForWork(kMinShardWork / 64);
  int calls = 0;
  bool on_caller = false;
  bool in_dispatch = false;
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(0, 64, grain, [&](size_t b, size_t e) {
    ++calls;
    on_caller = std::this_thread::get_id() == caller && !InParallelRegion();
    in_dispatch = InParallelDispatch();
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 64u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(on_caller);
  // The inline region still counts as a dispatch, so spans inside it drop
  // exactly as they do in a pooled region.
  EXPECT_TRUE(in_dispatch);
  EXPECT_FALSE(InParallelDispatch());
}

TEST(GrainForWorkTest, AboveThresholdStillSplits) {
  ScopedParallelism p(4);
  // 64 items of kMinShardWork / 16 units: four shards' worth.
  const size_t grain = GrainForWork(kMinShardWork / 16);
  ASSERT_EQ(grain, 16u);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(0, 64, grain, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 16}, {16, 32}, {32, 48}, {48, 64}};
  EXPECT_EQ(chunks, expected);
  // Two and a half shards' worth splits in two: no chunk under a grain.
  chunks.clear();
  ParallelFor(0, 40, grain, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<size_t, size_t>> expected_two = {{0, 20},
                                                               {20, 40}};
  EXPECT_EQ(chunks, expected_two);
}

TEST(ParallelForTest, PooledDispatchAllocatesNothingPerDispatch) {
  ScopedParallelism p(4);
  std::atomic<size_t> total{0};
  const std::function<void(size_t, size_t)> fn = [&](size_t b, size_t e) {
    total.fetch_add(e - b);
  };
  for (int i = 0; i < 4; ++i) ParallelFor(0, 4096, 1, fn);  // builds the pool
  constexpr size_t kDispatches = 200;
  t_allocations = 0;
  t_count_allocations = true;
  for (size_t i = 0; i < kDispatches; ++i) ParallelFor(0, 4096, 1, fn);
  t_count_allocations = false;
  // The pool's std::deque takes a node every few dispatches as its three
  // tasks per dispatch wrap through it. Anything a dispatch allocated for
  // itself (an exception vector, a shared latch, a task closure too big
  // for std::function's inline buffer) would cost at least one allocation
  // every time.
  EXPECT_LT(t_allocations, kDispatches);
  EXPECT_EQ(total.load(), (4 + kDispatches) * 4096u);
}

}  // namespace
}  // namespace gale::util
