// Deterministic shared-memory parallelism for the numerical hot paths.
//
// Two building blocks:
//  * ThreadPool — a fixed set of worker threads fed from a task queue. One
//    process-wide pool is created lazily on the first parallel call; with a
//    parallelism of 1 no pool (and no thread) ever exists, so the serial
//    configuration pays zero overhead.
//  * ParallelFor / ParallelForShards — static contiguous range partitioning
//    on top of the pool. The caller's thread executes the first shard and
//    the pool executes the rest, so `Parallelism()` counts the caller.
//
// Determinism contract (relied on by eval_determinism_test):
//  * ParallelFor(begin, end, grain, fn) partitions [begin, end) into at
//    most Parallelism() contiguous chunks of at least `grain` iterations
//    (one chunk when the range is shorter than two grains).
//    It is for *map*-shaped kernels whose shards write disjoint outputs;
//    such kernels are bitwise identical to serial for any thread count
//    because each output element is produced by exactly the same
//    instruction sequence regardless of the partition.
//  * ParallelForShards(begin, end, grain, fn) partitions into a shard
//    count that depends only on the range and grain — never on the thread
//    count — and tells `fn` which shard it is running. It is for
//    *reduction*-shaped kernels: accumulate into per-shard partials inside
//    `fn`, then combine the partials in ascending shard order on the
//    caller's thread. Because the shard boundaries and the combination
//    order are fixed, the floating-point summation tree is identical at
//    every thread count (including the inline serial fallback), which
//    makes chunked reductions bitwise reproducible.
//
// Nested parallel regions are safe: a ParallelFor issued from inside a
// worker runs inline on that worker (same partition, sequential shards),
// so kernels can be composed without deadlock or oversubscription.
//
// Dispatch cost: waking pool workers costs ~20 us per region at 4 threads
// whatever the shards do, so a map-shaped call site sizes its grain by the
// work each item carries (GrainForWork below), not by its item count; a
// region too small to pay for a wake then runs as one inline shard.
//
// Configuration: the GALE_NUM_THREADS environment variable (read once, on
// first use) or SetParallelism() override; the default is
// std::thread::hardware_concurrency().

#ifndef GALE_UTIL_PARALLEL_H_
#define GALE_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gale::util {

// Configured parallelism (>= 1): SetParallelism() override if any, else
// GALE_NUM_THREADS, else hardware_concurrency().
int Parallelism();

// Overrides the thread count; n == 0 resets to the environment default.
// The global pool is torn down and rebuilt lazily at the new width. Not
// safe to call concurrently with in-flight ParallelFor calls.
void SetParallelism(int n);

// True when called from inside a ThreadPool worker (i.e. from within a
// ParallelFor body); nested parallel calls detect this and run inline.
bool InParallelRegion();

// True while the calling thread is inside a ParallelFor/ParallelForShards
// dispatch — including the caller's own shard and the serial inline
// fallback, where InParallelRegion() stays false. Observability spans
// check `InParallelRegion() || InParallelDispatch()` and drop themselves
// inside parallel callbacks, so the recorded trace is the same at every
// thread count (a span recorded only in the 1-thread fallback would break
// that invariance).
bool InParallelDispatch();

// RAII parallelism override for tests: sets n, restores the previous
// configuration on destruction.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int n);
  ~ScopedParallelism();

  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  int previous_;
};

// Fixed-width worker pool. Tasks are run in FIFO order by whichever worker
// frees up first; completion tracking is the caller's job (ParallelFor
// does it with a latch). Destruction drains the queue and joins.
class ThreadPool {
 public:
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues `task`; it runs with InParallelRegion() == true.
  void Enqueue(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

// Minimum work per ParallelFor shard, in units of one double multiply-add
// (or one copied double; ~0.19 ns each in the dense kernels). A pooled
// dispatch waits ~20 us or more for its workers to wake, however little
// its shards do, so a shard must carry a few wakes' worth of work for the
// split to pay. Measured with bench_parallel_scaling's threshold records
// on a 4-vCPU VM (DESIGN.md §6): two shards of 2^17 ran slower at
// 4 threads than inline.
inline constexpr size_t kMinShardWork = size_t{1} << 18;

// Items per ParallelFor shard when each item costs `work_per_item` units:
// the fewest items that carry kMinShardWork, and never fewer than
// `min_items`. Zero work per item never splits (SIZE_MAX). Overflow-free
// for every input.
constexpr size_t GrainForWork(size_t work_per_item, size_t min_items = 1) {
  if (work_per_item == 0) return SIZE_MAX;
  const size_t by_work = kMinShardWork / work_per_item +
                         (kMinShardWork % work_per_item != 0 ? 1 : 0);
  return by_work > min_items ? by_work : min_items;
}

// Runs fn(chunk_begin, chunk_end) over a static partition of [begin, end)
// into at most Parallelism() contiguous chunks of >= grain iterations.
// Runs inline (one call, full range) when the range is shorter than two
// grains, the parallelism is 1, or we are already inside a parallel
// region. Exceptions thrown by `fn` are rethrown on the calling thread
// (the lowest-shard exception wins when several shards throw).
//
// Shards must write disjoint outputs; see the determinism contract above.
// Call sites in src/ size `grain` with GrainForWork or say why not
// (gale_analyze rule parallel-grain).
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

// Thread-count-independent shard count used by ParallelForShards: at most
// kMaxReduceShards chunks of >= grain iterations each.
inline constexpr size_t kMaxReduceShards = 8;
size_t NumReduceShards(size_t range, size_t grain);

// Runs fn(shard, chunk_begin, chunk_end) over the fixed partition of
// [begin, end) into NumReduceShards(end - begin, grain) chunks. The
// partition never depends on the thread count, and the serial fallback
// executes the same shards in ascending order, so per-shard partial
// reductions combined in shard order are bitwise reproducible.
void ParallelForShards(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace gale::util

#endif  // GALE_UTIL_PARALLEL_H_
