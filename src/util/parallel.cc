#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "util/logging.h"

namespace gale::util {

namespace {

constexpr int kMaxThreads = 256;

thread_local bool t_in_parallel_region = false;
thread_local int t_dispatch_depth = 0;

// Marks the calling thread as inside a parallel dispatch for the duration
// of RunShards — both the pool path and the serial inline fallback — so
// InParallelDispatch() is thread-count invariant.
struct ScopedDispatch {
  ScopedDispatch() { ++t_dispatch_depth; }
  ~ScopedDispatch() { --t_dispatch_depth; }
};

int DefaultParallelism() {
  if (const char* env = std::getenv("GALE_NUM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<int>(std::min<long>(parsed, kMaxThreads));
    }
    GALE_LOG(Warning) << "ignoring invalid GALE_NUM_THREADS='" << env << "'";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

// 0 = not yet resolved / reset; resolved lazily so SetParallelism and the
// environment are honored no matter which runs first.
std::atomic<int> g_parallelism{0};

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // workers = parallelism - 1

// Pool sized for `threads` total participants (caller + workers). Only
// reached when threads >= 2, so a parallelism of 1 never spawns a thread.
ThreadPool* GetPool(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->num_workers() != threads - 1) g_pool.reset();
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(threads - 1);
  return g_pool.get();
}

// Boundary of shard s when [begin, end) is split into `shards` chunks:
// chunk sizes differ by at most one, computed without overflow for any
// realistic range.
size_t ShardBoundary(size_t begin, size_t range, size_t shards, size_t s) {
  return begin + (range / shards) * s + std::min(range % shards, s);
}

// One pooled dispatch's shared state. It lives on the dispatching thread's
// stack: that thread waits for every shard before RunShards returns, so no
// task can outlive it, and a pool task captures only {state, shard} — two
// words, inside std::function's inline buffer — so a dispatch allocates
// nothing of its own (the pool's deque still takes a node now and then).
struct Dispatch {
  Dispatch(const std::function<void(size_t, size_t, size_t)>* f, size_t b,
           size_t r, size_t n)
      : fn(f), begin(b), range(r), shards(n), remaining(n) {}

  const std::function<void(size_t, size_t, size_t)>* const fn;
  const size_t begin;
  const size_t range;
  const size_t shards;
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining;                // guarded by mu
  size_t error_shard = SIZE_MAX;   // guarded by mu
  std::exception_ptr error;        // guarded by mu; lowest throwing shard
};

// Runs shard s of `d`, records its exception if it is the lowest-numbered
// one so far, and counts the shard done. Nothing touches `d` after the
// final decrement's unlock, so the dispatcher may then destroy it.
void RunDispatchShard(Dispatch* d, size_t s) {
  std::exception_ptr err;
  try {
    (*d->fn)(s, ShardBoundary(d->begin, d->range, d->shards, s),
             ShardBoundary(d->begin, d->range, d->shards, s + 1));
  } catch (...) {
    err = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(d->mu);
  if (err && s < d->error_shard) {
    d->error_shard = s;
    d->error = std::move(err);
  }
  if (--d->remaining == 0) d->cv.notify_one();
}

// Runs fn(shard, b, e) for shards [0, shards) of [begin, end): shard 0 on
// the calling thread, the rest on the pool. Rethrows the lowest-shard
// exception.
void RunShards(size_t begin, size_t end, size_t shards,
               const std::function<void(size_t, size_t, size_t)>& fn) {
  const ScopedDispatch dispatch_scope;
  const size_t range = end - begin;
  if (shards <= 1 || t_in_parallel_region || Parallelism() == 1) {
    for (size_t s = 0; s < shards; ++s) {
      fn(s, ShardBoundary(begin, range, shards, s),
         ShardBoundary(begin, range, shards, s + 1));
    }
    return;
  }

  Dispatch d(&fn, begin, range, shards);
  ThreadPool* pool = GetPool(Parallelism());
  Dispatch* dp = &d;
  for (size_t s = 1; s < shards; ++s) {
    pool->Enqueue([dp, s] { RunDispatchShard(dp, s); });
  }
  RunDispatchShard(dp, 0);
  std::unique_lock<std::mutex> lock(d.mu);
  d.cv.wait(lock, [&] { return d.remaining == 0; });
  if (d.error) std::rethrow_exception(d.error);
}

}  // namespace

int Parallelism() {
  int p = g_parallelism.load(std::memory_order_relaxed);
  if (p == 0) {
    p = DefaultParallelism();
    g_parallelism.store(p, std::memory_order_relaxed);
  }
  return p;
}

void SetParallelism(int n) {
  GALE_CHECK_GE(n, 0);
  g_parallelism.store(std::min(n, kMaxThreads), std::memory_order_relaxed);
  // Drop an incompatible pool now so the next parallel call rebuilds it
  // (and so SetParallelism(1) leaves no idle workers behind).
  const int effective = Parallelism();
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->num_workers() != effective - 1) g_pool.reset();
}

bool InParallelRegion() { return t_in_parallel_region; }

bool InParallelDispatch() { return t_dispatch_depth > 0; }

ScopedParallelism::ScopedParallelism(int n) : previous_(Parallelism()) {
  SetParallelism(n);
}

ScopedParallelism::~ScopedParallelism() { SetParallelism(previous_); }

ThreadPool::ThreadPool(int num_workers) {
  GALE_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    GALE_CHECK(!shutdown_) << "Enqueue on a shut-down ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  // Every chunk holds at least `grain` items: floor division, so a range
  // under two grains is one chunk (and no ceil overflow for huge grains).
  const size_t by_grain = std::max<size_t>(1, (end - begin) / grain);
  const size_t shards =
      std::min<size_t>(static_cast<size_t>(Parallelism()), by_grain);
  RunShards(begin, end, shards,
            [&fn](size_t, size_t b, size_t e) { fn(b, e); });
}

size_t NumReduceShards(size_t range, size_t grain) {
  if (range == 0) return 0;
  if (grain == 0) grain = 1;
  return std::min<size_t>((range + grain - 1) / grain, kMaxReduceShards);
}

void ParallelForShards(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (end <= begin) return;
  RunShards(begin, end, NumReduceShards(end - begin, grain), fn);
}

}  // namespace gale::util
