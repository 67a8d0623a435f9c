// Thread-scaling sweep for the parallelized kernels: dense MatMul, SpMM,
// batch PPR, k-means, the greedy selector scans, and a fixed-shape SGAN
// training step (the allocation-free steady-state path), each timed at
// 1/2/4/8 threads with speedups reported against the 1-thread run of the
// same binary. Four threshold records straddle util::kMinShardWork: a
// serve-shaped discriminator forward at 9 and 64 rows (every layer
// inline: a region under the threshold must time the same at 4T as at
// 1T, because it never wakes the pool) and at 256 rows (first layer split
// four ways), and a width-3 strided SpMM, which hands out its row blocks
// one per shard and so still splits. Unlike bench_micro
// (google-benchmark, machine-default threads), this is a plain wall-clock
// harness so it can flip util::SetParallelism between measurements.
//
// With GALE_BENCH_JSON_DIR set, per-(workload, threads) medians are also
// written to $GALE_BENCH_JSON_DIR/BENCH_parallel_scaling.json for
// tools/bench_check.sh (see bench_common.h for the record format).
//
// Usage: bench_parallel_scaling [--repeats N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sgan.h"
#include "la/kmeans.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "obs/stopwatch.h"

namespace gale {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

la::SparseMatrix RandomAdjacency(size_t n, size_t edges, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> edge_list;
  edge_list.reserve(edges);
  for (size_t e = 0; e < edges; ++e) {
    edge_list.emplace_back(rng.UniformInt(n), rng.UniformInt(n));
  }
  return la::SparseMatrix::NormalizedAdjacency(n, edge_list);
}

// Per-repeat wall times of `fn` at the current parallelism; the table
// reports the best (least-noise) run, the JSON baseline the median.
template <typename Fn>
std::vector<double> TimeRepeats(int repeats, Fn fn) {
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    obs::WallTimer timer;
    fn();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return seconds;
}

struct Workload {
  std::string name;
  std::function<void()> run;
};

}  // namespace
}  // namespace gale

int main(int argc, char** argv) {
  using namespace gale;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    }
  }

  util::Rng rng(7);
  // Dense GEMM at the acceptance-criteria shape.
  la::Matrix a = la::Matrix::RandomNormal(512, 512, 1.0, rng);
  la::Matrix b = la::Matrix::RandomNormal(512, 512, 1.0, rng);
  // SpMM on a 16k-node graph with d=64 features (GCN-layer shape).
  la::SparseMatrix adj = RandomAdjacency(16000, 48000, 11);
  la::Matrix x = la::Matrix::RandomNormal(16000, 64, 1.0, rng);
  // Batch PPR: 64 seeds on a 4k-node graph (one query round's worth).
  la::SparseMatrix walk = RandomAdjacency(4000, 12000, 13);
  std::vector<size_t> seeds;
  for (size_t s = 0; s < 64; ++s) seeds.push_back((s * 61) % 4000);
  // k-means at the clusT shape (candidate pool x embedding dim).
  la::Matrix points = la::Matrix::RandomNormal(8000, 32, 1.0, rng);
  // Fixed-shape SGAND refresh epoch: after the first (warm-up) epoch every
  // buffer is warm, so this times the allocation-free steady-state path.
  core::SganConfig sgan_config;
  sgan_config.hidden_dim = 64;
  sgan_config.embedding_dim = 32;
  core::Sgan sgan(32, sgan_config);
  la::Matrix sgan_real = la::Matrix::RandomNormal(512, 32, 1.0, rng);
  la::Matrix sgan_syn = la::Matrix::RandomNormal(128, 32, 1.0, rng);
  std::vector<int> sgan_labels(512, core::kUnlabeled);
  for (size_t r = 0; r < 32; ++r) {
    sgan_labels[r] = r % 4 == 0 ? core::kLabelError : core::kLabelCorrect;
  }
  sgan.Update(sgan_real, sgan_labels, sgan_syn, /*epochs=*/1);  // warm-up
  // Serve-shaped discriminator forward (SnapshotScorer's layer stack):
  // 64 features -> 64 -> 32 -> 3 logits with leaky ReLU in between.
  nn::Sequential disc;
  disc.Add(std::make_unique<nn::Dense>(64, 64, rng));
  disc.Add(std::make_unique<nn::LeakyRelu>(0.2));
  disc.Add(std::make_unique<nn::Dense>(64, 32, rng));
  disc.Add(std::make_unique<nn::LeakyRelu>(0.2));
  disc.Add(std::make_unique<nn::Dense>(32, 3, rng));
  const la::Matrix disc_in9 = la::Matrix::RandomNormal(9, 64, 1.0, rng);
  const la::Matrix disc_in64 = la::Matrix::RandomNormal(64, 64, 1.0, rng);
  const la::Matrix disc_in256 = la::Matrix::RandomNormal(256, 64, 1.0, rng);
  (void)disc.Forward(disc_in256, /*training=*/false);  // warm the buffers
  // Width-3 strided SpMM over the PPR graph: a few live PPR columns.
  constexpr size_t kStride = 8;
  std::vector<double> strided_in(4000 * kStride, 1.0 / 4000);
  std::vector<double> strided_out(4000 * kStride, 0.0);

  std::vector<Workload> workloads;
  workloads.push_back({"MatMul 512x512x512", [&] {
                         la::Matrix out = a.MatMul(b);
                         (void)out;
                       }});
  workloads.push_back({"SpMM 16k x d64", [&] {
                         la::Matrix out = adj.Multiply(x);
                         (void)out;
                       }});
  workloads.push_back({"PPR batch 64 seeds", [&] {
                         prop::PprEngine engine(&walk);
                         engine.ComputeRows(seeds);
                       }});
  workloads.push_back({"KMeans 8k x 32, k=24", [&] {
                         util::Rng krng(5);
                         la::KMeansOptions options;
                         options.num_clusters = 24;
                         options.max_iterations = 10;
                         (void)la::KMeans(points, options, krng);
                       }});
  workloads.push_back({"SganUpdate 512+128 d32", [&] {
                         (void)sgan.Update(sgan_real, sgan_labels, sgan_syn,
                                           /*epochs=*/1);
                       }});
  workloads.push_back({"Disc forward 9 rows x1000", [&] {
                         for (int i = 0; i < 1000; ++i) {
                           (void)disc.Forward(disc_in9, /*training=*/false);
                         }
                       }});
  workloads.push_back({"Disc forward 64 rows x200", [&] {
                         for (int i = 0; i < 200; ++i) {
                           (void)disc.Forward(disc_in64, /*training=*/false);
                         }
                       }});
  workloads.push_back({"Disc forward 256 rows x50", [&] {
                         for (int i = 0; i < 50; ++i) {
                           (void)disc.Forward(disc_in256, /*training=*/false);
                         }
                       }});
  workloads.push_back({"SpMM strided w3 4k x200", [&] {
                         for (int i = 0; i < 200; ++i) {
                           walk.MultiplyStridedInto(strided_in.data(), 3,
                                                    kStride,
                                                    strided_out.data());
                         }
                       }});

  std::vector<std::string> header = {"kernel"};
  for (int t : kThreadCounts) header.push_back(std::to_string(t) + "T (ms)");
  header.push_back("speedup@4T");
  util::TablePrinter table(header);
  bench::BenchJsonWriter json("BENCH_parallel_scaling.json");

  for (Workload& w : workloads) {
    std::vector<std::string> row = {w.name};
    double serial_ms = 0.0;
    double four_ms = 0.0;
    for (int threads : kThreadCounts) {
      util::ScopedParallelism p(threads);
      const std::vector<double> seconds = TimeRepeats(repeats, w.run);
      const double ms =
          *std::min_element(seconds.begin(), seconds.end()) * 1e3;
      json.Record(w.name, threads, repeats, bench::Median(seconds) * 1e9);
      if (threads == 1) serial_ms = ms;
      if (threads == 4) four_ms = ms;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", ms);
      row.push_back(buf);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", serial_ms / four_ms);
    row.push_back(buf);
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf(
      "hardware_concurrency reported by this machine: %u (speedups are "
      "bounded by physical cores)\n",
      std::thread::hardware_concurrency());
  return 0;
}
