// Parallel results must be bitwise identical to serial: every kernel wired
// onto util::ParallelFor either writes disjoint outputs with a fixed
// per-element accumulation order, or reduces per-shard partials whose
// boundaries never depend on the thread count. This test pins that
// contract for the dense kernels, SpMM, k-means, PPR, and the full query
// selector by comparing runs at GALE_NUM_THREADS-equivalent settings of
// 1, 4, and 8 for exact equality (operator==, not AllClose).

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_selector.h"
#include "core/sgan.h"
#include "la/kmeans.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale {
namespace {

constexpr int kThreadCounts[] = {1, 4, 8};

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return la::Matrix::RandomNormal(rows, cols, 1.0, rng);
}

std::vector<std::pair<size_t, size_t>> RingWithChords(size_t n) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
    if (i % 3 == 0) edges.emplace_back(i, (i + n / 2) % n);
  }
  return edges;
}

// Runs `compute` under each thread count and checks the raw double
// payloads are identical to the serial run.
template <typename Fn>
void ExpectBitwiseStable(Fn compute) {
  std::vector<std::vector<double>> results;
  for (int threads : kThreadCounts) {
    util::ScopedParallelism p(threads);
    // Copy through iterators: compute() may return any contiguous double
    // container (Matrix::data() is an aligned vector type).
    const auto r = compute();
    results.emplace_back(r.begin(), r.end());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].size(), results[i].size());
    for (size_t j = 0; j < results[0].size(); ++j) {
      ASSERT_EQ(results[0][j], results[i][j])
          << "mismatch vs serial at element " << j << " with "
          << kThreadCounts[i] << " threads";
    }
  }
}

// Runs `compute` at widths 1 and 4 and checks the two results are
// memcmp-equal (so -0.0 vs 0.0 or NaN payload drift would fail too).
template <typename Fn>
void ExpectMemcmpEqualAt1And4(Fn compute) {
  std::vector<double> serial;
  std::vector<double> pooled;
  {
    util::ScopedParallelism p(1);
    const auto r = compute();
    serial.assign(r.begin(), r.end());
  }
  {
    util::ScopedParallelism p(4);
    const auto r = compute();
    pooled.assign(r.begin(), r.end());
  }
  ASSERT_EQ(serial.size(), pooled.size());
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.size() * sizeof(double)),
            0);
}

TEST(ParallelEquivalenceTest, MatMul) {
  const la::Matrix a = RandomMatrix(123, 77, 1);
  const la::Matrix b = RandomMatrix(77, 91, 2);
  ExpectBitwiseStable([&] { return a.MatMul(b).data(); });
}

TEST(ParallelEquivalenceTest, TransposedMatMul) {
  const la::Matrix a = RandomMatrix(123, 77, 3);
  const la::Matrix b = RandomMatrix(123, 55, 4);
  ExpectBitwiseStable([&] { return a.TransposedMatMul(b).data(); });
}

TEST(ParallelEquivalenceTest, MatMulTransposed) {
  const la::Matrix a = RandomMatrix(97, 64, 5);
  const la::Matrix b = RandomMatrix(83, 64, 6);
  ExpectBitwiseStable([&] { return a.MatMulTransposed(b).data(); });
}

TEST(ParallelEquivalenceTest, Transposed) {
  const la::Matrix a = RandomMatrix(111, 67, 7);
  ExpectBitwiseStable([&] { return a.Transposed().data(); });
}

TEST(ParallelEquivalenceTest, SparseMultiply) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(300, RingWithChords(300));
  const la::Matrix x = RandomMatrix(300, 32, 8);
  ExpectBitwiseStable([&] { return s.Multiply(x).data(); });
  ExpectBitwiseStable([&] { return s.TransposedMultiply(x).data(); });
}

// A serve-shaped discriminator forward, F -> 64 -> 32 -> 3 with leaky
// ReLU between layers, at batch sizes on both sides of the work-sized
// dispatch threshold: 9, 32 and 64 rows run every layer inline, 256 rows
// split the first layer. The backward products of the first layer ride
// along.
TEST(ParallelEquivalenceTest, ServeShapedForwardAcrossDispatchThreshold) {
  constexpr size_t kFeatures = 64;
  const la::Matrix w1 = RandomMatrix(kFeatures, 64, 21);
  const la::Matrix w2 = RandomMatrix(64, 32, 22);
  const la::Matrix w3 = RandomMatrix(32, 3, 23);
  const size_t grain = util::GrainForWork(kFeatures * 64);
  for (size_t rows : {9, 32, 64, 256}) {
    SCOPED_TRACE(rows);
    EXPECT_EQ(rows >= 2 * grain, rows == 256) << "threshold moved";
    const la::Matrix x = RandomMatrix(rows, kFeatures, 20 + rows);
    ExpectMemcmpEqualAt1And4([&] {
      la::Matrix h1;
      la::Matrix h2;
      la::Matrix logits;
      x.MatMulInto(w1, &h1);
      for (double& v : h1.data()) v = v > 0.0 ? v : 0.2 * v;
      h1.MatMulInto(w2, &h2);
      for (double& v : h2.data()) v = v > 0.0 ? v : 0.2 * v;
      h2.MatMulInto(w3, &logits);
      la::Matrix grad_w1;
      la::Matrix grad_x;
      la::Matrix xt;
      x.TransposedMatMulInto(h1, &grad_w1);
      h1.MatMulTransposedInto(w1, &grad_x);
      x.TransposeInto(&xt);
      std::vector<double> flat(logits.data().begin(), logits.data().end());
      flat.insert(flat.end(), grad_w1.data().begin(), grad_w1.data().end());
      flat.insert(flat.end(), grad_x.data().begin(), grad_x.data().end());
      flat.insert(flat.end(), xt.data().begin(), xt.data().end());
      return flat;
    });
  }
}

// Checks all four block-parallel SpMM forms of `s` at widths 1, 3 and 64
// are memcmp-equal at widths 1 and 4.
void ExpectSparseFormsStable(const la::SparseMatrix& s) {
  const size_t n = s.rows();
  for (size_t width : {1, 3, 64}) {
    SCOPED_TRACE(width);
    const la::Matrix x = RandomMatrix(n, width, 30 + width);
    const la::Matrix bias = RandomMatrix(1, width, 40 + width);
    ExpectMemcmpEqualAt1And4([&] {
      la::Matrix out;
      s.MultiplyInto(x, &out);
      return out.data();
    });
    ExpectMemcmpEqualAt1And4([&] {
      la::Matrix out;
      s.MultiplyFusedInto(x, bias, la::SpmmEpilogue::kBiasLeakyRelu, 0.2,
                          &out);
      return out.data();
    });
    ExpectMemcmpEqualAt1And4([&] {
      la::Matrix out;
      s.TransposedMultiplyInto(x, &out);
      return out.data();
    });
    // Strided: live columns [0, width) of a wider row-major buffer; the
    // dead tail columns of `out` must stay untouched (sentinel 7.0).
    const size_t stride = width + 5;
    std::vector<double> in(n * stride, 0.0);
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < width; ++j) in[r * stride + j] = x.At(r, j);
    }
    ExpectMemcmpEqualAt1And4([&] {
      std::vector<double> out(n * stride, 7.0);
      s.MultiplyStridedInto(in.data(), width, stride, out.data());
      return out;
    });
  }
}

// All four block-parallel SpMM forms at widths 1, 3 and 64, on a 60-node
// graph (one row block: inline) and a 4000-node graph (several row
// blocks, so the product splits at any width).
TEST(ParallelEquivalenceTest, SparseFormsAcrossDispatchThreshold) {
  for (size_t nodes : {60, 4000}) {
    SCOPED_TRACE(nodes);
    const la::SparseMatrix s =
        la::SparseMatrix::NormalizedAdjacency(nodes, RingWithChords(nodes));
    EXPECT_EQ(s.num_row_blocks() >= 4, nodes == 4000);
    ExpectSparseFormsStable(s);
  }
}

TEST(ParallelEquivalenceTest, KMeans) {
  const la::Matrix data = RandomMatrix(900, 16, 9);
  la::KMeansOptions options;
  options.num_clusters = 12;
  ExpectBitwiseStable([&] {
    util::Rng rng(42);  // same seed per run: only threading may vary
    util::Result<la::KMeansResult> result = la::KMeans(data, options, rng);
    EXPECT_TRUE(result.ok());
    const auto& centroids = result.value().centroids.data();
    std::vector<double> flat(centroids.begin(), centroids.end());
    for (size_t a : result.value().assignments) {
      flat.push_back(static_cast<double>(a));
    }
    flat.insert(flat.end(), result.value().distances.begin(),
                result.value().distances.end());
    flat.push_back(result.value().inertia);
    return flat;
  });
}

TEST(ParallelEquivalenceTest, PprBatch) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(400, RingWithChords(400));
  std::vector<size_t> seeds;
  for (size_t v = 0; v < 64; ++v) seeds.push_back(v * 6 % 400);
  ExpectBitwiseStable([&] {
    prop::PprEngine engine(&s);
    engine.ComputeRows(seeds);
    std::vector<double> flat;
    for (size_t v : seeds) {
      const std::vector<double>& row = engine.Row(v);
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return flat;
  });
}

TEST(ParallelEquivalenceTest, PprBatchMatchesSerialRowCalls) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(200, RingWithChords(200));
  prop::PprEngine batch(&s);
  prop::PprEngine serial(&s);
  std::vector<size_t> seeds = {0, 7, 7, 50, 199, 3};  // includes a duplicate
  {
    util::ScopedParallelism p(4);
    batch.ComputeRows(seeds);
  }
  for (size_t v : seeds) {
    util::ScopedParallelism p(1);
    const std::vector<double>& expect = serial.Row(v);
    const std::vector<double>& got = batch.Row(v);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(expect[i], got[i]);
  }
  EXPECT_EQ(batch.num_computed_rows(), 5u);  // duplicate computed once
}

TEST(ParallelEquivalenceTest, QuerySelectorGale) {
  const size_t n = 500;
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(n, RingWithChords(n));
  const la::Matrix embeddings = RandomMatrix(n, 24, 10);
  la::Matrix probs(n, 2);
  util::Rng prng(11);
  for (size_t v = 0; v < n; ++v) {
    const double p = prng.Uniform(0.05, 0.95);
    probs.At(v, 0) = p;
    probs.At(v, 1) = 1.0 - p;
  }
  std::vector<int> labels(n, core::kUnlabeled);
  for (size_t v = 0; v < n; v += 17) {
    labels[v] = (v % 34 == 0) ? core::kLabelError : core::kLabelCorrect;
  }
  ExpectBitwiseStable([&] {
    core::QuerySelector selector(&s, core::QuerySelectorOptions{});
    util::Result<std::vector<size_t>> picks =
        selector.Select(embeddings, labels, probs, 12);
    EXPECT_TRUE(picks.ok());
    std::vector<double> flat;
    for (size_t v : picks.value()) flat.push_back(static_cast<double>(v));
    return flat;
  });
}

}  // namespace
}  // namespace gale
