#include "la/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/simd.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gale::la {

namespace {

// Target work units per row block. A block closes once its accumulated
// cost (nonzeros plus a small per-row overhead) reaches this, so blocks
// hold many cheap rows but only a few hub rows — the shards the parallel
// products hand out stay balanced under skewed degree distributions. The
// target is large enough that per-block dispatch overhead is noise.
constexpr size_t kBlockCostTarget = 4096;
// Per-row overhead charged on top of the row's nonzeros (loop setup, the
// row-pointer load, the output-row base computation).
constexpr size_t kRowCost = 4;

// Rows [0, rows) partitioned into contiguous blocks of ~kBlockCostTarget
// cost each. Depends only on the sparsity pattern, never the thread count.
simd::AlignedU32Vector BuildRowBlocks(const size_t* row_ptr, size_t rows) {
  simd::AlignedU32Vector blocks;
  blocks.push_back(0);
  size_t cost = 0;
  for (size_t r = 0; r < rows; ++r) {
    cost += kRowCost + (row_ptr[r + 1] - row_ptr[r]);
    if (cost >= kBlockCostTarget) {
      blocks.push_back(static_cast<uint32_t>(r + 1));
      cost = 0;
    }
  }
  if (blocks.back() != rows) blocks.push_back(static_cast<uint32_t>(rows));
  return blocks;
}

// One shard of a CSR-view gather: out[r] += sum_k vals[k] * dense[idx[k]]
// for r in [r0, r1). noinline keeps the kernel out of the ParallelFor
// closure, where the live closure pointer forces the inner-loop bound onto
// the stack and costs ~15% per SpMM call.
__attribute__((noinline)) void GatherRows(const size_t* ptr,
                                          const uint32_t* idx,
                                          const double* vals,
                                          const double* dense, size_t d,
                                          double* out, size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* out_row = out + r * d;
    for (size_t k = ptr[r]; k < ptr[r + 1]; ++k) {
      // simd::Axpy vectorizes across the d output columns; each column's
      // accumulation order over k is unchanged, so the result is bitwise
      // identical to the scalar sweep.
      simd::Axpy(out_row, dense + static_cast<size_t>(idx[k]) * d, vals[k], d);
    }
  }
}

// Bias-add (+ optional activation) over output rows [r0, r1), applied in
// the same shard as the gather. Per row this is exactly
// AddRowBroadcast's simd::AddAssign followed by the in-place simd
// activation sweep, so the fused product stays bitwise identical to the
// unfused composition.
__attribute__((noinline)) void ApplyEpilogueRows(double* out, size_t d,
                                                 const double* bias,
                                                 SpmmEpilogue epilogue,
                                                 double leaky_slope, size_t r0,
                                                 size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* row = out + r * d;
    simd::AddAssign(row, bias, d);
    switch (epilogue) {
      case SpmmEpilogue::kBias:
        break;
      case SpmmEpilogue::kBiasRelu:
        simd::ReluForward(row, row, d);
        break;
      case SpmmEpilogue::kBiasLeakyRelu:
        simd::LeakyReluForward(row, row, leaky_slope, d);
        break;
    }
  }
}

// Strided multi-column gather for the batched PPR sweep: overwrites the
// first `width` columns of every output row in [r0, r1); columns
// [width, stride) are left untouched.
__attribute__((noinline)) void GatherRowsStrided(
    const size_t* ptr, const uint32_t* idx, const double* vals,
    const double* in, size_t width, size_t stride, double* out, size_t r0,
    size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* out_row = out + r * stride;
    std::fill(out_row, out_row + width, 0.0);
    for (size_t k = ptr[r]; k < ptr[r + 1]; ++k) {
      simd::Axpy(out_row, in + static_cast<size_t>(idx[k]) * stride, vals[k],
                 width);
    }
  }
}

}  // namespace

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  // The packed layout indexes columns with uint32 and block starts (row
  // positions up to and including `rows`) with uint32 as well.
  GALE_CHECK(cols <= std::numeric_limits<uint32_t>::max())
      << "CSR column index overflows the packed uint32 layout";
  GALE_CHECK(rows < std::numeric_limits<uint32_t>::max())
      << "CSR row count overflows the packed uint32 layout";
  for (const Triplet& t : triplets) {
    GALE_CHECK_LT(t.row, rows);
    GALE_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(static_cast<uint32_t>(triplets[i].col));
    m.values_.push_back(sum);
    m.row_ptr_[triplets[i].row + 1] += 1;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.block_row_ = BuildRowBlocks(m.row_ptr_.data(), rows);
  return m;
}

SparseMatrix SparseMatrix::NormalizedAdjacency(
    size_t n, const std::vector<std::pair<size_t, size_t>>& edges) {
  // Degrees of A + I (self loop contributes 1 to every node).
  std::vector<double> degree(n, 1.0);
  for (const auto& [u, v] : edges) {
    GALE_CHECK_LT(u, n);
    GALE_CHECK_LT(v, n);
    degree[u] += 1.0;
    degree[v] += 1.0;
  }
  std::vector<double> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0 / std::sqrt(degree[i]);

  std::vector<Triplet> triplets;
  triplets.reserve(2 * edges.size() + n);
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, inv_sqrt[i] * inv_sqrt[i]});
  }
  for (const auto& [u, v] : edges) {
    if (u == v) continue;  // self loops already added above
    const double w = inv_sqrt[u] * inv_sqrt[v];
    triplets.push_back({u, v, w});
    triplets.push_back({v, u, w});
  }
  return FromTriplets(n, n, std::move(triplets));
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  Matrix out;
  MultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::MultiplyInto(const Matrix& dense, Matrix* out,
                                bool accumulate) const {
  GALE_CHECK_EQ(cols_, dense.rows()) << "SpMM shape mismatch";
  GALE_CHECK(out != &dense) << "MultiplyInto aliased output";
  if (accumulate) {
    GALE_CHECK(out->rows() == rows_ && out->cols() == dense.cols())
        << "MultiplyInto accumulate shape mismatch";
  } else {
    out->EnsureShape(rows_, dense.cols());
    out->Fill(0.0);
  }
  const size_t d = dense.cols();
  // Block-parallel: shards hand out whole nnz-balanced row blocks, every
  // output row is a gather over that CSR row only, so shards are disjoint
  // and the result is bitwise thread-count-invariant.
  // gale-lint: allow(parallel-grain): row blocks are sized by BuildRowBlocks
  util::ParallelFor(0, num_row_blocks(), 1, [&](size_t b0, size_t b1) {
    GatherRows(row_ptr_.data(), col_idx_.data(), values_.data(),
               dense.RowPtr(0), d, out->RowPtr(0), block_row_[b0],
               block_row_[b1]);
  });
}

void SparseMatrix::MultiplyFusedInto(const Matrix& dense, const Matrix& bias,
                                     SpmmEpilogue epilogue, double leaky_slope,
                                     Matrix* out) const {
  GALE_CHECK_EQ(cols_, dense.rows()) << "fused SpMM shape mismatch";
  GALE_CHECK(bias.rows() == 1 && bias.cols() == dense.cols())
      << "fused SpMM bias must be 1 x d";
  GALE_CHECK(out != &dense && out != &bias) << "MultiplyFusedInto aliased";
  out->EnsureShape(rows_, dense.cols());
  out->Fill(0.0);
  const size_t d = dense.cols();
  const double* bias_row = bias.RowPtr(0);
  // Same block-parallel sweep as MultiplyInto, with the epilogue applied
  // to each block's rows while they are still warm in cache — no
  // intermediate whole-matrix pass between product, bias, and activation.
  // gale-lint: allow(parallel-grain): row blocks are sized by BuildRowBlocks
  util::ParallelFor(0, num_row_blocks(), 1, [&](size_t b0, size_t b1) {
    const size_t r0 = block_row_[b0];
    const size_t r1 = block_row_[b1];
    GatherRows(row_ptr_.data(), col_idx_.data(), values_.data(),
               dense.RowPtr(0), d, out->RowPtr(0), r0, r1);
    ApplyEpilogueRows(out->RowPtr(0), d, bias_row, epilogue, leaky_slope, r0,
                      r1);
  });
}

void SparseMatrix::MultiplyStridedInto(const double* in, size_t width,
                                       size_t stride, double* out) const {
  GALE_CHECK(width > 0 && width <= stride) << "strided SpMM width/stride";
  GALE_CHECK(in != out) << "MultiplyStridedInto aliased output";
  // gale-lint: allow(parallel-grain): row blocks are sized by BuildRowBlocks
  util::ParallelFor(0, num_row_blocks(), 1, [&](size_t b0, size_t b1) {
    GatherRowsStrided(row_ptr_.data(), col_idx_.data(), values_.data(), in,
                      width, stride, out, block_row_[b0], block_row_[b1]);
  });
}

void SparseMatrix::EnsureTransposeView() const {
  if (transpose_built_) return;
  // Built outside any parallel region (the layer threading contract: one
  // loop owns the matrix, parallelism lives inside kernels), so the lazy
  // mutation cannot race.
  GALE_DCHECK(!util::InParallelRegion())
      << "transpose view first built inside a parallel region";
  // The serial scatter (out[col] += w * dense[row]) races under row
  // partitioning, so materialize the transpose's CSC view and gather over
  // its rows instead. The counting sort is stable in the row index, which
  // keeps each output row's accumulation in ascending source-row order —
  // exactly the serial scatter's order — so the product stays bitwise
  // thread-count-invariant.
  const size_t nnz = values_.size();
  t_ptr_.assign(cols_ + 1, 0);
  for (size_t k = 0; k < nnz; ++k) t_ptr_[col_idx_[k] + 1] += 1;
  for (size_t c = 0; c < cols_; ++c) t_ptr_[c + 1] += t_ptr_[c];
  t_idx_.resize(nnz);
  t_val_.resize(nnz);
  {
    std::vector<size_t> cursor(t_ptr_.begin(), t_ptr_.end() - 1);
    for (size_t r = 0; r < rows_; ++r) {
      for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
        const size_t pos = cursor[col_idx_[k]]++;
        t_idx_[pos] = static_cast<uint32_t>(r);
        t_val_[pos] = values_[k];
      }
    }
  }
  t_block_row_ = BuildRowBlocks(t_ptr_.data(), cols_);
  transpose_built_ = true;
}

Matrix SparseMatrix::TransposedMultiply(const Matrix& dense) const {
  Matrix out;
  TransposedMultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::TransposedMultiplyInto(const Matrix& dense, Matrix* out,
                                          bool accumulate) const {
  GALE_CHECK_EQ(rows_, dense.rows()) << "SpMM^T shape mismatch";
  GALE_CHECK(out != &dense) << "TransposedMultiplyInto aliased output";
  if (accumulate) {
    GALE_CHECK(out->rows() == cols_ && out->cols() == dense.cols())
        << "TransposedMultiplyInto accumulate shape mismatch";
  } else {
    out->EnsureShape(cols_, dense.cols());
    out->Fill(0.0);
  }
  EnsureTransposeView();
  const size_t d = dense.cols();
  const size_t num_blocks =
      t_block_row_.empty() ? 0 : t_block_row_.size() - 1;
  // gale-lint: allow(parallel-grain): row blocks are sized by BuildRowBlocks
  util::ParallelFor(0, num_blocks, 1, [&](size_t b0, size_t b1) {
    GatherRows(t_ptr_.data(), t_idx_.data(), t_val_.data(), dense.RowPtr(0),
               d, out->RowPtr(0), t_block_row_[b0], t_block_row_[b1]);
  });
}

std::vector<double> SparseMatrix::MultiplyVector(
    const std::vector<double>& v) const {
  std::vector<double> out;
  MultiplyVectorInto(v, &out);
  return out;
}

void SparseMatrix::MultiplyVectorInto(const std::vector<double>& v,
                                      std::vector<double>* out) const {
  GALE_CHECK_EQ(cols_, v.size());
  GALE_CHECK(out != &v) << "MultiplyVectorInto aliased output";
  out->resize(rows_);
  // Deliberately scalar: each output entry is one sequential accumulator
  // over an irregular gather (v[col_idx_[k]]), so there is no independent
  // output-element direction to vectorize without changing the summation
  // order — and SpMV is a negligible share of the training loop. The
  // batched PPR path uses MultiplyStridedInto instead, where the seed
  // batch supplies that independent direction.
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
      acc += values_[k] * v[col_idx_[k]];
    }
    (*out)[r] = acc;
  }
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
      out.At(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace gale::la
