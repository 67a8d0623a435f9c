#include "core/typicality.h"

#include <algorithm>
#include <cmath>

#include "core/sgan.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gale::core {

util::Result<TypicalityResult> ComputeTypicality(
    const la::Matrix& embeddings, const std::vector<size_t>& unlabeled,
    const std::vector<int>& predicted, const std::vector<int>& soft_labels,
    prop::PprEngine& ppr, const TypicalityOptions& options) {
  if (unlabeled.empty()) {
    return util::Status::InvalidArgument("ComputeTypicality: no candidates");
  }
  if (predicted.size() != embeddings.rows() ||
      soft_labels.size() != embeddings.rows()) {
    return util::Status::InvalidArgument(
        "ComputeTypicality: per-node vectors must match embedding rows");
  }
  if (ppr.num_nodes() != embeddings.rows()) {
    return util::Status::InvalidArgument(
        "ComputeTypicality: PPR node count mismatch");
  }

  util::Rng rng(options.seed);
  TypicalityResult result;
  const size_t m = unlabeled.size();

  // --- clusT: k'-means over the candidate embeddings ---
  la::Matrix candidate_embed = embeddings.SelectRows(unlabeled);
  la::KMeansOptions km;
  km.num_clusters = std::max<size_t>(1, options.num_clusters);
  util::Result<la::KMeansResult> clustering =
      la::KMeans(candidate_embed, km, rng);
  if (!clustering.ok()) return clustering.status();
  result.clustering = std::move(clustering).value();

  // clusT = inverse centroid distance, normalized by the mean distance so
  // the scores are commensurable with topoT and the diversity term
  // regardless of the embedding scale: clusT = 1 / (1 + d/mean_d), in
  // (0, 1].
  result.clus_t.resize(m);
  double mean_distance = 0.0;
  for (size_t i = 0; i < m; ++i) {
    mean_distance += result.clustering.distances[i];
  }
  mean_distance = std::max(mean_distance / static_cast<double>(m), 1e-9);
  for (size_t i = 0; i < m; ++i) {
    result.clus_t[i] =
        1.0 / (1.0 + result.clustering.distances[i] / mean_distance);
  }

  // --- topoT ---
  // Class sets C_l: unlabeled nodes by their predicted label.
  std::vector<size_t> class_members[2];
  for (size_t i = 0; i < m; ++i) {
    const size_t v = unlabeled[i];
    const int label = predicted[v];
    if (label == kLabelError || label == kLabelCorrect) {
      class_members[label].push_back(v);
    }
  }

  result.topo_t.assign(m, 1.0);
  const bool have_both = options.use_topological &&
                         !class_members[0].empty() &&
                         !class_members[1].empty();
  if (have_both) {
    // Influence-conflict vectors conf_l(x) = (1/|C_l|) sum_{i in C_l}
    // P_{i,x}, estimated from a bounded sample of class rows.
    const size_t n = embeddings.rows();

    // The annotator-style per-row PprEngine::Row calls would serialize
    // the power iterations; batch-prefetch every seed this computation
    // will touch (class samples + candidates with a usable soft label) so
    // the independent iterations run on the thread pool and everything
    // below is a pure cache read.
    std::vector<size_t> class_samples[2];
    for (int l = 0; l < 2; ++l) {
      std::vector<size_t>& members = class_members[l];
      std::vector<size_t> sample_idx = rng.SampleWithoutReplacement(
          members.size(),
          std::min(members.size(), options.max_class_samples));
      class_samples[l].reserve(sample_idx.size());
      for (size_t idx : sample_idx) class_samples[l].push_back(members[idx]);
    }
    auto effective_soft_label = [&](size_t v) {
      int ls = soft_labels[v];
      if (ls != kLabelError && ls != kLabelCorrect) ls = predicted[v];
      return ls;
    };
    {
      std::vector<size_t> prefetch;
      prefetch.reserve(class_samples[0].size() + class_samples[1].size() + m);
      for (int l = 0; l < 2; ++l) {
        prefetch.insert(prefetch.end(), class_samples[l].begin(),
                        class_samples[l].end());
      }
      for (size_t i = 0; i < m; ++i) {
        const int ls = effective_soft_label(unlabeled[i]);
        if (ls == kLabelError || ls == kLabelCorrect) {
          prefetch.push_back(unlabeled[i]);
        }
      }
      ppr.ComputeRows(prefetch);
    }

    la::Matrix conflict(2, n);
    for (int l = 0; l < 2; ++l) {
      for (size_t member : class_samples[l]) {
        const std::vector<double>& row = ppr.Row(member);
        double* conf = conflict.RowPtr(l);
        for (size_t x = 0; x < n; ++x) conf[x] += row[x];
      }
      const double inv = 1.0 / static_cast<double>(
                                   std::max<size_t>(1, class_samples[l].size()));
      for (size_t x = 0; x < n; ++x) conflict.At(l, x) *= inv;
    }

    // Candidate scan: each candidate writes only topo_t[i], so it is a
    // map-shaped parallel kernel. With caching disabled (U_GALE) Row()
    // mutates shared scratch, so fall back to the serial scan.
    auto scan = [&](size_t i0, size_t i1) {
      for (size_t i = i0; i < i1; ++i) {
        const size_t v = unlabeled[i];
        const int ls = effective_soft_label(v);
        if (ls != kLabelError && ls != kLabelCorrect) continue;  // topoT = 1
        const int opposing = 1 - ls;
        const std::vector<double>& row = ppr.Row(v);
        const double* conf = conflict.RowPtr(opposing);
        double expectation = 0.0;
        for (size_t x = 0; x < row.size(); ++x) {
          expectation += row[x] * conf[x];
        }
        result.topo_t[i] = std::clamp(1.0 - expectation, 0.0, 1.0);
      }
    };
    if (ppr.cache_enabled()) {
      // gale-lint: allow(parallel-grain): item-count grain, unmeasured at 4T
      util::ParallelFor(0, m, 64, scan);
    } else {
      scan(0, m);
    }
  }

  result.typicality.resize(m);
  for (size_t i = 0; i < m; ++i) {
    result.typicality[i] = result.clus_t[i] * result.topo_t[i];
  }
  return result;
}

}  // namespace gale::core
