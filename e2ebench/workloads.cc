#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/sgan.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "graph/synthetic_dataset.h"
#include "serve/batcher.h"
#include "serve/snapshot.h"
#include "store/delta_log.h"
#include "store/store.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace e2ebench {
namespace {

using gale::core::kLabelCorrect;
using gale::core::kLabelError;
using gale::core::kUnlabeled;

// Set-up repetitions of the store-backed workloads; setup_s is their
// median. (detect prepares one dataset per instance instead.)
constexpr int kSetupReps = 7;

// Thread id under which the batcher worker's spans are reported: the
// harness never hands this id to one of its own threads.
constexpr uint32_t kBatcherWorkerTid = 1000;

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- generated inputs for the store-backed workloads -------------------

struct StoreInputs {
  gale::graph::AttributedGraph base;
  std::vector<int> labels;
  gale::core::DiscriminatorSnapshot discriminator;
};

// A planted-partition attributed graph with `error_share` of its nodes
// labeled error and `correct_share` correct, plus an exported,
// untrained discriminator sized for its encoding. Serving cost depends on
// shapes, not on trained weights.
gale::util::Result<StoreInputs> MakeStoreInputs(size_t nodes,
                                                double error_share,
                                                double correct_share,
                                                uint64_t seed) {
  gale::graph::SyntheticConfig config;
  config.name = "e2ebench";
  config.num_nodes = nodes;
  config.num_edges = nodes + nodes / 5;
  config.seed = seed;
  auto generated = gale::graph::GenerateSynthetic(config);
  if (!generated.ok()) return generated.status();
  StoreInputs inputs;
  inputs.base = std::move(generated.value().graph);
  // Exact label counts on a seeded choice of nodes, so every seed pays
  // for the same number of PPR error seeds.
  std::vector<size_t> order(nodes);
  for (size_t v = 0; v < nodes; ++v) order[v] = v;
  gale::util::Rng rng(seed ^ 0x1ABE15ULL);
  rng.Shuffle(order);
  const auto errors = static_cast<size_t>(error_share * nodes);
  const auto corrects = static_cast<size_t>(correct_share * nodes);
  inputs.labels.assign(nodes, kUnlabeled);
  for (size_t i = 0; i < errors + corrects && i < nodes; ++i) {
    inputs.labels[order[i]] = i < errors ? kLabelError : kLabelCorrect;
  }
  const gale::graph::FeatureEncoder encoder;
  gale::core::Sgan sgan(encoder.RawDims(inputs.base),
                        gale::core::SganConfig{.seed = seed});
  inputs.discriminator = sgan.ExportDiscriminator();
  return inputs;
}

// Scorer-layer probes on a published snapshot: construction time, and
// direct ScoreInto over 64-node batches.
void MeasureScorer(const gale::serve::ScoringSnapshot& snapshot,
                   uint64_t seed, Outcome& out) {
  constexpr size_t kBatch = 64;
  std::vector<double>& warm = out.samples["scorer_warm_ms"];
  for (int i = 0; i < 50; ++i) {
    const uint64_t t0 = NowNs();
    gale::serve::SnapshotScorer scorer(&snapshot, kBatch);
    warm.push_back(SecondsSince(t0) * 1e3);
  }
  gale::serve::SnapshotScorer scorer(&snapshot, kBatch);
  gale::util::Rng rng(seed ^ 0x5C0BEULL);
  std::vector<size_t> nodes(kBatch);
  std::vector<gale::serve::NodeScore> scores(kBatch);
  std::vector<double>& batch_us = out.samples["scorer_batch64_us"];
  for (int i = 0; i < 2000; ++i) {
    for (size_t& v : nodes) v = rng.UniformInt(snapshot.num_nodes());
    const uint64_t t0 = NowNs();
    scorer.ScoreInto(nodes, scores.data());
    batch_us.push_back(SecondsSince(t0) * 1e6);
  }
}

// Draws node ids by a Zipf(1) popularity over a seeded permutation.
class ZipfNodes {
 public:
  ZipfNodes(size_t n, uint64_t seed) : ids_(n), cdf_(n) {
    for (size_t i = 0; i < n; ++i) ids_[i] = i;
    gale::util::Rng rng(seed);
    rng.Shuffle(ids_);
    double total = 0.0;
    for (size_t rank = 0; rank < n; ++rank) {
      total += 1.0 / static_cast<double>(rank + 1);
      cdf_[rank] = total;
    }
  }

  size_t Draw(gale::util::Rng& rng) const {
    const double u = rng.Uniform() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<size_t> ids_;
  std::vector<double> cdf_;
};

}  // namespace

void MeasureParallelDispatch(Outcome& out) {
  std::vector<double>& us = out.samples["dispatch_us"];
  for (int i = 0; i < 2000; ++i) {
    const uint64_t t0 = NowNs();
    gale::util::ParallelFor(0, 4096, 1, [](size_t, size_t) {});
    us.push_back(SecondsSince(t0) * 1e6);
  }
}

// --- detect ------------------------------------------------------------

Outcome RunDetect(const WorkloadOptions& options, Ledger& ledger) {
  // The registry DM graph at a tenth of its size (280 nodes), so that one
  // call takes about 200 ms. On a shared VM the host's speed changes in
  // phases of seconds; the median of many short calls sits in the
  // prevailing phase, while 3 s calls at scale 0.5 each average over
  // phases. Measured interleaved on one 4-vCPU host (wall time, 2-thread
  // pool), the run-to-run spread of the median call was 4.8% of the mean
  // here against 9.3% at 0.5.
  constexpr double kScale = 0.1;
  // How many instances one run spreads its calls over. The work of one
  // call depends on its instance (SGAN early stopping, up to 2x), so a run
  // samples many to keep its median steady from seed to seed.
  constexpr size_t kInstances = 30;
  Outcome out;
  auto spec = gale::eval::DatasetByName("DM", kScale);
  if (!spec.ok()) {
    out.AddCheck("detect.dataset", false, spec.status().ToString());
    return out;
  }
  struct Instance {
    std::unique_ptr<gale::eval::PreparedDataset> dataset;
    gale::eval::ExampleSet examples;
    gale::eval::GaleRunOptions run;
    // (prediction hash, F1) of the first call: every later call on the
    // same instance must reproduce both.
    std::optional<std::pair<uint64_t, double>> reference;
  };
  std::vector<Instance> instances(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    const uint64_t seed = options.seed * 1000 + i;
    Ledger::Scope span(ledger, "bench.detect.prepare");
    const Clocks t0 = Clocks::Now();
    auto prepared = gale::eval::PrepareDataset(spec.value(), seed);
    out.EndSetup(t0);
    if (!prepared.ok()) {
      out.AddCheck("detect.prepare", false, prepared.status().ToString());
      return out;
    }
    auto examples = gale::eval::MakeExamples(
        *prepared.value(), {.initial_fraction = 0.1, .seed = seed});
    if (!examples.ok()) {
      out.AddCheck("detect.examples", false, examples.status().ToString());
      return out;
    }
    instances[i].dataset = std::move(prepared).value();
    instances[i].examples = std::move(examples).value();
    instances[i].run = {.total_budget = spec.value().total_budget,
                        .local_budget = spec.value().local_budget,
                        .seed = seed};
  }

  size_t mismatches = 0;
  size_t repeats = 0;
  // One RunGale call; returns its wall and CPU time in ms, or a negative
  // wall time when the call failed.
  auto call = [&](Instance& inst) -> std::pair<double, double> {
    ++out.attempted;
    gale::util::Result<gale::eval::GaleOutcome> outcome =
        gale::util::Status::Internal("not run");
    uint64_t t0 = 0;
    double ms = 0.0;
    double cpu_ms = 0.0;
    {
      Ledger::Scope span(ledger, "bench.detect.run_gale");
      const double cpu0 = ProcessCpuSeconds();
      t0 = NowNs();
      outcome = gale::eval::RunGale(*inst.dataset, inst.examples, inst.run);
      ms = SecondsSince(t0) * 1e3;
      cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
    }
    if (!outcome.ok()) {
      out.AddCheck("detect.run_gale", false, outcome.status().ToString());
      return {-1.0, 0.0};
    }
    const std::vector<int>& predicted = outcome.value().detail.predicted;
    const uint64_t hash =
        Fnv1a(predicted.data(), predicted.size() * sizeof(int),
              0xcbf29ce484222325ULL);
    const double f1 = outcome.value().outcome.metrics.f1;
    if (!inst.reference) {
      inst.reference.emplace(hash, f1);
      out.samples["f1"].push_back(f1);
    } else {
      ++repeats;
      if (inst.reference->first != hash || inst.reference->second != f1) {
        ++mismatches;
        ++out.failed;
      }
    }
    if (ledger.enabled()) {
      ledger.AddReport("gale.run", t0, ThreadId(),
                       outcome.value().detail.report);
    }
    return {ms, cpu_ms};
  };

  // An untimed warm-up call on instance 0 (pool start-up, first-touch
  // allocations). The timed calls then go round-robin from instance 0, so
  // the first of them repeats the warm-up's inputs.
  call(instances[0]);
  out.MarkWorkingSet();
  // Each timed call runs pinned to the next allowed vCPU in turn. On a
  // shared VM each vCPU's speed moves in its own phases of about ten
  // seconds, and a single thread left to the scheduler mostly stays on
  // one vCPU, so its run would follow that vCPU's phase.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::vector<double>& run_ms = out.samples["run_ms"];
  std::vector<double>& run_cpu_ms = out.samples["run_cpu_ms"];
  const uint64_t start = NowNs();
  for (size_t i = 0; i == 0 || SecondsSince(start) < options.seconds; ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const auto [ms, cpu_ms] = call(instances[i % kInstances]);
    if (ms >= 0.0) {
      run_ms.push_back(ms);
      run_cpu_ms.push_back(cpu_ms);
    }
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  // Pushed directly: each mismatching call was already counted as failed.
  out.checks.push_back(
      {"detect.repeatable", mismatches == 0 && repeats > 0,
       std::to_string(mismatches) + " of " + std::to_string(repeats) +
           " repeated RunGale calls differ from their instance's first "
           "call in predictions or F1"});
  return out;
}

// --- ingest ------------------------------------------------------------

namespace {

// Seeded delta stream over a store's evolving state. Attribute/label
// epochs retire three error labels, mint three, and rewrite two attribute
// values, so the error-seed count (and a cold PPR pass's size) stays
// constant; every kTopologyEvery-th epoch adds one new edge.
class DeltaStream {
 public:
  static constexpr uint64_t kTopologyEvery = 10;

  DeltaStream(const std::vector<int>& labels, uint64_t seed) : rng_(seed) {
    for (size_t v = 0; v < labels.size(); ++v) {
      (labels[v] == kLabelError ? errors_ : others_).push_back(v);
    }
  }

  static bool IsTopology(uint64_t epoch) {
    return epoch % kTopologyEvery == kTopologyEvery - 1;
  }

  // The batch for `epoch` against the store's current graph, and the
  // nodes it touches (for the probe read).
  gale::store::DeltaBatch Next(uint64_t epoch,
                               const gale::graph::AttributedGraph& g,
                               std::vector<size_t>* touched) {
    gale::store::DeltaBatch batch;
    touched->clear();
    const size_t n = g.num_nodes();
    if (IsTopology(epoch)) {
      for (;;) {
        const size_t u = rng_.UniformInt(n);
        const size_t v = rng_.UniformInt(n);
        const size_t type = rng_.UniformInt(g.num_edge_types());
        if (u == v || g.HasEdge(u, v, type)) continue;
        batch.push_back(gale::store::Delta::UpsertEdge(u, v, type));
        touched->assign({u, v});
        return batch;
      }
    }
    retire_.clear();
    mint_.clear();
    for (int i = 0; i < 3; ++i) {
      retire_.push_back(Take(errors_));
      mint_.push_back(Take(others_));
    }
    for (size_t v : retire_) {
      batch.push_back(gale::store::Delta::SetLabel(v, kLabelCorrect));
      touched->push_back(v);
    }
    for (size_t v : mint_) {
      batch.push_back(gale::store::Delta::SetLabel(v, kLabelError));
      touched->push_back(v);
    }
    for (int i = 0; i < 2; ++i) {
      const size_t v = rng_.UniformInt(n);
      const size_t attr = rng_.UniformInt(g.num_attributes(v));
      const gale::graph::ValueKind kind = g.attribute_def(v, attr).kind;
      gale::graph::AttributeValue value =
          kind == gale::graph::ValueKind::kNumeric
              ? gale::graph::AttributeValue::Number(
                    static_cast<double>(rng_.UniformInt(10000)) / 100.0)
              : gale::graph::AttributeValue::Text(
                    "v" + std::to_string(rng_.UniformInt(500)));
      batch.push_back(gale::store::Delta::SetAttribute(v, attr, value));
      touched->push_back(v);
    }
    std::sort(touched->begin(), touched->end());
    touched->erase(std::unique(touched->begin(), touched->end()),
                   touched->end());
    return batch;
  }

  // Commits the label moves of the last Next() once its batch applied.
  void Commit() {
    errors_.insert(errors_.end(), mint_.begin(), mint_.end());
    others_.insert(others_.end(), retire_.begin(), retire_.end());
    retire_.clear();
    mint_.clear();
  }

 private:
  size_t Take(std::vector<size_t>& pool) {
    const size_t i = rng_.UniformInt(pool.size());
    const size_t v = pool[i];
    pool[i] = pool.back();
    pool.pop_back();
    return v;
  }

  gale::util::Rng rng_;
  std::vector<size_t> errors_;
  std::vector<size_t> others_;
  std::vector<size_t> retire_;
  std::vector<size_t> mint_;
};

bool ScoresSane(const std::vector<gale::serve::NodeScore>& scores) {
  for (const gale::serve::NodeScore& s : scores) {
    if (!(s.p_error >= 0.0 && s.p_error <= 1.0) ||
        !(s.error_influence >= 0.0)) {
      return false;
    }
  }
  return true;
}

// Recovery: reads the log back, replays it into a fresh store built
// from the base graph, and publishes.
gale::util::Result<gale::store::PublishedSnapshot> RecoverFromLog(
    const StoreInputs& in, const std::string& log_path, Ledger& ledger,
    Outcome& out) {
  Ledger::Scope span(ledger, "bench.ingest.replay");
  const uint64_t start = NowNs();
  gale::util::Result<std::vector<gale::store::DeltaBatch>> batches =
      gale::util::Status::Internal("not run");
  {
    Ledger::Scope read_span(ledger, "bench.ingest.log_read");
    batches = gale::store::ReadDeltaLog(log_path);
  }
  if (!batches.ok()) return batches.status();
  const uint64_t epoch_ns = NowNs();
  auto store =
      gale::store::VersionedGraphStore::Create(in.base.Clone(), in.labels);
  if (!store.ok()) return store.status();
  GALE_RETURN_IF_ERROR(store.value()->Replay(batches.value()));
  auto published = store.value()->PublishSnapshot(in.discriminator);
  out.values["replay_s"] = SecondsSince(start);
  if (ledger.enabled()) {
    ledger.AddReport("store.replay", epoch_ns, ThreadId(),
                     store.value()->ObsReport());
  }
  return published;
}

}  // namespace

Outcome RunIngest(const WorkloadOptions& options, Ledger& ledger) {
  Outcome out;
  auto inputs = MakeStoreInputs(4000, 0.05, 0.10, options.seed);
  if (!inputs.ok()) {
    out.AddCheck("ingest.inputs", false, inputs.status().ToString());
    return out;
  }
  const StoreInputs& in = inputs.value();
  const std::string log_path = options.work_dir + "/ingest.galedlog";

  std::unique_ptr<gale::store::VersionedGraphStore> store;
  std::optional<gale::store::PublishedSnapshot> last;
  uint64_t store_epoch_ns = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    gale::graph::AttributedGraph base = in.base.Clone();
    Ledger::Scope span(ledger, "bench.ingest.setup");
    const Clocks t0 = Clocks::Now();
    auto created =
        gale::store::VersionedGraphStore::Create(std::move(base), in.labels);
    if (!created.ok()) {
      out.AddCheck("ingest.create", false, created.status().ToString());
      return out;
    }
    auto published = created.value()->PublishSnapshot(in.discriminator);
    out.EndSetup(t0);
    if (!published.ok()) {
      out.AddCheck("ingest.publish", false, published.status().ToString());
      return out;
    }
    store = std::move(created).value();
    last.emplace(std::move(published).value());
    store_epoch_ns = t0.wall_ns;
  }
  auto writer = gale::store::DeltaLogWriter::Create(log_path);
  if (!writer.ok()) {
    out.AddCheck("ingest.log", false, writer.status().ToString());
    return out;
  }

  DeltaStream stream(in.labels, options.seed ^ 0xDE17A5ULL);
  std::vector<size_t> touched;
  std::vector<gale::serve::NodeScore> scores;
  std::vector<double>& fresh_attr = out.samples["fresh_attr_ms"];
  std::vector<double>& fresh_topo = out.samples["fresh_topo_ms"];
  size_t bad_probes = 0;
  const uint64_t start = NowNs();
  for (uint64_t epoch = 0; SecondsSince(start) < options.seconds; ++epoch) {
    const bool topology = DeltaStream::IsTopology(epoch);
    const gale::store::DeltaBatch batch =
        stream.Next(epoch, store->graph(), &touched);
    ++out.attempted;
    Ledger::Scope epoch_span(ledger, topology ? "bench.ingest.epoch.topo"
                                              : "bench.ingest.epoch.attr");
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    gale::util::Status status;
    {
      Ledger::Scope span(ledger, "bench.ingest.log_append");
      status = writer.value().Append(batch);
    }
    if (status.ok()) {
      Ledger::Scope span(ledger, "bench.ingest.apply");
      status = store->ApplyBatch(batch);
    }
    if (!status.ok()) {
      out.AddCheck("ingest.apply", false, status.ToString());
      break;  // the log and the store no longer agree
    }
    stream.Commit();
    gale::util::Result<gale::store::PublishedSnapshot> published =
        gale::util::Status::Internal("not run");
    {
      Ledger::Scope span(ledger, "bench.ingest.publish");
      published = store->PublishSnapshot(in.discriminator);
    }
    if (!published.ok()) {
      out.AddCheck("ingest.publish", false, published.status().ToString());
      break;
    }
    last.emplace(std::move(published).value());
    scores.resize(touched.size());
    {
      Ledger::Scope span(ledger, "bench.ingest.probe_read");
      gale::serve::SnapshotScorer scorer(&last->snapshot, touched.size());
      scorer.ScoreInto(touched, scores.data());
    }
    const double ms = SecondsSince(t0) * 1e3;
    const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
    // The two kinds of epoch keep separate distributions.
    (topology ? fresh_topo : fresh_attr).push_back(ms);
    out.samples[topology ? "fresh_topo_cpu_ms" : "fresh_attr_cpu_ms"]
        .push_back(cpu_ms);
    out.MarkWorkingSet();
    if (!ScoresSane(scores)) ++bad_probes;
  }
  out.values["epochs"] =
      static_cast<double>(fresh_attr.size() + fresh_topo.size());
  out.AddCheck("ingest.probe_scores", bad_probes == 0,
               std::to_string(bad_probes) +
                   " probe reads returned a score outside its range");
  if (ledger.enabled()) {
    ledger.AddReport("store.live", store_epoch_ns, ThreadId(),
                     store->ObsReport());
  }

  // The recovered store must serialise byte-for-byte like the live
  // store's last publish (incremental == scratch).
  auto republished = RecoverFromLog(in, log_path, ledger, out);
  if (!republished.ok()) {
    out.AddCheck("ingest.replay", false, republished.status().ToString());
    return out;
  }

  const std::string live_path = options.work_dir + "/ingest.live.snapshot";
  const std::string replay_path =
      options.work_dir + "/ingest.replay.snapshot";
  const gale::util::Status saved_live = last->snapshot.Save(live_path);
  const gale::util::Status saved_replay =
      republished.value().snapshot.Save(replay_path);
  const bool same = saved_live.ok() && saved_replay.ok() &&
                    ReadFileBytes(live_path) == ReadFileBytes(replay_path);
  out.AddCheck("ingest.replay_equals_live", same,
               "replayed epoch " +
                   std::to_string(republished.value().epoch) +
                   " vs live epoch " + std::to_string(last->epoch) +
                   (same ? ": serialised snapshots are byte-identical"
                         : ": serialised snapshots differ"));
  std::remove(live_path.c_str());
  std::remove(replay_path.c_str());
  std::remove(log_path.c_str());
  if (ledger.enabled()) MeasureScorer(last->snapshot, options.seed, out);
  return out;
}

// --- serve -------------------------------------------------------------

Outcome RunServe(const WorkloadOptions& options, Ledger& ledger) {
  Outcome out;
  auto inputs = MakeStoreInputs(20000, 0.005, 0.05, options.seed);
  if (!inputs.ok()) {
    out.AddCheck("serve.inputs", false, inputs.status().ToString());
    return out;
  }
  const StoreInputs& in = inputs.value();
  // One set-up: create a store and publish its snapshot.
  auto set_up = [&]() -> std::optional<gale::store::PublishedSnapshot> {
    gale::graph::AttributedGraph base = in.base.Clone();
    Ledger::Scope span(ledger, "bench.serve.setup");
    const Clocks t0 = Clocks::Now();
    auto created =
        gale::store::VersionedGraphStore::Create(std::move(base), in.labels);
    if (!created.ok()) {
      out.AddCheck("serve.create", false, created.status().ToString());
      return std::nullopt;
    }
    auto made = created.value()->PublishSnapshot(in.discriminator);
    out.EndSetup(t0);
    if (!made.ok()) {
      out.AddCheck("serve.publish", false, made.status().ToString());
      return std::nullopt;
    }
    return std::move(made).value();
  };
  // The first set-up publishes the snapshot that is served; the other
  // repetitions for setup_s run after the window. Run before it, their
  // freed memory stayed in the pool threads' malloc arenas and moved the
  // working-set peak by 10 to 20% from run to run.
  std::optional<gale::store::PublishedSnapshot> published = set_up();
  if (!published) return out;
  const gale::serve::ScoringSnapshot& snapshot = published->snapshot;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t callers = std::max<size_t>(1, hw / 2);
  const ZipfNodes popularity(snapshot.num_nodes(), options.seed ^ 0x21BFULL);
  struct Sampled {
    std::vector<size_t> nodes;
    std::vector<gale::serve::NodeScore> scores;
  };
  struct Caller {
    std::vector<double> latency_us;
    std::vector<Sampled> sampled;
    uint64_t attempted = 0;
    uint64_t rejected = 0;
    uint64_t other_errors = 0;
    // NowNs() at which each latency_us sample completed.
    std::vector<uint64_t> end_ns;
  };
  std::vector<Caller> state(callers);
  // The callers run this long before the measured window opens.
  constexpr double kWarmupSeconds = 1.0;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  uint64_t window_start = 0;
  uint64_t window_end = 0;

  const uint64_t batcher_epoch_ns = NowNs();
  gale::serve::RequestBatcher batcher(&snapshot, {.max_batch = 64});
  {
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (size_t c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        Caller& me = state[c];
        me.latency_us.reserve(1 << 20);
        me.end_ns.reserve(1 << 20);
        gale::util::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + c + 1);
        gale::serve::ScoreRequest request;
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const uint64_t t0 = NowNs();
          request.node_ids.resize(1 + rng.UniformInt(16));
          for (size_t& v : request.node_ids) v = popularity.Draw(rng);
          ++me.attempted;
          gale::util::Result<std::vector<gale::serve::NodeScore>> scores =
              gale::util::Status::Internal("not run");
          {
            std::optional<Ledger::Scope> span;
            if (i % 16 == 0) span.emplace(ledger, "bench.serve.request");
            scores = batcher.Score(request);
          }
          const uint64_t t1 = NowNs();
          if (!scores.ok()) {
            if (scores.status().code() ==
                gale::util::StatusCode::kOverloaded) {
              ++me.rejected;
            } else {
              ++me.other_errors;
            }
            continue;
          }
          me.latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          me.end_ns.push_back(t1);
          if (i % 64 == 0) {
            me.sampled.push_back(
                {request.node_ids, std::move(scores).value()});
          }
        }
      });
    }
    // Set-up plus the serving state (snapshot, batcher, callers); taken
    // before the batcher's per-batch obs spans start to accumulate.
    out.MarkWorkingSet();
    go.store(true, std::memory_order_release);
    const auto sleep_s = [](double seconds) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<int64_t>(seconds * 1e9)));
    };
    sleep_s(kWarmupSeconds);
    const double cpu0 = ProcessCpuSeconds();
    window_start = NowNs();
    sleep_s(options.seconds);
    window_end = NowNs();
    out.values["window_cpu_s"] = ProcessCpuSeconds() - cpu0;
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
  }
  out.values["window_s"] =
      static_cast<double>(window_end - window_start) * 1e-9;
  batcher.Stop();
  if (ledger.enabled()) {
    ledger.AddReport("serve.batcher", batcher_epoch_ns, kBatcherWorkerTid,
                     batcher.ObsReport());
  }

  // The window's requests: those that completed inside it.
  std::vector<double>& latency = out.samples["request_us"];
  uint64_t rejected = 0;
  uint64_t other_errors = 0;
  for (Caller& me : state) {
    for (size_t i = 0; i < me.latency_us.size(); ++i) {
      if (me.end_ns[i] >= window_start && me.end_ns[i] < window_end) {
        latency.push_back(me.latency_us[i]);
      }
    }
    out.attempted += me.attempted;
    rejected += me.rejected;
    other_errors += me.other_errors;
  }
  out.failed += rejected + other_errors;
  out.values["callers"] = static_cast<double>(callers);
  for (int r = 1; r < kSetupReps; ++r) {
    if (!set_up()) return out;
  }

  // A serial reference scorer must reproduce every sampled response bit
  // for bit, whatever batch the batcher coalesced it into.
  gale::serve::SnapshotScorer reference(&snapshot, 64);
  std::vector<gale::serve::NodeScore> expected;
  size_t checked = 0;
  size_t mismatched = 0;
  for (const Caller& me : state) {
    for (const Sampled& s : me.sampled) {
      expected.resize(s.nodes.size());
      reference.ScoreInto(s.nodes, expected.data());
      ++checked;
      if (std::memcmp(expected.data(), s.scores.data(),
                      expected.size() * sizeof(gale::serve::NodeScore)) !=
          0) {
        ++mismatched;
      }
    }
  }
  out.AddCheck("serve.matches_serial_reference",
               mismatched == 0 && checked > 0,
               std::to_string(mismatched) + " of " + std::to_string(checked) +
                   " sampled responses differ from a serial SnapshotScorer");
  if (other_errors > 0) {  // already counted in `failed` above
    out.checks.push_back({"serve.errors", false,
                          std::to_string(other_errors) +
                              " requests failed with an error other than "
                              "kOverloaded"});
  }
  if (ledger.enabled()) MeasureScorer(snapshot, options.seed, out);
  return out;
}

}  // namespace e2ebench
