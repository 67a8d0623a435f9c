// e2ebench — one workload per process; prints one JSON document of raw
// measurements on stdout (run.py turns it into metrics).
//
//   e2ebench --workload detect|ingest|serve --seed N --seconds S
//            [--trace 0|1] [--work-dir DIR]
//
// With --trace 1 the harness's own spans are recorded, the program's
// obs reports are kept, and the layer probes (parallel dispatch, direct
// scorer) run after the workload.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "la/simd.h"
#include "ledger.h"
#include "util/parallel.h"
#include "workloads.h"

namespace e2ebench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload detect|ingest|serve --seed N "
               "--seconds S [--trace 0|1] [--work-dir DIR]\n");
  return 2;
}

void WriteOutcome(JsonWriter& json, const Outcome& out) {
  json.Key("setup_s");
  json.BeginArray();
  for (double s : out.setup_s) json.Number(s);
  json.EndArray();
  json.Key("setup_cpu_s");
  json.BeginArray();
  for (double s : out.setup_cpu_s) json.Number(s);
  json.EndArray();
  json.Key("attempted");
  json.Int(out.attempted);
  json.Key("failed");
  json.Int(out.failed);
  json.Key("checks");
  json.BeginArray();
  for (const Outcome::Check& check : out.checks) {
    json.BeginObject();
    json.Key("name");
    json.String(check.name);
    json.Key("ok");
    json.Bool(check.ok);
    json.Key("detail");
    json.String(check.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("samples");
  json.BeginObject();
  for (const auto& [name, values] : out.samples) {
    json.Key(name);
    json.BeginArray();
    for (double v : values) json.Number(v);
    json.EndArray();
  }
  json.EndObject();
  json.Key("values");
  json.BeginObject();
  for (const auto& [name, value] : out.values) {
    json.Key(name);
    json.Number(value);
  }
  json.EndObject();
}

void WriteLedger(JsonWriter& json, const Ledger& ledger) {
  json.Key("spans");
  json.BeginArray();
  for (const Ledger::SpanRecord& span : ledger.spans()) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("tid");
    json.Int(span.tid);
    json.Key("parent");
    json.Number(span.parent);
    json.Key("start_ns");
    json.Int(span.start_ns);
    json.Key("dur_ns");
    json.Int(span.dur_ns);
    json.EndObject();
  }
  json.EndArray();
  json.Key("reports");
  json.BeginArray();
  for (const Ledger::ProgramReport& report : ledger.reports()) {
    json.BeginObject();
    json.Key("source");
    json.String(report.source);
    json.Key("epoch_ns");
    json.Int(report.epoch_ns);
    json.Key("tid");
    json.Int(report.tid);
    WriteReport(json, report.report);
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload;
  WorkloadOptions options;
  bool trace = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0.0;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds) {
    return Usage();
  }

  double loadavg[1] = {0.0};
  getloadavg(loadavg, 1);
  const CpuTimes cpu_start = ReadCpuTimes();
  Ledger ledger(trace);
  ThreadId();  // the main thread is thread 0
  Outcome out;
  int parallelism = 0;
  {
    // detect runs single-threaded: its gated metric is CPU time per call,
    // and only for one thread is that the call's run time less what the
    // hypervisor stole. With a 2-thread pool, CPU time per call came out
    // either equal to wall time or 40% above it, from run to run.
    const gale::util::ScopedParallelism width(workload == "detect" ? 1 : 0);
    parallelism = gale::util::Parallelism();
    if (workload == "detect") {
      out = RunDetect(options, ledger);
    } else if (workload == "ingest") {
      out = RunIngest(options, ledger);
    } else if (workload == "serve") {
      out = RunServe(options, ledger);
    } else {
      return Usage();
    }
  }
  if (trace) MeasureParallelDispatch(out);

  const double steal = StealShare(cpu_start, ReadCpuTimes());

  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(workload);
  json.Key("seed");
  json.Int(options.seed);
  json.Key("trace");
  json.Bool(trace);
  json.Key("host");
  json.BeginObject();
  json.Key("nproc");
  json.Int(std::thread::hardware_concurrency());
  json.Key("parallelism");
  json.Int(static_cast<uint64_t>(parallelism));
  json.Key("isa");
  json.String(gale::la::simd::IsaName(gale::la::simd::ActiveIsa()));
  json.Key("compiler");
  json.String(E2EBENCH_COMPILER);
  json.Key("build_type");
  json.String(E2EBENCH_BUILD_TYPE);
  json.Key("loadavg_1m");
  json.Number(loadavg[0]);
  json.Key("steal_share");
  json.Number(steal);
  json.EndObject();
  json.Key("peak_rss_mb");
  json.Number(PeakRssMb());
  WriteOutcome(json, out);
  WriteLedger(json, ledger);
  json.EndObject();
  std::fwrite(json.str().data(), 1, json.str().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
