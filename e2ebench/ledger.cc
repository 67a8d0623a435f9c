#include "ledger.h"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2ebench {
namespace {

// The calling thread's open harness spans, innermost last. One Ledger
// lives per process, so a plain thread_local stack serves it.
thread_local std::vector<int32_t> t_open;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool ParseCpuLine(const std::string& line, CpuTimes* out) {
  std::istringstream in(line);
  std::string label;
  if (!(in >> label) || label != "cpu") return false;
  // user nice system idle iowait irq softirq steal
  constexpr int kFields = 8;
  CpuTimes times;
  uint64_t value = 0;
  for (int i = 0; i < kFields && in >> value; ++i) {
    times.total += value;
    if (i == kFields - 1) times.steal = value;
  }
  *out = times;
  return true;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes times;
  while (std::getline(in, line)) {
    if (ParseCpuLine(line, &times)) break;
  }
  return times;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

Ledger::Scope::Scope(Ledger& ledger, const char* name) {
  if (!ledger.enabled_) return;
  ledger_ = &ledger;
  const int32_t parent = t_open.empty() ? -1 : t_open.back();
  const uint32_t tid = ThreadId();
  std::lock_guard<std::mutex> lock(ledger.mu_);
  index_ = static_cast<int32_t>(ledger.spans_.size());
  ledger.spans_.push_back({name, tid, parent, NowNs(), 0});
  t_open.push_back(index_);
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  const uint64_t end = NowNs();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(ledger_->mu_);
  SpanRecord& span = ledger_->spans_[static_cast<size_t>(index_)];
  span.dur_ns = end - span.start_ns;
}

void Ledger::AddReport(const char* source, uint64_t epoch_ns, uint32_t tid,
                       const gale::obs::Report& report) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  reports_.push_back({source, epoch_ns, tid, report});
}

void Outcome::AddCheck(std::string name, bool ok, std::string detail) {
  if (!ok) ++failed;
  checks.push_back({std::move(name), ok, std::move(detail)});
}

void Outcome::EndSetup(const Clocks& start) {
  setup_s.push_back(SecondsSince(start.wall_ns));
  setup_cpu_s.push_back(ProcessCpuSeconds() - start.cpu_s);
}

void Outcome::MarkWorkingSet() {
  if (!values.count("working_rss_mb")) values["working_rss_mb"] = PeakRssMb();
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
}

void JsonWriter::Key(const std::string& key) {
  String(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  out_ += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out_ += buf;
}

void JsonWriter::Int(uint64_t value) {
  Separate();
  out_ += std::to_string(value);
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void WriteReport(JsonWriter& json, const gale::obs::Report& report) {
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : report.counters) {
    json.Key(name);
    json.Int(value);
  }
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const auto& [name, hist] : report.histograms) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Int(hist.count);
    json.Key("sum");
    json.Int(hist.sum);
    json.EndObject();
  }
  json.EndObject();
  json.Key("spans");
  json.BeginArray();
  for (const gale::obs::SpanRecord& span : report.spans) {
    json.BeginObject();
    json.Key("name");
    json.String(span.name);
    json.Key("parent");
    json.Number(span.parent);
    json.Key("start_ns");
    json.Int(span.start_ns);
    json.Key("dur_ns");
    json.Int(span.dur_ns);
    json.Key("args");
    json.BeginObject();
    for (const auto& [key, value] : span.args) {
      json.Key(key);
      json.Number(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace e2ebench
