// Measurement plumbing for the end-to-end harness: a clock, the
// harness's own span ledger, program reports kept for the traced run,
// the raw-result record every workload fills, and a small JSON writer.
//
// The harness only measures. Medians, percentiles, self times and the
// per-layer table are computed from its JSON output by run.py, so that
// arithmetic has one implementation (stats.py) with its own tests.

#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/report.h"

namespace e2ebench {

// steady_clock nanoseconds; one time base for every span in a run.
uint64_t NowNs();
double SecondsSince(uint64_t start_ns);
// CPU time this process's threads have used, in seconds. Unlike wall
// time it leaves out time the hypervisor stole from the vCPUs.
double ProcessCpuSeconds();

// A wall-clock and a process CPU-time reading, taken together.
struct Clocks {
  uint64_t wall_ns = 0;
  double cpu_s = 0.0;

  static Clocks Now() { return {NowNs(), ProcessCpuSeconds()}; }
};

// Host CPU-time counters from the aggregate "cpu" line of /proc/stat,
// in jiffies: the sum of every field proc(5) lists up to and including
// steal (guest time is already inside user), and steal alone.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

// Parses an aggregate "cpu ..." line; false when `line` is not one.
// Missing trailing fields count as 0.
bool ParseCpuLine(const std::string& line, CpuTimes* out);
// Reads /proc/stat now; zeros where it cannot be read.
CpuTimes ReadCpuTimes();
// Share of the host's CPU time the hypervisor stole between two
// readings, in [0, 1]; 0 when no time passed.
double StealShare(const CpuTimes& before, const CpuTimes& after);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Small dense id of the calling thread (0 = first thread that asked).
uint32_t ThreadId();

// The harness's own spans, opened around calls into the program's
// public entry points. Disabled (every Scope inert) unless tracing.
// Thread-safe; each thread nests its spans on its own stack.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    // `name` must be a string literal.
    Scope(Ledger& ledger, const char* name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_ = nullptr;
    int32_t index_ = -1;
  };

  // Keeps a program-side obs::Report for the merged span tree. Its span
  // times are relative to the Trace that recorded them; `epoch_ns` is a
  // NowNs() reading taken just before that Trace was created, and `tid`
  // names the thread its spans ran on. Counters/gauges/histograms ride
  // along. No-op when disabled.
  void AddReport(const char* source, uint64_t epoch_ns, uint32_t tid,
                 const gale::obs::Report& report);

  struct SpanRecord {
    const char* name;
    uint32_t tid;
    int32_t parent;  // index into spans, -1 for a root
    uint64_t start_ns;
    uint64_t dur_ns;
  };
  struct ProgramReport {
    const char* source;
    uint64_t epoch_ns;
    uint32_t tid;
    gale::obs::Report report;
  };

  // Only valid once every Scope has closed.
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<ProgramReport>& reports() const { return reports_; }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<ProgramReport> reports_;
};

// What a workload hands back to main: raw samples, never summaries.
struct Outcome {
  // Each set-up repetition's wall time and process CPU time (s).
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks;
  // Named raw samples (e.g. per-operation milliseconds).
  std::map<std::string, std::vector<double>> samples;
  // Named single values (totals, counts, window lengths).
  std::map<std::string, double> values;

  // Records a check; a failed one also counts as a failed operation.
  void AddCheck(std::string name, bool ok, std::string detail);
  // Records a set-up repetition that started at `start`.
  void EndSetup(const Clocks& start);
  // Records values["working_rss_mb"] once, at the first call: the peak
  // RSS through set-up and the first unit of the work (detect, ingest) or
  // the serving state (serve), before anything that grows with uptime
  // (the batcher keeps one span per batch) dominates it.
  void MarkWorkingSet();
};

// Minimal streaming JSON writer (objects, arrays, strings, numbers).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const std::string& key);
  void String(const std::string& value);
  void Number(double value);  // full precision; non-finite -> null
  void Int(uint64_t value);
  void Bool(bool value);

  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  std::vector<bool> first_;  // per open container: no element yet
  bool after_key_ = false;
};

void WriteReport(JsonWriter& json, const gale::obs::Report& report);

}  // namespace e2ebench

#endif  // E2EBENCH_LEDGER_H_
