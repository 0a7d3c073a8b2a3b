/// \file harness.hpp
/// \brief Measurement plumbing shared by the benchmark workloads: the
///        benchmark's own span tracer, sample summaries, the pass/fail
///        tally and the metric report printed at exit.
///
/// Everything here lives outside the program under test. Spans are
/// recorded only around calls the benchmark makes into the public API,
/// so the program's own code paths are identical with tracing on or off.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// In-memory span recorder (single-threaded: spans open and close on the
/// benchmark's main thread). Disabled, open() and close() do nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span nested in the innermost open one; returns its id or -1.
  int open(std::string name);
  void close(int id);

  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (complete events, with
  /// the parent index as an argument). Returns false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Prints the per-span self-time table: for each name, its count, total
  /// time, and self time (duration minus the time its children cover).
  void print_self_time_table() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide tracer the workloads record into.
Tracer& tracer();

/// RAII span on tracer().
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) : id_(tracer().open(std::move(name))) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// While alive, pins the calling thread to one CPU of the process's
/// original affinity mask, the next one in turn on each construction, and
/// restores the mask when destroyed. The CPUs of a shared machine run at
/// different and drifting speeds, so single-threaded measurements rotate
/// over all of them instead of sampling whichever one the scheduler picked.
/// Threads must not be created while pinned: they would inherit the pin.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
};

/// Median, the highest reported percentile that still has at least ten
/// samples beyond it, and the sample count.
struct Summary {
  double median = 0.0;
  double tail_percentile = 0.0;  ///< 0 when fewer than 40 samples
  double tail_value = 0.0;
  std::size_t count = 0;
};
Summary summarize(std::span<const double> samples);
double median(std::span<const double> samples);

/// Counts attempted and failed operations; failures are logged to stderr.
class Tally {
 public:
  /// Records one operation; returns `ok`.
  bool record(bool ok, const std::string& what);
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Metrics collected by a run, printed as a human-readable table and as
/// the final one-line JSON result.
class Report {
 public:
  /// A timed metric: the value is the median of the samples.
  void add_samples(const std::string& name, const std::string& unit,
                   std::span<const double> samples);
  /// A single value (count, ratio, or a value derived from medians).
  void add_value(const std::string& name, const std::string& unit,
                 double value);
  /// A line of context printed with the table (not part of the result).
  void note(const std::string& line);

  /// Prints the table, then the JSON result as the last stdout line.
  void print(const Tally& tally, bool correct) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    Summary summary;
    bool timed = false;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// FNV-1a over raw bytes, chained through `hash`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 1469598103934665603ull);
std::uint64_t fnv1a(std::span<const double> values,
                    std::uint64_t hash = 1469598103934665603ull);

/// Peak resident set of this process, in MB, since the last
/// reset_peak_rss() (since process start when the kernel cannot reset it).
double self_peak_rss_mb();
/// Restarts the peak-RSS high-water mark at the current RSS, so each round
/// reports its own peak.
void reset_peak_rss();

/// Size of a file in bytes (0 when missing).
long long file_bytes(const std::string& path);

/// Reads a whole file (empty when missing).
std::string slurp(const std::string& path);

/// Replaces the file's contents; returns false on I/O failure.
bool write_file(const std::string& path, const std::string& bytes);

}  // namespace perfbench
