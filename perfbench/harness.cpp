#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = now_s();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close in LIFO order (RAII), so the id is the innermost one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start - epoch) * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Tracer::print_self_time_table() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  struct Row {
    long long count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.end - s.start;
    r.self += (s.end - s.start) - child_time[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::printf("\nper-layer self time (benchmark spans)\n");
  std::printf("%-34s %7s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, r] : sorted)
    std::printf("%-34s %7lld %12.6f %12.6f\n", name.c_str(), r.count, r.total,
                r.self);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

namespace {

/// The affinity mask the process started with, captured once.
const cpu_set_t& original_cpus() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) CPU_ZERO(&m);
    return m;
  }();
  return mask;
}

}  // namespace

CpuPin::CpuPin() {
  static int turn = 0;
  const cpu_set_t& all = original_cpus();
  const int count = CPU_COUNT(&all);
  if (count < 2) return;
  int target = turn++ % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(cpu_set_t), &original_cpus());
}

double median(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = samples.size();
  s.median = median(samples);
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      const std::size_t k = std::min(
          v.size() - 1, static_cast<std::size_t>(std::ceil(
                            p / 100.0 * static_cast<double>(v.size()))) -
                            1);
      s.tail_percentile = p;
      s.tail_value = v[k];
      break;
    }
  }
  return s;
}

bool Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::add_samples(const std::string& name, const std::string& unit,
                         std::span<const double> samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.summary = summarize(samples);
  m.value = m.summary.median;
  m.timed = true;
  metrics_.push_back(std::move(m));
}

void Report::add_value(const std::string& name, const std::string& unit,
                       double value) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  metrics_.push_back(std::move(m));
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(const Tally& tally, bool correct) const {
  std::printf("\n%-30s %16s %-6s %8s %16s %6s\n", "metric", "median/value",
              "unit", "tail", "tail_value", "n");
  for (const Metric& m : metrics_) {
    if (!m.timed) {
      std::printf("%-30s %16.6g %-6s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      continue;
    }
    char tail[16] = "-";
    char tail_value[32] = "-";
    if (m.summary.tail_percentile > 0.0) {
      std::snprintf(tail, sizeof(tail), "p%g", m.summary.tail_percentile);
      std::snprintf(tail_value, sizeof(tail_value), "%.6g",
                    m.summary.tail_value);
    }
    std::printf("%-30s %16.6g %-6s %8s %16s %6zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), tail, tail_value, m.summary.count);
  }
  const double error_rate =
      tally.attempted() > 0 ? static_cast<double>(tally.failed()) /
                                  static_cast<double>(tally.attempted())
                            : 1.0;
  std::printf("%-30s %16.6g %-6s (%lld failed / %lld attempted)\n",
              "failed/attempted", error_rate, "ratio", tally.failed(),
              tally.attempted());
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted(), tally.failed());
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::span<const double> values, std::uint64_t hash) {
  return fnv1a(values.data(), values.size_bytes(), hash);
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current RSS (Linux >= 4.0)
}

long long file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<long long>(in.tellg()) : 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
