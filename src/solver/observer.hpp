/// \file observer.hpp
/// \brief Output sampling infrastructure shared by all transient solvers.
///
/// Solvers report (t, x) pairs through an Observer callback; recorders
/// collect full states (small systems), selected probes (large systems),
/// or accumulate error statistics on the fly so that million-sample runs
/// never materialize two full solution histories.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "la/sparse_csc.hpp"

namespace matex::solver {

/// Callback invoked by solvers at every output time, in increasing t.
using Observer = std::function<void(double t, std::span<const double> x)>;

/// Records full state vectors (use only for small systems / few samples).
class StateRecorder {
 public:
  void operator()(double t, std::span<const double> x);

  const std::vector<double>& times() const { return times_; }
  const std::vector<std::vector<double>>& states() const { return states_; }
  std::size_t sample_count() const { return times_.size(); }
  /// State at sample i.
  std::span<const double> state(std::size_t i) const { return states_[i]; }

  /// Wraps this recorder as an Observer (the recorder must outlive it).
  Observer observer() {
    return [this](double t, std::span<const double> x) { (*this)(t, x); };
  }

 private:
  std::vector<double> times_;
  std::vector<std::vector<double>> states_;
};

/// Records waveforms of selected unknown indices.
class ProbeRecorder {
 public:
  explicit ProbeRecorder(std::vector<la::index_t> indices);

  void operator()(double t, std::span<const double> x);

  const std::vector<double>& times() const { return times_; }
  /// Waveform of probe p (aligned with times()).
  const std::vector<double>& waveform(std::size_t p) const {
    return waveforms_[p];
  }
  std::size_t probe_count() const { return indices_.size(); }

  Observer observer() {
    return [this](double t, std::span<const double> x) { (*this)(t, x); };
  }

 private:
  std::vector<la::index_t> indices_;
  std::vector<double> times_;
  std::vector<std::vector<double>> waveforms_;
};

/// Sorted, duplicate-free copy of `probes`: the rows a probe-only run
/// declares (core::SchedulerOptions::output_rows).
std::vector<la::index_t> probe_rows(std::span<const la::index_t> probes);

/// Position of each probe within `rows` (a probe_rows() result of the
/// same probes), for a ProbeRecorder that reads the compact row vectors
/// of a run declaring `rows`.
std::vector<la::index_t> probe_positions(std::span<const la::index_t> probes,
                                         std::span<const la::index_t> rows);

/// Uniform output grid: t_start, t_start+dt, ..., t_end (inclusive, with
/// the last point clamped to t_end).
std::vector<double> uniform_grid(double t_start, double t_end, double dt);

/// Online error statistics between two solution streams on a shared grid.
struct ErrorStats {
  double max_abs = 0.0;
  double sum_abs = 0.0;
  std::size_t count = 0;
  double mean_abs() const { return count == 0 ? 0.0 : sum_abs / count; }

  /// Accumulates |a_i - b_i| over all entries.
  void accumulate(std::span<const double> a, std::span<const double> b);
};

}  // namespace matex::solver
