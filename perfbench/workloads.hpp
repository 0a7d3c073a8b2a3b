/// \file workloads.hpp
/// \brief The three benchmark workloads (see perfbench/README.md for why
///        each exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;      ///< grid_signoff | sweep_campaign | sharded_resume
  std::uint64_t seed = 1;    ///< fed to PowerGridSpec::seed
  double seconds = 10.0;     ///< length of the timed phase
  bool trace = false;        ///< per-layer run instead of end-to-end
  std::string cli;           ///< path of the matex_cli binary
  std::string work_dir;      ///< scratch directory for decks and stores
};

/// Runs one workload, filling `report` (end-to-end metrics, or per-layer
/// metrics when options.trace) and `tally`. Returns true when every
/// correctness check passed.
bool run_grid_signoff(const Options& options, Report& report, Tally& tally);
bool run_sweep_campaign(const Options& options, Report& report, Tally& tally);
bool run_sharded_resume(const Options& options, Report& report, Tally& tally);

}  // namespace perfbench
