/// \file main.cpp
/// \brief matex_perfbench: runs one benchmark workload and prints its
///        metrics, ending with a one-line JSON result.
///
///   matex_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                   --cli PATH --work-dir DIR [--trace-file FILE]
///
/// `perfbench/run.py` builds this binary and matex_cli from source and
/// calls it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: matex_perfbench --workload "
               "grid_signoff|sweep_campaign|sharded_resume --seed N "
               "--seconds S --trace 0|1 --cli PATH --work-dir DIR "
               "[--trace-file FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string trace_file;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      o.workload = value;
    else if (flag == "--seed")
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      o.seconds = std::atof(value.c_str());
    else if (flag == "--trace")
      o.trace = value == "1";
    else if (flag == "--cli")
      o.cli = value;
    else if (flag == "--work-dir")
      o.work_dir = value;
    else if (flag == "--trace-file")
      trace_file = value;
    else
      return usage();
  }
  if (argc % 2 == 0 || o.cli.empty() || o.work_dir.empty() ||
      o.seconds <= 0.0)
    return usage();

  perfbench::Report report;
  perfbench::Tally tally;
  bool correct = false;
  try {
    if (o.workload == "grid_signoff")
      correct = perfbench::run_grid_signoff(o, report, tally);
    else if (o.workload == "sweep_campaign")
      correct = perfbench::run_sweep_campaign(o, report, tally);
    else if (o.workload == "sharded_resume")
      correct = perfbench::run_sharded_resume(o, report, tally);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "matex_perfbench: %s\n", e.what());
    return 1;
  }
  if (o.trace) {
    perfbench::tracer().print_self_time_table();
    if (!trace_file.empty() && !perfbench::tracer().write_json(trace_file))
      std::fprintf(stderr, "matex_perfbench: cannot write %s\n",
                   trace_file.c_str());
  }
  report.print(tally, correct);
  return 0;
}
