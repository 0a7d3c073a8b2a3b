#include "workloads.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/decomposition.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "krylov/arnoldi.hpp"
#include "krylov/operator.hpp"
#include "la/ordering.hpp"
#include "la/sparse_lu.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/batch.hpp"
#include "runtime/checkpoint.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "solver/waveform_store.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace matex;

// Table 3 protocol: 10 ns window on a 10 ps grid, R-MATEX with
// gamma = 1e-10 and tolerance 1e-7, TR baseline at the grid step.
constexpr double kStep = 1e-11;
constexpr double kGamma = 1e-10;
constexpr double kTolerance = 1e-7;
constexpr int kMaxDim = 120;
// Sign-off accuracy: the paper's Table 3 error scale.
constexpr double kSignoffMaxError = 1e-4;
// Two MATEX runs of the same configuration (cached/shared factors vs a
// fresh sequential run) agree far below the Krylov tolerance.
constexpr double kSameConfigMaxDiff = 1e-6;

// ------------------------------------------------------------ metrics

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"wall_s", "s"},         {"tr_total_s", "s"}, {"tt_total_s", "s"},
    {"scenarios_per_s", "1/s"}, {"resume_s", "s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Metrics ending in "_s" with a span of the same stem are read from the
// tracer; the rest are values or samples the workload records itself.
constexpr MetricName kPerLayer[] = {
    {"circuit.parse_s", "s"},
    {"circuit.mna_s", "s"},
    {"la.order_s", "s"},
    {"la.factor_s", "s"},
    {"la.refactor_s", "s"},
    {"la.solve_s", "s"},
    {"la.fill_ratio", "ratio"},
    {"la.nnz_lu", "count"},
    {"krylov.arnoldi_s", "s"},
    {"krylov.dim_avg", "count"},
    {"core.decompose_s", "s"},
    {"core.groups", "count"},
    {"core.node_setup_s", "s"},
    {"core.node_run_s", "s"},
    {"core.dc_s", "s"},
    {"core.superpose_s", "s"},
    {"core.max_node_transient_s", "s"},
    {"core.solves", "count"},
    {"core.krylov_subspaces", "count"},
    {"solver.dc_s", "s"},
    {"solver.tr_step_s", "s"},
    {"solver.store_append_s", "s"},
    {"solver.store_bytes", "bytes"},
    {"runtime.cache_hits", "count"},
    {"runtime.cache_misses", "count"},
    {"runtime.symbolic_hits", "count"},
    {"runtime.factor_s", "s"},
    {"runtime.pool_utilization", "ratio"},
    {"runtime.tasks_stolen", "count"},
    {"runtime.journal_bytes", "bytes"},
    {"runtime.journal_load_s", "s"},
    {"runtime.fleet_s", "s"},
    {"runtime.merge_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"error_rate", "ratio"},
};

/// Samples and values gathered during a run, keyed by metric name.
struct Collected {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void set(const std::string& name, double v) { values[name] = v; }
};

/// Fills the report with the end-to-end or the per-layer metric set.
/// A per-layer metric the workload does not exercise reads 0.
void emit(const Options& o, const Collected& c, const Tally& tally,
          Report& report) {
  if (!o.trace) {
    for (const MetricName& m : kEndToEnd) {
      const auto it = c.samples.find(m.name);
      const std::vector<double> none;
      const std::vector<double>& samples =
          it == c.samples.end() ? none : it->second;
      std::fprintf(stderr, "perfbench: %s samples:", m.name);
      for (const double v : samples) std::fprintf(stderr, " %.4g", v);
      std::fprintf(stderr, "\n");
      report.add_samples(m.name, m.unit, samples);
    }
    return;
  }
  for (const MetricName& m : kPerLayer) {
    const std::string name = m.name;
    if (name == "error_rate") {
      report.add_value(name, m.unit,
                       tally.attempted() > 0
                           ? static_cast<double>(tally.failed()) /
                                 static_cast<double>(tally.attempted())
                           : 1.0);
      continue;
    }
    if (const auto v = c.values.find(name); v != c.values.end()) {
      report.add_value(name, m.unit, v->second);
      continue;
    }
    if (const auto s = c.samples.find(name); s != c.samples.end()) {
      report.add_samples(name, m.unit, s->second);
      continue;
    }
    const bool timed = name.size() > 2 && name.ends_with("_s");
    const std::vector<double> spans =
        timed ? tracer().durations(name.substr(0, name.size() - 2))
              : std::vector<double>{};
    if (!spans.empty())
      report.add_samples(name, m.unit, spans);
    else
      report.add_value(name, m.unit, 0.0);
  }
}

/// Times `fn` under a span called `name`; returns the elapsed seconds.
template <class F>
double timed(const char* name, F&& fn) {
  ScopedSpan span(name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Runs `round(traced)` for the timed phase: at least `min_rounds`, then
/// as long as another round of average length fits in options.seconds.
/// In a traced run every other round records spans, so traced and
/// untraced rounds interleave and obs.trace_overhead compares like with
/// like.
template <class Round>
void run_rounds(const Options& o, int min_rounds, Round&& round) {
  const double t0 = now_s();
  for (int k = 0;; ++k) {
    const double elapsed = now_s() - t0;
    if (k >= min_rounds && elapsed + (k > 0 ? elapsed / k : 0.0) > o.seconds)
      break;
    const bool traced = o.trace && k % 2 == 1;
    tracer().set_enabled(traced);
    round(traced);
  }
  tracer().set_enabled(o.trace);
}

void record_overhead(const std::vector<double>& untraced,
                     const std::vector<double>& traced, Collected& c) {
  if (!untraced.empty() && !traced.empty())
    c.set("obs.trace_overhead", median(traced) / median(untraced));
}

// --------------------------------------------------------------- decks

/// A generated design, written as SPICE and read back; the system under
/// test only ever sees the file.
struct Deck {
  pgbench::PowerGridSpec spec;
  std::string path;
  circuit::SpiceDeck spice;
  std::unique_ptr<circuit::MnaSystem> mna;
  solver::DcResult dc;
  std::vector<double> grid;
};

/// Builds design `index` (table_benchmark_spec) from the seed and measures
/// set-up -- SPICE parse, MNA assembly, DC operating point -- `reps`
/// times. The last set-up is kept for the workload.
std::unique_ptr<Deck> prepare_deck(int index, const Options& o, int reps,
                                   Collected& c) {
  auto d = std::make_unique<Deck>();
  d->spec = pgbench::table_benchmark_spec(index);
  d->spec.seed = o.seed;
  d->path = o.work_dir + "/" + d->spec.name + ".sp";
  circuit::write_spice_file(pgbench::generate_power_grid(d->spec), d->path,
                            d->spec.name, kStep, d->spec.t_window);
  for (int r = 0; r < reps; ++r) {
    const CpuPin pin;
    // Release the previous set-up first so every rep allocates afresh.
    d->mna.reset();
    d->dc = {};
    const double seconds = timed("setup", [&] {
      timed("circuit.parse",
            [&] { d->spice = circuit::read_spice_file(d->path); });
      timed("circuit.mna", [&] {
        d->mna = std::make_unique<circuit::MnaSystem>(d->spice.netlist);
      });
      timed("solver.dc",
            [&] { d->dc = solver::dc_operating_point(*d->mna); });
    });
    c.add("setup_s", seconds);
  }
  d->grid = solver::uniform_grid(0.0, d->spec.t_window, kStep);
  return d;
}

/// `count` node-voltage unknowns spread evenly over the grid.
std::vector<la::index_t> spread_probes(const circuit::MnaSystem& mna,
                                       int count) {
  std::vector<la::index_t> probes;
  const la::index_t nodes = mna.node_unknowns();
  for (int k = 0; k < count; ++k)
    probes.push_back(static_cast<la::index_t>(
        (static_cast<long long>(k) * 2 + 1) * nodes / (2 * count)));
  return probes;
}

core::SchedulerOptions paper_protocol(const Deck& d) {
  core::SchedulerOptions opt;
  opt.t_end = d.spec.t_window;
  opt.solver.kind = krylov::KrylovKind::kRational;
  opt.solver.gamma = kGamma;
  opt.solver.tolerance = kTolerance;
  opt.solver.max_dim = kMaxDim;
  opt.decomposition.max_groups = 100;
  opt.output_times = d.grid;
  return opt;
}

/// Table 3 distributed time: max-node total + DC + superposition.
double tr_total(const core::DistributedResult& r) {
  return r.max_node_total_seconds + r.dc_seconds + r.superposition_seconds;
}

void record_distributed(const core::DistributedResult& r, Collected& c) {
  c.add("core.dc_s", r.dc_seconds);
  c.add("core.superpose_s", r.superposition_seconds);
  c.add("core.max_node_transient_s", r.max_node_transient_seconds);
  c.set("core.groups", static_cast<double>(r.group_count));
  c.set("core.solves", static_cast<double>(r.aggregate.solves));
  c.set("core.krylov_subspaces",
        static_cast<double>(r.aggregate.krylov_subspaces));
  c.set("krylov.dim_avg", r.aggregate.krylov_dim_avg());
}

/// Fixed-step TR baseline: DC + LU(C/h + G/2) + 1000 steps at h = 10 ps,
/// timed from outside. Returns the wall time. Rounds run it twice: it is
/// short, so once per round would leave too few samples for a steady
/// median.
constexpr int kTrPerRound = 2;
// Resumes per round, for the same reason.
constexpr int kResumesPerRound = 2;
double tr_baseline(const Deck& d, const solver::Observer& observer,
                   Collected& c) {
  const CpuPin pin;
  solver::TransientStats stats;
  const double seconds = timed("tr_baseline", [&] {
    const auto dc = solver::dc_operating_point(*d.mna);
    solver::FixedStepOptions opt;
    opt.t_end = d.spec.t_window;
    opt.h = kStep;
    stats = solver::run_fixed_step(*d.mna, dc.x,
                                   solver::StepMethod::kTrapezoidal, opt,
                                   observer);
  });
  if (stats.steps > 0)
    c.add("solver.tr_step_s",
          stats.transient_seconds / static_cast<double>(stats.steps));
  c.add("tt_transient_s", stats.transient_seconds);
  return seconds;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// The per-layer probe block: each public call of the la, krylov and core
/// layers timed from outside on the workload's own deck, under a span
/// named after its metric.
void layer_probes(const Deck& d, Collected& c) {
  const circuit::MnaSystem& mna = *d.mna;
  for (int r = 0; r < 3; ++r)
    timed("la.order", [&] {
      (void)la::compute_ordering(mna.g(), la::Ordering::kMinDegree);
    });
  std::unique_ptr<la::SparseLU> g_lu;
  for (int r = 0; r < 3; ++r)
    timed("la.factor", [&] { g_lu = std::make_unique<la::SparseLU>(mna.g()); });
  c.set("la.fill_ratio", g_lu->fill_ratio());
  c.set("la.nnz_lu", static_cast<double>(g_lu->nnz_l() + g_lu->nnz_u()));

  // Numeric refactorization of C + gamma*G along the symbolic analysis of
  // a neighbouring gamma, as a gamma sweep reuses it.
  const la::SparseLU analysed(la::add_scaled(1.0, mna.c(), 2.0 * kGamma,
                                             mna.g()));
  const la::CscMatrix shifted = la::add_scaled(1.0, mna.c(), kGamma, mna.g());
  for (int r = 0; r < 5; ++r)
    timed("la.refactor",
          [&] { (void)la::SparseLU(shifted, analysed.symbolic()); });

  std::vector<double> rhs(static_cast<std::size_t>(mna.dimension()));
  for (int r = 0; r < 50; ++r) {
    mna.rhs_at(0.0, rhs);
    timed("la.solve", [&] { g_lu->solve_in_place(rhs); });
  }

  core::DecompositionOptions dopt;
  dopt.max_groups = 100;
  dopt.t_end = d.spec.t_window;
  core::Decomposition dec;
  for (int r = 0; r < 3; ++r)
    timed("core.decompose", [&] { dec = core::decompose_sources(mna, dopt); });
  const auto largest = std::max_element(
      dec.groups.begin(), dec.groups.end(), [](const auto& a, const auto& b) {
        return a.members.size() < b.members.size();
      });
  if (largest == dec.groups.end()) return;
  const core::GroupInput input(mna, largest->members, 0.0);

  // Arnoldi on the R-MATEX operator at the grid step, from the start
  // vector a node builds at its group's first transition spot: from the
  // zero state that is G^-1 C G^-1 B s, s the input slope after the spot.
  const krylov::CircuitOperator op(mna.c(), mna.g(),
                                   krylov::KrylovKind::kRational, kGamma);
  const auto spots = input.transition_spots(0.0, d.spec.t_window);
  std::vector<double> slope(static_cast<std::size_t>(mna.input_count()));
  input.slope_after(spots.empty() ? 0.0 : spots.front(), slope);
  std::vector<double> v0(static_cast<std::size_t>(mna.dimension()));
  std::vector<double> tmp(v0.size());
  mna.b().multiply(slope, tmp);
  g_lu->solve_in_place(tmp);
  mna.c().multiply(tmp, v0);
  g_lu->solve_in_place(v0);
  krylov::ArnoldiOptions aopt;
  aopt.max_dim = kMaxDim;
  aopt.tolerance = kTolerance;
  for (int r = 0; r < 5; ++r)
    timed("krylov.arnoldi",
          [&] { (void)krylov::arnoldi(op, v0, kStep, aopt); });

  core::MatexOptions mopt;
  mopt.kind = krylov::KrylovKind::kRational;
  mopt.gamma = kGamma;
  mopt.tolerance = kTolerance;
  mopt.max_dim = kMaxDim;
  std::unique_ptr<core::MatexCircuitSolver> node;
  for (int r = 0; r < 3; ++r)
    timed("core.node_setup", [&] {
      node = std::make_unique<core::MatexCircuitSolver>(mna, mopt,
                                                        d.dc.g_factors);
    });
  const std::vector<double> zero(v0.size(), 0.0);
  for (int r = 0; r < 3; ++r)
    timed("core.node_run", [&] {
      (void)node->run(zero, 0.0, d.spec.t_window, input, d.grid,
                      [](double, std::span<const double>) {});
    });
}

/// One scenario's waveforms, as a store chunk holds them.
struct Chunk {
  std::string name;
  std::vector<std::string> probe_names;
  std::vector<double> times;
  std::vector<std::vector<double>> columns;
};

/// Writes `chunks` to a store at `path`, each append under a
/// solver.store_append span; returns the store size in bytes.
long long write_store(const std::string& path,
                      const std::vector<Chunk>& chunks) {
  {
    solver::WaveformStoreWriter writer(path);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      timed("solver.store_append", [&] {
        writer.append(static_cast<std::uint32_t>(i), i, chunks[i].name,
                      chunks[i].probe_names, chunks[i].times,
                      chunks[i].columns);
      });
    writer.close();
  }
  return file_bytes(path);
}

std::vector<std::string> probe_labels(std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t p = 0; p < count; ++p) names.push_back("p" + std::to_string(p));
  return names;
}

// ------------------------------------------------------- grid_signoff

/// Full-grid worst-droop map plus probe waveforms: what a sign-off keeps.
struct SignoffOutput {
  explicit SignoffOutput(std::vector<la::index_t> probes, la::index_t nodes)
      : worst(static_cast<std::size_t>(nodes),
              std::numeric_limits<double>::infinity()),
        recorder(std::move(probes)) {}

  solver::Observer observer() {
    return [this](double t, std::span<const double> x) {
      for (std::size_t i = 0; i < worst.size(); ++i)
        worst[i] = std::min(worst[i], x[i]);
      recorder(t, x);
    };
  }

  std::uint64_t digest() const {
    std::uint64_t h = fnv1a(worst);
    for (std::size_t p = 0; p < recorder.probe_count(); ++p)
      h = fnv1a(recorder.waveform(p), h);
    return h;
  }

  Chunk chunk() const {
    Chunk ch;
    ch.name = "signoff";
    ch.probe_names = probe_labels(recorder.probe_count());
    ch.times = recorder.times();
    for (std::size_t p = 0; p < recorder.probe_count(); ++p)
      ch.columns.push_back(recorder.waveform(p));
    return ch;
  }

  std::vector<double> worst;
  solver::ProbeRecorder recorder;
};

struct SignoffCheck {
  double max_error = 0.0;
  std::uint64_t digest = 0;
  int ran = 0;
};

/// The correctness reference for grid_signoff, run in a forked child so
/// its full-state history never counts toward the workload's peak RSS:
/// the distributed run's whole state on the 10 ps grid against fine-step
/// TR at h = 1 ps.
SignoffCheck signoff_reference(const Deck& d,
                               const std::vector<la::index_t>& probes) {
  SignoffCheck check;
  SignoffOutput out(probes, d.mna->node_unknowns());
  solver::StateRecorder states;
  auto signoff = out.observer();
  (void)core::run_distributed_matex(
      *d.mna, paper_protocol(d), [&](double t, std::span<const double> x) {
        signoff(t, x);
        states(t, x);
      });
  solver::ErrorStats err;
  solver::FixedStepOptions fine;
  fine.t_end = d.spec.t_window;
  fine.h = kStep / 10.0;
  std::size_t step = 0;
  (void)solver::run_fixed_step(
      *d.mna, d.dc.x, solver::StepMethod::kTrapezoidal, fine,
      [&](double, std::span<const double> x) {
        if (step % 10 == 0 && step / 10 < states.sample_count())
          err.accumulate(states.state(step / 10), x);
        ++step;
      });
  check.max_error = states.sample_count() == d.grid.size()
                        ? err.max_abs
                        : std::numeric_limits<double>::infinity();
  check.digest = out.digest();
  check.ran = 1;
  return check;
}

}  // namespace

bool run_grid_signoff(const Options& o, Report& report, Tally& tally) {
  Collected c;
  tracer().set_enabled(o.trace);
  const auto d = prepare_deck(6, o, 7, c);
  const auto probes = spread_probes(*d->mna, 64);
  const la::index_t nodes = d->mna->node_unknowns();
  const std::string store = o.work_dir + "/signoff.store";

  std::fflush(stdout);
  std::fflush(stderr);
  int pipefd[2];
  if (pipe(pipefd) != 0) return tally.record(false, "pipe for the reference");
  const pid_t child = fork();
  if (child < 0) return tally.record(false, "fork for the reference");
  if (child == 0) {
    close(pipefd[0]);
    SignoffCheck check;
    try {
      check = signoff_reference(*d, probes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: reference: %s\n", e.what());
    }
    const ssize_t written = write(pipefd[1], &check, sizeof(check));
    _exit(written == static_cast<ssize_t>(sizeof(check)) ? 0 : 1);
  }
  close(pipefd[1]);

  std::vector<double> wall_untraced, wall_traced;
  std::uint64_t digest = 0;
  auto round = [&](bool traced, bool timed_round) {
    reset_peak_rss();
    SignoffOutput out(probes, nodes);
    core::DistributedResult result;
    double wall = 0.0;
    {
      const CpuPin pin;
      wall = timed("signoff", [&] {
        result = core::run_distributed_matex(*d->mna, paper_protocol(*d),
                                             out.observer());
      });
    }
    std::vector<double> tt_total;
    for (int r = 0; r < kTrPerRound; ++r) {
      SignoffOutput baseline_out(probes, nodes);
      tt_total.push_back(tr_baseline(*d, baseline_out.observer(), c));
    }
    const Chunk chunk = out.chunk();
    c.set("solver.store_bytes",
          static_cast<double>(write_store(store, {chunk})));

    // Resume: reopen the persisted sign-off and restore its waveforms.
    const CpuPin pin;
    std::vector<double> resume;
    for (int r = 0; r < 20; ++r) {
      std::vector<solver::WaveformTable> tables;
      long long corrupt = -1;
      resume.push_back(timed("resume", [&] {
        const solver::WaveformStoreReader reader(store);
        corrupt = reader.corrupt_chunks_skipped();
        for (const auto& chunk : reader.chunks())
          tables.push_back(chunk.to_table());
      }));
      if (r == 0)
        tally.record(corrupt == 0 && tables.size() == 1 &&
                         tables[0].columns == chunk.columns,
                     "sign-off store restores the run's waveforms");
    }
    if (!timed_round) return;
    if (digest == 0) digest = out.digest();
    tally.record(out.digest() == digest,
                 "sign-off output identical across rounds");
    (traced ? wall_traced : wall_untraced).push_back(wall);
    record_distributed(result, c);
    if (traced) return;
    c.add("wall_s", wall);
    c.add("peak_rss_mb", self_peak_rss_mb());
    c.add("scenarios_per_s", 1.0 / wall);
    c.add("tr_total_s", tr_total(result));
    for (const double t : tt_total) c.add("tt_total_s", t);
    c.add("resume_s", median(resume));
  };

  // Warm-up round (untimed) while the reference runs in the child.
  tracer().set_enabled(false);
  const double warm_start = now_s();
  round(false, false);
  const double warm_seconds = now_s() - warm_start;
  SignoffCheck check;
  const bool got = read(pipefd[0], &check, sizeof(check)) ==
                   static_cast<ssize_t>(sizeof(check));
  close(pipefd[0]);
  int status = 0;
  waitpid(child, &status, 0);
  std::fprintf(stderr, "perfbench: warm-up %.2f s, reference check %.2f s\n",
               warm_seconds, now_s() - warm_start);
  tally.record(got && check.ran == 1 && WIFEXITED(status) &&
                   WEXITSTATUS(status) == 0,
               "fine-step TR reference ran");
  tally.record(check.max_error <= kSignoffMaxError,
               "sign-off max error " + std::to_string(check.max_error) +
                   " V <= 1e-4 V against TR at h = 1 ps");
  digest = check.digest;

  run_rounds(o, o.trace ? 2 : 3, [&](bool traced) { round(traced, true); });

  char line[256];
  std::snprintf(line, sizeof(line),
                "max |error| vs TR h=1ps: %.3g V (limit %.0e V); groups %zu",
                check.max_error, kSignoffMaxError,
                static_cast<std::size_t>(c.values["core.groups"]));
  report.note(line);
  if (!o.trace) {
    std::snprintf(line, sizeof(line),
                  "derived, ungated: Spdp4 (TR transient / max-node "
                  "transient) %.1fX   paper ~13X",
                  median(c.samples["tt_transient_s"]) /
                      median(c.samples["core.max_node_transient_s"]));
    report.note(line);
    std::snprintf(line, sizeof(line),
                  "derived, ungated: Spdp5 (tt_total / tr_total)          "
                  "%.1fX   paper ~7X",
                  median(c.samples["tt_total_s"]) /
                      median(c.samples["tr_total_s"]));
    report.note(line);
  } else {
    record_overhead(wall_untraced, wall_traced, c);
    layer_probes(*d, c);
  }
  emit(o, c, tally, report);
  return tally.failed() == 0;
}

// ----------------------------------------------------- sweep_campaign

namespace {

runtime::CampaignSweep campaign_sweep(const Deck& d,
                                      const std::vector<la::index_t>& probes) {
  runtime::CampaignSweep sweep;
  sweep.methods = {krylov::KrylovKind::kRational,
                   krylov::KrylovKind::kInverted};
  sweep.gammas = {0.5 * kGamma, kGamma, 2.0 * kGamma};
  sweep.tolerances = {1e-6, kTolerance};
  sweep.vdd_scales = {1.0, 0.95, 0.9};
  sweep.base = paper_protocol(d);
  sweep.probes = probes;
  return sweep;
}

bool is_nominal(const runtime::ScenarioSpec& s) {
  return s.scheduler.solver.kind == krylov::KrylovKind::kRational &&
         s.scheduler.solver.gamma == kGamma &&
         s.scheduler.solver.tolerance == kTolerance && s.vdd_scale == 1.0;
}

std::uint64_t campaign_digest(const runtime::BatchReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : report.results)
    for (const auto& w : r.probe_waveforms) h = fnv1a(w, h);
  return h;
}

}  // namespace

bool run_sweep_campaign(const Options& o, Report& report, Tally& tally) {
  Collected c;
  tracer().set_enabled(o.trace);
  const auto d = prepare_deck(3, o, 15, c);
  const auto probes = spread_probes(*d->mna, 16);
  const std::string journal = o.work_dir + "/sweep.jsonl";

  // Untimed reference for the nominal scenario: a fresh sequential run
  // without cache or pool.
  solver::ProbeRecorder reference(probes);
  (void)core::run_distributed_matex(*d->mna, paper_protocol(*d),
                                    reference.observer());

  runtime::BatchOptions bopt;
  bopt.threads = 4;
  bopt.checkpoint_path = journal;
  const auto sweep = campaign_sweep(*d, probes);

  std::vector<double> wall_untraced, wall_traced;
  std::uint64_t digest = 0;
  runtime::BatchReport last;
  auto round = [&](bool traced, bool timed_round) {
    reset_peak_rss();
    std::remove(journal.c_str());
    runtime::BatchReport fresh;
    std::size_t scenarios = 0;
    const double wall = timed("campaign", [&] {
      runtime::BatchEngine engine(bopt);
      engine.add_deck(d->spec.name, d->spice.netlist);
      const auto specs = engine.expand(sweep);
      scenarios = specs.size();
      fresh = engine.run(specs);
    });
    int ok = 0;
    std::vector<double> totals;
    for (const auto& r : fresh.results) {
      ok += tally.record(r.ok, "scenario " + r.name + " " + r.error);
      if (r.ok) totals.push_back(tr_total(r.distributed));
    }
    tally.record(scenarios == 24 && fresh.results.size() == 24,
                 "campaign expands to 24 scenarios");

    // Restoring leaves the journal as it was, so every resume reads the
    // same completed journal.
    std::vector<double> resume;
    for (int r = 0; r < kResumesPerRound; ++r) {
      runtime::BatchReport resumed;
      resume.push_back(timed("resume", [&] {
        runtime::BatchEngine engine(bopt);
        engine.add_deck(d->spec.name, d->spice.netlist);
        resumed = engine.run(engine.expand(sweep));
      }));
      tally.record(resumed.checkpoint_restored == 24 &&
                       resumed.failures == 0 &&
                       campaign_digest(resumed) == campaign_digest(fresh),
                   "resume restores all 24 scenarios bitwise");
    }
    std::vector<double> tt_total;
    for (int r = 0; r < kTrPerRound; ++r)
      tt_total.push_back(
          tr_baseline(*d, [](double, std::span<const double>) {}, c));

    if (digest == 0) {
      // First round: the nominal R-MATEX probes against the reference.
      const auto specs = runtime::expand_campaign(sweep, {d->spec.name});
      double diff = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < specs.size() && i < fresh.results.size();
           ++i) {
        if (!is_nominal(specs[i]) || !fresh.results[i].ok) continue;
        diff = 0.0;
        for (std::size_t p = 0; p < probes.size(); ++p)
          diff = std::max(diff,
                          max_abs_diff(fresh.results[i].probe_waveforms[p],
                                       reference.waveform(p)));
      }
      tally.record(diff <= kSameConfigMaxDiff,
                   "nominal R-MATEX probes match the reference (max diff " +
                       std::to_string(diff) + " V)");
      digest = campaign_digest(fresh);
    }
    tally.record(campaign_digest(fresh) == digest,
                 "campaign output identical across rounds");
    if (!timed_round) return;
    (traced ? wall_traced : wall_untraced).push_back(wall);
    if (!traced) {
      c.add("wall_s", wall);
      c.add("peak_rss_mb", self_peak_rss_mb());
      c.add("scenarios_per_s", ok / wall);
      c.add("tr_total_s", median(totals));
      for (const double t : tt_total) c.add("tt_total_s", t);
      for (const double t : resume) c.add("resume_s", t);
    }
    last = std::move(fresh);
  };

  tracer().set_enabled(false);
  round(false, false);
  run_rounds(o, o.trace ? 2 : 3, [&](bool traced) { round(traced, true); });

  if (o.trace) {
    record_overhead(wall_untraced, wall_traced, c);
    solver::TransientStats total;
    for (const auto& r : last.results) {
      c.add("core.dc_s", r.distributed.dc_seconds);
      c.add("core.superpose_s", r.distributed.superposition_seconds);
      c.add("core.max_node_transient_s",
            r.distributed.max_node_transient_seconds);
      c.set("core.groups", static_cast<double>(r.distributed.group_count));
      total.merge(r.distributed.aggregate);
    }
    c.set("core.solves", static_cast<double>(total.solves));
    c.set("core.krylov_subspaces", static_cast<double>(total.krylov_subspaces));
    c.set("krylov.dim_avg", total.krylov_dim_avg());
    c.set("runtime.cache_hits", static_cast<double>(last.cache.hits));
    c.set("runtime.cache_misses", static_cast<double>(last.cache.misses));
    c.set("runtime.symbolic_hits",
          static_cast<double>(last.cache.symbolic_hits));
    c.set("runtime.factor_s", last.cache.factor_seconds);
    c.set("runtime.pool_utilization",
          last.pool.busy_seconds / (last.wall_seconds * bopt.threads));
    c.set("runtime.tasks_stolen", static_cast<double>(last.pool.tasks_stolen));
    c.set("runtime.journal_bytes", static_cast<double>(file_bytes(journal)));
    for (int r = 0; r < 5; ++r)
      timed("runtime.journal_load",
            [&] { (void)runtime::load_checkpoint(journal); });
    std::vector<Chunk> chunks;
    for (const auto& r : last.results) {
      Chunk ch;
      ch.name = r.name;
      ch.probe_names = probe_labels(probes.size());
      ch.times = r.times;
      ch.columns = r.probe_waveforms;
      chunks.push_back(std::move(ch));
    }
    c.set("solver.store_bytes", static_cast<double>(write_store(
                                    o.work_dir + "/sweep.store", chunks)));
    layer_probes(*d, c);
  }
  emit(o, c, tally, report);
  return tally.failed() == 0;
}

// ----------------------------------------------------- sharded_resume

namespace {

struct ProcessRun {
  int exit_code = -1;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
  /// stderr lines with their arrival time (seconds after spawn).
  std::vector<std::pair<double, std::string>> lines;
};

/// Spawns argv with stdout discarded and stderr captured line by line,
/// waits for it, and reports its exit code, wall time and the peak RSS of
/// it and its descendants.
ProcessRun run_process(const std::vector<std::string>& argv) {
  ProcessRun run;
  int err[2];
  if (pipe(err) != 0) return run;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, err[1], 2);
  posix_spawn_file_actions_addclose(&actions, err[0]);
  posix_spawn_file_actions_addclose(&actions, err[1]);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const double t0 = now_s();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(err[1]);
  if (rc != 0) {
    close(err[0]);
    return run;
  }
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(err[0], buf, sizeof(buf));
    if (n <= 0) break;
    const double t = now_s() - t0;
    pending.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      run.lines.emplace_back(t, pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  close(err[0]);
  int status = 0;
  rusage usage{};
  wait4(pid, &status, 0, &usage);
  run.seconds = now_s() - t0;
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return run;
}

/// Worker phase and coordinator phase of a sharded run, from the
/// coordinator's progress lines: the fleet starts at "coordinating" and
/// ends when the coordinator reports the first worker's exit.
bool split_phases(const ProcessRun& run, double* fleet, double* merge) {
  double start = -1.0, end = -1.0;
  for (const auto& [t, line] : run.lines) {
    if (start < 0.0 && line.find("coordinating") != std::string::npos)
      start = t;
    if (end < 0.0 && line.rfind("worker ", 0) == 0 &&
        line.find(": exit ") != std::string::npos)
      end = t;
  }
  if (start < 0.0 || end < start) return false;
  *fleet = end - start;
  *merge = run.seconds - end;
  return true;
}

void report_failure(const ProcessRun& run, const std::string& what) {
  std::fprintf(stderr, "perfbench: %s exited %d; last output:\n",
               what.c_str(), run.exit_code);
  const std::size_t from = run.lines.size() > 10 ? run.lines.size() - 10 : 0;
  for (std::size_t i = from; i < run.lines.size(); ++i)
    std::fprintf(stderr, "  %s\n", run.lines[i].second.c_str());
}

}  // namespace

bool run_sharded_resume(const Options& o, Report& report, Tally& tally) {
  Collected c;
  tracer().set_enabled(o.trace);
  const auto d = prepare_deck(2, o, 25, c);
  const std::string journal = o.work_dir + "/sharded.jsonl";
  const std::string store = o.work_dir + "/sharded.store";

  // 48 probes spread over the grid, named as the deck names them.
  const circuit::MnaSystem& mna = *d->mna;
  std::vector<std::string> names;
  std::vector<la::index_t> probes;
  {
    std::vector<std::pair<la::index_t, circuit::NodeId>> unknowns;
    for (circuit::NodeId node = 0; node < d->spice.netlist.node_count(); ++node)
      if (const la::index_t u = mna.unknown_index(node);
          u >= 0 && u < mna.node_unknowns())
        unknowns.emplace_back(u, node);
    std::sort(unknowns.begin(), unknowns.end());
    constexpr int kProbes = 48;
    for (int k = 0; k < kProbes; ++k) {
      const auto& [u, node] = unknowns[(2 * k + 1) * unknowns.size() / (2 * kProbes)];
      probes.push_back(u);
      names.push_back(d->spice.netlist.node_name(node));
    }
  }
  std::vector<std::string> argv = {o.cli,         d->path,   "--batch",
                                   "--shards",    "2",       "--threads",
                                   "2",           "--checkpoint", journal,
                                   "--store",     store};
  for (const auto& n : names) {
    argv.push_back("--probe");
    argv.push_back(n);
  }

  std::vector<double> wall_untraced, wall_traced;
  std::string first_store;
  auto round = [&](bool traced, bool timed_round) {
    for (const std::string& f :
         {journal, journal + ".shard0", journal + ".shard1", store})
      std::remove(f.c_str());
    const ProcessRun fresh = run_process(argv);
    if (!tally.record(fresh.exit_code == 0, "fresh sharded campaign exits 0"))
      report_failure(fresh, "fresh sharded campaign");
    const std::string fresh_bytes = slurp(store);
    // A resume appends the shard journals to the merged one again, so each
    // resume starts from the journal the fresh run left.
    const std::string fresh_journal = slurp(journal);
    std::vector<ProcessRun> resumed;
    for (int r = 0; r < kResumesPerRound; ++r) {
      if (!tally.record(write_file(journal, fresh_journal),
                        "restore the fresh run's journal"))
        continue;
      resumed.push_back(run_process(argv));
      if (!tally.record(resumed.back().exit_code == 0,
                        "resumed campaign exits 0"))
        report_failure(resumed.back(), "resumed sharded campaign");
      tally.record(!fresh_bytes.empty() && slurp(store) == fresh_bytes,
                   "fresh and resumed stores byte-identical");
    }
    if (first_store.empty()) first_store = fresh_bytes;
    tally.record(fresh_bytes == first_store,
                 "store identical across rounds");

    core::DistributedResult result;
    solver::ProbeRecorder recorder(probes);
    {
      const CpuPin pin;
      timed("distributed", [&] {
        result = core::run_distributed_matex(mna, paper_protocol(*d),
                                             recorder.observer());
      });
    }
    std::vector<double> tt_total;
    for (int r = 0; r < kTrPerRound; ++r)
      tt_total.push_back(
          tr_baseline(*d, [](double, std::span<const double>) {}, c));

    if (!timed_round) {
      // Warm-up round: the store must dump cleanly, and its first
      // scenario (R-MATEX, gamma 1e-10, tol 1e-7) must match the
      // in-process paper-protocol run.
      const ProcessRun dump = run_process({o.cli, "--store-dump", store});
      if (!tally.record(dump.exit_code == 0,
                        "--store-dump reports no corrupt chunks"))
        report_failure(dump, "--store-dump");
      double diff = std::numeric_limits<double>::infinity();
      std::size_t chunks = 0;
      try {
        const solver::WaveformStoreReader reader(store);
        chunks = reader.chunks().size();
        if (chunks > 0 && reader.chunks()[0].columns.size() == probes.size()) {
          diff = 0.0;
          for (std::size_t p = 0; p < probes.size(); ++p)
            diff = std::max(diff, max_abs_diff(reader.chunks()[0].columns[p],
                                               recorder.waveform(p)));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: store: %s\n", e.what());
      }
      tally.record(chunks == 6, "store holds the 6 campaign scenarios");
      tally.record(diff <= kSameConfigMaxDiff,
                   "sharded nominal scenario matches the in-process run "
                   "(max diff " + std::to_string(diff) + " V)");
      return;
    }
    (traced ? wall_traced : wall_untraced).push_back(fresh.seconds);
    record_distributed(result, c);
    if (traced) {
      double fleet = 0.0, merge = 0.0;
      if (split_phases(fresh, &fleet, &merge)) {
        c.add("runtime.fleet_s", fleet);
        c.add("runtime.merge_s", merge);
      }
      return;
    }
    c.add("wall_s", fresh.seconds);
    c.add("scenarios_per_s", 6.0 / fresh.seconds);
    double peak = fresh.peak_rss_mb;
    for (const ProcessRun& run : resumed) {
      c.add("resume_s", run.seconds);
      peak = std::max(peak, run.peak_rss_mb);
    }
    c.add("peak_rss_mb", peak);
    c.add("tr_total_s", tr_total(result));
    for (const double t : tt_total) c.add("tt_total_s", t);
  };

  tracer().set_enabled(false);
  round(false, false);
  run_rounds(o, o.trace ? 2 : 3, [&](bool traced) { round(traced, true); });

  if (o.trace) {
    record_overhead(wall_untraced, wall_traced, c);
    // The journal as the last resume parsed it: a resume appends the shard
    // journals to the merged one before restoring from it.
    c.set("runtime.journal_bytes", static_cast<double>(file_bytes(journal)));
    for (int r = 0; r < 5; ++r)
      timed("runtime.journal_load",
            [&] { (void)runtime::load_checkpoint(journal); });
    std::vector<Chunk> chunks;
    {
      const solver::WaveformStoreReader reader(store);
      for (const auto& chunk : reader.chunks()) {
        Chunk ch;
        ch.name = chunk.name;
        ch.probe_names = chunk.probe_names;
        ch.times.assign(chunk.times.begin(), chunk.times.end());
        for (const auto& col : chunk.columns)
          ch.columns.emplace_back(col.begin(), col.end());
        chunks.push_back(std::move(ch));
      }
    }
    (void)write_store(o.work_dir + "/sharded_copy.store", chunks);
    c.set("solver.store_bytes", static_cast<double>(file_bytes(store)));
    layer_probes(*d, c);
  }
  emit(o, c, tally, report);
  return tally.failed() == 0;
}

}  // namespace perfbench
