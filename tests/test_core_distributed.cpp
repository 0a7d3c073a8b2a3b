#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/netlist.hpp"
#include "core/complexity.hpp"
#include "core/decomposition.hpp"
#include "core/input_view.hpp"
#include "core/matex_solver.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "pgbench/pg_generator.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "test_util.hpp"

namespace matex::core {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;
using circuit::PulseSpec;
using circuit::Waveform;
using solver::StateRecorder;
using solver::uniform_grid;

PulseSpec bump(double delay, double rise, double width, double fall,
               double v2, double period = 0.0) {
  PulseSpec s;
  s.v1 = 0.0;
  s.v2 = v2;
  s.delay = delay;
  s.rise = rise;
  s.width = width;
  s.fall = fall;
  s.period = period;
  return s;
}

std::string mesh_node(int r, int c) {
  std::string s = matex::testing::numbered("m", r);
  s += std::to_string(c);
  return s;
}

/// Supply rail plus a 2x3 RC mesh of nodes m<r><c> hanging off the pad
/// through Rp.
void add_rc_mesh(Netlist& netlist) {
  netlist.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  const auto tagged = [](const char* prefix, int r, int c) {
    std::string s(prefix);
    s += mesh_node(r, c);
    return s;
  };
  netlist.add_resistor("Rp", "p", mesh_node(0, 0), 0.2);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) {
      netlist.add_capacitor(tagged("C", r, c), mesh_node(r, c), "0", 0.3);
      if (c + 1 < 3)
        netlist.add_resistor(tagged("Rh", r, c), mesh_node(r, c),
                             mesh_node(r, c + 1), 0.5);
      if (r + 1 < 2)
        netlist.add_resistor(tagged("Rv", r, c), mesh_node(r, c),
                             mesh_node(r + 1, c), 0.5);
    }
}

/// Small power-grid-like fixture: supply rail, RC mesh, four pulsed loads
/// drawn from two distinct bump shapes plus one DC load.
struct PdnFixture {
  Netlist netlist;
  std::unique_ptr<MnaSystem> mna;

  PdnFixture() {
    add_rc_mesh(netlist);
    // Shape A at two sites, shape B at two sites, one DC load.
    netlist.add_current_source("I1", mesh_node(0, 1), "0",
                               Waveform::pulse(bump(0.3, 0.1, 0.2, 0.1,
                                                    0.2)));
    netlist.add_current_source("I2", mesh_node(1, 2), "0",
                               Waveform::pulse(bump(0.3, 0.1, 0.2, 0.1,
                                                    0.15)));
    netlist.add_current_source("I3", mesh_node(0, 2), "0",
                               Waveform::pulse(bump(0.9, 0.05, 0.3, 0.15,
                                                    0.1)));
    netlist.add_current_source("I4", mesh_node(1, 0), "0",
                               Waveform::pulse(bump(0.9, 0.05, 0.3, 0.15,
                                                    0.25)));
    netlist.add_current_source("Idc", mesh_node(1, 1), "0",
                               Waveform::dc(0.05));
    mna = std::make_unique<MnaSystem>(netlist);
  }
};

/// RC mesh with four loads of distinct bump shapes staggered across a
/// [0, 2] window: each is its own group, and the later a group's bump, the
/// longer its zero-state response stays exactly zero.
struct StaggeredFixture {
  Netlist netlist;
  std::unique_ptr<MnaSystem> mna;

  StaggeredFixture() {
    add_rc_mesh(netlist);
    const double delays[] = {0.1, 0.5, 0.9, 1.3};
    for (int k = 0; k < 4; ++k)
      netlist.add_current_source(
          matex::testing::numbered("I", k), mesh_node(k % 2, 1 + k % 2), "0",
          Waveform::pulse(bump(delays[k], 0.05, 0.2, 0.1, 0.1 + 0.05 * k)));
    mna = std::make_unique<MnaSystem>(netlist);
  }
};

// ----------------------------------------------------------- decomposition

TEST(Decomposition, GroupsByBumpShape) {
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  const auto d = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d.groups.size(), 2u);  // two distinct shapes
  EXPECT_EQ(d.groups[0].members.size(), 2u);
  EXPECT_EQ(d.groups[1].members.size(), 2u);
  // DC inputs: Idc and the Vdd rail input.
  EXPECT_EQ(d.dc_inputs.size(), 2u);
  EXPECT_GT(d.gts_size, 0u);
}

TEST(Decomposition, MaxGroupsMergesRoundRobin) {
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  opt.max_groups = 1;
  const auto d = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].members.size(), 4u);
}

TEST(Decomposition, RoundRobinMergeDistributesShapesEvenly) {
  // Five distinct shapes onto two nodes: round-robin assigns shapes
  // 0,2,4 to node 0 and shapes 1,3 to node 1 (deterministic, sorted by
  // shape key).
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  for (int i = 0; i < 5; ++i)
    n.add_current_source(
        matex::testing::numbered("I", i), "a", "0",
        Waveform::pulse(bump(0.1 * (i + 1), 0.05, 0.2, 0.05, 1.0)));
  const MnaSystem mna(n);
  DecompositionOptions opt;
  opt.t_end = 2.0;
  opt.max_groups = 2;
  const auto d = decompose_sources(mna, opt);
  ASSERT_EQ(d.groups.size(), 2u);
  EXPECT_EQ(d.groups[0].members.size(), 3u);
  EXPECT_EQ(d.groups[1].members.size(), 2u);
  // Merged keys record every shape assigned to the node.
  EXPECT_NE(d.groups[0].shape_key.find('+'), std::string::npos);
  // No source lost or duplicated.
  std::set<la::index_t> all;
  for (const auto& g : d.groups)
    all.insert(g.members.begin(), g.members.end());
  EXPECT_EQ(all.size(), 5u);
}

TEST(Decomposition, ShapeKeyIsStableAcrossRuns) {
  // The shape key depends only on pulse timing (not amplitude), and
  // repeated decompositions produce identical keys in identical order.
  PdnFixture f;
  DecompositionOptions opt;
  opt.t_end = 2.0;
  const auto d1 = decompose_sources(*f.mna, opt);
  const auto d2 = decompose_sources(*f.mna, opt);
  ASSERT_EQ(d1.groups.size(), d2.groups.size());
  for (std::size_t g = 0; g < d1.groups.size(); ++g) {
    EXPECT_EQ(d1.groups[g].shape_key, d2.groups[g].shape_key);
    EXPECT_EQ(d1.groups[g].members, d2.groups[g].members);
  }
  // I1/I2 share timing but not amplitude: one group, one key.
  EXPECT_EQ(d1.groups[0].members.size(), 2u);
}

TEST(Decomposition, WindowValidation) {
  PdnFixture f;
  DecompositionOptions opt;  // t_end == t_start == 0
  EXPECT_THROW(decompose_sources(*f.mna, opt), InvalidArgument);
}

TEST(Decomposition, PulsesOutsideWindowCountAsDc) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0",
                       Waveform::pulse(bump(5.0, 0.1, 0.2, 0.1, 1.0)));
  const MnaSystem mna(n);
  DecompositionOptions opt;
  opt.t_end = 1.0;  // pulse starts at t=5, after the window
  const auto d = decompose_sources(mna, opt);
  EXPECT_TRUE(d.groups.empty());
  EXPECT_EQ(d.dc_inputs.size(), 1u);
}

// -------------------------------------------------------------- group input

TEST(GroupInput, MasksAndSubtractsBaseline) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0", Waveform::dc(0.5));
  n.add_current_source("I2", "a", "0",
                       Waveform::pwl({0.0, 1.0}, {0.25, 1.25}));
  const MnaSystem mna(n);
  const GroupInput group(mna, {1}, 0.0);
  std::vector<double> u(2);
  group.value(0.0, u);
  EXPECT_DOUBLE_EQ(u[0], 0.0);  // I1 masked out
  EXPECT_DOUBLE_EQ(u[1], 0.0);  // baseline subtracted
  group.value(1.0, u);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
  std::vector<double> du(2);
  group.slope_after(0.5, du);
  EXPECT_DOUBLE_EQ(du[0], 0.0);
  EXPECT_DOUBLE_EQ(du[1], 1.0);
  const auto spots = group.transition_spots(0.0, 2.0);
  ASSERT_EQ(spots.size(), 2u);  // the PWL breakpoints only
}

TEST(GroupInput, RejectsBadMemberIndex) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  n.add_current_source("I1", "a", "0", Waveform::dc(0.5));
  const MnaSystem mna(n);
  EXPECT_THROW(GroupInput(mna, {7}, 0.0), InvalidArgument);
}

TEST(FullInput, MatchesMnaDirectly) {
  PdnFixture f;
  const FullInput input(*f.mna);
  EXPECT_EQ(input.count(), f.mna->input_count());
  std::vector<double> u1(static_cast<std::size_t>(input.count()));
  input.value(0.5, u1);
  const auto u2 = f.mna->input_at(0.5);
  for (std::size_t i = 0; i < u2.size(); ++i)
    EXPECT_DOUBLE_EQ(u1[i], u2[i]);
  EXPECT_EQ(input.transition_spots(0.0, 2.0),
            f.mna->global_transition_spots(0.0, 2.0));
}

// ------------------------------------------------------------- distributed

TEST(Scheduler, SuperpositionMatchesMonolithicReference) {
  PdnFixture f;
  const auto dc = solver::dc_operating_point(*f.mna);

  // Fine fixed-step TR reference of the *full* system.
  solver::FixedStepOptions fine;
  fine.t_end = 2.0;
  fine.h = 1e-4;
  StateRecorder ref;
  run_fixed_step(*f.mna, dc.x, solver::StepMethod::kTrapezoidal, fine,
                 ref.observer());

  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.kind = krylov::KrylovKind::kRational;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.1);
  StateRecorder rec;
  const auto result = run_distributed_matex(*f.mna, opt, rec.observer());

  EXPECT_EQ(result.group_count, 2u);
  ASSERT_EQ(rec.sample_count(), opt.output_times.size());
  for (std::size_t i = 0; i < rec.sample_count(); ++i) {
    const std::size_t ref_idx =
        static_cast<std::size_t>(std::llround(rec.times()[i] / fine.h));
    for (std::size_t j = 0; j < rec.state(i).size(); ++j)
      EXPECT_NEAR(rec.state(i)[j], ref.state(ref_idx)[j], 1e-5)
          << "t=" << rec.times()[i] << " unknown " << j;
  }
}

TEST(Scheduler, SharedFactorizationsGiveSameAnswer) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder a, b;
  const auto ra = run_distributed_matex(*f.mna, opt, a.observer());
  opt.share_factorizations = true;
  const auto rb = run_distributed_matex(*f.mna, opt, b.observer());

  ASSERT_EQ(a.sample_count(), b.sample_count());
  for (std::size_t i = 0; i < a.sample_count(); ++i)
    for (std::size_t j = 0; j < a.state(i).size(); ++j)
      EXPECT_NEAR(a.state(i)[j], b.state(i)[j], 1e-12);
  EXPECT_EQ(ra.group_count, rb.group_count);
}

TEST(Scheduler, NodeReportsDescribeSubtasks) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  const auto result = run_distributed_matex(*f.mna, opt, nullptr);

  ASSERT_EQ(result.nodes.size(), 2u);
  for (const auto& node : result.nodes) {
    EXPECT_EQ(node.source_count, 2u);
    EXPECT_EQ(node.lts_size, 4u);  // one bump = 4 spots
    EXPECT_GT(node.stats.krylov_subspaces, 0);
  }
  EXPECT_GT(result.dc_seconds, 0.0);
  EXPECT_GE(result.max_node_total_seconds,
            result.max_node_transient_seconds);
  // Aggregate counters sum over nodes.
  EXPECT_EQ(result.aggregate.krylov_subspaces,
            result.nodes[0].stats.krylov_subspaces +
                result.nodes[1].stats.krylov_subspaces);
}

TEST(Scheduler, MaxGroupsBoundsNodeCount) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.decomposition.max_groups = 1;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  const auto result = run_distributed_matex(*f.mna, opt, nullptr);
  EXPECT_EQ(result.group_count, 1u);
  EXPECT_EQ(result.nodes[0].source_count, 4u);
}

TEST(Scheduler, AllDcInputsShortCircuitToOperatingPoint) {
  Netlist n;
  n.add_voltage_source("Vdd", "p", "0", Waveform::dc(1.0));
  n.add_resistor("R1", "p", "a", 1.0);
  n.add_capacitor("C1", "a", "0", 1.0);
  const MnaSystem mna(n);
  SchedulerOptions opt;
  opt.t_end = 1.0;
  opt.output_times = uniform_grid(0.0, 1.0, 0.25);
  StateRecorder rec;
  const auto result = run_distributed_matex(mna, opt, rec.observer());
  EXPECT_EQ(result.group_count, 0u);
  const auto dc = solver::dc_operating_point(mna);
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    EXPECT_NEAR(rec.state(i)[0], dc.x[0], 1e-12);
}

TEST(Scheduler, ParallelWorkersMatchSequential) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder seq;
  const auto rs = run_distributed_matex(*f.mna, opt, seq.observer());
  opt.parallelism = 4;
  StateRecorder par;
  const auto rp = run_distributed_matex(*f.mna, opt, par.observer());

  EXPECT_EQ(rs.group_count, rp.group_count);
  EXPECT_EQ(rs.nodes.size(), rp.nodes.size());
  ASSERT_EQ(seq.sample_count(), par.sample_count());
  for (std::size_t i = 0; i < seq.sample_count(); ++i)
    for (std::size_t j = 0; j < seq.state(i).size(); ++j)
      // Superposition merges in group order regardless of thread timing,
      // so parallel and sequential runs agree bit for bit.
      EXPECT_EQ(seq.state(i)[j], par.state(i)[j]);
  // Node reports keep their group identity regardless of thread order.
  for (std::size_t g = 0; g < rp.nodes.size(); ++g)
    EXPECT_EQ(rp.nodes[g].group_index, g);
}

TEST(Scheduler, BitwiseDeterministicAcrossParallelism) {
  // The superposition order is fixed (group-index order) no matter how
  // many workers execute the node subtasks, so every parallelism setting
  // -- including a shared runtime pool -- produces the same bits.
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.decomposition.max_groups = 2;
  opt.output_times = uniform_grid(0.0, 2.0, 0.2);

  StateRecorder reference;
  run_distributed_matex(*f.mna, opt, reference.observer());

  runtime::ThreadPool pool(3);
  for (const int parallelism : {2, 4, 0}) {
    opt.parallelism = parallelism;
    for (const bool use_pool : {false, true}) {
      opt.pool = use_pool ? &pool : nullptr;
      StateRecorder rec;
      run_distributed_matex(*f.mna, opt, rec.observer());
      ASSERT_EQ(rec.sample_count(), reference.sample_count());
      for (std::size_t i = 0; i < rec.sample_count(); ++i)
        for (std::size_t j = 0; j < rec.state(i).size(); ++j)
          EXPECT_EQ(rec.state(i)[j], reference.state(i)[j])
              << "parallelism=" << parallelism << " pool=" << use_pool
              << " t=" << rec.times()[i] << " unknown " << j;
    }
  }
  opt.pool = nullptr;
}

TEST(Scheduler, LiveRowSuperpositionMatchesGroupSum) {
  // Nodes write back only their live rows (from the first nonzero row
  // on), in place at the merge frontier or staged out of turn. The sum
  // must still equal DC plus every group's full response, added in group
  // order, under ==.
  StaggeredFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.05);
  const std::size_t t_count = opt.output_times.size();

  const auto dc =
      solver::dc_operating_point(*f.mna, opt.t_start, opt.solver.lu_options);
  DecompositionOptions dopt = opt.decomposition;
  dopt.t_start = opt.t_start;
  dopt.t_end = opt.t_end;
  const Decomposition decomp = decompose_sources(*f.mna, dopt);
  ASSERT_EQ(decomp.groups.size(), 4u);

  std::vector<std::vector<double>> expected(t_count, dc.x);
  std::vector<std::size_t> expected_live;
  const std::vector<double> zero_state(dc.x.size(), 0.0);
  for (const SourceGroup& group : decomp.groups) {
    MatexCircuitSolver node(*f.mna, opt.solver, dc.g_factors);
    const GroupInput input(*f.mna, group.members, opt.t_start);
    std::size_t ti = 0;
    std::size_t leading_zero_rows = 0;
    bool live = false;
    node.run(zero_state, opt.t_start, opt.t_end, input, opt.output_times,
             [&](double /*t*/, std::span<const double> x) {
               live = live || std::any_of(x.begin(), x.end(),
                                          [](double v) { return v != 0.0; });
               if (!live) ++leading_zero_rows;
               for (std::size_t j = 0; j < x.size(); ++j)
                 expected[ti][j] += x[j];
               ++ti;
             });
    ASSERT_EQ(ti, t_count);
    expected_live.push_back(t_count - leading_zero_rows);
  }
  // The latest bump (t = 1.3) keeps its group zero for over half the rows.
  EXPECT_LT(*std::min_element(expected_live.begin(), expected_live.end()),
            t_count / 2);

  const auto expect_group_sum = [&] {
    StateRecorder rec;
    const auto result = run_distributed_matex(*f.mna, opt, rec.observer());
    ASSERT_EQ(rec.sample_count(), t_count);
    for (std::size_t i = 0; i < t_count; ++i)
      for (std::size_t j = 0; j < rec.state(i).size(); ++j)
        EXPECT_EQ(rec.state(i)[j], expected[i][j])
            << "t=" << rec.times()[i] << " unknown " << j;
    ASSERT_EQ(result.nodes.size(), expected_live.size());
    for (std::size_t g = 0; g < result.nodes.size(); ++g) {
      EXPECT_EQ(result.nodes[g].live_rows, expected_live[g]) << "group " << g;
      EXPECT_LT(result.nodes[g].live_rows, t_count) << "group " << g;
    }
  };
  for (const int parallelism : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    opt.parallelism = parallelism;
    expect_group_sum();
  }
  runtime::ThreadPool pool(3);
  opt.pool = &pool;
  SCOPED_TRACE("shared pool");
  expect_group_sum();
}

TEST(Scheduler, OutputRowsMatchFullStateEntriesBitwise) {
  // A probe-only run declares its rows: the nodes evaluate and superpose
  // only those, and the observer receives them compactly. Unsorted and
  // repeated probes go through probe_rows/probe_positions. Every probe
  // waveform must be == to that unknown's entries in the full-state run,
  // and each node's live rows must not change. The deck is large enough
  // (n > 700) for the evaluation to span several row blocks.
  pgbench::PowerGridSpec spec = pgbench::table_benchmark_spec(1);
  spec.seed = 3;
  const Netlist netlist = pgbench::generate_power_grid(spec);
  const MnaSystem mna(netlist);
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  SchedulerOptions opt;
  opt.t_end = spec.t_window;
  opt.solver.gamma = 1e-10;
  opt.solver.tolerance = 1e-6;
  opt.decomposition.max_groups = 8;
  opt.output_times = uniform_grid(0.0, spec.t_window, spec.t_window / 200);
  const std::size_t t_count = opt.output_times.size();

  StateRecorder full;
  const auto reference = run_distributed_matex(mna, opt, full.observer());
  ASSERT_EQ(full.sample_count(), t_count);
  ASSERT_GT(reference.group_count, 2u);

  const std::vector<la::index_t> probes = {
      static_cast<la::index_t>(n - 1), 5, 400, 5, 0,
      static_cast<la::index_t>(n / 2), 400, 257, 256};
  const auto rows = solver::probe_rows(probes);
  ASSERT_EQ(rows.size(), 7u);
  ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end()));

  const auto expect_probes = [&](SchedulerOptions o) {
    o.output_rows = rows;
    solver::ProbeRecorder rec(solver::probe_positions(probes, rows));
    std::size_t width = 0;
    const auto result = run_distributed_matex(
        mna, o, [&](double t, std::span<const double> x) {
          width = x.size();
          rec(t, x);
        });
    EXPECT_EQ(width, rows.size());
    ASSERT_EQ(rec.times().size(), t_count);
    for (std::size_t p = 0; p < probes.size(); ++p)
      for (std::size_t i = 0; i < t_count; ++i)
        EXPECT_EQ(rec.waveform(p)[i],
                  full.state(i)[static_cast<std::size_t>(probes[p])])
            << "probe " << probes[p] << " t=" << rec.times()[i];
    ASSERT_EQ(result.nodes.size(), reference.nodes.size());
    for (std::size_t g = 0; g < result.nodes.size(); ++g)
      EXPECT_EQ(result.nodes[g].live_rows, reference.nodes[g].live_rows)
          << "group " << g;
    EXPECT_EQ(result.aggregate.solves, reference.aggregate.solves);
    EXPECT_EQ(result.aggregate.steps, reference.aggregate.steps);
  };
  for (const int parallelism : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "parallelism " << parallelism);
    opt.parallelism = parallelism;
    expect_probes(opt);
  }
  runtime::ThreadPool pool(3);
  runtime::FactorCache cache;
  {
    SCOPED_TRACE("shared pool");
    SchedulerOptions o = opt;
    o.pool = &pool;
    expect_probes(o);
  }
  {
    SCOPED_TRACE("shared pool and factor cache");
    SchedulerOptions o = opt;
    o.pool = &pool;
    o.factor_cache = &cache;
    expect_probes(o);
  }
}

TEST(Scheduler, OutputRowsMustBeSortedUniqueAndInRange) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  const auto n = static_cast<la::index_t>(f.mna->dimension());
  for (const std::vector<la::index_t>& bad :
       {std::vector<la::index_t>{2, 1}, std::vector<la::index_t>{1, 1},
        std::vector<la::index_t>{-1, 0}, std::vector<la::index_t>{0, n}}) {
    opt.output_rows = bad;
    EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
                 InvalidArgument);
  }
  opt.output_rows = {0, n - 1};
  EXPECT_NO_THROW(run_distributed_matex(*f.mna, opt, nullptr));
}

TEST(Scheduler, ParallelWithSharedFactorizations) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.5);
  opt.share_factorizations = true;
  opt.parallelism = 3;  // concurrent solves against shared factors
  StateRecorder rec;
  const auto result = run_distributed_matex(*f.mna, opt, rec.observer());
  EXPECT_EQ(result.group_count, 2u);
  ASSERT_EQ(rec.sample_count(), opt.output_times.size());
}

TEST(Scheduler, InvalidOptionsThrow) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 0.0;
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.t_end = 1.0;  // empty output grid
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.output_times = {0.5, 0.25};
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
  opt.output_times = {0.25, 0.5};
  opt.parallelism = -1;  // 0 is valid (= hardware concurrency); < 0 is not
  EXPECT_THROW(run_distributed_matex(*f.mna, opt, nullptr),
               InvalidArgument);
}

TEST(Scheduler, ParallelismZeroMeansHardwareConcurrency) {
  PdnFixture f;
  SchedulerOptions opt;
  opt.t_end = 2.0;
  opt.solver.gamma = 0.05;
  opt.solver.tolerance = 1e-10;
  opt.output_times = uniform_grid(0.0, 2.0, 0.25);

  StateRecorder seq;
  const auto rs = run_distributed_matex(*f.mna, opt, seq.observer());
  opt.parallelism = 0;
  StateRecorder hw;
  const auto rh = run_distributed_matex(*f.mna, opt, hw.observer());

  EXPECT_GE(rh.workers_used, 1);
  EXPECT_EQ(rs.group_count, rh.group_count);
  ASSERT_EQ(seq.sample_count(), hw.sample_count());
  // Superposition order is fixed, so the answers agree bit for bit.
  for (std::size_t i = 0; i < seq.sample_count(); ++i)
    for (std::size_t j = 0; j < seq.state(i).size(); ++j)
      EXPECT_EQ(seq.state(i)[j], hw.state(i)[j]);
}

// ---------------------------------------------------------------- Eq 11/12

TEST(ComplexityModel, DistributedSpeedupGrowsWithDecomposition) {
  ComplexityParams p;
  p.t_bs = 1e-3;
  p.t_h = 1e-5;
  p.t_e = 1e-5;
  p.t_serial = 0.5;
  p.k_gts = 400;
  p.m = 10;
  p.n_steps = 1000;
  p.k_lts = 400;  // no decomposition: speedup over single MATEX is 1
  EXPECT_NEAR(speedup_distributed_over_single(p), 1.0, 1e-12);
  p.k_lts = 5;
  EXPECT_GT(speedup_distributed_over_single(p), 1.0);

  // Eq. 12: elongating the simulated span raises N while k stays fixed,
  // so the speedup over fixed-step TR grows (the paper's robustness
  // argument at the end of Sec. 3.4).
  const double s1 = speedup_distributed_over_fixed_tr(p);
  p.n_steps = 10000;
  p.k_gts *= 2;  // GTS grows a little with the span
  const double s2 = speedup_distributed_over_fixed_tr(p);
  EXPECT_GT(s2, s1);
}

TEST(ComplexityModel, Validation) {
  ComplexityParams p;  // all zero
  EXPECT_THROW(speedup_distributed_over_single(p), InvalidArgument);
  EXPECT_THROW(speedup_distributed_over_fixed_tr(p), InvalidArgument);
}

}  // namespace
}  // namespace matex::core
