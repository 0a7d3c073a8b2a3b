#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "circuit/spice.hpp"
#include "core/decomposition.hpp"
#include "core/input_view.hpp"
#include "core/scheduler.hpp"
#include "la/error.hpp"
#include "la/sparse_lu.hpp"
#include "pgbench/pg_generator.hpp"
#include "pgbench/rc_mesh.hpp"
#include "pgbench/stiffness.hpp"
#include "runtime/factor_cache.hpp"
#include "solver/dc.hpp"
#include "solver/fixed_step.hpp"
#include "solver/observer.hpp"
#include "test_util.hpp"

namespace matex::pgbench {
namespace {

using circuit::MnaSystem;
using circuit::Netlist;

TEST(PowerGrid, GeneratesExpectedStructure) {
  PowerGridSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.layers = 2;
  spec.source_count = 10;
  spec.bump_shape_count = 3;
  spec.pads_per_side = 1;
  const Netlist n = generate_power_grid(spec);
  // 8x8 bottom layer + 4x4 top layer nodes, plus 4 pad nodes.
  EXPECT_EQ(n.node_count(), 64 + 16 + 4);
  EXPECT_EQ(n.capacitors().size(), 64u + 16u);
  EXPECT_EQ(n.current_sources().size(), 10u);
  EXPECT_EQ(n.voltage_sources().size(), 4u);
  EXPECT_TRUE(n.inductors().empty());
}

TEST(PowerGrid, PadInductanceAddsBranches) {
  PowerGridSpec spec;
  spec.rows = 4;
  spec.cols = 4;
  spec.layers = 1;
  spec.pads_per_side = 1;
  spec.pad_inductance = 1e-10;
  spec.source_count = 2;
  const Netlist n = generate_power_grid(spec);
  EXPECT_EQ(n.inductors().size(), 4u);
  const MnaSystem mna(n);
  EXPECT_EQ(mna.branch_unknowns(), 4);
  // The grid is still DC-solvable through the package.
  const auto dc = solver::dc_operating_point(mna);
  EXPECT_NEAR(mna.node_voltage(dc.x, n.find_node("matexpg_n0_0_0"), 0.0),
              spec.vdd, 1e-9);
}

TEST(PowerGrid, DeterministicForSeed) {
  PowerGridSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  spec.source_count = 8;
  const Netlist a = generate_power_grid(spec);
  const Netlist b = generate_power_grid(spec);
  std::ostringstream sa, sb;
  circuit::write_spice(a, sa);
  circuit::write_spice(b, sb);
  EXPECT_EQ(sa.str(), sb.str());

  spec.seed = 99;
  const Netlist c = generate_power_grid(spec);
  std::ostringstream sc;
  circuit::write_spice(c, sc);
  EXPECT_NE(sa.str(), sc.str());
}

TEST(PowerGrid, DcSagsBelowVddUnderLoad) {
  PowerGridSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.source_count = 20;
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  // All node voltages <= vdd (pulse baselines are zero, so DC has no
  // load current, every node sits essentially at vdd).
  double vmin = 1e9, vmax = -1e9;
  for (la::index_t i = 0; i < mna.node_unknowns(); ++i) {
    vmin = std::min(vmin, dc.x[static_cast<std::size_t>(i)]);
    vmax = std::max(vmax, dc.x[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(vmin, spec.vdd, 1e-6);
  EXPECT_NEAR(vmax, spec.vdd, 1e-6);
}

TEST(PowerGrid, BumpShapeCountBoundsGroupCount) {
  PowerGridSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.source_count = 40;
  spec.bump_shape_count = 5;
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(n);
  core::DecompositionOptions dopt;
  dopt.t_end = spec.t_window;
  const auto d = core::decompose_sources(mna, dopt);
  EXPECT_LE(d.groups.size(), 5u);
  EXPECT_GE(d.groups.size(), 2u);
  std::size_t member_total = 0;
  for (const auto& g : d.groups) member_total += g.members.size();
  EXPECT_EQ(member_total, 40u);
}

TEST(PowerGrid, SpiceRoundTripPreservesStructure) {
  PowerGridSpec spec;
  spec.rows = 5;
  spec.cols = 5;
  spec.source_count = 6;
  const Netlist n = generate_power_grid(spec);
  std::ostringstream out;
  circuit::write_spice(n, out, "pg roundtrip");
  const auto deck = circuit::read_spice_string(out.str());
  EXPECT_EQ(deck.netlist.element_count(), n.element_count());
  const MnaSystem m1(n), m2(deck.netlist);
  EXPECT_EQ(m1.dimension(), m2.dimension());
  EXPECT_NEAR(la::max_abs_diff(m1.g(), m2.g()), 0.0, 1e-12);
}

TEST(PowerGrid, InvalidSpecsThrow) {
  PowerGridSpec spec;
  spec.rows = 1;
  EXPECT_THROW(generate_power_grid(spec), InvalidArgument);
  spec = PowerGridSpec{};
  spec.layers = 0;
  EXPECT_THROW(generate_power_grid(spec), InvalidArgument);
  spec = PowerGridSpec{};
  spec.load_current_min = -1.0;
  EXPECT_THROW(generate_power_grid(spec), InvalidArgument);
}

TEST(PowerGrid, TableSpecsGrowAndScale) {
  double last_nodes = 0;
  for (int i = 1; i <= 6; ++i) {
    const auto spec = table_benchmark_spec(i);
    const double nodes = static_cast<double>(spec.rows) * spec.cols;
    if (i != 4) {
      EXPECT_GT(nodes, last_nodes) << "design " << i;
    }
    last_nodes = nodes;
  }
  const auto small = table_benchmark_spec(2, 0.25);
  const auto full = table_benchmark_spec(2, 1.0);
  EXPECT_LT(small.rows, full.rows);
  EXPECT_THROW(table_benchmark_spec(0), InvalidArgument);
  EXPECT_THROW(table_benchmark_spec(7), InvalidArgument);
  EXPECT_THROW(table_benchmark_spec(1, 0.0), InvalidArgument);
}

TEST(StiffMesh, StructureAndDeterminism) {
  StiffRcSpec spec;
  spec.rows = 6;
  spec.cols = 6;
  const Netlist a = generate_stiff_rc_mesh(spec);
  EXPECT_EQ(a.node_count(), 36);
  EXPECT_EQ(a.capacitors().size(), 36u);
  EXPECT_EQ(a.current_sources().size(), 1u);
  const Netlist b = generate_stiff_rc_mesh(spec);
  std::ostringstream sa, sb;
  circuit::write_spice(a, sa);
  circuit::write_spice(b, sb);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(StiffMesh, InvalidSpecThrows) {
  StiffRcSpec spec;
  spec.rows = 1;
  EXPECT_THROW(generate_stiff_rc_mesh(spec), InvalidArgument);
  spec = StiffRcSpec{};
  spec.cap_max = 0.0;
  EXPECT_THROW(generate_stiff_rc_mesh(spec), InvalidArgument);
}

TEST(Stiffness, DiagonalSystemExact) {
  // C = I, G = diag(1, 10, 100): lambda = -1, -10, -100.
  la::TripletMatrix tc(3, 3), tg(3, 3);
  for (la::index_t i = 0; i < 3; ++i) {
    tc.add(i, i, 1.0);
    tg.add(i, i, std::pow(10.0, i));
  }
  const auto c = tc.to_csc();
  const auto g = tg.to_csc();
  const auto est = estimate_stiffness(c, g);
  EXPECT_TRUE(est.converged);
  EXPECT_NEAR(est.lambda_max_mag, 100.0, 1.0);
  EXPECT_NEAR(est.lambda_min_mag, 1.0, 0.01);
  EXPECT_NEAR(est.stiffness, 100.0, 2.0);
}

TEST(Stiffness, GrowsWithCapacitanceSpread) {
  StiffRcSpec mild;
  mild.rows = mild.cols = 5;
  mild.cap_decades = 1.0;
  StiffRcSpec harsh = mild;
  harsh.cap_decades = 6.0;

  const Netlist nm = generate_stiff_rc_mesh(mild);
  const Netlist nh = generate_stiff_rc_mesh(harsh);
  const MnaSystem mm(nm), mh(nh);
  const auto em = estimate_stiffness(mm.c(), mm.g());
  const auto eh = estimate_stiffness(mh.c(), mh.g());
  EXPECT_GT(em.stiffness, 1.0);
  EXPECT_GT(eh.stiffness, 1e3 * em.stiffness);
}

// --------------------------------------- one symbolic analysis per deck

/// A pgbench deck plus the MNA options it is assembled with.
struct PatternDeck {
  const char* name;
  PowerGridSpec spec;
  circuit::MnaOptions mna;
};

/// The decks the G-pattern invariant is pinned on: the Table 3 deck shape
/// with package inductors (whose branch diagonals live only in C), the
/// same deck with its supplies kept as branch unknowns, and a deck with
/// capacitance-free junctions.
std::vector<PatternDeck> pattern_decks() {
  std::vector<PatternDeck> decks;
  decks.push_back({"inductive", table_benchmark_spec(1, 0.1), {}});
  decks.push_back({"keep_vsources", table_benchmark_spec(1, 0.1),
                   circuit::MnaOptions{.eliminate_grounded_vsources = false}});
  PatternDeck cap_free{"cap_free", table_benchmark_spec(1, 0.1), {}};
  cap_free.spec.cap_free_fraction = 0.3;
  decks.push_back(cap_free);
  return decks;
}

/// G without its explicit zeros: the matrix the stamps alone produce.
la::CscMatrix drop_explicit_zeros(const la::CscMatrix& m) {
  la::TripletMatrix t(m.rows(), m.cols());
  for (la::index_t j = 0; j < m.cols(); ++j)
    for (la::index_t p = m.col_ptr()[j]; p < m.col_ptr()[j + 1]; ++p)
      if (m.values()[p] != 0.0) t.add(m.row_idx()[p], j, m.values()[p]);
  return t.to_csc();
}

TEST(GPattern, ShiftedAndTrMatricesShareThePatternOfG) {
  for (const PatternDeck& deck : pattern_decks()) {
    SCOPED_TRACE(deck.name);
    const Netlist n = generate_power_grid(deck.spec);
    const MnaSystem mna(n, deck.mna);
    const std::uint64_t fp_g = la::pattern_fingerprint(mna.g());
    for (const double gamma : {1e-11, 1e-10, 1e-9})
      EXPECT_EQ(fp_g, la::pattern_fingerprint(
                          la::add_scaled(1.0, mna.c(), gamma, mna.g())))
          << "gamma " << gamma;
    // C/h + G/2: the trapezoidal iteration matrix.
    for (const double h : {1e-12, 1e-11})
      EXPECT_EQ(fp_g, la::pattern_fingerprint(
                          la::add_scaled(1.0 / h, mna.c(), 0.5, mna.g())))
          << "h " << h;
  }
}

TEST(GPattern, ExplicitZerosLeaveProductsBitwiseUnchanged) {
  for (const PatternDeck& deck : pattern_decks()) {
    SCOPED_TRACE(deck.name);
    const Netlist n = generate_power_grid(deck.spec);
    const MnaSystem mna(n, deck.mna);
    const la::CscMatrix stamped = drop_explicit_zeros(mna.g());
    // Package inductors put their branch diagonal in C only.
    if (!n.inductors().empty()) {
      EXPECT_GT(mna.g().nnz(), stamped.nnz());
    }
    testing::Rng rng(7);
    const auto x = testing::random_vector(
        static_cast<std::size_t>(mna.dimension()), rng);
    std::vector<double> y(x.size()), y_stamped(x.size());
    mna.g().multiply(x, y);
    stamped.multiply(x, y_stamped);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                std::bit_cast<std::uint64_t>(y_stamped[i]))
          << "row " << i;
  }
}

/// R-MATEX options of the node-setup tests.
core::MatexOptions node_setup_options() {
  core::MatexOptions opt;
  opt.kind = krylov::KrylovKind::kRational;
  opt.gamma = 1e-10;
  opt.tolerance = 1e-8;
  opt.max_dim = 150;
  return opt;
}

TEST(NodeSetup, OperatorRefactorsAlongSharedLuOfG) {
  const Netlist n = generate_power_grid(table_benchmark_spec(1, 0.1));
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  const core::MatexCircuitSolver node(mna, node_setup_options(),
                                      dc.g_factors);
  const la::SparseLU& op_lu = node.krylov_operator().factorization();
  EXPECT_TRUE(op_lu.refactored());
  EXPECT_EQ(op_lu.symbolic().get(), dc.g_factors->symbolic().get());
  EXPECT_EQ(node.setup_factorizations(), 1);

  // Without a shared LU(G) the node factorizes G itself and still
  // refills the operator along that analysis.
  const core::MatexCircuitSolver own(mna, node_setup_options());
  EXPECT_TRUE(own.krylov_operator().factorization().refactored());
  EXPECT_EQ(own.setup_factorizations(), 2);
}

TEST(NodeSetup, FactorCacheRefillsTheOperatorOnItsFirstGamma) {
  const Netlist n = generate_power_grid(table_benchmark_spec(1, 0.1));
  const MnaSystem mna(n);
  runtime::FactorCache cache;
  const core::MatexCircuitSolver node(mna, node_setup_options(), nullptr,
                                      &cache);
  EXPECT_EQ(node.setup_factorizations(), 2);
  EXPECT_TRUE(node.krylov_operator().factorization().refactored());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.symbolic_hits, 1);
  EXPECT_EQ(cache.symbolic_size(), 1u);
}

TEST(NodeSetup, PivotToleranceFallbackKeepsWaveforms) {
  // Kept supplies: their branch rows have no C, so on C + gamma*G the
  // frozen LU(G) pivots there are no longer the column maxima.
  const auto spec = table_benchmark_spec(1, 0.1);
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(
      n, circuit::MnaOptions{.eliminate_grounded_vsources = false});
  const auto dc = solver::dc_operating_point(mna);
  const core::FullInput input(mna);
  const auto grid = solver::uniform_grid(0.0, spec.t_window, 1e-11);

  core::MatexCircuitSolver refill(mna, node_setup_options(), dc.g_factors);
  ASSERT_TRUE(refill.krylov_operator().factorization().refactored());
  solver::StateRecorder ref;
  refill.run(dc.x, 0.0, spec.t_window, input, grid, ref.observer());

  // A strict refactor tolerance rejects those frozen pivots, so the
  // operator falls back to a full factorization.
  core::MatexOptions strict = node_setup_options();
  strict.lu_options.refactor_pivot_tol = 1.0;
  core::MatexCircuitSolver fallback(mna, strict, dc.g_factors);
  const la::SparseLU& op_lu = fallback.krylov_operator().factorization();
  EXPECT_FALSE(op_lu.refactored());
  EXPECT_NE(op_lu.symbolic().get(), dc.g_factors->symbolic().get());
  solver::StateRecorder rec;
  fallback.run(dc.x, 0.0, spec.t_window, input, grid, rec.observer());

  ASSERT_EQ(rec.sample_count(), ref.sample_count());
  solver::ErrorStats err;
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    err.accumulate(rec.state(i), ref.state(i));
  EXPECT_LT(err.max_abs, 1e-6);
}

TEST(Integration, InductivePadGridMatexVsTr) {
  // The Table 2/3 analog grids carry package inductance: oscillatory
  // (complex-eigenvalue) supply modes plus singular C rows from the
  // branch currents -- the hardest configuration for the Krylov solvers.
  auto spec = table_benchmark_spec(1, 0.15);
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(n);
  ASSERT_GT(mna.branch_unknowns(), 0);  // inductors present
  const auto dc = solver::dc_operating_point(mna);

  const double t_end = spec.t_window;
  const double h = 1e-11;
  solver::FixedStepOptions tr_opt;
  tr_opt.t_end = t_end;
  tr_opt.h = 1e-12;  // fine reference
  solver::StateRecorder ref;
  run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, tr_opt,
                 ref.observer());

  core::SchedulerOptions opt;
  opt.t_end = t_end;
  opt.solver.kind = krylov::KrylovKind::kRational;
  opt.solver.gamma = 1e-10;
  opt.solver.tolerance = 1e-8;
  opt.solver.max_dim = 150;
  opt.output_times = solver::uniform_grid(0.0, t_end, h);
  solver::StateRecorder mx;
  run_distributed_matex(mna, opt, mx.observer());

  solver::ErrorStats err;
  for (std::size_t i = 0; i < mx.sample_count(); ++i)
    err.accumulate(mx.state(i), ref.state(i * 10));
  EXPECT_LT(err.max_abs, 1e-4);
  EXPECT_LT(err.mean_abs(), 1e-5);
}

TEST(Integration, InductivePadGridInvertedKindToo) {
  auto spec = table_benchmark_spec(1, 0.1);
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);
  const double t_end = spec.t_window;

  solver::FixedStepOptions tr_opt;
  tr_opt.t_end = t_end;
  tr_opt.h = 1e-12;
  solver::StateRecorder ref;
  run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, tr_opt,
                 ref.observer());

  core::MatexOptions opt;
  opt.kind = krylov::KrylovKind::kInverted;
  opt.tolerance = 1e-8;
  opt.max_dim = 200;
  core::MatexCircuitSolver matex(mna, opt, dc.g_factors);
  const core::FullInput input(mna);
  const auto grid = solver::uniform_grid(0.0, t_end, 1e-10);
  solver::StateRecorder rec;
  matex.run(dc.x, 0.0, t_end, input, grid, rec.observer());

  solver::ErrorStats err;
  for (std::size_t i = 0; i < rec.sample_count(); ++i)
    err.accumulate(rec.state(i), ref.state(i * 100));
  EXPECT_LT(err.max_abs, 1e-4);
}

TEST(Integration, GeneratedGridTransientMatexVsTr) {
  // End-to-end: synthetic PDN, distributed R-MATEX vs fixed-step TR.
  PowerGridSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.layers = 2;
  spec.source_count = 24;
  spec.bump_shape_count = 4;
  const Netlist n = generate_power_grid(spec);
  const MnaSystem mna(n);
  const auto dc = solver::dc_operating_point(mna);

  const double t_end = spec.t_window;
  const double h = 1e-11;  // 10 ps, the Table 3 grid
  solver::FixedStepOptions tr_opt;
  tr_opt.t_end = t_end;
  tr_opt.h = h;
  solver::StateRecorder tr;
  run_fixed_step(mna, dc.x, solver::StepMethod::kTrapezoidal, tr_opt,
                 tr.observer());

  core::SchedulerOptions opt;
  opt.t_end = t_end;
  opt.solver.kind = krylov::KrylovKind::kRational;
  opt.solver.gamma = 1e-10;
  opt.solver.tolerance = 1e-7;
  opt.solver.max_dim = 60;
  opt.output_times = solver::uniform_grid(0.0, t_end, h);
  solver::StateRecorder mx;
  const auto result = run_distributed_matex(mna, opt, mx.observer());

  EXPECT_LE(result.group_count, 4u);
  ASSERT_EQ(mx.sample_count(), tr.sample_count());
  solver::ErrorStats err;
  for (std::size_t i = 0; i < mx.sample_count(); ++i)
    err.accumulate(mx.state(i), tr.state(i));
  // TR at h=10ps carries its own discretization error; agreement at the
  // 1e-4-volt level matches the Table 3 error column.
  EXPECT_LT(err.max_abs, 5e-4);
  EXPECT_LT(err.mean_abs(), 5e-5);
}

}  // namespace
}  // namespace matex::pgbench
