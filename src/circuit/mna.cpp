#include "circuit/mna.hpp"

#include <algorithm>

#include "la/error.hpp"
#include "obs/trace.hpp"

namespace matex::circuit {
namespace {

/// Returns `g` with an explicit 0.0 at every position of pattern(c) that
/// g lacks. Every stored value of g is kept bitwise (a position sums one
/// g value with at most one +0.0), so G, C + gamma*G and C/h + G/2 all
/// have pattern(G) and one symbolic LU analysis serves them all.
la::CscMatrix with_pattern_of(const la::CscMatrix& g, const la::CscMatrix& c) {
  la::TripletMatrix t(g.rows(), g.cols());
  for (la::index_t j = 0; j < g.cols(); ++j) {
    for (la::index_t p = g.col_ptr()[j]; p < g.col_ptr()[j + 1]; ++p)
      t.add(g.row_idx()[p], j, g.values()[p]);
    for (la::index_t p = c.col_ptr()[j]; p < c.col_ptr()[j + 1]; ++p)
      t.add(c.row_idx()[p], j, 0.0);
  }
  return t.to_csc();
}

}  // namespace

MnaSystem::MnaSystem(const Netlist& netlist, MnaOptions options)
    : netlist_(&netlist) {
  obs::Span span("stamp");
  const la::index_t n_nodes = netlist.node_count();
  node_to_unknown_.assign(static_cast<std::size_t>(n_nodes), -1);
  node_fixed_input_.assign(static_cast<std::size_t>(n_nodes), -1);

  // --- input table: current sources first, then voltage sources.
  inputs_.reserve(netlist.current_sources().size() +
                  netlist.voltage_sources().size());
  for (const Source& s : netlist.current_sources())
    inputs_.push_back({&s.waveform, &s.name});
  const la::index_t vsrc_input_base =
      static_cast<la::index_t>(inputs_.size());
  for (const Source& s : netlist.voltage_sources())
    inputs_.push_back({&s.waveform, &s.name});

  // --- decide which voltage sources are eliminated.
  std::vector<char> v_eliminated(netlist.voltage_sources().size(), 0);
  if (options.eliminate_grounded_vsources) {
    for (std::size_t k = 0; k < netlist.voltage_sources().size(); ++k) {
      const Source& v = netlist.voltage_sources()[k];
      const bool grounded = (v.n1 == kGroundNode) != (v.n2 == kGroundNode);
      if (!grounded || !v.waveform.is_dc()) continue;
      const NodeId node = v.n1 == kGroundNode ? v.n2 : v.n1;
      MATEX_CHECK(node_fixed_input_[static_cast<std::size_t>(node)] < 0,
                  "node driven by two voltage sources: " + v.name);
      node_fixed_input_[static_cast<std::size_t>(node)] =
          vsrc_input_base + static_cast<la::index_t>(k);
      v_eliminated[k] = 1;
    }
  }

  // --- number the unknowns: surviving nodes, then branch currents.
  la::index_t next = 0;
  for (NodeId i = 0; i < n_nodes; ++i)
    if (node_fixed_input_[static_cast<std::size_t>(i)] < 0)
      node_to_unknown_[static_cast<std::size_t>(i)] = next++;
  node_unknowns_ = next;
  const la::index_t n_branches =
      static_cast<la::index_t>(netlist.inductors().size()) +
      static_cast<la::index_t>(std::count(v_eliminated.begin(),
                                          v_eliminated.end(), 0));
  dim_ = node_unknowns_ + n_branches;
  MATEX_CHECK(dim_ > 0, "circuit has no unknowns");

  la::TripletMatrix tc(dim_, dim_), tg(dim_, dim_),
      tb(dim_, static_cast<la::index_t>(inputs_.size()));

  // Helpers: classify a node as unknown (>=0), ground, or fixed rail.
  const auto unknown_of = [&](NodeId n) -> la::index_t {
    return n == kGroundNode ? -1
                            : node_to_unknown_[static_cast<std::size_t>(n)];
  };
  const auto fixed_input_of = [&](NodeId n) -> la::index_t {
    return n == kGroundNode ? -1
                            : node_fixed_input_[static_cast<std::size_t>(n)];
  };

  // Stamps a conductance-like coupling between two terminals into `tm`
  // and, for fixed rails, the compensating entries into B.
  const auto stamp_pair = [&](la::TripletMatrix& tm, NodeId a, NodeId b,
                              double v, bool couple_rail_to_b) {
    const la::index_t ia = unknown_of(a);
    const la::index_t ib = unknown_of(b);
    if (ia >= 0) tm.add(ia, ia, v);
    if (ib >= 0) tm.add(ib, ib, v);
    if (ia >= 0 && ib >= 0) {
      tm.add(ia, ib, -v);
      tm.add(ib, ia, -v);
    }
    if (couple_rail_to_b) {
      // Coupling from an unknown node to a fixed rail moves to the RHS:
      // +v * V_rail on the B side.
      const la::index_t fa = fixed_input_of(a);
      const la::index_t fb = fixed_input_of(b);
      if (ia >= 0 && fb >= 0) tb.add(ia, fb, v);
      if (ib >= 0 && fa >= 0) tb.add(ib, fa, v);
    }
  };

  for (const Passive& r : netlist.resistors())
    stamp_pair(tg, r.n1, r.n2, 1.0 / r.value, /*couple_rail_to_b=*/true);
  // Capacitor coupling to a fixed DC rail contributes C * dV/dt = 0, so
  // only the diagonal survives (couple_rail_to_b = false).
  for (const Passive& c : netlist.capacitors())
    stamp_pair(tc, c.n1, c.n2, c.value, /*couple_rail_to_b=*/false);

  la::index_t branch = node_unknowns_;
  for (const Passive& l : netlist.inductors()) {
    const la::index_t i1 = unknown_of(l.n1);
    const la::index_t i2 = unknown_of(l.n2);
    const la::index_t f1 = fixed_input_of(l.n1);
    const la::index_t f2 = fixed_input_of(l.n2);
    // KCL: branch current leaves n1, enters n2.
    if (i1 >= 0) tg.add(i1, branch, 1.0);
    if (i2 >= 0) tg.add(i2, branch, -1.0);
    // Branch equation: L di/dt - v(n1) + v(n2) = 0.
    tc.add(branch, branch, l.value);
    if (i1 >= 0) tg.add(branch, i1, -1.0);
    if (i2 >= 0) tg.add(branch, i2, 1.0);
    if (f1 >= 0) tb.add(branch, f1, 1.0);   // ... = +V(n1)
    if (f2 >= 0) tb.add(branch, f2, -1.0);  // ... = -V(n2)
    ++branch;
  }
  for (std::size_t k = 0; k < netlist.voltage_sources().size(); ++k) {
    if (v_eliminated[k]) continue;
    const Source& v = netlist.voltage_sources()[k];
    const la::index_t i1 = unknown_of(v.n1);
    const la::index_t i2 = unknown_of(v.n2);
    const la::index_t f1 = fixed_input_of(v.n1);
    const la::index_t f2 = fixed_input_of(v.n2);
    const la::index_t uk = vsrc_input_base + static_cast<la::index_t>(k);
    if (i1 >= 0) tg.add(i1, branch, 1.0);
    if (i2 >= 0) tg.add(i2, branch, -1.0);
    // Branch equation: v(n1) - v(n2) = u_k.
    if (i1 >= 0) tg.add(branch, i1, 1.0);
    if (i2 >= 0) tg.add(branch, i2, -1.0);
    tb.add(branch, uk, 1.0);
    if (f1 >= 0) tb.add(branch, f1, -1.0);  // known terminal moves to RHS
    if (f2 >= 0) tb.add(branch, f2, 1.0);
    ++branch;
  }
  for (std::size_t k = 0; k < netlist.current_sources().size(); ++k) {
    const Source& s = netlist.current_sources()[k];
    const la::index_t i1 = unknown_of(s.n1);
    const la::index_t i2 = unknown_of(s.n2);
    const la::index_t uk = static_cast<la::index_t>(k);
    // SPICE convention: positive current flows from n1 through the source
    // to n2, i.e. it is drawn out of node n1.
    if (i1 >= 0) tb.add(i1, uk, -1.0);
    if (i2 >= 0) tb.add(i2, uk, 1.0);
  }

  c_ = tc.to_csc();
  g_ = with_pattern_of(tg.to_csc(), c_);
  b_ = tb.to_csc();
  span.arg("unknowns", dim_).arg("nnz_g", g_.nnz()).arg("inputs",
                                                        inputs_.size());
}

const Waveform& MnaSystem::input_waveform(la::index_t k) const {
  MATEX_CHECK(k >= 0 && static_cast<std::size_t>(k) < inputs_.size());
  return *inputs_[static_cast<std::size_t>(k)].waveform;
}

const std::string& MnaSystem::input_name(la::index_t k) const {
  MATEX_CHECK(k >= 0 && static_cast<std::size_t>(k) < inputs_.size());
  return *inputs_[static_cast<std::size_t>(k)].name;
}

void MnaSystem::input_at(double t, std::span<double> u) const {
  MATEX_CHECK(u.size() == inputs_.size());
  for (std::size_t k = 0; k < inputs_.size(); ++k)
    u[k] = inputs_[k].waveform->value(t);
}

std::vector<double> MnaSystem::input_at(double t) const {
  std::vector<double> u(inputs_.size());
  input_at(t, u);
  return u;
}

void MnaSystem::rhs_at(double t, std::span<double> out) const {
  const auto u = input_at(t);
  b_.multiply(u, out);
}

std::vector<double> MnaSystem::global_transition_spots(double t0,
                                                       double t1) const {
  std::vector<double> gts;
  for (const InputEntry& e : inputs_) {
    const auto spots = e.waveform->transition_spots(t0, t1);
    gts.insert(gts.end(), spots.begin(), spots.end());
  }
  std::sort(gts.begin(), gts.end());
  gts.erase(std::unique(gts.begin(), gts.end()), gts.end());
  return gts;
}

la::index_t MnaSystem::unknown_index(NodeId node) const {
  if (node == kGroundNode) return -1;
  MATEX_CHECK(node >= 0 &&
              static_cast<std::size_t>(node) < node_to_unknown_.size());
  return node_to_unknown_[static_cast<std::size_t>(node)];
}

double MnaSystem::node_voltage(std::span<const double> x, NodeId node,
                               double t) const {
  if (node == kGroundNode) return 0.0;
  const la::index_t idx = unknown_index(node);
  if (idx >= 0) return x[static_cast<std::size_t>(idx)];
  const la::index_t f = node_fixed_input_[static_cast<std::size_t>(node)];
  MATEX_CHECK(f >= 0, "node is neither unknown nor fixed");
  return inputs_[static_cast<std::size_t>(f)].waveform->value(t);
}

std::vector<char> MnaSystem::dynamic_unknown_mask() const {
  std::vector<char> dynamic(static_cast<std::size_t>(dim_), 0);
  for (la::index_t j = 0; j < c_.cols(); ++j)
    for (la::index_t p = c_.col_ptr()[j]; p < c_.col_ptr()[j + 1]; ++p)
      if (c_.values()[p] != 0.0) {
        dynamic[static_cast<std::size_t>(c_.row_idx()[p])] = 1;
        dynamic[static_cast<std::size_t>(j)] = 1;
      }
  return dynamic;
}

bool MnaSystem::is_eliminated(NodeId node) const {
  if (node == kGroundNode) return false;
  MATEX_CHECK(node >= 0 &&
              static_cast<std::size_t>(node) < node_fixed_input_.size());
  return node_fixed_input_[static_cast<std::size_t>(node)] >= 0;
}

}  // namespace matex::circuit
