/// \file mna.hpp
/// \brief Modified nodal analysis: assembles C x' = -G x + B u(t) (Eq. 1).
///
/// Unknowns are the non-ground node voltages plus one branch current per
/// inductor and per non-eliminated voltage source. Ideal DC voltage
/// sources to ground (the PDN supply pads) are *eliminated*: their node
/// voltage is known, the KCL row disappears and the couplings move into
/// B -- standard power-grid-solver practice that keeps G well conditioned
/// and shrinks the system.
///
/// The input vector u(t) has one entry per independent source (current
/// sources first, then voltage sources -- including eliminated ones, whose
/// columns of B carry the conductances into the fixed rails).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "la/sparse_csc.hpp"

namespace matex::circuit {

/// Options controlling MNA assembly.
struct MnaOptions {
  /// Eliminate ideal DC voltage sources to ground (see file comment).
  bool eliminate_grounded_vsources = true;
};

/// The assembled linear system C x' = -G x + B u(t).
class MnaSystem {
 public:
  /// Assembles the system. The netlist must outlive the MnaSystem (node
  /// names and waveforms are referenced).
  explicit MnaSystem(const Netlist& netlist, MnaOptions options = {});

  /// System dimension (node unknowns + branch currents).
  la::index_t dimension() const { return dim_; }
  /// Number of node-voltage unknowns.
  la::index_t node_unknowns() const { return node_unknowns_; }
  /// Number of branch-current unknowns (inductors + kept V sources).
  la::index_t branch_unknowns() const { return dim_ - node_unknowns_; }
  /// Number of input entries in u(t).
  la::index_t input_count() const {
    return static_cast<la::index_t>(inputs_.size());
  }

  const la::CscMatrix& c() const { return c_; }
  /// G, stored on pattern(G) ∪ pattern(C) with explicit zeros where only
  /// C has entries. Every matrix the solvers factorize -- G, C + gamma*G,
  /// C/h + G/2 -- therefore has pattern(G), so one symbolic LU analysis
  /// (la::SymbolicLU) serves all of them. The zeros change no product:
  /// G*x is bitwise the same as without them.
  const la::CscMatrix& g() const { return g_; }
  const la::CscMatrix& b() const { return b_; }

  /// Waveform of input entry k.
  const Waveform& input_waveform(la::index_t k) const;
  /// Name of the source behind input entry k.
  const std::string& input_name(la::index_t k) const;

  /// Fills u(t) (size input_count()).
  void input_at(double t, std::span<double> u) const;
  std::vector<double> input_at(double t) const;

  /// Fills b(t) = B u(t) (size dimension()).
  void rhs_at(double t, std::span<double> out) const;

  /// Union of all input transition spots in [t0, t1] (the GTS of
  /// Sec. 3.1), sorted and deduplicated.
  std::vector<double> global_transition_spots(double t0, double t1) const;

  /// Unknown-vector index of a node, or -1 if the node is ground or was
  /// eliminated.
  la::index_t unknown_index(NodeId node) const;

  /// Voltage of any node given the unknown vector x at time t (handles
  /// ground and eliminated supply nodes).
  double node_voltage(std::span<const double> x, NodeId node,
                      double t) const;

  /// True if the node was eliminated as a fixed supply.
  bool is_eliminated(NodeId node) const;

  /// Per-unknown flag (size dimension()): 1 when the unknown carries
  /// dynamics -- its row or column of C holds a nonzero entry -- and 0
  /// for purely algebraic unknowns (non-eliminated voltage-source branch
  /// currents, capacitance-free resistive nodes). All-ones exactly when C
  /// is structurally nonsingular; the zeros are the index-1 DAE rows the
  /// oracle eliminates by Schur complement and the LTE controller must
  /// not treat as integrated states.
  std::vector<char> dynamic_unknown_mask() const;

  const Netlist& netlist() const { return *netlist_; }

 private:
  struct InputEntry {
    const Waveform* waveform;
    const std::string* name;
  };

  const Netlist* netlist_;
  la::index_t dim_ = 0;
  la::index_t node_unknowns_ = 0;
  la::CscMatrix c_;
  la::CscMatrix g_;
  la::CscMatrix b_;
  std::vector<InputEntry> inputs_;
  std::vector<la::index_t> node_to_unknown_;   // per netlist node
  std::vector<la::index_t> node_fixed_input_;  // u index if eliminated, else -1
};

}  // namespace matex::circuit
