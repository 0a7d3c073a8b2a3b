/// \file scheduler.hpp
/// \brief The distributed MATEX framework (Fig. 4): scheduler, emulated
///        slave nodes, and superposition.
///
/// The scheduler decomposes the sources into bump-shape groups, hands each
/// group to a slave node, lets every node run the MATEX circuit solver
/// against its own LTS (no communication until write-back -- the nodes
/// share nothing but the read-only circuit), and finally sums the
/// write-backs with the DC operating point (superposition of the linear
/// system).
///
/// Nodes are emulated: each node's work runs as an independent task --
/// inline, or submitted to a runtime::ThreadPool (an external shared one,
/// or a pool the scheduler spins up for the run) -- and its wall time is
/// measured separately. The "parallel runtime" reported is the maximum
/// per-node time, exactly the measurement protocol of Sec. 4.3 ("we
/// report the maximum runtime among these nodes as the total runtime").
/// This is faithful because MATEX nodes never communicate during the
/// transient.
///
/// Superposition is deterministic: node contributions are summed in
/// group-index order no matter which worker finishes first, so the output
/// is bit-identical across parallelism settings, with or without a shared
/// pool, and with or without a factorization cache.
///
/// Only live rows are written back. A node starts from the zero state, so
/// before its first transition spot its response is exactly zero; its
/// leading all-zero output rows are neither stored nor added. The node at
/// the merge frontier (the lowest-index group not yet merged) has its
/// solver add each live row straight into the accumulator as it evaluates
/// it (one fused pass, no buffer); with sequential nodes every node is the
/// frontier. A node that starts out of turn stages its live rows and is
/// merged when the frontier reaches it.
///
/// Output rows: an observer that reads only some unknowns (probes)
/// declares them in SchedulerOptions::output_rows, sorted and without
/// duplicates. Then the accumulator, every staging buffer and every
/// output row the observer receives hold just those entries, in that
/// order (rows.size() wide instead of n), and the nodes evaluate only
/// those rows at the output points. Each entry is computed by the same
/// operations as in a full-state run, so a declared row's waveform is
/// ==-equal to that row of the full-state waveform. Leave output_rows
/// empty to receive the full state.
#pragma once

#include <memory>
#include <vector>

#include "circuit/mna.hpp"
#include "core/decomposition.hpp"
#include "core/matex_solver.hpp"
#include "solver/dc.hpp"
#include "solver/observer.hpp"
#include "solver/stats.hpp"

namespace matex::runtime {
class ThreadPool;
class FactorCache;
}  // namespace matex::runtime

namespace matex::core {

/// Options for the distributed run.
struct SchedulerOptions {
  MatexOptions solver;
  DecompositionOptions decomposition;
  double t_start = 0.0;
  double t_end = 0.0;
  /// Output grid: the scheduler's observer receives the summed solution at
  /// these times. Must be sorted.
  std::vector<double> output_times;
  /// The unknowns the observer reads, sorted and duplicate-free; empty =
  /// the full state. When set, the observer receives output_rows.size()
  /// entries per output time, entry r being unknown output_rows[r] (see
  /// the file comment).
  std::vector<la::index_t> output_rows;
  /// If true, all emulated nodes share one set of factorizations (what a
  /// shared-memory implementation would do). The paper's distributed
  /// setting is `false`: every node factorizes its local copy.
  bool share_factorizations = false;
  /// If true (default), nodes receive the LU(G) computed by the DC
  /// analysis along with the task (it is part of the task data the
  /// scheduler ships, like the circuit copy and the initial solution in
  /// Fig. 4); each node then only factorizes its own Krylov operator
  /// matrix. Set false to make every node refactorize G too.
  bool share_g_factors = true;
  /// Number of worker threads executing node subtasks. 1 (default) runs
  /// nodes sequentially, which keeps per-node wall times meaningful on a
  /// machine with fewer cores than nodes (the paper's max-over-nodes
  /// accounting is computed either way); larger values exploit real
  /// cores for throughput. 0 means "use the hardware concurrency via the
  /// runtime thread pool". Negative values are invalid. The value is
  /// clamped to the number of groups, and ignored when `pool` is set
  /// (the external pool's size rules).
  int parallelism = 1;
  /// External work-stealing pool to run node subtasks on (not owned; must
  /// outlive the call). When null, the scheduler runs nodes inline
  /// (effective parallelism 1) or on a pool of its own. Sharing one pool
  /// across concurrent distributed runs is the batch engine's mode.
  runtime::ThreadPool* pool = nullptr;
  /// Optional label attached to this run's trace spans ("scenario"
  /// attribute of the per-node spans), so a shared-pool campaign's trace
  /// attributes every node task to its scenario. Must be a literal or an
  /// obs::intern()-ed string that outlives the trace flush; nullptr omits
  /// the attribute. Ignored when tracing is disabled.
  const char* trace_label = nullptr;
  /// Optional factorization cache shared across nodes, methods, and jobs
  /// (not owned; must outlive the call). When set, LU(G) and the Krylov
  /// operator LU are content-addressed lookups: the first node (or the DC
  /// analysis) factorizes, everyone else hits. Superposition results are
  /// bit-identical with and without the cache -- cached factors are the
  /// same factorization a node would have computed locally.
  runtime::FactorCache* factor_cache = nullptr;
  /// Optional cancellation token (not owned; must outlive the call).
  /// Polled before each node subtask starts and, via MatexOptions.cancel,
  /// once per solver step inside every node, so a fired token stops the
  /// run within one step. The run then throws CancelledError; sibling
  /// scenarios sharing the pool or cache are unaffected.
  const runtime::CancelToken* cancel = nullptr;
};

/// Per-node outcome.
struct NodeReport {
  std::size_t group_index = 0;
  std::size_t source_count = 0;
  std::size_t lts_size = 0;
  /// Output rows this node wrote back: the output-grid size minus the
  /// node's leading all-zero rows (those before its response turns on).
  std::size_t live_rows = 0;
  /// Setup factorizations this node satisfied from the factor cache.
  int cache_hits = 0;
  solver::TransientStats stats;
};

/// Outcome of a distributed MATEX run.
struct DistributedResult {
  /// Number of slave nodes (the Group # column of Table 3).
  std::size_t group_count = 0;
  /// Max per-node transient time: the paper's tr_matex.
  double max_node_transient_seconds = 0.0;
  /// Max per-node total time (incl. that node's factorizations).
  double max_node_total_seconds = 0.0;
  /// Scheduler-side superposition cost: draining staged nodes. A
  /// frontier node's adds are fused into its evaluation and count toward
  /// its transient time instead.
  double superposition_seconds = 0.0;
  /// DC analysis cost (shared preprocessing).
  double dc_seconds = 0.0;
  /// Worker threads the node subtasks ran on (1 = inline/sequential).
  int workers_used = 1;
  /// Total setup factorizations served by the factor cache (0 without one).
  long long factor_cache_hits = 0;
  /// Aggregated counters over all nodes (times hold the max, counters sum).
  solver::TransientStats aggregate;
  std::vector<NodeReport> nodes;
};

/// Runs distributed MATEX: DC analysis, decomposition, per-group subtasks,
/// superposition. The observer receives the *summed* solution on
/// options.output_times (the full state, or options.output_rows).
DistributedResult run_distributed_matex(const circuit::MnaSystem& mna,
                                        const SchedulerOptions& options,
                                        const solver::Observer& observer);

}  // namespace matex::core
