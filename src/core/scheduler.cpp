#include "core/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/thread_annotations.hpp"
#include "la/error.hpp"
#include "obs/trace.hpp"
#include "runtime/factor_cache.hpp"
#include "runtime/failpoint.hpp"
#include "runtime/thread_pool.hpp"

namespace matex::core {

DistributedResult run_distributed_matex(const circuit::MnaSystem& mna,
                                        const SchedulerOptions& options,
                                        const solver::Observer& observer) {
  MATEX_CHECK(options.t_end > options.t_start, "t_end must exceed t_start");
  MATEX_CHECK(std::is_sorted(options.output_times.begin(),
                             options.output_times.end()),
              "output_times must be sorted");
  MATEX_CHECK(!options.output_times.empty(),
              "distributed run needs an output grid");
  MATEX_CHECK(options.parallelism >= 0,
              "parallelism must be >= 0 (0 = hardware concurrency)");

  DistributedResult result;
  const std::size_t n = static_cast<std::size_t>(mna.dimension());
  const std::size_t t_count = options.output_times.size();
  const std::vector<la::index_t>& rows = options.output_rows;
  MATEX_CHECK(valid_output_rows(rows, n),
              "output_rows must be sorted, unique and in range");
  // Entries per output row: the declared rows, or the full state.
  const std::size_t width = rows.empty() ? n : rows.size();

  // Node solvers poll the run's token at step granularity; inherit an
  // already-set MatexOptions.cancel when the caller threaded one directly.
  MatexOptions solver_options = options.solver;
  if (options.cancel != nullptr) solver_options.cancel = options.cancel;
  runtime::poll_cancel(options.cancel);

  // --- shared preprocessing: DC operating point (also the task-0 result:
  // with x(0) = DC and only the DC inputs active, the response is the DC
  // point for all t, so no simulation is needed for the baseline task).
  // With a factor cache, LU(G) is a content lookup shared with every
  // node's particular-solution factors and with other jobs on this deck.
  auto dc = [&] {
    if (options.factor_cache) {
      // The lookup (and, on a cold cache, the LU(G) factorization it
      // triggers) is timed into dc.seconds so the paper-style "DC(s)"
      // column stays comparable with uncached runs.
      solver::Stopwatch g_clock;
      const auto entry = options.factor_cache->g_factors(
          mna.g(), solver_options.lu_options);
      const double g_seconds = g_clock.seconds();
      auto r = solver::dc_operating_point(mna, options.t_start,
                                          entry.factors);
      r.seconds += g_seconds;
      return r;
    }
    return solver::dc_operating_point(mna, options.t_start,
                                      solver_options.lu_options);
  }();
  result.dc_seconds = dc.seconds;

  // --- decomposition into bump-shape groups (Fig. 3).
  DecompositionOptions dopt = options.decomposition;
  dopt.t_start = options.t_start;
  dopt.t_end = options.t_end;
  const Decomposition decomp = decompose_sources(mna, dopt);
  result.group_count = decomp.groups.size();
  result.nodes.resize(decomp.groups.size());

  // Superposition accumulator, one row of `width` entries per output
  // time, seeded with the DC (task-0) contribution.
  std::vector<double> dc_row(width);
  for (std::size_t r = 0; r < width; ++r)
    dc_row[r] = dc.x[rows.empty() ? r : static_cast<std::size_t>(rows[r])];
  std::vector<std::vector<double>> accum(t_count, dc_row);

  // Shared-factorization mode constructs one solver up front; the
  // paper-faithful distributed mode lets every node factorize locally
  // (counted inside that node's wall time, unless the cache absorbs it).
  std::unique_ptr<MatexCircuitSolver> shared_solver;
  if (options.share_factorizations) {
    shared_solver = std::make_unique<MatexCircuitSolver>(
        mna, solver_options, dc.g_factors, options.factor_cache);
    result.factor_cache_hits += shared_solver->setup_cache_hits();
  }

  const std::vector<double> zero_state(n, 0.0);

  // --- execution resources: inline, an external shared pool, or a pool
  // of our own. parallelism 0 asks for the hardware concurrency.
  const std::size_t group_count = decomp.groups.size();
  const int requested =
      options.parallelism == 0
          ? static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()))
          : options.parallelism;
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(requested),
      std::max<std::size_t>(group_count, 1)));

  runtime::ThreadPool* pool = options.pool;
  std::unique_ptr<runtime::ThreadPool> local_pool;
  if (!pool && workers > 1) {
    local_pool = std::make_unique<runtime::ThreadPool>(workers);
    pool = local_pool.get();
  }

  // Node contributions are merged strictly in group-index order, so the
  // floating-point accumulation order -- hence the output, bit for bit --
  // is independent of the parallelism setting. The merge frontier
  // (merge_next) is the lowest-index group not yet merged. A node that is
  // the frontier when it starts owns `accum` until it finishes (nobody
  // can merge past it), so its solver adds each live row straight into
  // `accum` as it evaluates it: no buffer, no second pass. Sequential
  // runs take this path for every node. A node that starts out of turn
  // has its solver write its live rows compactly into a t_count x width
  // buffer, and whoever advances the
  // frontier to it drains it, together with any successors parked behind
  // it. A node's live rows are its output from the first row with a
  // nonzero entry on: before its first transition spot its response from
  // the zero state is exactly zero, and those leading rows are neither
  // stored nor added (x + 0.0 == x, so the sum compares == to a dense
  // merge; at most the sign of a zero differs). Node tasks are submitted
  // with submit_ordered (global FIFO starts), so a buffer can only be
  // staged while the frontier's own -- earlier-started -- node is still
  // running: live buffers are bounded by the number of executing threads,
  // not by the group count. A drained buffer goes on a free list while a
  // node that has not started yet can take it.
  struct MergeState {
    struct Staged {
      std::unique_ptr<double[]> rows;  ///< live rows, row first_live first
      std::size_t first_live = 0;
    };
    core::Mutex mutex;
    std::map<std::size_t, Staged> staged MATEX_GUARDED_BY(mutex);
    std::vector<std::unique_ptr<double[]>> free_buffers
        MATEX_GUARDED_BY(mutex);
    std::size_t started MATEX_GUARDED_BY(mutex) = 0;
    std::size_t merge_next MATEX_GUARDED_BY(mutex) = 0;
    double superposition_seconds MATEX_GUARDED_BY(mutex) = 0.0;
    std::exception_ptr first_error MATEX_GUARDED_BY(mutex);
    /// Lock-free mirror of first_error, a pre-lock short-circuit only.
    std::atomic<bool> aborted{false};
  } ms;

  // One emulated slave node: simulate group `gi` and write its live rows
  // back (the scheduler-side write-back of Fig. 4), in place at the
  // frontier or staged for the in-order merge.
  const auto run_node = [&](std::size_t gi) {
    // relaxed: purely a work-avoidance hint. The error itself travels
    // under ms.mutex; a task that reads a stale false just simulates a
    // group whose result is then discarded with everyone else's.
    if (ms.aborted.load(std::memory_order_relaxed)) return;
    runtime::poll_cancel(options.cancel);
    MATEX_FAILPOINT("scheduler.node");
    const SourceGroup& group = decomp.groups[gi];
    obs::Span node_span("node", "node", gi, "sources",
                        group.members.size(), "scenario",
                        options.trace_label);
    const GroupInput input(mna, group.members, options.t_start);
    bool in_place = false;
    std::unique_ptr<double[]> node_buffer;
    {
      const core::MutexLock lock(ms.mutex);
      ++ms.started;
      in_place = gi == ms.merge_next;
      if (!in_place && !ms.free_buffers.empty()) {
        node_buffer = std::move(ms.free_buffers.back());
        ms.free_buffers.pop_back();
      }
    }
    // Neither a fresh nor a recycled buffer is zeroed: the node writes
    // every live row before the drain reads it, so only those pages fault.
    if (!in_place && !node_buffer)
      node_buffer = std::make_unique_for_overwrite<double[]>(t_count * width);

    solver::Stopwatch node_clock;
    MatexCircuitSolver* node_solver = shared_solver.get();
    std::unique_ptr<MatexCircuitSolver> local;
    if (!node_solver) {
      local = std::make_unique<MatexCircuitSolver>(
          mna, solver_options,
          options.share_g_factors ? dc.g_factors : nullptr,
          options.factor_cache);
      node_solver = local.get();
    }

    // The solver evaluates only the declared rows and writes each live
    // output row into its destination: added into `accum` at the
    // frontier, stored into the staging buffer otherwise.
    std::size_t first_live = t_count;  // t_count until a live row arrives
    std::size_t delivered = 0;
    OutputSink sink;
    sink.rows = rows;
    sink.accumulate = in_place;
    sink.skip_leading_zero_rows = true;
    sink.row = [&](std::size_t ti) {
      if (first_live == t_count) first_live = ti;
      ++delivered;
      return in_place ? accum[ti].data()
                      : node_buffer.get() + (ti - first_live) * width;
    };
    auto stats = node_solver->run(zero_state, options.t_start,
                                  options.t_end, input,
                                  options.output_times, sink);
    MATEX_CHECK(delivered == t_count - first_live,
                "node did not deliver every live output row");
    const double node_total = node_clock.seconds();

    NodeReport report;
    report.group_index = gi;
    report.source_count = group.members.size();
    report.lts_size =
        input.transition_spots(options.t_start, options.t_end).size();
    report.live_rows = t_count - first_live;
    report.cache_hits = local ? local->setup_cache_hits() : 0;
    report.stats = stats;
    node_span.arg("lts", report.lts_size)
        .arg("cache_hits", report.cache_hits);
    if (!options.share_factorizations) report.stats.total_seconds = node_total;
    if (in_place)
      obs::instant("superpose", "node", gi, "rows", report.live_rows,
                   "scenario", options.trace_label);

    const core::MutexLock lock(ms.mutex);
    result.max_node_transient_seconds = std::max(
        result.max_node_transient_seconds, stats.transient_seconds);
    result.max_node_total_seconds =
        std::max(result.max_node_total_seconds, report.stats.total_seconds);
    result.factor_cache_hits += report.cache_hits;
    result.aggregate.merge(report.stats);
    result.nodes[gi] = std::move(report);
    if (in_place) {
      ++ms.merge_next;
    } else {
      ms.staged.emplace(gi,
                        MergeState::Staged{std::move(node_buffer), first_live});
    }
    // Drain every staged buffer that now sits at the merge frontier (this
    // node's own, or successors parked behind the frontier it advanced).
    while (!ms.staged.empty() && ms.staged.begin()->first == ms.merge_next) {
      MergeState::Staged& next = ms.staged.begin()->second;
      MATEX_SPAN("superpose", "node", ms.merge_next, "rows",
                 t_count - next.first_live, "scenario", options.trace_label);
      solver::Stopwatch sup_clock;
      for (std::size_t ti = next.first_live; ti < t_count; ++ti) {
        double* row = accum[ti].data();
        const double* src =
            next.rows.get() + (ti - next.first_live) * width;
        for (std::size_t i = 0; i < width; ++i) row[i] += src[i];
      }
      ms.superposition_seconds += sup_clock.seconds();
      if (ms.started + ms.free_buffers.size() < group_count)
        ms.free_buffers.push_back(std::move(next.rows));
      ms.staged.erase(ms.staged.begin());
      ++ms.merge_next;
    }
  };

  if (pool) {
    result.workers_used = pool->size();
    std::vector<std::future<void>> futures;
    futures.reserve(group_count);
    for (std::size_t gi = 0; gi < group_count; ++gi)
      futures.push_back(pool->submit_ordered([&, gi] {
        // Capture instead of throwing across the pool: every task must
        // finish before the locals it references go out of scope.
        try {
          run_node(gi);
          // matex-lint: allow(catch-all): capture-and-rethrow -- the first
          // exception is stored verbatim and rethrown unchanged after the
          // fan-in barrier; classification belongs to the batch layer.
        } catch (...) {
          const core::MutexLock lock(ms.mutex);
          if (!ms.first_error) ms.first_error = std::current_exception();
          ms.aborted.store(true, std::memory_order_relaxed);
        }
      }));
    for (auto& f : futures) pool->await(f);
    std::exception_ptr first_error;
    {
      const core::MutexLock lock(ms.mutex);
      first_error = ms.first_error;
    }
    if (first_error) std::rethrow_exception(first_error);
  } else {
    result.workers_used = 1;
    for (std::size_t gi = 0; gi < group_count; ++gi) run_node(gi);
  }
  {
    const core::MutexLock lock(ms.mutex);
    MATEX_CHECK(ms.merge_next == group_count,
                "superposition did not merge every node");
    result.superposition_seconds = ms.superposition_seconds;
  }

  if (observer)
    for (std::size_t ti = 0; ti < t_count; ++ti)
      observer(options.output_times[ti], accum[ti]);
  return result;
}

}  // namespace matex::core
