#include "la/sparse_lu.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "core/thread_annotations.hpp"
#include "la/dense_matrix.hpp"
#include "la/error.hpp"
#include "obs/trace.hpp"
#include "runtime/cancel.hpp"
#include "runtime/thread_pool.hpp"

namespace matex::la {
namespace {

/// Iterative depth-first search computing the reach of column `col` of A
/// in the graph of the partially built L. On return, xi[top..n-1] holds
/// the reach in topological order (dependencies first). Nodes are left
/// marked; the caller clears marks.
index_t symbolic_reach(const CscMatrix& a, index_t col,
                       std::span<const index_t> l_colptr,
                       std::span<const index_t> l_rows,
                       std::span<const index_t> pinv,
                       std::vector<char>& marked, std::vector<index_t>& xi,
                       std::vector<index_t>& node_stack,
                       std::vector<index_t>& pos_stack) {
  const index_t n = a.rows();
  index_t top = n;
  for (index_t pa = a.col_ptr()[col]; pa < a.col_ptr()[col + 1]; ++pa) {
    const index_t start = a.row_idx()[pa];
    if (marked[static_cast<std::size_t>(start)]) continue;
    index_t head = 0;
    node_stack[0] = start;
    while (head >= 0) {
      const index_t j = node_stack[static_cast<std::size_t>(head)];
      const index_t jcol = pinv[static_cast<std::size_t>(j)];
      if (!marked[static_cast<std::size_t>(j)]) {
        marked[static_cast<std::size_t>(j)] = 1;
        // Skip the first entry of L's column (the pivot row itself).
        pos_stack[static_cast<std::size_t>(head)] =
            jcol < 0 ? 0 : l_colptr[static_cast<std::size_t>(jcol)] + 1;
      }
      bool descended = false;
      if (jcol >= 0) {
        const index_t pend = l_colptr[static_cast<std::size_t>(jcol) + 1];
        for (index_t p = pos_stack[static_cast<std::size_t>(head)]; p < pend;
             ++p) {
          const index_t i = l_rows[static_cast<std::size_t>(p)];
          if (marked[static_cast<std::size_t>(i)]) continue;
          pos_stack[static_cast<std::size_t>(head)] = p + 1;
          ++head;
          node_stack[static_cast<std::size_t>(head)] = i;
          descended = true;
          break;
        }
      }
      if (!descended) {
        --head;
        xi[static_cast<std::size_t>(--top)] = j;
      }
    }
  }
  return top;
}

/// Depth-first reach of `start` in the column graph of a *completed*
/// triangular factor stored in pivot coordinates: the neighbors of node j
/// are rows[colptr[j]+head_skip .. colptr[j+1]-1-tail_skip). Appends newly
/// reached nodes to `reach` (arbitrary order; callers sort) and leaves
/// them marked. Allocation-free; stacks must have capacity n.
///
/// Stops early once `reach` exceeds `max_reach` entries and returns true
/// ("reach is dense-ish, give up"): every marked node is still listed in
/// `reach` so the caller can clear the marks, but the list is then
/// incomplete and only usable for that cleanup.
bool factor_reach(index_t start, std::span<const index_t> colptr,
                  std::span<const index_t> rows, index_t head_skip,
                  index_t tail_skip, index_t max_reach,
                  std::vector<char>& marked, std::vector<index_t>& reach,
                  std::vector<index_t>& node_stack,
                  std::vector<index_t>& pos_stack) {
  if (marked[static_cast<std::size_t>(start)]) return false;
  index_t head = 0;
  node_stack[0] = start;
  while (head >= 0) {
    const index_t j = node_stack[static_cast<std::size_t>(head)];
    if (!marked[static_cast<std::size_t>(j)]) {
      marked[static_cast<std::size_t>(j)] = 1;
      pos_stack[static_cast<std::size_t>(head)] =
          colptr[static_cast<std::size_t>(j)] + head_skip;
      if (static_cast<index_t>(reach.size()) + head > max_reach) {
        // Abort: flush the in-flight stack so `reach` covers every
        // marked node, then report the overflow.
        for (index_t u = 0; u <= head; ++u)
          reach.push_back(node_stack[static_cast<std::size_t>(u)]);
        return true;
      }
    }
    bool descended = false;
    const index_t pend = colptr[static_cast<std::size_t>(j) + 1] - tail_skip;
    for (index_t p = pos_stack[static_cast<std::size_t>(head)]; p < pend;
         ++p) {
      const index_t i = rows[static_cast<std::size_t>(p)];
      if (marked[static_cast<std::size_t>(i)]) continue;
      pos_stack[static_cast<std::size_t>(head)] = p + 1;
      ++head;
      node_stack[static_cast<std::size_t>(head)] = i;
      descended = true;
      break;
    }
    if (!descended) {
      --head;
      reach.push_back(j);
    }
  }
  return false;
}

}  // namespace

void SparseRhsWorkspace::resize(index_t n) {
  n_ = n;
  const std::size_t un = static_cast<std::size_t>(n);
  x_.assign(un, 0.0);
  marked_.assign(un, 0);
  reach_l_.clear();
  reach_l_.reserve(un);
  reach_u_.clear();
  reach_u_.reserve(un);
  node_stack_.resize(un);
  pos_stack_.resize(un);
}

void SymbolicLU::build_supernode_plan(const CscMatrix& a,
                                      const SparseLuOptions& options) {
  MATEX_CHECK(options.amalg_relax >= 0.0, "amalg_relax must be >= 0");
  MATEX_CHECK(options.amalg_max_width >= 1, "amalg_max_width must be >= 1");
  const index_t n = n_;
  sn_ptr_.assign(1, 0);
  sn_of_.assign(static_cast<std::size_t>(n), 0);
  sn_rows_ptr_.assign(1, 0);
  sn_rows_.clear();
  sn_panel_ptr_.assign(1, 0);
  sn_ne_.clear();
  task_ptr_.assign(1, 0);
  task_src_.clear();
  task_u0_ptr_.clear();
  task_u0_.clear();
  task_dst_ptr_.clear();
  task_dst_.clear();
  a_scatter_.clear();
  u_local_.clear();
  l_panel_.clear();
  sn_a_ptr_.assign(1, 0);
  dep_out_ptr_.clear();
  dep_out_.clear();
  max_workspace_cells_ = 0;
  max_panel_rows_ = 0;
  sn_stats_ = {};
  blocked_profitable_ = false;
  parallel_profitable_ = false;
  if (n == 0) return;

  const auto l_col = [&](index_t c) {  // L rows incl. the leading diagonal
    return std::span<const index_t>(l_rows_)
        .subspan(static_cast<std::size_t>(
                     l_colptr_[static_cast<std::size_t>(c)]),
                 static_cast<std::size_t>(
                     l_colptr_[static_cast<std::size_t>(c) + 1] -
                     l_colptr_[static_cast<std::size_t>(c)]));
  };
  const auto u_off = [&](index_t c) {  // off-diagonal U rows, ascending
    return std::span<const index_t>(u_rows_)
        .subspan(static_cast<std::size_t>(
                     u_colptr_[static_cast<std::size_t>(c)]),
                 static_cast<std::size_t>(
                     u_colptr_[static_cast<std::size_t>(c) + 1] -
                     u_colptr_[static_cast<std::size_t>(c)] - 1));
  };
  const auto exact_cells_of = [&](index_t c) {  // diagonal cell shared
    return static_cast<long long>(
        (l_colptr_[static_cast<std::size_t>(c) + 1] -
         l_colptr_[static_cast<std::size_t>(c)]) +
        (u_colptr_[static_cast<std::size_t>(c) + 1] -
         u_colptr_[static_cast<std::size_t>(c)]) -
        1);
  };

  // ---- Greedy partition. A run [first, c) carries its union panel-row
  // list `rows` (member L patterns, ascending, diagonal block leading),
  // the union `erows` of external U positions (< first), and the exact
  // entry count; merging column c is admitted while the dense workspace
  // cells not backed by an exact entry stay within the relax budget.
  // relax == 0 admits exactly the strict supernodes (chained L reaches,
  // identical-modulo-diagonal U patterns).
  std::vector<index_t> rows, erows, cand, cand_rows, cand_erows;
  std::vector<index_t> e_ptr(1, 0), e_rows;  // per-supernode external-U rows
  index_t first = 0;

  const auto start_run = [&](index_t c) {
    rows.clear();
    rows.push_back(c);
    const auto off = l_col(c).subspan(1);
    rows.insert(rows.end(), off.begin(), off.end());
    erows.assign(u_off(c).begin(), u_off(c).end());
  };
  long long exact_cells = 0;
  const auto flush_run = [&](index_t end) {
    const index_t sn = static_cast<index_t>(sn_ptr_.size() - 1);
    for (index_t t = first; t < end; ++t)
      sn_of_[static_cast<std::size_t>(t)] = sn;
    sn_ptr_.push_back(end);
    sn_rows_.insert(sn_rows_.end(), rows.begin(), rows.end());
    sn_rows_ptr_.push_back(static_cast<index_t>(sn_rows_.size()));
    e_rows.insert(e_rows.end(), erows.begin(), erows.end());
    e_ptr.push_back(static_cast<index_t>(e_rows.size()));
    const index_t w = end - first;
    const index_t nr = static_cast<index_t>(rows.size());
    sn_panel_ptr_.push_back(sn_panel_ptr_.back() + nr * w);
    ++sn_stats_.supernodes;
    sn_stats_.max_width = std::max(sn_stats_.max_width, w);
    sn_stats_.panel_entries += nr * w;
    // Panel cells of column t backed by an exact entry: its L column plus
    // its intra-supernode U positions.
    long long backed = 0;
    for (index_t t = first; t < end; ++t) {
      const auto uoff = u_off(t);
      backed += static_cast<long long>(l_col(t).size()) +
                static_cast<long long>(
                    uoff.end() -
                    std::lower_bound(uoff.begin(), uoff.end(), first));
    }
    sn_stats_.padded_entries += static_cast<index_t>(
        static_cast<long long>(nr) * w - backed);
  };

  start_run(0);
  exact_cells = exact_cells_of(0);
  for (index_t c = 1; c <= n; ++c) {
    bool merged = false;
    // Structural precondition: the previous column's first off-diagonal
    // entry must be exactly c (column c is its elimination-tree parent).
    // Without it the relax budget would happily glue unrelated columns --
    // pure padding, no shared structure.
    const auto prev_l = l_col(c < n ? c - 1 : 0);
    if (c < n && c - first < options.amalg_max_width && prev_l.size() > 1 &&
        prev_l[1] == c) {
      cand.clear();
      cand.push_back(c);
      const auto off = l_col(c).subspan(1);
      cand.insert(cand.end(), off.begin(), off.end());
      cand_rows.clear();
      std::set_union(rows.begin(), rows.end(), cand.begin(), cand.end(),
                     std::back_inserter(cand_rows));
      const auto uoff = u_off(c);
      const auto ext_end = std::lower_bound(uoff.begin(), uoff.end(), first);
      cand_erows.clear();
      std::set_union(erows.begin(), erows.end(), uoff.begin(), ext_end,
                     std::back_inserter(cand_erows));
      const long long cand_exact = exact_cells + exact_cells_of(c);
      const long long dense =
          static_cast<long long>(c - first + 1) *
          static_cast<long long>(cand_rows.size() + cand_erows.size());
      // Width-scaled admission (the CHOLMOD relaxed-amalgamation shape):
      // narrow panels amortize the gather/scatter best, so they may carry
      // proportionally more padding than wide ones. relax == 0 zeroes
      // every rung -- strict merges only.
      const index_t cand_w = c - first + 1;
      const double budget = options.amalg_relax *
                            (cand_w <= 4 ? 4.0 : cand_w <= 16 ? 2.0 : 1.0);
      if (static_cast<double>(dense - cand_exact) <=
          budget * static_cast<double>(dense)) {
        rows.swap(cand_rows);
        erows.swap(cand_erows);
        exact_cells = cand_exact;
        merged = true;
      }
    }
    if (!merged) {
      flush_run(c);
      if (c < n) {
        first = c;
        start_run(c);
        exact_cells = exact_cells_of(c);
      }
    }
  }

  // ---- Phase 2: per-target-supernode update tasks and the precomputed
  // local scatter indices the numeric kernel streams through. `loc` maps
  // a pivot position into the target's compressed workspace: its E index
  // for external-U rows, ne + panel row for structure rows, -1 (-> the
  // trash row) for anything outside the target structure.
  const index_t ns = num_supernodes();
  sn_ne_.resize(static_cast<std::size_t>(ns));
  a_scatter_.reserve(static_cast<std::size_t>(a.nnz()));
  u_local_.assign(u_rows_.size(), 0);
  l_panel_.assign(l_rows_.size(), 0);
  std::vector<index_t> loc(static_cast<std::size_t>(n), -1);
  std::vector<index_t> open_task(static_cast<std::size_t>(ns), -1);
  struct TmpTask {
    index_t src;
    std::vector<index_t> u0;
  };
  std::vector<TmpTask> tmp;
  for (index_t sn = 0; sn < ns; ++sn) {
    const index_t k0 = sn_ptr_[static_cast<std::size_t>(sn)];
    const index_t w = sn_ptr_[static_cast<std::size_t>(sn) + 1] - k0;
    const index_t rb = sn_rows_ptr_[static_cast<std::size_t>(sn)];
    const index_t nr = sn_rows_ptr_[static_cast<std::size_t>(sn) + 1] - rb;
    const index_t eb = e_ptr[static_cast<std::size_t>(sn)];
    const index_t ne = e_ptr[static_cast<std::size_t>(sn) + 1] - eb;
    sn_ne_[static_cast<std::size_t>(sn)] = ne;
    const index_t trash = ne + nr;
    max_workspace_cells_ =
        std::max(max_workspace_cells_, (ne + nr + 1) * w);
    max_panel_rows_ = std::max(max_panel_rows_, nr);
    for (index_t ei = 0; ei < ne; ++ei)
      loc[static_cast<std::size_t>(e_rows[static_cast<std::size_t>(
          eb + ei)])] = ei;
    for (index_t di = 0; di < nr; ++di)
      loc[static_cast<std::size_t>(
          sn_rows_[static_cast<std::size_t>(rb + di)])] = ne + di;

    tmp.clear();
    for (index_t t = 0; t < w; ++t) {
      const index_t c = k0 + t;
      // A scatter slots, in the refactorization's walk order.
      const index_t col = q_[static_cast<std::size_t>(c)];
      for (index_t pa = a.col_ptr()[col]; pa < a.col_ptr()[col + 1]; ++pa)
        a_scatter_.push_back(
            loc[static_cast<std::size_t>(
                pinv_[static_cast<std::size_t>(a.row_idx()[pa])])]);
      // Factor write-out slots.
      const index_t ud = u_colptr_[static_cast<std::size_t>(c) + 1] - 1;
      for (index_t p = u_colptr_[static_cast<std::size_t>(c)]; p < ud; ++p)
        u_local_[static_cast<std::size_t>(p)] =
            loc[static_cast<std::size_t>(
                u_rows_[static_cast<std::size_t>(p)])];
      for (index_t p = l_colptr_[static_cast<std::size_t>(c)] + 1;
           p < l_colptr_[static_cast<std::size_t>(c) + 1]; ++p)
        l_panel_[static_cast<std::size_t>(p)] =
            loc[static_cast<std::size_t>(
                l_rows_[static_cast<std::size_t>(p)])] -
            ne;
      // Task discovery over the external U pattern.
      for (const index_t pos : u_off(c)) {
        if (pos >= k0) break;  // intra-supernode from here on
        const index_t src = sn_of_[static_cast<std::size_t>(pos)];
        index_t idx = open_task[static_cast<std::size_t>(src)];
        const index_t r = sn_ptr_[static_cast<std::size_t>(src) + 1] -
                          sn_ptr_[static_cast<std::size_t>(src)];
        if (idx < 0) {
          idx = static_cast<index_t>(tmp.size());
          open_task[static_cast<std::size_t>(src)] = idx;
          tmp.push_back({src, std::vector<index_t>(
                                  static_cast<std::size_t>(w), r)});
        }
        auto& u0 = tmp[static_cast<std::size_t>(idx)].u0;
        if (u0[static_cast<std::size_t>(t)] == r)  // ascending: first is min
          u0[static_cast<std::size_t>(t)] =
              pos - sn_ptr_[static_cast<std::size_t>(src)];
      }
    }
    std::sort(tmp.begin(), tmp.end(),
              [](const TmpTask& a, const TmpTask& b) { return a.src < b.src; });
    for (const TmpTask& task : tmp) {
      open_task[static_cast<std::size_t>(task.src)] = -1;
      task_src_.push_back(task.src);
      task_u0_ptr_.push_back(static_cast<index_t>(task_u0_.size()));
      task_u0_.insert(task_u0_.end(), task.u0.begin(), task.u0.end());
      const index_t srb = sn_rows_ptr_[static_cast<std::size_t>(task.src)];
      const index_t nrs =
          sn_rows_ptr_[static_cast<std::size_t>(task.src) + 1] - srb;
      // Destination map: source panel row -> target workspace row (the
      // trash row for padded source cells outside the target structure,
      // which only ever carry exact zeros).
      task_dst_ptr_.push_back(static_cast<index_t>(task_dst_.size()));
      for (index_t di = 0; di < nrs; ++di) {
        const index_t lv = loc[static_cast<std::size_t>(
            sn_rows_[static_cast<std::size_t>(srb + di)])];
        task_dst_.push_back(lv >= 0 ? lv : trash);
      }
    }
    task_ptr_.push_back(static_cast<index_t>(task_src_.size()));
    sn_a_ptr_.push_back(static_cast<index_t>(a_scatter_.size()));

    for (index_t ei = 0; ei < ne; ++ei)
      loc[static_cast<std::size_t>(e_rows[static_cast<std::size_t>(
          eb + ei)])] = -1;
    for (index_t di = 0; di < nr; ++di)
      loc[static_cast<std::size_t>(
          sn_rows_[static_cast<std::size_t>(rb + di)])] = -1;
  }

  // Transpose of the task lists: for every source supernode, the ordered
  // list of targets taking an external update from it. This is the edge
  // set the parallel schedule walks when a panel retires (decrement each
  // dependent's pending-source count; a count reaching zero fires that
  // target's panel task).
  dep_out_ptr_.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (const index_t src : task_src_)
    ++dep_out_ptr_[static_cast<std::size_t>(src) + 1];
  for (index_t sn = 0; sn < ns; ++sn)
    dep_out_ptr_[static_cast<std::size_t>(sn) + 1] +=
        dep_out_ptr_[static_cast<std::size_t>(sn)];
  dep_out_.resize(task_src_.size());
  {
    std::vector<index_t> fill(dep_out_ptr_.begin(), dep_out_ptr_.end() - 1);
    for (index_t t = 0; t < ns; ++t)
      for (index_t k = task_ptr_[static_cast<std::size_t>(t)];
           k < task_ptr_[static_cast<std::size_t>(t) + 1]; ++k)
        dep_out_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(
                task_src_[static_cast<std::size_t>(k)])]++)] = t;
  }

  // kAuto engages the blocked kernel when the factor is both merged
  // enough for the panels to amortize their bookkeeping and large enough
  // that the scalar replay's scattered access stops being cache-resident
  // (crossover measured on the mesh PDN benches at ~0.5 MB of panel;
  // below it the scalar replay wins on locality alone).
  blocked_profitable_ = sn_stats_.avg_width(n) >= 1.4 &&
                        sn_stats_.panel_entries >= 64 * 1024;
  // The parallel crossover sits higher: scheduling a panel task costs a
  // queue round-trip plus a workspace acquisition, so the pool only pays
  // past ~4x the blocked cutoff (~2 MB of panel) and when there are
  // enough supernodes for the elimination tree to expose real task
  // parallelism. Small meshes stay serial under kAuto.
  parallel_profitable_ = blocked_profitable_ && ns >= 256 &&
                         sn_stats_.panel_entries >= 256 * 1024;
}

SparseLU::SparseLU(const CscMatrix& a, SparseLuOptions options) {
  MATEX_SPAN("factor", "n", a.rows(), "nnz", a.nnz());
  factorize_full(a, options);
}

SparseLU::SparseLU(const CscMatrix& a,
                   std::shared_ptr<const SymbolicLU> symbolic,
                   SparseLuOptions options) {
  obs::Span span("refactor", "n", a.rows(), "nnz", a.nnz());
  MATEX_CHECK(symbolic != nullptr, "symbolic analysis must not be null");
  MATEX_CHECK(a.rows() == a.cols(), "SparseLU requires a square matrix");
  MATEX_CHECK(a.rows() == symbolic->order(),
              "matrix order does not match the symbolic analysis");
  MATEX_CHECK(pattern_fingerprint(a) == symbolic->pattern_fp(),
              "matrix sparsity pattern does not match the symbolic "
              "analysis (refactorization requires an identical pattern)");
  sym_ = std::move(symbolic);
  const bool blocked =
      options.supernodal == SupernodalMode::kAlways ||
      (options.supernodal == SupernodalMode::kAuto &&
       sym_->blocked_profitable_);
  if (blocked && sym_->num_supernodes() > 0) {
    // The pool engages past its own crossover under kAuto (scheduling
    // overhead amortizes only on meshes with real task parallelism);
    // kAlways schedules whenever a pool is supplied, which is what the
    // thread-count identity tests pin down on small matrices.
    const bool parallel =
        options.pool != nullptr &&
        (options.supernodal == SupernodalMode::kAlways ||
         sym_->parallel_profitable_);
    const bool ok = parallel ? refactor_numeric_blocked_parallel(a, options)
                             : refactor_numeric_blocked(a, options);
    if (ok) {
      refactored_ = true;
      supernodal_ = true;
      parallel_ = parallel;
      span.arg("kernel", parallel ? "blocked-parallel" : "blocked");
      return;
    }
    // Pivot-tolerance trip in the blocked kernel: fall back to the
    // scalar replay. The replay sees the same values through the same
    // operation sequence, so it trips on the same column and the full
    // factorization below takes over; re-running it here keeps the two
    // kernels' admissibility decisions verifiably identical.
  }
  if (refactor_numeric(a, options)) {
    refactored_ = true;
    span.arg("kernel", "scalar");
    return;
  }
  // Pivot-tolerance violation: the frozen pivot sequence is numerically
  // inadmissible for these values. Fall back to a full pivoting
  // factorization (builds a fresh symbolic analysis).
  span.arg("kernel", "fallback");
  factorize_full(a, options);
}

void SparseLU::factorize_full(const CscMatrix& a,
                              const SparseLuOptions& options) {
  MATEX_CHECK(a.rows() == a.cols(), "SparseLU requires a square matrix");
  MATEX_CHECK(options.pivot_tol > 0.0 && options.pivot_tol <= 1.0,
              "pivot_tol must be in (0, 1]");
  auto sym = std::make_shared<SymbolicLU>();
  const index_t n_ = a.rows();
  sym->n_ = n_;
  const std::size_t n = static_cast<std::size_t>(n_);
  {
    MATEX_SPAN("order", "n", n_);
    sym->q_ = compute_ordering(a, options.ordering);
    // Postorder the elimination tree of the ordered pattern: a symmetric
    // relabeling that preserves the fill of the (structurally symmetric)
    // factorization but makes every etree chain occupy adjacent pivot
    // columns -- the layout supernode detection needs. Children of one
    // parent stay in ascending order, so an already-postordered matrix
    // (e.g. a natural-order chain) is left untouched.
    const auto parent = elimination_tree(a, sym->q_);
    const auto post = tree_postorder(parent);
    std::vector<index_t> composed(post.size());
    for (std::size_t k = 0; k < post.size(); ++k)
      composed[k] = sym->q_[static_cast<std::size_t>(post[k])];
    sym->q_ = std::move(composed);
  }
  auto& q_ = sym->q_;
  auto& pinv_ = sym->pinv_;
  auto& l_colptr_ = sym->l_colptr_;
  auto& l_rows_ = sym->l_rows_;
  auto& u_colptr_ = sym->u_colptr_;
  auto& u_rows_ = sym->u_rows_;
  pinv_.assign(n, -1);

  l_colptr_.assign(1, 0);
  u_colptr_.assign(1, 0);
  l_rows_.reserve(static_cast<std::size_t>(a.nnz()) * 4);
  l_vals_.clear();
  l_vals_.reserve(static_cast<std::size_t>(a.nnz()) * 4);
  u_rows_.reserve(static_cast<std::size_t>(a.nnz()) * 4);
  u_vals_.clear();
  u_vals_.reserve(static_cast<std::size_t>(a.nnz()) * 4);

  std::vector<double> x(n, 0.0);
  std::vector<char> marked(n, 0);
  std::vector<index_t> xi(n), node_stack(n), pos_stack(n);
  min_pivot_ = std::numeric_limits<double>::infinity();

  for (index_t k = 0; k < n_; ++k) {
    const index_t col = q_[static_cast<std::size_t>(k)];

    // --- Symbolic: reach of A(:, col) in the graph of L.
    const index_t top = symbolic_reach(a, col, l_colptr_, l_rows_, pinv_,
                                       marked, xi, node_stack, pos_stack);

    // Canonical replay order: pivotal nodes ascending by pivot position
    // (a valid topological order -- L's column graph only has edges
    // toward later pivot positions), not-yet-pivotal rows after them by
    // original index. The full factorization, the scalar numeric replay,
    // and the blocked supernodal kernel all accumulate updates in this
    // one order, which is what makes their results bitwise identical.
    std::sort(xi.begin() + top, xi.begin() + n_, [&](index_t lhs,
                                                     index_t rhs) {
      const index_t pl = pinv_[static_cast<std::size_t>(lhs)];
      const index_t pr = pinv_[static_cast<std::size_t>(rhs)];
      return (pl >= 0 ? pl : n_ + lhs) < (pr >= 0 ? pr : n_ + rhs);
    });

    // --- Numeric: x = L \ A(:, col) restricted to the reach.
    for (index_t p = top; p < n_; ++p) x[static_cast<std::size_t>(xi[p])] = 0.0;
    for (index_t pa = a.col_ptr()[col]; pa < a.col_ptr()[col + 1]; ++pa)
      x[static_cast<std::size_t>(a.row_idx()[pa])] = a.values()[pa];
    for (index_t px = top; px < n_; ++px) {
      const index_t j = xi[static_cast<std::size_t>(px)];
      const index_t jcol = pinv_[static_cast<std::size_t>(j)];
      if (jcol < 0) continue;
      const double xj = x[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (index_t p = l_colptr_[static_cast<std::size_t>(jcol)] + 1;
           p < l_colptr_[static_cast<std::size_t>(jcol) + 1]; ++p)
        x[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(p)])] -=
            l_vals_[static_cast<std::size_t>(p)] * xj;
    }

    // --- Pivot search among not-yet-pivotal rows; push U entries for
    // pivotal rows. Marks are cleared in the same sweep.
    index_t ipiv = -1;
    double amax = -1.0;
    for (index_t px = top; px < n_; ++px) {
      const index_t i = xi[static_cast<std::size_t>(px)];
      marked[static_cast<std::size_t>(i)] = 0;
      const index_t pos = pinv_[static_cast<std::size_t>(i)];
      if (pos < 0) {
        const double t = std::abs(x[static_cast<std::size_t>(i)]);
        if (t > amax) {
          amax = t;
          ipiv = i;
        }
      } else {
        u_rows_.push_back(pos);
        u_vals_.push_back(x[static_cast<std::size_t>(i)]);
      }
    }
    if (ipiv < 0 || amax <= 0.0)
      throw NumericalError("SparseLU: matrix is singular at column " +
                           std::to_string(k) + " (no admissible pivot)");
    // Diagonal preference with threshold.
    if (pinv_[static_cast<std::size_t>(col)] < 0 &&
        std::abs(x[static_cast<std::size_t>(col)]) >=
            options.pivot_tol * amax)
      ipiv = col;
    const double pivot = x[static_cast<std::size_t>(ipiv)];
    min_pivot_ = std::min(min_pivot_, std::abs(pivot));

    u_rows_.push_back(k);  // U diagonal stored last in the column
    u_vals_.push_back(pivot);
    u_colptr_.push_back(static_cast<index_t>(u_rows_.size()));

    pinv_[static_cast<std::size_t>(ipiv)] = k;
    l_rows_.push_back(ipiv);  // L pivot entry stored first in the column
    l_vals_.push_back(1.0);
    for (index_t px = top; px < n_; ++px) {
      const index_t i = xi[static_cast<std::size_t>(px)];
      if (pinv_[static_cast<std::size_t>(i)] < 0) {
        l_rows_.push_back(i);
        l_vals_.push_back(x[static_cast<std::size_t>(i)] / pivot);
      }
      x[static_cast<std::size_t>(i)] = 0.0;
    }
    l_colptr_.push_back(static_cast<index_t>(l_rows_.size()));
  }

  // Remap L's row indices from original numbering to pivot positions.
  for (index_t& r : l_rows_) r = pinv_[static_cast<std::size_t>(r)];

  // Sort each L column's off-diagonal entries by pivot position (values
  // along). Numerically free -- updates from one source column scatter to
  // distinct destinations, so their order never affects rounding -- and
  // it gives the supernode plan sorted row lists to merge and the
  // blocked kernel prefix-structured diagonal blocks.
  {
    std::vector<std::pair<index_t, double>> entries;
    for (index_t k = 0; k < n_; ++k) {
      const index_t begin = l_colptr_[static_cast<std::size_t>(k)] + 1;
      const index_t end = l_colptr_[static_cast<std::size_t>(k) + 1];
      entries.clear();
      for (index_t p = begin; p < end; ++p)
        entries.emplace_back(l_rows_[static_cast<std::size_t>(p)],
                             l_vals_[static_cast<std::size_t>(p)]);
      std::sort(entries.begin(), entries.end());
      for (index_t p = begin; p < end; ++p) {
        l_rows_[static_cast<std::size_t>(p)] =
            entries[static_cast<std::size_t>(p - begin)].first;
        l_vals_[static_cast<std::size_t>(p)] =
            entries[static_cast<std::size_t>(p - begin)].second;
      }
    }
  }

  fill_ratio_ = a.nnz() == 0
                    ? 0.0
                    : static_cast<double>(l_rows_.size() + u_rows_.size()) /
                          static_cast<double>(a.nnz());
  sym->pattern_fp_ = pattern_fingerprint(a);
  sym->build_supernode_plan(a, options);
  sym_ = std::move(sym);
  refactored_ = false;
}

bool SparseLU::refactor_numeric(const CscMatrix& a,
                                const SparseLuOptions& options) {
  MATEX_CHECK(options.refactor_pivot_tol > 0.0 &&
                  options.refactor_pivot_tol <= 1.0,
              "refactor_pivot_tol must be in (0, 1]");
  const SymbolicLU& s = *sym_;
  const index_t n_ = s.n_;
  const std::size_t n = static_cast<std::size_t>(n_);
  l_vals_.assign(s.l_rows_.size(), 0.0);
  u_vals_.assign(s.u_rows_.size(), 0.0);
  std::vector<double> x(n, 0.0);
  min_pivot_ = std::numeric_limits<double>::infinity();

  for (index_t k = 0; k < n_; ++k) {
    const index_t col = s.q_[static_cast<std::size_t>(k)];

    // Scatter A(:, col) into pivot coordinates. Every entry lands inside
    // the union pattern of this L/U column (the pattern check in the
    // constructor guarantees it).
    for (index_t pa = a.col_ptr()[col]; pa < a.col_ptr()[col + 1]; ++pa)
      x[static_cast<std::size_t>(
          s.pinv_[static_cast<std::size_t>(a.row_idx()[pa])])] =
          a.values()[pa];

    // Replay x = L \ A(:, col) along the stored U pattern. The entries
    // are stored in the topological order of the original reach, so every
    // x[j] is final when read -- the exact operation sequence of the full
    // factorization, which is what makes same-values refactorization
    // bitwise identical.
    const index_t u_begin = s.u_colptr_[static_cast<std::size_t>(k)];
    const index_t u_diag = s.u_colptr_[static_cast<std::size_t>(k) + 1] - 1;
    for (index_t p = u_begin; p < u_diag; ++p) {
      const index_t j = s.u_rows_[static_cast<std::size_t>(p)];
      const double xj = x[static_cast<std::size_t>(j)];
      u_vals_[static_cast<std::size_t>(p)] = xj;
      if (xj == 0.0) continue;
      for (index_t pl = s.l_colptr_[static_cast<std::size_t>(j)] + 1;
           pl < s.l_colptr_[static_cast<std::size_t>(j) + 1]; ++pl)
        x[static_cast<std::size_t>(
            s.l_rows_[static_cast<std::size_t>(pl)])] -=
            l_vals_[static_cast<std::size_t>(pl)] * xj;
    }

    // Frozen pivot admissibility: compare against the rows the original
    // pivot search chose from (the pivot itself plus this column's L
    // rows).
    const index_t l_begin = s.l_colptr_[static_cast<std::size_t>(k)];
    const index_t l_end = s.l_colptr_[static_cast<std::size_t>(k) + 1];
    const double pivot = x[static_cast<std::size_t>(k)];
    double amax = std::abs(pivot);
    for (index_t pl = l_begin + 1; pl < l_end; ++pl)
      amax = std::max(amax, std::abs(x[static_cast<std::size_t>(
                                s.l_rows_[static_cast<std::size_t>(pl)])]));
    if (!(std::abs(pivot) >= options.refactor_pivot_tol * amax) ||
        pivot == 0.0)
      return false;  // includes the all-zero column (amax == 0) case
    min_pivot_ = std::min(min_pivot_, std::abs(pivot));

    u_vals_[static_cast<std::size_t>(u_diag)] = pivot;
    l_vals_[static_cast<std::size_t>(l_begin)] = 1.0;
    for (index_t pl = l_begin + 1; pl < l_end; ++pl) {
      const index_t i = s.l_rows_[static_cast<std::size_t>(pl)];
      l_vals_[static_cast<std::size_t>(pl)] =
          x[static_cast<std::size_t>(i)] / pivot;
      x[static_cast<std::size_t>(i)] = 0.0;
    }
    for (index_t p = u_begin; p <= u_diag; ++p)
      x[static_cast<std::size_t>(s.u_rows_[static_cast<std::size_t>(p)])] =
          0.0;
  }

  fill_ratio_ = a.nnz() == 0
                    ? 0.0
                    : static_cast<double>(s.l_rows_.size() +
                                          s.u_rows_.size()) /
                          static_cast<double>(a.nnz());
  return true;
}

bool SparseLU::refill_supernode(const CscMatrix& a,
                                const SparseLuOptions& options, index_t sn,
                                double* wbuf, double* z, double* panels,
                                double& min_pivot) {
  const SymbolicLU& s = *sym_;
  const index_t k0 = s.sn_ptr_[static_cast<std::size_t>(sn)];
  const index_t w = s.sn_ptr_[static_cast<std::size_t>(sn) + 1] - k0;
  const index_t nr = s.sn_rows_ptr_[static_cast<std::size_t>(sn) + 1] -
                     s.sn_rows_ptr_[static_cast<std::size_t>(sn)];
  const index_t ne = s.sn_ne_[static_cast<std::size_t>(sn)];
  const index_t ldw = ne + nr + 1;
  std::fill(wbuf, wbuf + static_cast<std::size_t>(ldw) *
                             static_cast<std::size_t>(w),
            0.0);

  // Scatter the A columns into the workspace. a_scatter_ is laid out in
  // the supernode-major walk order; sn_a_ptr_ locates this supernode's
  // slice so a panel task scheduled out of sequence reads the same slots.
  std::size_t a_cursor =
      static_cast<std::size_t>(s.sn_a_ptr_[static_cast<std::size_t>(sn)]);
  for (index_t t = 0; t < w; ++t) {
    double* w_col = wbuf + static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(ldw);
    const index_t col = s.q_[static_cast<std::size_t>(k0 + t)];
    for (index_t pa = a.col_ptr()[col]; pa < a.col_ptr()[col + 1]; ++pa)
      w_col[s.a_scatter_[a_cursor++]] = a.values()[pa];
  }

  // External updates, one source supernode at a time in ascending
  // order (the canonical replay order).
  const index_t task_begin = s.task_ptr_[static_cast<std::size_t>(sn)];
  const index_t task_end = s.task_ptr_[static_cast<std::size_t>(sn) + 1];
  for (index_t task = task_begin; task < task_end; ++task) {
    const index_t src = s.task_src_[static_cast<std::size_t>(task)];
    const index_t nrs =
        s.sn_rows_ptr_[static_cast<std::size_t>(src) + 1] -
        s.sn_rows_ptr_[static_cast<std::size_t>(src)];
    const index_t r = s.sn_ptr_[static_cast<std::size_t>(src) + 1] -
                      s.sn_ptr_[static_cast<std::size_t>(src)];
    const double* panel =
        panels + s.sn_panel_ptr_[static_cast<std::size_t>(src)];
    const index_t* u0 =
        s.task_u0_.data() + s.task_u0_ptr_[static_cast<std::size_t>(task)];
    const index_t* dst =
        s.task_dst_.data() +
        s.task_dst_ptr_[static_cast<std::size_t>(task)];
    for (index_t t = 0; t < w; ++t) {
      const index_t start = u0[static_cast<std::size_t>(t)];
      if (start >= r) continue;  // column takes nothing from this source
      double* w_col = wbuf + static_cast<std::size_t>(t) *
                                 static_cast<std::size_t>(ldw);
      if (r <= 3) {
        // Narrow source: the contiguous gather cannot amortize over so
        // few columns, so apply the scaled columns directly.
        for (index_t u = start; u < r; ++u) {
          const double y = w_col[dst[u]];
          if (y == 0.0) continue;
          const double* pcol = panel + static_cast<std::size_t>(u) *
                                           static_cast<std::size_t>(nrs);
          for (index_t di = u + 1; di < nrs; ++di)
            w_col[dst[di]] -= pcol[di] * y;
        }
        continue;
      }
      // Wide source: gather the destination window once, run the dense
      // triangular-solve + trailing-update kernel, scatter back.
      double* zc = z;
      for (index_t di = start; di < nrs; ++di) zc[di] = w_col[dst[di]];
      supernode_apply_updates(panel, static_cast<std::size_t>(nrs),
                              static_cast<std::size_t>(r),
                              static_cast<std::size_t>(start), zc);
      for (index_t di = start; di < nrs; ++di) w_col[dst[di]] = zc[di];
    }
  }

  // The panel rows sit contiguously under the E block, so the target
  // panel gather is a straight copy; factorize it under the frozen
  // pivot sequence and keep it pooled -- it is the dense source
  // operand of every later supernode that reaches these columns.
  double* panelT = panels + s.sn_panel_ptr_[static_cast<std::size_t>(sn)];
  for (index_t t = 0; t < w; ++t) {
    const double* w_col = wbuf + static_cast<std::size_t>(t) *
                                     static_cast<std::size_t>(ldw);
    std::copy(w_col + ne, w_col + ne + nr,
              panelT + static_cast<std::size_t>(t) *
                           static_cast<std::size_t>(nr));
  }
  if (!supernode_panel_factorize(panelT, static_cast<std::size_t>(nr),
                                 static_cast<std::size_t>(w),
                                 options.refactor_pivot_tol, min_pivot))
    return false;

  // Write the factor values along the exact patterns: external U
  // entries from the workspace, intra entries and L from the panel.
  for (index_t t = 0; t < w; ++t) {
    const index_t c = k0 + t;
    const double* w_col = wbuf + static_cast<std::size_t>(t) *
                                     static_cast<std::size_t>(ldw);
    const double* pcol = panelT + static_cast<std::size_t>(t) *
                                      static_cast<std::size_t>(nr);
    const index_t ub = s.u_colptr_[static_cast<std::size_t>(c)];
    const index_t ud = s.u_colptr_[static_cast<std::size_t>(c) + 1] - 1;
    for (index_t p = ub; p < ud; ++p) {
      const index_t lv = s.u_local_[static_cast<std::size_t>(p)];
      u_vals_[static_cast<std::size_t>(p)] =
          lv < ne ? w_col[lv] : pcol[lv - ne];
    }
    u_vals_[static_cast<std::size_t>(ud)] = pcol[t];

    const index_t lb = s.l_colptr_[static_cast<std::size_t>(c)];
    const index_t le = s.l_colptr_[static_cast<std::size_t>(c) + 1];
    l_vals_[static_cast<std::size_t>(lb)] = 1.0;
    for (index_t p = lb + 1; p < le; ++p)
      l_vals_[static_cast<std::size_t>(p)] =
          pcol[s.l_panel_[static_cast<std::size_t>(p)]];
  }
  return true;
}

bool SparseLU::refactor_numeric_blocked(const CscMatrix& a,
                                        const SparseLuOptions& options) {
  MATEX_CHECK(options.refactor_pivot_tol > 0.0 &&
                  options.refactor_pivot_tol <= 1.0,
              "refactor_pivot_tol must be in (0, 1]");
  const SymbolicLU& s = *sym_;
  const index_t ns = s.num_supernodes();
  l_vals_.assign(s.l_rows_.size(), 0.0);
  u_vals_.assign(s.u_rows_.size(), 0.0);
  // Compressed per-supernode workspace: ne external-U rows, nr panel
  // rows, and one trash row per column (padded source cells that reach
  // outside the target structure land there carrying exact zeros). All
  // scatter indices were resolved at analysis time, so the numeric pass
  // only streams through precomputed index arrays.
  SupernodeWorkspace ws(static_cast<std::size_t>(s.max_workspace_cells_),
                        static_cast<std::size_t>(s.max_panel_rows_));
  // Pooled scaled L panels, one trapezoid per supernode; cells without an
  // exact entry stay exactly zero, so their updates multiply by 0 and can
  // at most flip the sign of an exact zero (== - invisible).
  std::vector<double> panels(
      static_cast<std::size_t>(s.sn_panel_ptr_.back()), 0.0);
  double min_pivot = std::numeric_limits<double>::infinity();

  for (index_t sn = 0; sn < ns; ++sn) {
    runtime::poll_cancel(options.cancel);
    if (!refill_supernode(a, options, sn, ws.wbuf(), ws.z(), panels.data(),
                          min_pivot))
      return false;
  }

  min_pivot_ = min_pivot;
  fill_ratio_ = a.nnz() == 0
                    ? 0.0
                    : static_cast<double>(s.l_rows_.size() +
                                          s.u_rows_.size()) /
                          static_cast<double>(a.nnz());
  return true;
}

bool SparseLU::refactor_numeric_blocked_parallel(
    const CscMatrix& a, const SparseLuOptions& options) {
  MATEX_CHECK(options.refactor_pivot_tol > 0.0 &&
                  options.refactor_pivot_tol <= 1.0,
              "refactor_pivot_tol must be in (0, 1]");
  runtime::ThreadPool& pool = *options.pool;
  const SymbolicLU& s = *sym_;
  const index_t ns = s.num_supernodes();
  l_vals_.assign(s.l_rows_.size(), 0.0);
  u_vals_.assign(s.u_rows_.size(), 0.0);
  std::vector<double> panels(
      static_cast<std::size_t>(s.sn_panel_ptr_.back()), 0.0);

  // Bottom-up schedule over the supernodal elimination tree. Every
  // supernode is one panel task; its dependency count is its number of
  // external update sources (task_ptr_ run length). A task runs the
  // exact serial per-supernode kernel -- scatter A, apply all external
  // updates in ascending source order, factorize, write out -- so the
  // floating-point sequence per supernode is identical to the serial
  // path regardless of thread count or completion order. When a panel
  // retires it decrements each dependent's count (dep_out_ transpose);
  // a count reaching zero means the dependent's last external update
  // source is final, and its task fires. Writers never share cells:
  // panels, l_vals_ and u_vals_ are sliced per supernode, and each task
  // owns a private workspace leased from a freelist.
  struct Shared {
    std::vector<std::atomic<index_t>> deps;
    std::atomic<long long> inflight{0};
    std::atomic<bool> abort{false};
    std::atomic<bool> pivot_trip{false};
    core::Mutex mutex;
    std::exception_ptr error MATEX_GUARDED_BY(mutex);
    double min_pivot MATEX_GUARDED_BY(mutex) =
        std::numeric_limits<double>::infinity();
    std::vector<std::unique_ptr<SupernodeWorkspace>> workspaces
        MATEX_GUARDED_BY(mutex);
  };
  Shared st;
  st.deps = std::vector<std::atomic<index_t>>(static_cast<std::size_t>(ns));
  for (index_t sn = 0; sn < ns; ++sn)
    st.deps[static_cast<std::size_t>(sn)].store(
        s.task_ptr_[static_cast<std::size_t>(sn) + 1] -
            s.task_ptr_[static_cast<std::size_t>(sn)],
        std::memory_order_relaxed);

  std::function<void(index_t)> panel_task;
  const auto spawn = [&](index_t sn) {
    // relaxed increment: the quiesce loop only needs to see it before the
    // task can retire, and the pool's queue mutex publishes both together
    // with the task itself.
    st.inflight.fetch_add(1, std::memory_order_relaxed);
    try {
      pool.submit([&panel_task, sn] { panel_task(sn); });
      // matex-lint: allow(catch-all): rollback-and-rethrow -- the
      // increment above is undone so the quiesce loop cannot hang, then
      // the submit failure propagates untouched to the seeding loop.
    } catch (...) {
      st.inflight.fetch_sub(1, std::memory_order_release);
      throw;
    }
  };
  panel_task = [&](index_t sn) {
    try {
      // relaxed: a work-avoidance hint. The authoritative error/trip
      // state travels under st.mutex and via the inflight quiesce below.
      if (!st.abort.load(std::memory_order_relaxed)) {
        MATEX_SPAN("panel", "sn", sn, "w",
                   s.sn_ptr_[static_cast<std::size_t>(sn) + 1] -
                       s.sn_ptr_[static_cast<std::size_t>(sn)]);
        // Panel-task boundary: a fired token unwinds the whole refill
        // (every task bails via `abort`) within one task's latency.
        runtime::poll_cancel(options.cancel);
        std::unique_ptr<SupernodeWorkspace> ws;
        {
          const core::MutexLock lock(st.mutex);
          if (!st.workspaces.empty()) {
            ws = std::move(st.workspaces.back());
            st.workspaces.pop_back();
          }
        }
        if (!ws)
          ws = std::make_unique<SupernodeWorkspace>(
              static_cast<std::size_t>(s.max_workspace_cells_),
              static_cast<std::size_t>(s.max_panel_rows_));
        double local_min = std::numeric_limits<double>::infinity();
        const bool ok = refill_supernode(a, options, sn, ws->wbuf(),
                                         ws->z(), panels.data(), local_min);
        {
          const core::MutexLock lock(st.mutex);
          st.min_pivot = std::min(st.min_pivot, local_min);
          st.workspaces.push_back(std::move(ws));
        }
        if (!ok) {
          // Pivot-tolerance trip: abandon the refill. The caller falls
          // back to the scalar replay, which sees the same values
          // through the same operation sequence and trips on the same
          // column. relaxed: the authoritative read of pivot_trip happens
          // after the quiesce, whose release/acquire pair on inflight
          // orders these stores before it.
          st.pivot_trip.store(true, std::memory_order_relaxed);
          st.abort.store(true, std::memory_order_relaxed);
        } else {
          for (index_t e = s.dep_out_ptr_[static_cast<std::size_t>(sn)];
               e < s.dep_out_ptr_[static_cast<std::size_t>(sn) + 1]; ++e) {
            const index_t t = s.dep_out_[static_cast<std::size_t>(e)];
            // acq_rel: release publishes this panel's writes to whoever
            // decrements last; acquire makes every earlier source's
            // writes (released by their decrements of the same counter)
            // visible to the task the final decrement fires.
            if (st.deps[static_cast<std::size_t>(t)].fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
              spawn(t);
          }
        }
      }
      // matex-lint: allow(catch-all): capture-and-rethrow -- the first
      // exception is stored verbatim under st.mutex and rethrown after
      // the quiesce; classifying it belongs to the factor-cache funnel.
    } catch (...) {
      st.abort.store(true, std::memory_order_relaxed);
      const core::MutexLock lock(st.mutex);
      if (!st.error) st.error = std::current_exception();
    }
    // release: retirement point -- pairs with the quiesce loop's acquire
    // load, so inflight == 0 implies every panel write has landed.
    st.inflight.fetch_sub(1, std::memory_order_release);
  };

  // Seed the leaves and help the pool until every spawned task has
  // retired -- also on abort or error, so no task can outlive the shared
  // state on this frame. Leaves are the *structurally* source-free
  // supernodes: seeding off the live counters instead would double-spawn
  // a target whose last source retires while this loop is still running
  // (its own fetch_sub already fired the task).
  try {
    for (index_t sn = 0; sn < ns; ++sn)
      if (s.task_ptr_[static_cast<std::size_t>(sn) + 1] ==
          s.task_ptr_[static_cast<std::size_t>(sn)])
        spawn(sn);
    // matex-lint: allow(catch-all): quiesce-and-rethrow -- in-flight
    // tasks must retire before this frame's shared state unwinds; the
    // seeding failure then propagates untouched.
  } catch (...) {
    st.abort.store(true, std::memory_order_relaxed);
    pool.help_until(
        [&] { return st.inflight.load(std::memory_order_acquire) == 0; });
    throw;
  }
  // acquire: pairs with each task's release retirement, so everything the
  // tasks wrote (panels, error, trip flags) is visible past this line.
  pool.help_until(
      [&] { return st.inflight.load(std::memory_order_acquire) == 0; });

  std::exception_ptr error;
  double min_pivot = 0.0;
  {
    const core::MutexLock lock(st.mutex);
    error = st.error;
    min_pivot = st.min_pivot;
  }
  if (error) std::rethrow_exception(error);
  // relaxed: ordered by the quiesce above.
  if (st.pivot_trip.load(std::memory_order_relaxed)) return false;
  min_pivot_ = min_pivot;
  fill_ratio_ = a.nnz() == 0
                    ? 0.0
                    : static_cast<double>(s.l_rows_.size() +
                                          s.u_rows_.size()) /
                          static_cast<double>(a.nnz());
  return true;
}

void SparseLU::solve_in_place(std::span<double> b) const {
  std::vector<double> work(static_cast<std::size_t>(order()));
  solve_in_place(b, work);
}

void SparseLU::solve_in_place(std::span<double> b,
                              std::span<double> work) const {
  MATEX_SPAN("solve", "n", order());
  const SymbolicLU& s = *sym_;
  const index_t n_ = s.n_;
  MATEX_CHECK(b.size() == static_cast<std::size_t>(n_));
  MATEX_CHECK(work.size() == static_cast<std::size_t>(n_));
  auto& work_ = work;
  // work = P b
  for (index_t i = 0; i < n_; ++i)
    work_[static_cast<std::size_t>(s.pinv_[static_cast<std::size_t>(i)])] =
        b[static_cast<std::size_t>(i)];
  // Forward substitution: L y = work (unit diagonal stored first).
  for (index_t j = 0; j < n_; ++j) {
    const double xj = work_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (index_t p = s.l_colptr_[static_cast<std::size_t>(j)] + 1;
         p < s.l_colptr_[static_cast<std::size_t>(j) + 1]; ++p)
      work_[static_cast<std::size_t>(
          s.l_rows_[static_cast<std::size_t>(p)])] -=
          l_vals_[static_cast<std::size_t>(p)] * xj;
  }
  // Backward substitution: U z = y (diagonal stored last).
  for (index_t j = n_; j-- > 0;) {
    const index_t pend = s.u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    work_[static_cast<std::size_t>(j)] /=
        u_vals_[static_cast<std::size_t>(pend)];
    const double xj = work_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (index_t p = s.u_colptr_[static_cast<std::size_t>(j)]; p < pend; ++p)
      work_[static_cast<std::size_t>(
          s.u_rows_[static_cast<std::size_t>(p)])] -=
          u_vals_[static_cast<std::size_t>(p)] * xj;
  }
  // b = Q z
  for (index_t k = 0; k < n_; ++k)
    b[static_cast<std::size_t>(s.q_[static_cast<std::size_t>(k)])] =
        work_[static_cast<std::size_t>(k)];
}

std::vector<double> SparseLU::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void SparseLU::solve_transpose(std::span<const double> b, std::span<double> x,
                               std::span<double> work) const {
  const SymbolicLU& s = *sym_;
  const index_t n_ = s.n_;
  MATEX_CHECK(b.size() == static_cast<std::size_t>(n_));
  MATEX_CHECK(x.size() == static_cast<std::size_t>(n_));
  MATEX_CHECK(work.size() == static_cast<std::size_t>(n_));
  auto& w = work;
  // A' = Q U' L' P, so solve U' w = Q'b, then L' v = w, then x = P' v.
  for (index_t k = 0; k < n_; ++k)
    w[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(s.q_[static_cast<std::size_t>(k)])];
  // U' is lower triangular: forward substitution over columns of U.
  for (index_t j = 0; j < n_; ++j) {
    const index_t pend = s.u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    double sum = w[static_cast<std::size_t>(j)];
    for (index_t p = s.u_colptr_[static_cast<std::size_t>(j)]; p < pend; ++p)
      sum -= u_vals_[static_cast<std::size_t>(p)] *
             w[static_cast<std::size_t>(
                 s.u_rows_[static_cast<std::size_t>(p)])];
    w[static_cast<std::size_t>(j)] =
        sum / u_vals_[static_cast<std::size_t>(pend)];
  }
  // L' is upper triangular with unit diagonal: backward substitution.
  for (index_t j = n_; j-- > 0;) {
    double sum = w[static_cast<std::size_t>(j)];
    for (index_t p = s.l_colptr_[static_cast<std::size_t>(j)] + 1;
         p < s.l_colptr_[static_cast<std::size_t>(j) + 1]; ++p)
      sum -= l_vals_[static_cast<std::size_t>(p)] *
             w[static_cast<std::size_t>(
                 s.l_rows_[static_cast<std::size_t>(p)])];
    w[static_cast<std::size_t>(j)] = sum;
  }
  for (index_t i = 0; i < n_; ++i)
    x[static_cast<std::size_t>(i)] =
        w[static_cast<std::size_t>(s.pinv_[static_cast<std::size_t>(i)])];
}

std::vector<double> SparseLU::solve_transpose(
    std::span<const double> b) const {
  const std::size_t n = static_cast<std::size_t>(order());
  std::vector<double> x(n), work(n);
  solve_transpose(b, x, work);
  return x;
}

std::span<const index_t> SparseLU::solve_sparse_rhs(
    std::span<const index_t> rhs_rows, std::span<const double> rhs_vals,
    std::span<double> x, SparseRhsWorkspace& ws) const {
  MATEX_SPAN("solve", "n", order(), "sparse_rhs", 1);
  const SymbolicLU& s = *sym_;
  const index_t n_ = s.n_;
  MATEX_CHECK(rhs_rows.size() == rhs_vals.size(),
              "rhs pattern/value size mismatch");
  MATEX_CHECK(x.size() == static_cast<std::size_t>(n_));
  if (ws.size() != n_) ws.resize(n_);
  // Once the reach covers a sizable fraction of the matrix, the
  // reach-restricted path stops paying for its DFS + sort and the plain
  // zero-skipping substitution over all columns is faster. Both branches
  // execute the identical floating-point operation sequence, so the
  // result does not depend on which one runs.
  const index_t dense_cutoff = n_ / 4;

  // Validate every index before any traversal: throwing mid-reach would
  // leave nodes marked with no record to clean them up by, silently
  // corrupting later solves against the same workspace.
  for (const index_t r : rhs_rows)
    MATEX_CHECK(r >= 0 && r < n_, "rhs row index out of range");

  // --- Reach of the RHS pattern in the graph of L (pivot coordinates).
  ws.reach_l_.clear();
  bool l_overflow = false;
  for (std::size_t i = 0; i < rhs_rows.size(); ++i) {
    l_overflow = factor_reach(
        s.pinv_[static_cast<std::size_t>(rhs_rows[i])], s.l_colptr_,
        s.l_rows_, /*head_skip=*/1, /*tail_skip=*/0, dense_cutoff,
        ws.marked_, ws.reach_l_, ws.node_stack_, ws.pos_stack_);
    if (l_overflow) break;
  }

  // Scatter P b into the accumulator (all-zero between calls).
  for (std::size_t i = 0; i < rhs_rows.size(); ++i)
    ws.x_[static_cast<std::size_t>(
        s.pinv_[static_cast<std::size_t>(rhs_rows[i])])] = rhs_vals[i];

  // Gathers the full permuted solution, restores the accumulator, and
  // reports the all-columns pattern (used by the dense fallbacks).
  const auto gather_dense = [&]() -> std::span<const index_t> {
    ws.reach_u_.clear();
    for (index_t k = 0; k < n_; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      const index_t orig = s.q_[kk];
      x[static_cast<std::size_t>(orig)] = ws.x_[kk];
      ws.x_[kk] = 0.0;
      ws.reach_u_.push_back(orig);
    }
    return ws.reach_u_;
  };

  bool forward_done = false;
  if (l_overflow) {
    // Dense-fallback forward: clear the marks and walk every column.
    for (const index_t j : ws.reach_l_)
      ws.marked_[static_cast<std::size_t>(j)] = 0;
    for (index_t j = 0; j < n_; ++j) {
      const double xj = ws.x_[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (index_t p = s.l_colptr_[static_cast<std::size_t>(j)] + 1;
           p < s.l_colptr_[static_cast<std::size_t>(j) + 1]; ++p)
        ws.x_[static_cast<std::size_t>(
            s.l_rows_[static_cast<std::size_t>(p)])] -=
            l_vals_[static_cast<std::size_t>(p)] * xj;
    }
    forward_done = true;
  } else {
    // Ascending position order makes the restricted substitution perform
    // the exact operation sequence of the dense solve (which walks all
    // columns ascending and skips zeros), so results are bitwise
    // identical.
    std::sort(ws.reach_l_.begin(), ws.reach_l_.end());
    for (const index_t j : ws.reach_l_) {
      ws.marked_[static_cast<std::size_t>(j)] = 0;  // reset for the U reach
      const double xj = ws.x_[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (index_t p = s.l_colptr_[static_cast<std::size_t>(j)] + 1;
           p < s.l_colptr_[static_cast<std::size_t>(j) + 1]; ++p)
        ws.x_[static_cast<std::size_t>(
            s.l_rows_[static_cast<std::size_t>(p)])] -=
            l_vals_[static_cast<std::size_t>(p)] * xj;
    }
  }

  // Full backward substitution over all columns (dense order; out-of-
  // reach entries are zero and divide to +-0 exactly like solve()).
  const auto backward_dense = [&]() {
    for (index_t j = n_; j-- > 0;) {
      const index_t pend = s.u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
      ws.x_[static_cast<std::size_t>(j)] /=
          u_vals_[static_cast<std::size_t>(pend)];
      const double xj = ws.x_[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (index_t p = s.u_colptr_[static_cast<std::size_t>(j)]; p < pend;
           ++p)
        ws.x_[static_cast<std::size_t>(
            s.u_rows_[static_cast<std::size_t>(p)])] -=
            u_vals_[static_cast<std::size_t>(p)] * xj;
    }
  };
  if (forward_done) {
    backward_dense();
    return gather_dense();
  }

  // --- Reach of y's pattern in the graph of U (diagonal stored last).
  ws.reach_u_.clear();
  bool u_overflow = false;
  for (const index_t j : ws.reach_l_) {
    u_overflow = factor_reach(j, s.u_colptr_, s.u_rows_, /*head_skip=*/0,
                              /*tail_skip=*/1, dense_cutoff, ws.marked_,
                              ws.reach_u_, ws.node_stack_, ws.pos_stack_);
    if (u_overflow) break;
  }
  if (u_overflow) {
    for (const index_t j : ws.reach_u_)
      ws.marked_[static_cast<std::size_t>(j)] = 0;
    backward_dense();
    return gather_dense();
  }
  // Descending order matches the dense backward substitution exactly.
  std::sort(ws.reach_u_.begin(), ws.reach_u_.end(), std::greater<>());

  // Backward substitution restricted to the reach.
  for (const index_t j : ws.reach_u_) {
    ws.marked_[static_cast<std::size_t>(j)] = 0;
    const index_t pend = s.u_colptr_[static_cast<std::size_t>(j) + 1] - 1;
    ws.x_[static_cast<std::size_t>(j)] /=
        u_vals_[static_cast<std::size_t>(pend)];
    const double xj = ws.x_[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (index_t p = s.u_colptr_[static_cast<std::size_t>(j)]; p < pend; ++p)
      ws.x_[static_cast<std::size_t>(
          s.u_rows_[static_cast<std::size_t>(p)])] -=
          u_vals_[static_cast<std::size_t>(p)] * xj;
  }

  // Gather x = Q z, restore the accumulator to all-zero, and rewrite the
  // reach list to original indices for the caller.
  for (index_t& k : ws.reach_u_) {
    const std::size_t kk = static_cast<std::size_t>(k);
    const index_t orig = s.q_[kk];
    x[static_cast<std::size_t>(orig)] = ws.x_[kk];
    ws.x_[kk] = 0.0;
    k = orig;
  }
  return ws.reach_u_;
}

}  // namespace matex::la
