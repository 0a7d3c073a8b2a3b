#include "la/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>

#include "la/error.hpp"

namespace matex::la {
namespace {

/// Breadth-first order of one connected component starting at root,
/// visiting neighbors in increasing-degree order (Cuthill-McKee).
void cuthill_mckee_component(const std::vector<std::vector<index_t>>& adj,
                             index_t root, std::vector<char>& visited,
                             std::vector<index_t>& out) {
  std::queue<index_t> q;
  q.push(root);
  visited[static_cast<std::size_t>(root)] = 1;
  std::vector<index_t> nbrs;
  while (!q.empty()) {
    const index_t v = q.front();
    q.pop();
    out.push_back(v);
    nbrs.clear();
    for (index_t w : adj[static_cast<std::size_t>(v)])
      if (!visited[static_cast<std::size_t>(w)]) nbrs.push_back(w);
    std::sort(nbrs.begin(), nbrs.end(), [&](index_t x, index_t y) {
      return adj[static_cast<std::size_t>(x)].size() <
             adj[static_cast<std::size_t>(y)].size();
    });
    for (index_t w : nbrs) {
      visited[static_cast<std::size_t>(w)] = 1;
      q.push(w);
    }
  }
}

/// Pseudo-peripheral node: start from a min-degree node and repeatedly
/// jump to the farthest node of the BFS level structure.
index_t pseudo_peripheral(const std::vector<std::vector<index_t>>& adj,
                          index_t start) {
  const std::size_t n = adj.size();
  index_t current = start;
  index_t last_ecc = -1;
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<index_t> dist(n, -1);
    std::queue<index_t> q;
    q.push(current);
    dist[static_cast<std::size_t>(current)] = 0;
    index_t far = current;
    while (!q.empty()) {
      const index_t v = q.front();
      q.pop();
      for (index_t w : adj[static_cast<std::size_t>(v)])
        if (dist[static_cast<std::size_t>(w)] < 0) {
          dist[static_cast<std::size_t>(w)] =
              dist[static_cast<std::size_t>(v)] + 1;
          if (dist[static_cast<std::size_t>(w)] >
                  dist[static_cast<std::size_t>(far)] ||
              (dist[static_cast<std::size_t>(w)] ==
                   dist[static_cast<std::size_t>(far)] &&
               adj[static_cast<std::size_t>(w)].size() <
                   adj[static_cast<std::size_t>(far)].size()))
            far = w;
          q.push(w);
        }
    }
    const index_t ecc = dist[static_cast<std::size_t>(far)];
    if (ecc <= last_ecc) break;
    last_ecc = ecc;
    current = far;
  }
  return current;
}

/// Flipped index: maps i >= 0 to a negative value and back (-i - 2), so
/// one int marks "absorbed into i" and stays distinguishable from -1.
constexpr index_t flip(index_t i) { return -i - 2; }

/// Returns `mark` as the next element-mark stamp, first resetting the
/// stamps w[0..n) when mark + lemax could reach the index_t range (live
/// entries go back to 1, dead ones stay 0).
index_t clear_marks(std::int64_t mark, index_t lemax, index_t* w, index_t n) {
  if (mark < 2 ||
      mark + lemax >= std::int64_t{std::numeric_limits<index_t>::max()}) {
    for (index_t k = 0; k < n; ++k)
      if (w[k] != 0) w[k] = 1;
    return 2;
  }
  return static_cast<index_t>(mark);
}

/// Iterative depth-first postorder of the subtree rooted at j (children
/// in head/next lists); writes post[k...] and returns the next k.
index_t tree_dfs(index_t j, index_t k, index_t* head, const index_t* next,
                 index_t* post, index_t* stack) {
  index_t top = 0;
  stack[0] = j;
  while (top >= 0) {
    const index_t p = stack[top];
    const index_t i = head[p];
    if (i == -1) {
      --top;
      post[k++] = p;
    } else {
      head[p] = next[i];
      stack[++top] = i;
    }
  }
  return k;
}

}  // namespace

std::vector<index_t> rcm_order(
    const std::vector<std::vector<index_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<char> visited(n, 0);
  std::vector<index_t> order;
  order.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (visited[s]) continue;
    // Pick a min-degree unvisited node in this component as the seed.
    const index_t root = pseudo_peripheral(adj, static_cast<index_t>(s));
    cuthill_mckee_component(adj, root, visited, order);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<index_t> min_degree_order(const CscMatrix& a) {
  // Approximate minimum degree (Amestoy, Davis & Duff, SIMAX 1996) on the
  // pattern of A + A', in the idiom of CSparse's cs_amd.
  //
  // The quotient graph lives in one flat array `ci`: object j occupies
  // ci[cp[j] .. cp[j] + len[j]). A variable lists its adjacent elements
  // (the first elen[j] entries) and then its variable neighbours; an
  // element lists its variables. Eliminating pivot k writes the new
  // element Lk after the last object (elbow room) and compacts the array
  // when that room runs out. Degrees are approximate external degrees
  // (|Le \ Lk| sums), so one pivot costs O(|Lk| + sum |Ei|) instead of
  // the exact degree's full reach. Variables with identical adjacency
  // (found by hash) merge into supervariables and are eliminated
  // together; elements whose variables all lie in Lk are absorbed.
  //
  // Encoding: cp[j] = flip(p) means j was absorbed into p (its parent in
  // the assembly tree); elen[j] = -2 marks an element, -1 a dead
  // variable; nv[j] counts the original variables supervariable j stands
  // for (0 once absorbed, negated while j sits in Lk); w[e] stamps
  // elements (0 = dead). Dense rows, degree above max(16, 10 sqrt(n)),
  // are absorbed up front into a virtual root element n and so end up
  // last in the order.
  MATEX_CHECK(a.rows() == a.cols(), "ordering requires a square matrix");
  const index_t n = a.rows();
  const std::int64_t nz_bound = 2 * std::int64_t{a.nnz()};
  const std::int64_t nzmax_wide = nz_bound + nz_bound / 5 + 2 * std::int64_t{n};
  MATEX_CHECK(nzmax_wide + n < std::numeric_limits<index_t>::max(),
              "matrix too large for the ordering workspace");
  const index_t nzmax = static_cast<index_t>(nzmax_wide);
  const std::size_t n1 = static_cast<std::size_t>(n) + 1;

  std::vector<index_t> cp_store(n1, 0);
  std::vector<index_t> ci_store(static_cast<std::size_t>(nzmax));
  std::vector<index_t> work(8 * n1);
  std::vector<index_t> perm(n1);
  index_t* cp = cp_store.data();
  index_t* ci = ci_store.data();
  index_t* len = work.data();
  index_t* nv = len + n1;
  index_t* next = nv + n1;
  index_t* head = next + n1;
  index_t* elen = head + n1;
  index_t* degree = elen + n1;
  index_t* w = degree + n1;
  index_t* hhead = w + n1;
  index_t* last = perm.data();  // perm doubles as workspace until the end

  // --- Pattern of A + A' without the diagonal, straight from the CSC
  // arrays: count both ends of each off-diagonal entry, scatter, then
  // drop the duplicates a (structurally) symmetric A produces.
  const auto ap = a.col_ptr();
  const auto ai = a.row_idx();
  for (index_t j = 0; j < n; ++j)
    for (index_t p = ap[j]; p < ap[j + 1]; ++p)
      if (ai[p] != j) {
        ++cp[ai[p] + 1];
        ++cp[j + 1];
      }
  for (index_t j = 0; j < n; ++j) cp[j + 1] += cp[j];
  for (index_t j = 0; j < n; ++j) next[j] = cp[j];
  for (index_t j = 0; j < n; ++j)
    for (index_t p = ap[j]; p < ap[j + 1]; ++p) {
      const index_t i = ai[p];
      if (i == j) continue;
      ci[next[i]++] = j;
      ci[next[j]++] = i;
    }
  index_t cnz = 0;
  for (index_t j = 0; j < n; ++j) w[j] = -1;
  for (index_t j = 0; j < n; ++j) {
    const index_t begin = cp[j];
    cp[j] = cnz;
    for (index_t p = begin; p < next[j]; ++p) {
      const index_t i = ci[p];
      if (w[i] == j) continue;
      w[i] = j;
      ci[cnz++] = i;
    }
    len[j] = cnz - cp[j];
  }

  // --- Quotient graph and degree lists.
  index_t dense = std::max<index_t>(
      16, static_cast<index_t>(10.0 * std::sqrt(static_cast<double>(n))));
  dense = std::min(n - 2, dense);
  len[n] = 0;
  for (index_t i = 0; i <= n; ++i) {
    head[i] = -1;
    last[i] = -1;
    next[i] = -1;
    hhead[i] = -1;
    nv[i] = 1;
    w[i] = 1;
    elen[i] = 0;
    degree[i] = len[i];
  }
  index_t lemax = 0;
  index_t mark = clear_marks(0, 0, w, n);
  elen[n] = -2;  // n is the (dead) root element that collects dense rows
  cp[n] = -1;
  w[n] = 0;
  index_t nel = 0;
  for (index_t i = 0; i < n; ++i) {
    const index_t d = degree[i];
    if (d == 0) {  // isolated: a dead element and a root of the tree
      elen[i] = -2;
      ++nel;
      cp[i] = -1;
      w[i] = 0;
    } else if (d > dense) {  // dense: absorbed into element n
      nv[i] = 0;
      elen[i] = -1;
      ++nel;
      cp[i] = flip(n);
      ++nv[n];
    } else {
      if (head[d] != -1) last[head[d]] = i;
      next[i] = head[d];
      head[d] = i;
    }
  }

  index_t mindeg = 0;
  while (nel < n) {
    // --- Select a variable of minimum approximate degree.
    while (mindeg < n && head[mindeg] == -1) ++mindeg;
    const index_t k = head[mindeg];
    if (next[k] != -1) last[next[k]] = -1;
    head[mindeg] = next[k];
    const index_t elenk = elen[k];
    index_t nvk = nv[k];
    nel += nvk;

    // --- Garbage collection: compact ci when Lk might not fit.
    if (elenk > 0 && cnz + mindeg >= nzmax) {
      for (index_t j = 0; j < n; ++j) {
        const index_t p = cp[j];
        if (p >= 0) {  // live object: tag its first slot with flip(j)
          cp[j] = ci[p];
          ci[p] = flip(j);
        }
      }
      index_t q = 0;
      for (index_t p = 0; p < cnz;) {
        const index_t j = flip(ci[p++]);
        if (j < 0) continue;
        ci[q] = cp[j];
        cp[j] = q++;
        for (index_t k3 = 0; k3 < len[j] - 1; ++k3) ci[q++] = ci[p++];
      }
      cnz = q;
    }

    // --- Construct the new element Lk: the union of k's variables and
    // the variables of every element adjacent to k (absorbed into k).
    index_t dk = 0;
    nv[k] = -nvk;
    index_t p = cp[k];
    const index_t pk1 = (elenk == 0) ? p : cnz;  // in place if no elements
    index_t pk2 = pk1;
    for (index_t k1 = 1; k1 <= elenk + 1; ++k1) {
      index_t e, pj, ln;
      if (k1 > elenk) {
        e = k;
        pj = p;
        ln = len[k] - elenk;
      } else {
        e = ci[p++];
        pj = cp[e];
        ln = len[e];
      }
      for (index_t k2 = 1; k2 <= ln; ++k2) {
        const index_t i = ci[pj++];
        const index_t nvi = nv[i];
        if (nvi <= 0) continue;  // dead, or already in Lk
        dk += nvi;
        nv[i] = -nvi;
        ci[pk2++] = i;
        if (next[i] != -1) last[next[i]] = last[i];
        if (last[i] != -1)
          next[last[i]] = next[i];
        else
          head[degree[i]] = next[i];
      }
      if (e != k) {
        cp[e] = flip(k);
        w[e] = 0;
      }
    }
    if (elenk != 0) cnz = pk2;
    degree[k] = dk;
    cp[k] = pk1;
    len[k] = pk2 - pk1;
    elen[k] = -2;

    // --- Scan 1: w[e] - mark = |Le \ Lk| for every element e adjacent
    // to a variable of Lk.
    mark = clear_marks(mark, lemax, w, n);
    for (index_t pk = pk1; pk < pk2; ++pk) {
      const index_t i = ci[pk];
      const index_t eln = elen[i];
      if (eln <= 0) continue;
      const index_t nvi = -nv[i];
      const index_t wnvi = mark - nvi;
      for (p = cp[i]; p <= cp[i] + eln - 1; ++p) {
        const index_t e = ci[p];
        if (w[e] >= mark)
          w[e] -= nvi;
        else if (w[e] != 0)
          w[e] = degree[e] + wnvi;
      }
    }

    // --- Scan 2: approximate degree of each variable in Lk, pruning
    // absorbed elements and Lk members from its lists; aggressive
    // absorption of elements with Le \ Lk empty; mass elimination of
    // variables left with no external neighbours.
    for (index_t pk = pk1; pk < pk2; ++pk) {
      const index_t i = ci[pk];
      const index_t p1 = cp[i];
      const index_t p2 = p1 + elen[i] - 1;
      index_t pn = p1;
      std::uint64_t h = 0;  // 64-bit: an index_t sum can overflow
      index_t d = 0;
      for (p = p1; p <= p2; ++p) {
        const index_t e = ci[p];
        if (w[e] == 0) continue;  // already absorbed
        const index_t dext = w[e] - mark;
        if (dext > 0) {
          d += dext;
          ci[pn++] = e;
          h += static_cast<std::uint64_t>(e);
        } else {
          cp[e] = flip(k);  // aggressive absorption
          w[e] = 0;
        }
      }
      elen[i] = pn - p1 + 1;
      const index_t p3 = pn;
      const index_t p4 = p1 + len[i];
      for (p = p2 + 1; p < p4; ++p) {
        const index_t j = ci[p];
        const index_t nvj = nv[j];
        if (nvj <= 0) continue;  // dead, or in Lk
        d += nvj;
        ci[pn++] = j;
        h += static_cast<std::uint64_t>(j);
      }
      if (d == 0) {  // mass elimination: i is absorbed into k
        cp[i] = flip(k);
        const index_t nvi = -nv[i];
        dk -= nvi;
        nvk += nvi;
        nel += nvi;
        nv[i] = 0;
        elen[i] = -1;
      } else {
        degree[i] = std::min(degree[i], d);
        ci[pn] = ci[p3];  // move the first variable to the end,
        ci[p3] = ci[p1];  // the first element after the elements,
        ci[p1] = k;       // and k in front of Ei
        len[i] = pn - p1 + 1;
        const index_t bucket =
            static_cast<index_t>(h % static_cast<std::uint64_t>(n));
        next[i] = hhead[bucket];
        hhead[bucket] = i;
        last[i] = bucket;
      }
    }
    degree[k] = dk;
    lemax = std::max(lemax, dk);
    mark = clear_marks(std::int64_t{mark} + lemax, lemax, w, n);

    // --- Supervariable detection: compare the variables of each hash
    // bucket pairwise and merge identical ones.
    for (index_t pk = pk1; pk < pk2; ++pk) {
      index_t i = ci[pk];
      if (nv[i] >= 0) continue;  // dead
      const index_t bucket = last[i];
      i = hhead[bucket];
      hhead[bucket] = -1;
      for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
        const index_t ln = len[i];
        const index_t eln = elen[i];
        for (p = cp[i] + 1; p <= cp[i] + ln - 1; ++p) w[ci[p]] = mark;
        index_t jlast = i;
        for (index_t j = next[i]; j != -1;) {
          bool same = len[j] == ln && elen[j] == eln;
          for (p = cp[j] + 1; same && p <= cp[j] + ln - 1; ++p)
            if (w[ci[p]] != mark) same = false;
          if (same) {  // absorb j into i
            cp[j] = flip(i);
            nv[i] += nv[j];
            nv[j] = 0;
            elen[j] = -1;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
      }
    }

    // --- Finalize Lk: external degrees, back into the degree lists.
    p = pk1;
    for (index_t pk = pk1; pk < pk2; ++pk) {
      const index_t i = ci[pk];
      const index_t nvi = -nv[i];
      if (nvi <= 0) continue;  // dead
      nv[i] = nvi;
      const index_t d = std::min(degree[i] + dk - nvi, n - nel - nvi);
      if (head[d] != -1) last[head[d]] = i;
      next[i] = head[d];
      last[i] = -1;
      head[d] = i;
      mindeg = std::min(mindeg, d);
      degree[i] = d;
      ci[p++] = i;
    }
    nv[k] = nvk;
    len[k] = p - pk1;
    if (len[k] == 0) {  // k is a root of the assembly tree
      cp[k] = -1;
      w[k] = 0;
    }
    if (elenk != 0) cnz = p;
  }

  // --- Postorder the assembly tree: absorbed variables follow their
  // element, and each subtree is contiguous. Element n (the dense rows)
  // is the last root, so perm[n] == n.
  for (index_t i = 0; i < n; ++i) cp[i] = flip(cp[i]);
  for (index_t j = 0; j <= n; ++j) head[j] = -1;
  for (index_t j = n; j >= 0; --j) {
    if (nv[j] > 0) continue;  // an element
    next[j] = head[cp[j]];
    head[cp[j]] = j;
  }
  for (index_t e = n; e >= 0; --e) {
    if (nv[e] <= 0 || cp[e] == -1) continue;  // not an element, or a root
    next[e] = head[cp[e]];
    head[cp[e]] = e;
  }
  index_t k = 0;
  for (index_t i = 0; i <= n; ++i)
    if (cp[i] == -1) k = tree_dfs(i, k, head, next, perm.data(), w);
  perm.pop_back();
  return perm;
}

std::vector<index_t> compute_ordering(const CscMatrix& a, Ordering method) {
  MATEX_CHECK(a.rows() == a.cols(), "ordering requires a square matrix");
  const std::size_t n = static_cast<std::size_t>(a.rows());
  switch (method) {
    case Ordering::kNatural: {
      std::vector<index_t> p(n);
      std::iota(p.begin(), p.end(), 0);
      return p;
    }
    case Ordering::kRcm:
      return rcm_order(a.symmetric_adjacency());
    case Ordering::kMinDegree:
      return min_degree_order(a);
  }
  throw InvalidArgument("unknown ordering method");
}

std::vector<index_t> elimination_tree(const CscMatrix& a,
                                      std::span<const index_t> order) {
  MATEX_CHECK(a.rows() == a.cols(), "etree requires a square matrix");
  const index_t n = a.rows();
  MATEX_CHECK(static_cast<index_t>(order.size()) == n,
              "order size does not match the matrix");
  const std::vector<index_t> inv = invert_permutation(order);
  // Liu's algorithm requires every edge {i, j} (i < j) to be visited when
  // the outer sweep reaches j -- visiting it earlier corrupts the
  // path-compression state. A's pattern is used symmetrically, so bucket
  // each edge's lower endpoint under its upper endpoint first.
  std::vector<index_t> edge_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t c = 0; c < n; ++c)
    for (index_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
      const index_t i = inv[static_cast<std::size_t>(a.row_idx()[p])];
      const index_t j = inv[static_cast<std::size_t>(c)];
      if (i != j)
        ++edge_ptr[static_cast<std::size_t>(std::max(i, j)) + 1];
    }
  for (index_t j = 0; j < n; ++j)
    edge_ptr[static_cast<std::size_t>(j) + 1] +=
        edge_ptr[static_cast<std::size_t>(j)];
  std::vector<index_t> edge_lo(
      static_cast<std::size_t>(edge_ptr[static_cast<std::size_t>(n)]));
  {
    std::vector<index_t> fill = edge_ptr;
    for (index_t c = 0; c < n; ++c)
      for (index_t p = a.col_ptr()[c]; p < a.col_ptr()[c + 1]; ++p) {
        const index_t i = inv[static_cast<std::size_t>(a.row_idx()[p])];
        const index_t j = inv[static_cast<std::size_t>(c)];
        if (i != j)
          edge_lo[static_cast<std::size_t>(
              fill[static_cast<std::size_t>(std::max(i, j))]++)] =
              std::min(i, j);
      }
  }

  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  // ancestor[] with path compression: amortized near-linear.
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = edge_ptr[static_cast<std::size_t>(j)];
         p < edge_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      index_t r = edge_lo[static_cast<std::size_t>(p)];
      while (r != -1 && r < j) {
        const index_t next = ancestor[static_cast<std::size_t>(r)];
        ancestor[static_cast<std::size_t>(r)] = j;  // path compression
        if (next == -1) {
          parent[static_cast<std::size_t>(r)] = j;
          break;
        }
        r = next;
      }
    }
  }
  return parent;
}

std::vector<index_t> tree_postorder(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // First-child / next-sibling lists; children pushed in reverse so the
  // DFS visits smaller-numbered children first (deterministic).
  std::vector<index_t> head(static_cast<std::size_t>(n), -1);
  std::vector<index_t> next(static_cast<std::size_t>(n), -1);
  for (index_t v = n; v-- > 0;) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    MATEX_CHECK(p > v, "parent array must point forward");
    next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
    head[static_cast<std::size_t>(p)] = v;
  }
  std::vector<index_t> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> stack;
  for (index_t root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] >= 0) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const index_t v = stack.back();
      const index_t child = head[static_cast<std::size_t>(v)];
      if (child >= 0) {
        head[static_cast<std::size_t>(v)] =
            next[static_cast<std::size_t>(child)];
        stack.push_back(child);
      } else {
        post.push_back(v);
        stack.pop_back();
      }
    }
  }
  MATEX_CHECK(static_cast<index_t>(post.size()) == n,
              "parent array is not a forest");
  return post;
}

std::vector<index_t> invert_permutation(std::span<const index_t> p) {
  std::vector<index_t> inv(p.size(), -1);
  for (std::size_t i = 0; i < p.size(); ++i) {
    MATEX_CHECK(p[i] >= 0 && static_cast<std::size_t>(p[i]) < p.size(),
                "not a permutation");
    inv[static_cast<std::size_t>(p[i])] = static_cast<index_t>(i);
  }
  for (index_t v : inv) MATEX_CHECK(v >= 0, "not a permutation");
  return inv;
}

bool is_permutation(std::span<const index_t> p) {
  std::vector<char> seen(p.size(), 0);
  for (index_t v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

}  // namespace matex::la
