/// \file ordering.hpp
/// \brief Fill-reducing orderings for sparse LU.
///
/// MNA matrices are structurally symmetric, so all orderings work on the
/// adjacency graph of A + A'. The permutation is applied symmetrically
/// (same order for rows and columns); the LU pivoting then prefers the
/// diagonal with a threshold so the ordering survives factorization.
#pragma once

#include <vector>

#include "la/sparse_csc.hpp"

namespace matex::la {

/// Ordering strategy selector.
enum class Ordering {
  kNatural,    ///< identity permutation
  kRcm,        ///< reverse Cuthill-McKee (bandwidth reduction)
  kMinDegree,  ///< approximate minimum degree (fill reduction)
};

/// Computes a symmetric fill-reducing permutation of the square matrix
/// `a`. Returns `order` such that new column j corresponds to old column
/// order[j].
std::vector<index_t> compute_ordering(const CscMatrix& a, Ordering method);

/// Reverse Cuthill-McKee on an adjacency structure (exposed for tests).
std::vector<index_t> rcm_order(
    const std::vector<std::vector<index_t>>& adjacency);

/// Approximate minimum degree ordering (Amestoy-Davis-Duff) of the
/// pattern of A + A', postordered along its assembly tree; rows denser
/// than max(16, 10 sqrt(n)) are ordered last (exposed for tests).
std::vector<index_t> min_degree_order(const CscMatrix& a);

/// Elimination tree of the symmetric pattern of A(order, order): for the
/// graph of A + A' relabeled by `order`, parent[j] is the smallest k > j
/// that the filled graph connects to j (Liu's union-find algorithm), or
/// -1 for a root. The tree drives supernode formation: columns in one
/// supernode form a parent chain.
std::vector<index_t> elimination_tree(const CscMatrix& a,
                                      std::span<const index_t> order);

/// Postorder of a forest given as a parent array (parent[j] > j or -1).
/// Returns `post` such that position k holds node post[k]; children
/// precede parents and each subtree is contiguous -- the relabeling that
/// makes elimination-tree chains adjacent (and therefore mergeable into
/// supernodes) without changing the fill of a symmetric-pattern
/// factorization.
std::vector<index_t> tree_postorder(std::span<const index_t> parent);

/// Returns the inverse permutation: inv[p[i]] = i.
std::vector<index_t> invert_permutation(std::span<const index_t> p);

/// Returns true if `p` is a permutation of 0..n-1.
bool is_permutation(std::span<const index_t> p);

}  // namespace matex::la
