#pragma once

#include <vector>

#include "core/coding.hpp"
#include "core/omega.hpp"
#include "graph/digraph.hpp"

namespace nab::core {

/// Result of certifying a coding scheme against Theorem 1's condition.
struct certification {
  bool ok = false;
  /// Subgraphs H in Omega_k whose check matrix C_H is rank-deficient, in
  /// Omega_k order (empty when ok).
  std::vector<std::vector<graph::node_id>> failing;
};

/// Deterministically certifies the Equality Check property (EC): for every
/// H in Omega_k, D_H C_H = 0 must imply D_H = 0, i.e. rank(C_H) =
/// (|H|-1) * rho (Appendix C.1). Theorem 1 shows random matrices satisfy
/// this with probability >= 1 - 2^{-L/rho} C(n, n-f) (n-f-1) rho; this
/// routine turns the probabilistic statement into a checked certificate, so
/// a deployment can regenerate with a fresh seed on the (astronomically
/// rare) failure.
///
/// One elimination answers every member, by a rank downdate. Let M be the
/// all-active-blocks matrix: one rho-row block per ACTIVE node over the
/// columns of every edge (a column carries C_e in both endpoint blocks,
/// which coincide with the paper's +C_e / -C_e in characteristic 2). Every
/// member is H = active \ S, and:
///
///  - S's block rows are supported only on X_S, the columns of edges
///    incident to S. So on A_S = columns \ X_S — exactly C_H's columns — the
///    nonzero rows of M|A_S are H's blocks. Per symbol those blocks sum to
///    zero on every A_S column, so H's reference block is redundant:
///    rank(C_H) = rank(M|A_S).
///  - In the reduced M (RREF, rank r, pivot set P), a row whose pivot lies
///    outside X_S keeps its leading 1 on A_S with zeros above and below it,
///    while a row with pivot inside X_S is zero on every pivot column of
///    A_S. Hence, exactly:
///        rank(M|A_S) = (r - |P intersect X_S|) + rank(corner),
///    where the corner is the |P intersect X_S| rows of the reduced M
///    restricted to its free columns outside X_S.
///
/// So M is built and reduced once — a blocked, row-parallel Gauss-Jordan
/// (gf::row_reduce) on `jobs` workers — and each member costs one rank of
/// a corner about |X_S| x (columns - r). Verdicts and the failing list are
/// byte-identical to an independent elimination of every C_H (the per-H
/// oracle in tests/) and to any `jobs`.
certification certify_coding(const graph::digraph& g, int f,
                             const dispute_record& disputes,
                             const coding_scheme& coding, int jobs = 1);

/// Estimated GF *word* count of certify_coding over this Omega_k: one
/// Gauss-Jordan of the all-active-blocks matrix plus one corner rank per
/// member. Comparable to the measured gf_axpy_words + gf_scale_words of a
/// certification within a small constant factor (pinned by tests).
std::uint64_t certify_cost_estimate(const graph::digraph& g,
                                    const std::vector<std::vector<graph::node_id>>& omega,
                                    int rho);

/// The failure-probability upper bound of Theorem 1 for field size
/// 2^field_bits: C(n, n-f) * (n-f-1) * rho / 2^field_bits (clamped to 1).
double theorem1_failure_bound(int n, int f, int rho, int field_bits);

}  // namespace nab::core
