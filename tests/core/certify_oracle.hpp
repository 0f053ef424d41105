#pragma once

// The per-H certification oracle: an independent rank elimination of every
// member's check matrix C_H. core::certify_coding answers the same question
// with one shared elimination and a rank downdate per member; the tests pin
// the two to identical verdicts and failing lists.

#include <vector>

#include "core/certify.hpp"
#include "gf/linalg.hpp"
#include "gf/matrix.hpp"
#include "util/assert.hpp"

namespace nab::core::oracle {

/// The paper's C_H matrix (Appendix C.1) for one candidate fault-free
/// subgraph H: rows indexed by (node-position, symbol) with the last node of
/// `h` as the reference, one column per capacity unit of every directed edge
/// of g inside H. In characteristic 2 the +C_e / -C_e blocks coincide.
inline gf::matrix<gf::gf2_16> build_check_matrix(const graph::digraph& g,
                                                 const std::vector<graph::node_id>& h,
                                                 const coding_scheme& coding) {
  NAB_ASSERT(!h.empty(), "check matrix needs a nonempty subgraph");
  const auto rho = static_cast<std::size_t>(coding.rho());
  std::vector<int> pos(static_cast<std::size_t>(g.universe()), -1);
  std::vector<bool> in_h(static_cast<std::size_t>(g.universe()), false);
  for (std::size_t i = 0; i < h.size(); ++i) {
    in_h[static_cast<std::size_t>(h[i])] = true;
    if (i + 1 < h.size()) pos[static_cast<std::size_t>(h[i])] = static_cast<int>(i);
  }
  std::size_t cols = 0;
  for (const graph::edge& e : g.edges())
    if (in_h[static_cast<std::size_t>(e.from)] && in_h[static_cast<std::size_t>(e.to)])
      cols += static_cast<std::size_t>(e.cap);

  gf::matrix<gf::gf2_16> ch((h.size() - 1) * rho, cols);
  std::size_t col = 0;
  for (const graph::edge& e : g.edges()) {
    if (!in_h[static_cast<std::size_t>(e.from)] || !in_h[static_cast<std::size_t>(e.to)])
      continue;
    const auto& ce = coding.matrix_for(e.from, e.to);
    const int pi = pos[static_cast<std::size_t>(e.from)];
    const int pj = pos[static_cast<std::size_t>(e.to)];
    for (std::size_t k = 0; k < ce.cols(); ++k, ++col)
      for (std::size_t s = 0; s < rho; ++s) {
        if (pi >= 0) ch.at(static_cast<std::size_t>(pi) * rho + s, col) = ce.at(s, k);
        if (pj >= 0) ch.at(static_cast<std::size_t>(pj) * rho + s, col) = ce.at(s, k);
      }
  }
  return ch;
}

/// Certifies by an independent elimination of every C_H, in Omega_k order.
inline certification certify_per_h(const graph::digraph& g, int f,
                                   const dispute_record& disputes,
                                   const coding_scheme& coding) {
  certification out;
  out.ok = true;
  for (const auto& h : omega_subgraphs(g, f, disputes)) {
    if (h.size() <= 1) continue;  // nothing to distinguish
    const std::size_t need = (h.size() - 1) * static_cast<std::size_t>(coding.rho());
    if (gf::rank(build_check_matrix(g, h, coding)) != need) {
      out.ok = false;
      out.failing.push_back(h);
    }
  }
  return out;
}

}  // namespace nab::core::oracle
