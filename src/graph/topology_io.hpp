#pragma once

#include <iosfwd>
#include <string>

#include "graph/digraph.hpp"

namespace nab::graph {

/// Parses a plain-text topology description into a digraph.
///
/// Format (one directive per line; '#' starts a comment):
///   nodes <n>
///   edge <u> <v> <capacity>      # directed link u -> v
///   biedge <u> <v> <capacity>    # both directions
///
/// Throws nab::error on malformed input (unknown directive, ids out of
/// range, non-positive capacity, trailing tokens, missing `nodes` line) and
/// on sizes past the bounds below, before allocating anything for them.
digraph parse_topology(std::istream& in);

/// Largest `nodes` count a topology file may declare. A digraph stores an
/// n x n capacity matrix, and every algorithm here is at least cubic in n;
/// the registry's largest preset has 128 nodes.
inline constexpr int max_topology_nodes = 1024;

/// Largest capacity one link may accumulate over all its `edge`/`biedge`
/// lines: n^2 such links still sum to less than 2^61, so no capacity or
/// flow total can overflow.
inline constexpr capacity_t max_link_capacity = capacity_t{1} << 40;

/// Convenience overload for in-memory text.
digraph parse_topology_text(const std::string& text);

/// Serializes the active subgraph in the same format (directed `edge`
/// lines only — round-trips through parse_topology).
std::string format_topology(const digraph& g);

}  // namespace nab::graph
