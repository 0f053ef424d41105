#include "support/dot.hpp"

#include <sstream>

namespace nab::graph {

std::string to_dot(const digraph& g, const std::vector<node_id>& highlight) {
  std::ostringstream out;
  out << "digraph G {\n";
  for (node_id v : g.active_nodes()) {
    out << "  n" << v << " [label=\"" << v << "\"";
    for (node_id h : highlight)
      if (h == v) {
        out << ", style=filled, fillcolor=salmon";
        break;
      }
    out << "];\n";
  }
  for (const edge& e : g.edges())
    out << "  n" << e.from << " -> n" << e.to << " [label=\"" << e.cap << "\"];\n";
  out << "}\n";
  return out.str();
}

std::string to_dot(const ugraph& g) {
  std::ostringstream out;
  out << "graph G {\n";
  for (node_id v : g.active_nodes()) out << "  n" << v << " [label=\"" << v << "\"];\n";
  for (const edge& e : g.edges())
    out << "  n" << e.from << " -- n" << e.to << " [label=\"" << e.cap << "\"];\n";
  out << "}\n";
  return out.str();
}

}  // namespace nab::graph
