#include "graph/topology_io.hpp"

#include <istream>
#include <sstream>

#include "util/error.hpp"

namespace nab::graph {

digraph parse_topology(std::istream& in) {
  digraph g;
  bool have_nodes = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank/comment line

    auto fail = [&](const std::string& why) {
      throw error("topology line " + std::to_string(line_no) + ": " + why);
    };

    const auto end_of_line = [&] {
      std::string extra;
      if (ls >> extra) fail("unexpected trailing token '" + extra + "'");
    };

    if (directive == "nodes") {
      int n = 0;
      if (!(ls >> n) || n <= 0) fail("expected positive node count");
      end_of_line();
      if (have_nodes) fail("duplicate nodes directive");
      if (n > max_topology_nodes)
        fail("node count above the limit of " + std::to_string(max_topology_nodes));
      g = digraph(n);
      have_nodes = true;
    } else if (directive == "edge" || directive == "biedge") {
      if (!have_nodes) fail("edge before nodes directive");
      node_id u = -1, v = -1;
      capacity_t cap = 0;
      if (!(ls >> u >> v >> cap)) fail("expected: " + directive + " <u> <v> <cap>");
      end_of_line();
      if (u < 0 || v < 0 || u >= g.universe() || v >= g.universe())
        fail("node id out of range");
      if (u == v) fail("self-loop");
      if (cap <= 0) fail("capacity must be positive");
      const bool both = directive == "biedge";
      if (cap > max_link_capacity - g.cap(u, v) ||
          (both && cap > max_link_capacity - g.cap(v, u)))
        fail("link capacity above the limit of " + std::to_string(max_link_capacity));
      if (both)
        g.add_bidirectional(u, v, cap);
      else
        g.add_edge(u, v, cap);
    } else {
      fail("unknown directive '" + directive + "'");
    }
  }
  if (!have_nodes) throw error("topology: missing nodes directive");
  return g;
}

digraph parse_topology_text(const std::string& text) {
  std::istringstream in(text);
  return parse_topology(in);
}

std::string format_topology(const digraph& g) {
  std::ostringstream out;
  out << "nodes " << g.universe() << "\n";
  for (const edge& e : g.edges())
    out << "edge " << e.from << " " << e.to << " " << e.cap << "\n";
  return out.str();
}

}  // namespace nab::graph
