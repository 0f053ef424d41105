#include "graph/topology_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "support/splitmix.hpp"
#include "util/error.hpp"

namespace nab::graph {
namespace {

TEST(TopologyIo, ParsesDirectedAndBidirectional) {
  const digraph g = parse_topology_text(
      "# comment line\n"
      "nodes 3\n"
      "edge 0 1 5\n"
      "biedge 1 2 2  # trailing comment\n");
  EXPECT_EQ(g.universe(), 3);
  EXPECT_EQ(g.cap(0, 1), 5);
  EXPECT_EQ(g.cap(1, 0), 0);
  EXPECT_EQ(g.cap(1, 2), 2);
  EXPECT_EQ(g.cap(2, 1), 2);
}

TEST(TopologyIo, BlankLinesAndCommentsIgnored) {
  const digraph g = parse_topology_text("\n\n# header\nnodes 2\n\nedge 0 1 1\n\n");
  EXPECT_EQ(g.edges().size(), 1u);
}

TEST(TopologyIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_topology_text(""), nab::error);                       // no nodes
  EXPECT_THROW(parse_topology_text("edge 0 1 1\n"), nab::error);           // edge first
  EXPECT_THROW(parse_topology_text("nodes 0\n"), nab::error);              // empty graph
  EXPECT_THROW(parse_topology_text("nodes 2\nnodes 3\n"), nab::error);     // dup nodes
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 2 1\n"), nab::error);  // id range
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 0 1\n"), nab::error);  // self-loop
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 0\n"), nab::error);  // cap 0
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1\n"), nab::error);    // missing cap
  EXPECT_THROW(parse_topology_text("nodes 2\nfrobnicate\n"), nab::error);  // directive
}

TEST(TopologyIo, RejectsHostileSizesBeforeAllocating) {
  // One node past the bound: rejected before the n x n matrix is sized.
  EXPECT_THROW(parse_topology_text("nodes " + std::to_string(max_topology_nodes + 1) + "\n"),
               nab::error);
  EXPECT_EQ(parse_topology_text("nodes 1024\n").universe(), max_topology_nodes);
  // Link capacities accumulate over repeated lines; the sum may not pass
  // the bound, let alone overflow.
  const std::string big = std::to_string(max_link_capacity);
  EXPECT_EQ(parse_topology_text("nodes 2\nedge 0 1 " + big + "\n").cap(0, 1),
            max_link_capacity);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 " + big + "\nedge 0 1 1\n"),
               nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 9223372036854775807\n"
                                   "edge 0 1 9223372036854775807\n"),
               nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 1 0 1\nbiedge 0 1 " + big + "\n"),
               nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 9223372036854775808\n"), nab::error);
}

TEST(TopologyIo, RejectsTrailingTokens) {
  EXPECT_THROW(parse_topology_text("nodes 2 3\n"), nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 1 1\n"), nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nedge 0 1 2.5\n"), nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2\nbiedge 0 1 1 x\n"), nab::error);
  EXPECT_THROW(parse_topology_text("nodes 2x\n"), nab::error);
}

/// One deterministic mutation of a topology file, drawn from `state`. The
/// `nodes` count is only ever replaced by values from a fixed hostile list,
/// so no mutant asks for more than max_topology_nodes + 1 nodes.
std::string mutate_topology(const std::string& text, std::uint64_t state) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(test::splitmix64(state) % (n == 0 ? 1 : n));
  };
  static const std::vector<std::string> hostile = {
      "-1", "0", "1", "9223372036854775807", "9223372036854775808",
      "1099511627776", "1099511627777", "x", "", "1e3", "0x10", "2.5", "3 4"};
  static const std::vector<std::string> node_counts = {
      "0", "-1", "1", "1025", "99999999999", "3 x", "", "abc", "2.5"};
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  for (int round = 0, rounds = 1 + static_cast<int>(pick(3)); round < rounds; ++round) {
    const std::size_t at = 1 + pick(lines.size() - 1);  // an edge line
    switch (pick(7)) {
      case 0: {  // replace one token of an edge line
        std::istringstream ls(lines[at]);
        std::vector<std::string> tokens;
        for (std::string t; ls >> t;) tokens.push_back(t);
        if (tokens.empty()) break;
        tokens[pick(tokens.size())] = hostile[pick(hostile.size())];
        lines[at].clear();
        for (const std::string& t : tokens) lines[at] += t + " ";
        break;
      }
      case 1:  // repeat an edge line, accumulating its capacity
        for (std::size_t k = 0, copies = 1 + pick(3); k < copies; ++k)
          lines.push_back(lines[at]);
        break;
      case 2:  // flip one byte of an edge line
        if (!lines[at].empty())
          lines[at][pick(lines[at].size())] = static_cast<char>(pick(256));
        break;
      case 3:  // trailing tokens
        lines[at] += " " + hostile[pick(hostile.size())];
        break;
      case 4:  // truncate an edge line
        lines[at].resize(pick(lines[at].size() + 1));
        break;
      case 5:  // a hostile node count
        lines[0] = "nodes " + node_counts[pick(node_counts.size())];
        break;
      default:  // an unknown, duplicated or misplaced directive
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                     std::vector<std::string>{"nodes 3", "frobnicate", "edge", "#"}[pick(4)]);
        break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(TopologyIo, MutatedFilesParseOrThrowNabError) {
  // Every mutant either parses into a graph within the bounds or throws
  // nab::error; nothing else escapes, and the sanitizer jobs see no UB.
  int parsed = 0, rejected = 0;
  for (const digraph& g : {complete(5, 3), ring(6, 2), paper_fig2()}) {
    const std::string text = format_topology(g);
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      const std::string mutant = mutate_topology(text, seed);
      try {
        const digraph h = parse_topology_text(mutant);
        ++parsed;
        EXPECT_LE(h.universe(), max_topology_nodes) << mutant;
        for (const edge& e : h.edges()) {
          EXPECT_GT(e.cap, 0) << mutant;
          EXPECT_LE(e.cap, max_link_capacity) << mutant;
        }
        EXPECT_EQ(parse_topology_text(format_topology(h)).edges(), h.edges()) << mutant;
      } catch (const nab::error&) {
        ++rejected;
      }
    }
  }
  // The mutator must exercise both outcomes.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 300);
}

TEST(TopologyIo, FormatParseRoundTrip) {
  const digraph original = paper_fig2();
  const digraph parsed = parse_topology_text(format_topology(original));
  EXPECT_EQ(parsed.universe(), original.universe());
  EXPECT_EQ(parsed.edges(), original.edges());
}

TEST(TopologyIo, RoundTripPreservesGenerators) {
  for (const digraph& g : {complete(5, 3), ring(6, 2), dumbbell(6, 4, 1)}) {
    EXPECT_EQ(parse_topology_text(format_topology(g)).edges(), g.edges());
  }
}

}  // namespace
}  // namespace nab::graph
