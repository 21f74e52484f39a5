#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "metrics/metric.hpp"

namespace qolsr {

/// Reusable scratch of rng_reduce's witness sweep: the view's undirected
/// edges sorted best first, and two n × ⌈n/64⌉-word bit matrices over
/// local ids (the links strictly better than the edge under test, and the
/// dropped edges), sized to the largest view seen. One instance per worker
/// thread; a warm call allocates nothing.
struct RngWitnessScratch {
  struct SortedEdge {
    double value;  ///< M::link_value of the link
    std::uint32_t x, y;
  };
  std::vector<SortedEdge> edges;
  std::vector<std::uint64_t> better;
  std::vector<std::uint64_t> dropped;
};

/// QoS Relative-Neighborhood-Graph reduction of a local view, the topology
/// filter of Moraru & Simplot-Ryl (WONS 2006) that the paper uses as its
/// second baseline.
///
/// The classic RNG (Toussaint 1980) drops edge (x,y) when some witness z is
/// strictly closer to both endpoints: max(d(x,z), d(z,y)) < d(x,y).
/// Generalized to a QoS weight, (x,y) is dropped when some common neighbor z
/// in the view has *both* links strictly better than (x,y):
///
///   bandwidth: min(bw(x,z), bw(z,y)) > bw(x,y)
///   delay:     max(D(x,z),  D(z,y))  < D(x,y)
///
/// Both are instances of `better(q(x,z), q(x,y)) ∧ better(q(z,y), q(x,y))`.
/// Strictness makes the filter deterministic and keeps at least one best
/// link per witness-clique (ties never remove each other).
///
/// The test runs as one best-first sweep. For a fixed edge value b,
/// `M::better(a, b)` only turns on as a improves, and its tolerance band
/// only widens as b worsens, so the links strictly better than each edge
/// form a prefix of the best-first order that grows along the sweep. Before
/// testing an edge the sweep sets the bit-row entries of that prefix; the
/// edge (x,y) then has a witness iff `row[x] & row[y]` is nonzero (neither
/// x nor y can be in the AND: (x,y) is not better than itself). Ties in the
/// sort order are never in each other's prefix, so the result does not
/// depend on how the sort orders them. Cost: O(m log m + m·n/64).
///
/// Writes the filtered copy of `view` into `out` (the original is
/// untouched); `out`'s storage is reused.
template <Metric M>
void rng_reduce(const LocalView& view, LocalView& out,
                RngWitnessScratch& scratch) {
  const auto n = static_cast<std::uint32_t>(view.size());
  const std::size_t words = (n + 63) / 64;
  auto& edges = scratch.edges;
  edges.clear();
  for (std::uint32_t x = 0; x < n; ++x)
    for (const LocalView::LocalEdge& e : view.neighbors(x))
      if (e.to > x) edges.push_back({M::link_value(e.qos), x, e.to});
  std::sort(edges.begin(), edges.end(),
            [](const RngWitnessScratch::SortedEdge& a,
               const RngWitnessScratch::SortedEdge& b) {
              return M::raw_better(a.value, b.value);
            });

  auto& better = scratch.better;
  auto& dropped = scratch.dropped;
  better.assign(n * words, 0);
  dropped.assign(n * words, 0);
  const auto set_bit = [words](std::vector<std::uint64_t>& rows,
                               std::uint32_t row, std::uint32_t col) {
    rows[row * words + col / 64] |= std::uint64_t{1} << (col % 64);
  };
  std::size_t prefix = 0;  // edges[0, prefix) are in the bit rows
  for (const RngWitnessScratch::SortedEdge& e : edges) {
    for (; prefix < edges.size() && M::better(edges[prefix].value, e.value);
         ++prefix) {
      set_bit(better, edges[prefix].x, edges[prefix].y);
      set_bit(better, edges[prefix].y, edges[prefix].x);
    }
    const std::uint64_t* const row_x = better.data() + e.x * words;
    const std::uint64_t* const row_y = better.data() + e.y * words;
    for (std::size_t w = 0; w < words; ++w) {
      if ((row_x[w] & row_y[w]) != 0) {
        set_bit(dropped, e.x, e.y);
        set_bit(dropped, e.y, e.x);
        break;
      }
    }
  }

  out = view;
  out.retain_edges([&](std::uint32_t from, const LocalView::LocalEdge& e) {
    return ((dropped[from * words + e.to / 64] >> (e.to % 64)) & 1) == 0;
  });
}

}  // namespace qolsr
