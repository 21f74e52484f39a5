#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "metrics/metric.hpp"

namespace qolsr {

/// Reusable scratch of rng_reduce's witness scan: one epoch-stamped dense
/// row (membership stamp + extracted link weight per local id), sized to
/// the largest view seen. One instance per worker thread.
struct RngWitnessScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<double> weight;
  std::uint32_t epoch = 0;
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
/// Writes the filtered copy of `view` into `out` (the original is
/// untouched). `out`'s storage is reused — witness tests run against the
/// unmodified `view`, so removals can be applied to `out` immediately and
/// no removal list is needed.
template <Metric M>
void rng_reduce(const LocalView& view, LocalView& out,
                RngWitnessScratch& scratch) {
  out = view;
  const auto n = static_cast<std::uint32_t>(view.size());
  if (scratch.stamp.size() < n) {
    scratch.stamp.resize(n, 0);
    scratch.weight.resize(n);
  }
  for (std::uint32_t x = 0; x < n; ++x) {
    // Stamp N(x) once; every witness probe below is then one O(1) load
    // instead of a binary search of an adjacency row (a witness must be a
    // common neighbor of both endpoints).
    if (++scratch.epoch == 0) {
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.epoch = 1;
    }
    for (const LocalView::LocalEdge& xz : view.neighbors(x)) {
      scratch.stamp[xz.to] = scratch.epoch;
      scratch.weight[xz.to] = M::link_value(xz.qos);
    }
    for (const LocalView::LocalEdge& edge : view.neighbors(x)) {
      const std::uint32_t y = edge.to;
      if (y <= x) continue;  // each undirected edge once
      const double direct = M::link_value(edge.qos);
      for (const LocalView::LocalEdge& yz : view.neighbors(y)) {
        const std::uint32_t z = yz.to;
        if (z == x || scratch.stamp[z] != scratch.epoch) continue;
        if (M::better(scratch.weight[z], direct) &&
            M::better(M::link_value(yz.qos), direct)) {
          out.remove_local_edge(x, y);
          break;
        }
      }
    }
  }
}

}  // namespace qolsr
