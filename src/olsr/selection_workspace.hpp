#pragma once

#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "graph/rng_reduction.hpp"
#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"

namespace qolsr {

/// Per-thread scratch bundle for the selection heuristics (FNBP, QOLSR
/// MPR-1/2, RFC 3626 MPR, topology filtering). All vectors are sized to the
/// local view being processed and reused across calls, so running a
/// selection on every node of every sampled topology allocates nothing in
/// steady state (see DESIGN.md §5).
///
/// One instance per worker thread; the fields are owned by whichever
/// heuristic is currently running and carry no state between calls.
struct SelectionWorkspace {
  DijkstraWorkspace dijkstra;   ///< compute_first_hops' path-engine scratch
  FirstHopTable first_hops;     ///< reused fP table (fp lists keep capacity)
  LocalView reduced_view;       ///< topology filtering's RNG-reduced copy
  RngWitnessScratch rng_witness;  ///< rng_reduce's sorted edges + bit rows
  std::vector<std::uint8_t> in_ans;       ///< per-local selection flags
  std::vector<std::uint8_t> covered;      ///< MPR phase-2 coverage flags
  std::vector<std::uint32_t> ids;         ///< small local-id scratch list
  std::vector<std::uint32_t> cover_count; ///< MPR per-2-hop cover counts
  std::vector<double> link_value;         ///< QOLSR origin-link values
  std::vector<std::vector<std::uint32_t>> covers;  ///< MPR coverage lists

  /// Clears + resizes the MPR coverage lists without freeing row capacity.
  void reset_covers(std::size_t n) {
    if (covers.size() < n) covers.resize(n);
    for (std::size_t i = 0; i < n; ++i) covers[i].clear();
  }
};

}  // namespace qolsr
