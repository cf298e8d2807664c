// ML-QLS-style multilevel layout synthesis (Lin & Cong [27]).
//
// The multilevel skeleton:
//   1. coarsen the weighted interaction graph by heavy-edge matching
//      until it is small;
//   2. place the coarsest graph greedily on the device;
//   3. uncoarsen level by level, splitting merged qubits onto nearby
//      free physical qubits and refining the placement by pairwise-swap
//      hill climbing on the weighted-distance objective;
//   4. route with a SABRE-style pass from the refined initial mapping.
// The quality lever versus plain SABRE is the global placement; the paper
// finds it competitive with LightSABRE except on the largest device.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "router/sabre.hpp"

namespace qubikos::router {

struct mlqls_options {
    /// Stop coarsening at this many coarse vertices.
    int coarsest_size = 8;
    /// Hill-climbing sweeps per uncoarsening level.
    int refine_sweeps = 3;
    /// Full V-cycles with different refinement orders; the best routed
    /// result is kept (ML-QLS iterates placement with router feedback).
    int placement_trials = 4;
    /// Options for the final SABRE-style routing pass.
    sabre_options routing;
    std::uint64_t seed = 1;
};

/// Routes on `dist.coupling()` (multilevel placement, then SABRE).
[[nodiscard]] routed_circuit route_mlqls(const circuit& logical, const distance_provider& dist,
                                         const mlqls_options& options = {});

}  // namespace qubikos::router
