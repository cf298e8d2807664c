// QMAP-style heuristic mapper (Zulehner/Wille lineage [33]).
//
// The circuit is partitioned into dependency layers; for each layer an A*
// search over swap sequences transforms the current mapping into one where
// every layer gate is executable. The heuristic is the admissible
// "each swap fixes at most two distance units" bound plus a discounted
// lookahead on the next layer (which makes the search fast but the overall
// result heuristic — the behaviour the paper measures). The search is
// node-capped; on exhaustion a greedy best-swap loop with a forced-routing
// backstop finishes the layer, mirroring how the real tool degrades on
// large devices.
#pragma once

#include <cstddef>

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"

namespace qubikos::router {

struct qmap_options {
    /// A* node budget per layer before falling back to greedy routing.
    std::size_t node_limit = 20000;
    /// Weight of the next-layer lookahead term (0 disables it).
    double lookahead_weight = 0.75;
    /// Initial placement only sees this many leading two-qubit gates —
    /// Zulehner-style mappers derive the start mapping from the first
    /// layers, not the global interaction graph (0 = whole circuit).
    std::size_t placement_window = 25;
};

struct qmap_stats {
    std::size_t layers = 0;
    std::size_t astar_solved_layers = 0;
    std::size_t fallback_layers = 0;
    std::size_t expanded_nodes = 0;
};

/// Routes on `dist.coupling()` from a windowed greedy placement.
[[nodiscard]] routed_circuit route_qmap(const circuit& logical, const distance_provider& dist,
                                        const qmap_options& options = {},
                                        qmap_stats* stats = nullptr);

/// Routing-only entry point with a caller-fixed initial mapping —
/// the standalone-router evaluation mode of Sec. IV-C.
[[nodiscard]] routed_circuit route_qmap_with_initial(const circuit& logical,
                                                     const distance_provider& dist,
                                                     const mapping& initial,
                                                     const qmap_options& options = {},
                                                     qmap_stats* stats = nullptr);

}  // namespace qubikos::router
