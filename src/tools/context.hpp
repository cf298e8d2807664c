// Shared per-device routing context.
//
// Every heuristic router needs coupling-graph distances; historically
// each routing call rebuilt them from scratch (O(V*(V+E)) per circuit —
// measurable against small circuits, pure waste in a (tool x instance)
// grid that routes hundreds of circuits on one device). A
// routing_context builds a distance_provider once per device and every
// registry-made tool bound to the context reuses it. tools::make_tool is
// the one place that checks the context matches() the graph a tool is
// handed; on a mismatch the tool builds its own provider for that call,
// so sharing is purely an optimization — results are bit-identical
// either way. Small devices get the dense matrix; above the
// distance_options threshold (or under QUBIKOS_LAZY_DIST) the provider
// serves lazily cached BFS rows, so a thousand-qubit synthetic device
// never materializes O(V^2).
#pragma once

#include <memory>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos::tools {

/// Immutable per-device precomputations shared by registry tools. The
/// provider owns a copy of the coupling graph, so the context never
/// dangles.
class routing_context {
public:
    explicit routing_context(const graph& coupling,
                             distance_options options = distance_options::from_env());

    [[nodiscard]] const graph& coupling() const { return dist_.coupling(); }
    [[nodiscard]] const distance_provider& distances() const { return dist_; }

    /// True when the provider serves lazily cached BFS rows instead of a
    /// dense matrix (serve telemetry and benches report this).
    [[nodiscard]] bool lazy_distances() const { return dist_.is_lazy(); }

    /// True when `g` is the graph this context was built from (vertex
    /// count and edge list compared — O(E), negligible next to routing).
    /// A logically-equal graph with a different edge insertion order
    /// reports false; the tool then computes its own distances, trading
    /// the speedup for guaranteed correctness.
    [[nodiscard]] bool matches(const graph& g) const;

private:
    distance_provider dist_;
};

/// Convenience: the shared_ptr form every tool factory consumes.
[[nodiscard]] std::shared_ptr<const routing_context> make_routing_context(const graph& coupling);

/// Explicit-policy overload (dense/lazy/threshold); the default reads
/// QUBIKOS_LAZY_DIST.
[[nodiscard]] std::shared_ptr<const routing_context> make_routing_context(
    const graph& coupling, distance_options options);

}  // namespace qubikos::tools
