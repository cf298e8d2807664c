#include "router/tket.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "circuit/dag.hpp"
#include "router/common.hpp"

namespace qubikos::router {

namespace {

/// Partitions the not-yet-executed DAG nodes into ASAP slices relative to
/// the current execution state: slice 0 is the front layer, slice s the
/// gates that become ready once slices < s finish. Node index order is a
/// topological order, so one forward sweep suffices.
std::vector<std::vector<int>> upcoming_slices(const gate_dag& dag, const dag_frontier& frontier,
                                              int max_slices) {
    std::vector<std::vector<int>> slices;
    std::vector<int> level(static_cast<std::size_t>(dag.num_nodes()), -1);
    for (int node = 0; node < dag.num_nodes(); ++node) {
        if (frontier.executed(node)) continue;
        int lvl = 0;
        for (const int pred : dag.preds(node)) {
            if (frontier.executed(pred)) continue;
            lvl = std::max(lvl, level[static_cast<std::size_t>(pred)] + 1);
        }
        level[static_cast<std::size_t>(node)] = lvl;
        if (lvl < max_slices) {
            if (static_cast<int>(slices.size()) <= lvl) {
                slices.resize(static_cast<std::size_t>(lvl) + 1);
            }
            slices[static_cast<std::size_t>(lvl)].push_back(node);
        }
    }
    return slices;
}

}  // namespace

routed_circuit route_tket(const circuit& logical, const distance_provider& dist,
                          const tket_options& options) {
    return route_tket_with_initial(logical, dist,
                                   greedy_placement(logical, dist, options.placement_window),
                                   options);
}

routed_circuit route_tket_with_initial(const circuit& logical, const distance_provider& dist,
                                       const mapping& initial, const tket_options& options) {
    const graph& coupling = dist.coupling();
    const gate_dag dag(logical);

    mapping current = initial;
    dag_frontier frontier(dag);
    emission_buffer emit(logical, dag, coupling.num_vertices());
    const int stagnation_limit =
        options.stagnation_limit > 0 ? options.stagnation_limit : 3 * dist.diameter() + 20;
    int swaps_since_progress = 0;
    edge last_swap;
    std::vector<edge> candidates;  // reused across decision points

    const auto gate_distance_after = [&](int node, int pa, int pb) {
        const gate& g = dag.node_gate(node);
        auto moved = [pa, pb](int p) { return p == pa ? pb : (p == pb ? pa : p); };
        return dist(moved(current.physical(g.q0)), moved(current.physical(g.q1)));
    };

    while (!frontier.done()) {
        // Execute every executable front gate.
        bool progressed = false;
        bool executed_any = true;
        while (executed_any) {
            executed_any = false;
            const std::vector<int> front_copy = frontier.front();
            for (const int node : front_copy) {
                const gate& g = dag.node_gate(node);
                if (coupling.has_edge(current.physical(g.q0), current.physical(g.q1))) {
                    emit.execute_two_qubit(node, current);
                    frontier.execute(node);
                    executed_any = true;
                    progressed = true;
                }
            }
        }
        if (progressed) swaps_since_progress = 0;
        if (frontier.done()) break;

        if (swaps_since_progress > stagnation_limit) {
            int best_node = frontier.front().front();
            int best_distance = std::numeric_limits<int>::max();
            for (const int node : frontier.front()) {
                const gate& g = dag.node_gate(node);
                const int d = dist(current.physical(g.q0), current.physical(g.q1));
                if (d < best_distance) {
                    best_distance = d;
                    best_node = node;
                }
            }
            force_route(best_node, dag, dist, current, emit);
            swaps_since_progress = 0;
            continue;
        }

        const auto slices = upcoming_slices(dag, frontier, options.lookahead_slices);
        candidate_swaps(frontier.front(), dag, dist, current, candidates);

        double best_cost = std::numeric_limits<double>::infinity();
        edge best;
        bool found = false;
        for (const auto& cand : candidates) {
            // Never immediately undo the previous swap (2-cycle guard).
            if (swaps_since_progress > 0 && cand == last_swap) continue;
            double cost = 0.0;
            double weight = 1.0;
            for (const auto& slice : slices) {
                for (const int node : slice) {
                    cost += weight * gate_distance_after(node, cand.a, cand.b);
                }
                weight *= options.slice_discount;
            }
            if (cost < best_cost) {
                best_cost = cost;
                best = cand;
                found = true;
            }
        }
        if (!found) {
            // Every candidate excluded: fall back to forced routing.
            force_route(frontier.front().front(), dag, dist, current, emit);
            swaps_since_progress = 0;
            continue;
        }

        emit.emit_swap(best.a, best.b);
        current.swap_physical(best.a, best.b);
        last_swap = best;
        ++swaps_since_progress;
    }

    emit.finish(current);
    routed_circuit out;
    out.initial = initial;
    out.physical = emit.take();
    return out;
}

}  // namespace qubikos::router
