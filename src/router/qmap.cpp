#include "router/qmap.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/dag.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/common.hpp"

namespace qubikos::router {

namespace {

/// Writes the in-progress stats through the caller's pointer (and into
/// the telemetry registry) on *every* exit path, including exceptions.
/// Previously stats were only assigned after emit.finish(), so an
/// early-exiting route left the caller's struct untouched and profile
/// tables showed zero-cost units.
struct qmap_stats_sink {
    qmap_stats* out;
    const qmap_stats& local;

    ~qmap_stats_sink() {
        if (out != nullptr) *out = local;
        if (obs::enabled()) {
            static const obs::metric_id routes = obs::counter("qmap.routes");
            static const obs::metric_id layers = obs::counter("qmap.layers");
            static const obs::metric_id astar = obs::counter("qmap.astar_solved_layers");
            static const obs::metric_id fallback = obs::counter("qmap.fallback_layers");
            static const obs::metric_id expanded = obs::counter("qmap.expanded_nodes");
            obs::add(routes);
            obs::add(layers, local.layers);
            obs::add(astar, local.astar_solved_layers);
            obs::add(fallback, local.fallback_layers);
            obs::add(expanded, local.expanded_nodes);
        }
    }
};

/// Packs a program->physical assignment into a hashable string key.
std::string pack_mapping(const mapping& m) {
    std::string key(static_cast<std::size_t>(m.num_program()) * 2, '\0');
    for (int q = 0; q < m.num_program(); ++q) {
        const int p = m.physical(q);
        key[static_cast<std::size_t>(q) * 2] = static_cast<char>(p & 0xff);
        key[static_cast<std::size_t>(q) * 2 + 1] = static_cast<char>((p >> 8) & 0xff);
    }
    return key;
}

/// Admissible heuristic, the max of two lower bounds: (a) one swap
/// improves the summed gate distance by at most 2, and (b) a single gate
/// at distance d needs at least d-1 swaps (a swap moves the pair's
/// distance by at most 1).
int admissible_h(const std::vector<std::pair<int, int>>& layer_pairs, const mapping& m,
                 const distance_provider& dist) {
    int total = 0;
    int worst = 0;
    for (const auto& [qa, qb] : layer_pairs) {
        const int need = std::max(0, dist(m.physical(qa), m.physical(qb)) - 1);
        total += need;
        worst = std::max(worst, need);
    }
    return std::max(worst, (total + 1) / 2);
}

double lookahead_h(const std::vector<std::pair<int, int>>& next_pairs, const mapping& m,
                   const distance_provider& dist, double weight) {
    if (next_pairs.empty() || weight <= 0.0) return 0.0;
    double total = 0.0;
    for (const auto& [qa, qb] : next_pairs) {
        total += std::max(0, dist(m.physical(qa), m.physical(qb)) - 1);
    }
    return weight * total / 2.0;
}

bool layer_satisfied(const std::vector<std::pair<int, int>>& layer_pairs, const mapping& m,
                     const graph& coupling) {
    for (const auto& [qa, qb] : layer_pairs) {
        if (!coupling.has_edge(m.physical(qa), m.physical(qb))) return false;
    }
    return true;
}

/// Swap candidates: edges incident to any unsatisfied gate operand.
std::vector<edge> layer_candidates(const std::vector<std::pair<int, int>>& layer_pairs,
                                   const mapping& m, const graph& coupling) {
    std::set<edge> out;
    for (const auto& [qa, qb] : layer_pairs) {
        if (coupling.has_edge(m.physical(qa), m.physical(qb))) continue;
        for (const int q : {qa, qb}) {
            const int p = m.physical(q);
            for (const int pn : coupling.neighbors(p)) out.insert(edge(p, pn));
        }
    }
    return {out.begin(), out.end()};
}

struct search_node {
    mapping state;
    int g = 0;
    int parent = -1;
    edge via;
};

/// A* for one layer; returns the swap sequence, or nullopt on node-cap.
std::optional<std::vector<edge>> astar_layer(const std::vector<std::pair<int, int>>& layer_pairs,
                                             const std::vector<std::pair<int, int>>& next_pairs,
                                             const mapping& start, const graph& coupling,
                                             const distance_provider& dist,
                                             const qmap_options& options,
                                             std::size_t* expanded) {
    std::vector<search_node> nodes;
    std::unordered_map<std::string, int> best_g;

    using queue_entry = std::pair<double, int>;  // (f, node index)
    std::priority_queue<queue_entry, std::vector<queue_entry>, std::greater<>> open;

    nodes.push_back({start, 0, -1, edge{}});
    best_g[pack_mapping(start)] = 0;
    open.emplace(admissible_h(layer_pairs, start, dist), 0);

    while (!open.empty()) {
        const auto [f, index] = open.top();
        open.pop();
        (void)f;
        const search_node current = nodes[static_cast<std::size_t>(index)];
        if (layer_satisfied(layer_pairs, current.state, coupling)) {
            std::vector<edge> swaps;
            for (int at = index; nodes[static_cast<std::size_t>(at)].parent != -1;
                 at = nodes[static_cast<std::size_t>(at)].parent) {
                swaps.push_back(nodes[static_cast<std::size_t>(at)].via);
            }
            std::reverse(swaps.begin(), swaps.end());
            return swaps;
        }
        if (nodes.size() > options.node_limit) return std::nullopt;
        ++(*expanded);

        for (const auto& cand : layer_candidates(layer_pairs, current.state, coupling)) {
            mapping next = current.state;
            next.swap_physical(cand.a, cand.b);
            const int next_g = current.g + 1;
            const std::string key = pack_mapping(next);
            const auto it = best_g.find(key);
            if (it != best_g.end() && it->second <= next_g) continue;
            best_g[key] = next_g;
            const double next_f =
                next_g + admissible_h(layer_pairs, next, dist) +
                lookahead_h(next_pairs, next, dist, options.lookahead_weight);
            nodes.push_back({std::move(next), next_g, index, cand});
            open.emplace(next_f, static_cast<int>(nodes.size()) - 1);
        }
    }
    return std::nullopt;
}

/// Greedy fallback: best single swap by heuristic until the layer is
/// satisfied; forced shortest-path routing breaks plateaus.
std::vector<edge> greedy_layer(const std::vector<std::pair<int, int>>& layer_pairs,
                               mapping state, const graph& coupling,
                               const distance_provider& dist) {
    std::vector<edge> swaps;
    int stagnation = 0;
    const std::size_t hard_cap =
        16 * (static_cast<std::size_t>(dist.diameter()) + layer_pairs.size() + 4);
    while (!layer_satisfied(layer_pairs, state, coupling)) {
        if (swaps.size() > hard_cap) {
            // Oscillation guard: finish by force-routing every remaining
            // gate along shortest paths.
            for (const auto& [qa, qb] : layer_pairs) {
                int pa = state.physical(qa);
                const int pb = state.physical(qb);
                while (!coupling.has_edge(pa, pb)) {
                    for (const int pn : coupling.neighbors(pa)) {
                        if (dist(pn, pb) < dist(pa, pb)) {
                            swaps.emplace_back(pa, pn);
                            state.swap_physical(pa, pn);
                            pa = pn;
                            break;
                        }
                    }
                }
            }
            break;
        }
        const auto candidates = layer_candidates(layer_pairs, state, coupling);
        int best_h = std::numeric_limits<int>::max();
        edge best;
        for (const auto& cand : candidates) {
            mapping next = state;
            next.swap_physical(cand.a, cand.b);
            const int h = admissible_h(layer_pairs, next, dist);
            if (h < best_h) {
                best_h = h;
                best = cand;
            }
        }
        const int current_h = admissible_h(layer_pairs, state, dist);
        if (best_h >= current_h) ++stagnation;
        if (stagnation > 4) {
            // Force the first unsatisfied gate via shortest-path swaps.
            for (const auto& [qa, qb] : layer_pairs) {
                int pa = state.physical(qa);
                const int pb = state.physical(qb);
                while (!coupling.has_edge(pa, pb)) {
                    for (const int pn : coupling.neighbors(pa)) {
                        if (dist(pn, pb) < dist(pa, pb)) {
                            swaps.emplace_back(pa, pn);
                            state.swap_physical(pa, pn);
                            pa = pn;
                            break;
                        }
                    }
                }
            }
            stagnation = 0;
            continue;
        }
        swaps.push_back(best);
        state.swap_physical(best.a, best.b);
    }
    return swaps;
}

}  // namespace

routed_circuit route_qmap(const circuit& logical, const distance_provider& dist,
                          const qmap_options& options, qmap_stats* stats) {
    return route_qmap_with_initial(logical, dist,
                                   greedy_placement(logical, dist, options.placement_window),
                                   options, stats);
}

routed_circuit route_qmap_with_initial(const circuit& logical, const distance_provider& dist,
                                       const mapping& initial, const qmap_options& options,
                                       qmap_stats* stats) {
    const graph& coupling = dist.coupling();
    const gate_dag dag(logical);

    // Dependency layers (ASAP levels).
    const auto levels = dag.asap_levels();
    const int num_layers =
        dag.num_nodes() == 0 ? 0 : *std::max_element(levels.begin(), levels.end()) + 1;
    std::vector<std::vector<int>> layers(static_cast<std::size_t>(num_layers));
    for (int node = 0; node < dag.num_nodes(); ++node) {
        layers[static_cast<std::size_t>(levels[static_cast<std::size_t>(node)])].push_back(node);
    }

    const auto layer_pairs = [&](int layer_index) {
        std::vector<std::pair<int, int>> pairs;
        if (layer_index < 0 || layer_index >= num_layers) return pairs;
        for (const int node : layers[static_cast<std::size_t>(layer_index)]) {
            const gate& g = dag.node_gate(node);
            pairs.emplace_back(g.q0, g.q1);
        }
        return pairs;
    };

    mapping current = initial;
    emission_buffer emit(logical, dag, coupling.num_vertices());
    dag_frontier frontier(dag);
    const obs::trace_span span("qmap.route");
    qmap_stats local_stats;
    const qmap_stats_sink sink{stats, local_stats};
    local_stats.layers = static_cast<std::size_t>(num_layers);

    for (int layer = 0; layer < num_layers; ++layer) {
        const auto pairs = layer_pairs(layer);
        const auto next_pairs = layer_pairs(layer + 1);

        std::vector<edge> swaps;
        if (!layer_satisfied(pairs, current, coupling)) {
            auto found = astar_layer(pairs, next_pairs, current, coupling, dist, options,
                                     &local_stats.expanded_nodes);
            if (found.has_value()) {
                ++local_stats.astar_solved_layers;
                swaps = std::move(*found);
            } else {
                ++local_stats.fallback_layers;
                swaps = greedy_layer(pairs, current, coupling, dist);
            }
        } else {
            ++local_stats.astar_solved_layers;
        }

        // Replay the swap sequence, executing layer gates eagerly as they
        // become adjacent (they are dependency-independent, so early
        // execution is always valid). Any gate still stranded afterwards
        // is force-routed — this keeps the result valid even when the
        // fallback returned an incomplete sequence.
        std::vector<int> pending = layers[static_cast<std::size_t>(layer)];
        const auto execute_adjacent = [&]() {
            for (std::size_t i = 0; i < pending.size();) {
                const gate& g = dag.node_gate(pending[i]);
                if (coupling.has_edge(current.physical(g.q0), current.physical(g.q1))) {
                    emit.execute_two_qubit(pending[i], current);
                    frontier.execute(pending[i]);
                    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
        };
        execute_adjacent();
        for (const auto& s : swaps) {
            if (pending.empty()) break;
            emit.emit_swap(s.a, s.b);
            current.swap_physical(s.a, s.b);
            execute_adjacent();
        }
        while (!pending.empty()) {
            force_route(pending.front(), dag, dist, current, emit);
            execute_adjacent();
        }
    }

    emit.finish(current);

    routed_circuit out;
    out.initial = initial;
    out.physical = emit.take();
    return out;
}

}  // namespace qubikos::router
