#include "router/mlqls.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "graph/distance.hpp"
#include "router/common.hpp"
#include "util/rng.hpp"

namespace qubikos::router {

namespace {

/// Weighted interaction graph: multiplicity of two-qubit gates per pair.
struct weighted_graph {
    int num_vertices = 0;
    std::map<edge, long> weights;
    /// Vertex weights (number of original qubits merged into each).
    std::vector<int> sizes;

    [[nodiscard]] long weighted_degree(int v) const {
        long total = 0;
        for (const auto& [e, w] : weights) {
            if (e.a == v || e.b == v) total += w;
        }
        return total;
    }
};

weighted_graph build_interaction(const circuit& logical) {
    weighted_graph g;
    g.num_vertices = logical.num_qubits();
    g.sizes.assign(static_cast<std::size_t>(logical.num_qubits()), 1);
    for (const auto& gt : logical.gates()) {
        if (gt.is_two_qubit()) ++g.weights[edge(gt.q0, gt.q1)];
    }
    return g;
}

/// One coarsening level: heavy-edge matching, heaviest edges first.
/// coarse_of maps fine vertex -> coarse vertex.
struct coarse_level {
    weighted_graph coarse;
    std::vector<int> coarse_of;
};

coarse_level coarsen(const weighted_graph& fine) {
    std::vector<std::pair<long, edge>> by_weight;
    by_weight.reserve(fine.weights.size());
    for (const auto& [e, w] : fine.weights) by_weight.emplace_back(w, e);
    std::sort(by_weight.begin(), by_weight.end(), [](const auto& a, const auto& b) {
        return a.first > b.first || (a.first == b.first && a.second < b.second);
    });

    std::vector<int> match(static_cast<std::size_t>(fine.num_vertices), -1);
    for (const auto& [w, e] : by_weight) {
        (void)w;
        if (match[static_cast<std::size_t>(e.a)] == -1 &&
            match[static_cast<std::size_t>(e.b)] == -1) {
            match[static_cast<std::size_t>(e.a)] = e.b;
            match[static_cast<std::size_t>(e.b)] = e.a;
        }
    }

    coarse_level level;
    level.coarse_of.assign(static_cast<std::size_t>(fine.num_vertices), -1);
    int next = 0;
    for (int v = 0; v < fine.num_vertices; ++v) {
        if (level.coarse_of[static_cast<std::size_t>(v)] != -1) continue;
        const int partner = match[static_cast<std::size_t>(v)];
        level.coarse_of[static_cast<std::size_t>(v)] = next;
        int size = fine.sizes[static_cast<std::size_t>(v)];
        if (partner != -1 && partner > v) {
            level.coarse_of[static_cast<std::size_t>(partner)] = next;
            size += fine.sizes[static_cast<std::size_t>(partner)];
        }
        level.coarse.sizes.push_back(size);
        ++next;
    }
    level.coarse.num_vertices = next;
    for (const auto& [e, w] : fine.weights) {
        const int ca = level.coarse_of[static_cast<std::size_t>(e.a)];
        const int cb = level.coarse_of[static_cast<std::size_t>(e.b)];
        if (ca != cb) level.coarse.weights[edge(ca, cb)] += w;
    }
    return level;
}

/// Placement objective: sum of weight * distance over interaction edges.
long placement_cost(const weighted_graph& g, const std::vector<int>& position,
                    const distance_provider& dist) {
    long cost = 0;
    for (const auto& [e, w] : g.weights) {
        cost += w * dist(position[static_cast<std::size_t>(e.a)],
                         position[static_cast<std::size_t>(e.b)]);
    }
    return cost;
}

/// Greedy placement of a (coarse) weighted graph: heaviest vertex on the
/// highest-degree physical qubit, then each next vertex minimizing
/// weighted distance to placed partners.
std::vector<int> place_coarse(const weighted_graph& g, const graph& coupling,
                              const distance_provider& dist) {
    std::vector<int> order(static_cast<std::size_t>(g.num_vertices));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return g.weighted_degree(a) > g.weighted_degree(b);
    });

    std::vector<int> position(static_cast<std::size_t>(g.num_vertices), -1);
    std::vector<char> used(static_cast<std::size_t>(coupling.num_vertices()), 0);
    for (const int v : order) {
        long best_cost = 0;
        int best = -1;
        for (int p = 0; p < coupling.num_vertices(); ++p) {
            if (used[static_cast<std::size_t>(p)]) continue;
            long cost = 0;
            for (const auto& [e, w] : g.weights) {
                int partner = -1;
                if (e.a == v) partner = e.b;
                if (e.b == v) partner = e.a;
                if (partner == -1) continue;
                const int pp = position[static_cast<std::size_t>(partner)];
                if (pp != -1) cost += w * dist(p, pp);
            }
            const long score = cost * 1024 - coupling.degree(p);
            if (best == -1 || score < best_cost) {
                best = p;
                best_cost = score;
            }
        }
        // best == -1 only when the coupling graph has fewer qubits than the
        // (coarse) interaction graph has vertices; leave the vertex unplaced
        // rather than scribble at used[-1].
        position[static_cast<std::size_t>(v)] = best;
        if (best >= 0) used[static_cast<std::size_t>(best)] = 1;
    }
    return position;
}

/// Pairwise-exchange hill climbing over placed positions (also considers
/// moving to free physical qubits).
void refine(const weighted_graph& g, std::vector<int>& position, const graph& coupling,
            const distance_provider& dist, int sweeps, rng& random) {
    std::vector<int> holder(static_cast<std::size_t>(coupling.num_vertices()), -1);
    const auto rebuild_holder = [&]() {
        std::fill(holder.begin(), holder.end(), -1);
        for (int v = 0; v < g.num_vertices; ++v) {
            holder[static_cast<std::size_t>(position[static_cast<std::size_t>(v)])] = v;
        }
    };
    rebuild_holder();

    long current = placement_cost(g, position, dist);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
        bool improved = false;
        auto vertex_order = random.permutation(g.num_vertices);
        for (const int v : vertex_order) {
            const int pv = position[static_cast<std::size_t>(v)];
            // Try every physical location (swap with occupant or move to a
            // free one).
            for (int p = 0; p < coupling.num_vertices(); ++p) {
                if (p == pv) continue;
                const int other = holder[static_cast<std::size_t>(p)];
                position[static_cast<std::size_t>(v)] = p;
                if (other != -1) position[static_cast<std::size_t>(other)] = pv;
                const long cost = placement_cost(g, position, dist);
                if (cost < current) {
                    current = cost;
                    improved = true;
                    holder[static_cast<std::size_t>(p)] = v;
                    holder[static_cast<std::size_t>(pv)] = other;
                    break;
                }
                position[static_cast<std::size_t>(v)] = pv;
                if (other != -1) position[static_cast<std::size_t>(other)] = p;
            }
        }
        if (!improved) break;
    }
}

}  // namespace

namespace {

/// One full V-cycle: coarsen, place, uncoarsen, refine. Returns the final
/// fine-level placement (program qubit -> physical qubit).
std::vector<int> multilevel_placement(const circuit& logical, const graph& coupling,
                                      const distance_provider& dist, const mlqls_options& options,
                                      rng& random) {
    // 1. Coarsening chain.
    std::vector<weighted_graph> graphs{build_interaction(logical)};
    std::vector<std::vector<int>> coarse_maps;
    while (graphs.back().num_vertices > options.coarsest_size) {
        coarse_level level = coarsen(graphs.back());
        if (level.coarse.num_vertices == graphs.back().num_vertices) break;  // no progress
        coarse_maps.push_back(std::move(level.coarse_of));
        graphs.push_back(std::move(level.coarse));
    }

    // 2. Coarsest placement.
    std::vector<int> position = place_coarse(graphs.back(), coupling, dist);
    refine(graphs.back(), position, coupling, dist, options.refine_sweeps, random);

    // 3. Uncoarsen + refine.
    for (std::size_t level = coarse_maps.size(); level > 0; --level) {
        const auto& coarse_of = coarse_maps[level - 1];
        const weighted_graph& fine = graphs[level - 1];
        std::vector<int> fine_position(static_cast<std::size_t>(fine.num_vertices), -1);
        std::vector<char> used(static_cast<std::size_t>(coupling.num_vertices()), 0);

        // First fine vertex of each coarse vertex inherits its position.
        std::vector<int> first_of(static_cast<std::size_t>(graphs[level].num_vertices), -1);
        for (int v = 0; v < fine.num_vertices; ++v) {
            const int cv = coarse_of[static_cast<std::size_t>(v)];
            if (first_of[static_cast<std::size_t>(cv)] == -1) {
                first_of[static_cast<std::size_t>(cv)] = v;
                const int cp = position[static_cast<std::size_t>(cv)];
                fine_position[static_cast<std::size_t>(v)] = cp;
                if (cp >= 0) used[static_cast<std::size_t>(cp)] = 1;
            }
        }
        // Remaining fine vertices go to the nearest free physical qubit.
        for (int v = 0; v < fine.num_vertices; ++v) {
            if (fine_position[static_cast<std::size_t>(v)] != -1) continue;
            const int anchor =
                position[static_cast<std::size_t>(coarse_of[static_cast<std::size_t>(v)])];
            int best = -1;
            for (int p = 0; p < coupling.num_vertices(); ++p) {
                if (used[static_cast<std::size_t>(p)]) continue;
                if (best == -1 || dist(anchor, p) < dist(anchor, best)) best = p;
            }
            fine_position[static_cast<std::size_t>(v)] = best;
            used[static_cast<std::size_t>(best)] = 1;
        }
        position = std::move(fine_position);
        refine(fine, position, coupling, dist, options.refine_sweeps, random);
    }
    return position;
}

}  // namespace

routed_circuit route_mlqls(const circuit& logical, const distance_provider& dist,
                           const mlqls_options& options) {
    const graph& coupling = dist.coupling();
    routed_circuit best;
    std::size_t best_swaps = std::numeric_limits<std::size_t>::max();
    const int trials = std::max(1, options.placement_trials);
    // ML-QLS refines placement with router feedback; model that with one
    // forward/backward mapping-only round from the multilevel placement.
    circuit reversed_logical(logical.num_qubits());
    for (std::size_t i = logical.size(); i > 0; --i) reversed_logical.append(logical[i - 1]);

    for (int trial = 0; trial < trials; ++trial) {
        rng random(options.seed + static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL);
        const auto position = multilevel_placement(logical, coupling, dist, options, random);
        mapping initial = mapping::from_program_to_physical(position, coupling.num_vertices());

        sabre_options routing = options.routing;
        routing.bidirectional = false;
        routing.seed = options.seed + static_cast<std::uint64_t>(trial);

        const mapping after_forward = sabre_final_mapping(logical, dist, initial, routing);
        initial = sabre_final_mapping(reversed_logical, dist, after_forward, routing);

        routed_circuit candidate = route_sabre_with_initial(logical, dist, initial, routing);
        if (candidate.swap_count() < best_swaps) {
            best_swaps = candidate.swap_count();
            best = std::move(candidate);
        }
    }
    return best;
}

}  // namespace qubikos::router
