// Router tests: every tool must produce validated routings on every
// architecture; SABRE-specific behaviours (trials, fixed initial mapping,
// observer, lookahead decay) are exercised directly.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "circuit/dag.hpp"
#include "core/qubikos.hpp"
#include "core/queko.hpp"
#include "router/common.hpp"
#include "router/mlqls.hpp"
#include "router/qmap.hpp"
#include "router/sabre.hpp"
#include "router/score_kernel.hpp"
#include "router/tket.hpp"
#include "tools/registry.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

/// Random circuit with both 1q and 2q gates.
circuit random_circuit(int num_qubits, int gates, std::uint64_t seed) {
    rng random(seed);
    circuit c(num_qubits);
    for (int i = 0; i < gates; ++i) {
        if (random.chance(0.2)) {
            c.append(gate::h(random.range(0, num_qubits - 1)));
            continue;
        }
        const int a = random.range(0, num_qubits - 1);
        const int b = random.range(0, num_qubits - 1);
        if (a != b) c.append(gate::cx(a, b));
    }
    return c;
}

struct router_case {
    const char* arch;
    int gates;
    std::uint64_t seed;
};

void PrintTo(const router_case& c, std::ostream* os) {
    *os << c.arch << "/" << c.gates << "g/s" << c.seed;
}

class all_routers : public ::testing::TestWithParam<router_case> {};

TEST_P(all_routers, produce_valid_routings) {
    const auto& param = GetParam();
    const auto device = arch::by_name(param.arch);
    const distance_provider dist(device.coupling);
    const circuit logical = random_circuit(device.num_qubits(), param.gates, param.seed);

    router::sabre_options sabre;
    sabre.trials = 2;
    const auto results = {
        std::pair{"sabre", router::route_sabre(logical, dist, sabre)},
        std::pair{"tket", router::route_tket(logical, dist)},
        std::pair{"qmap", router::route_qmap(logical, dist)},
        std::pair{"mlqls", router::route_mlqls(logical, dist, router::mlqls_options{})},
    };
    for (const auto& [name, routed] : results) {
        const auto report = validate_routed(logical, routed, device.coupling);
        EXPECT_TRUE(report.valid) << name << " on " << device.name << ": " << report.error;
    }
}

INSTANTIATE_TEST_SUITE_P(sweep, all_routers,
                         ::testing::Values(router_case{"line4", 20, 1},
                                           router_case{"line8", 40, 2},
                                           router_case{"ring7", 40, 3},
                                           router_case{"grid3x3", 60, 4},
                                           router_case{"aspen4", 80, 5},
                                           router_case{"rochester53", 120, 6},
                                           router_case{"sycamore54", 120, 7}));

TEST(sabre, executable_in_place_circuit_needs_no_swaps) {
    // A QUEKO circuit is executable under its hidden mapping; SABRE given
    // that mapping must insert zero swaps.
    const auto device = arch::grid(3, 3);
    const distance_provider dist(device.coupling);
    const auto queko = core::generate_queko(device, {.depth = 10, .density = 0.6, .seed = 3});
    const auto routed = router::route_sabre_with_initial(queko.logical, dist, queko.hidden_mapping);
    EXPECT_EQ(routed.swap_count(), 0u);
    EXPECT_TRUE(validate_routed(queko.logical, routed, device.coupling).valid);
}

TEST(sabre, more_trials_never_worse) {
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 17;
    options.total_two_qubit_gates = 150;
    const auto instance = core::generate(device, options);

    router::sabre_options one;
    one.trials = 1;
    one.seed = 5;
    router::sabre_options many = one;
    many.trials = 16;
    const auto few = router::route_sabre(instance.logical, dist, one);
    const auto lots = router::route_sabre(instance.logical, dist, many);
    EXPECT_LE(lots.swap_count(), few.swap_count());
    EXPECT_GE(lots.swap_count(), static_cast<std::size_t>(instance.optimal_swaps));
}

TEST(sabre, stats_and_observer) {
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options options;
    options.num_swaps = 3;
    options.seed = 2;
    options.total_two_qubit_gates = 80;
    const auto instance = core::generate(device, options);

    router::sabre_stats stats;
    std::size_t observed = 0;
    const auto routed = router::route_sabre_with_initial(
        instance.logical, dist, instance.answer.initial, {},
        [&observed](const router::sabre_decision& d) {
            ++observed;
            EXPECT_FALSE(d.front_nodes.empty());
            EXPECT_FALSE(d.scores.empty());
            // The chosen swap must be among the scored candidates, with
            // the minimal total.
            double best = 1e18;
            double chosen_total = -1;
            for (const auto& s : d.scores) {
                best = std::min(best, s.total());
                if (s.candidate == d.chosen) chosen_total = s.total();
            }
            EXPECT_NEAR(chosen_total, best, 1e-9);
        },
        &stats);
    EXPECT_EQ(stats.best_swaps, routed.swap_count());
    EXPECT_EQ(observed, routed.swap_count());  // one decision per emitted swap
}

TEST(sabre, lookahead_decay_produces_valid_routings) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    core::generator_options options;
    options.num_swaps = 5;
    options.seed = 4;
    options.total_two_qubit_gates = 300;
    const auto instance = core::generate(device, options);
    for (const double decay : {1.0, 0.8, 0.5, 0.2}) {
        router::sabre_options sabre;
        sabre.trials = 2;
        sabre.lookahead_decay = decay;
        const auto routed = router::route_sabre(instance.logical, dist, sabre);
        EXPECT_TRUE(validate_routed(instance.logical, routed, device.coupling).valid)
            << "decay " << decay;
    }
}

TEST(sabre, rejects_bad_trials) {
    const distance_provider dist(arch::line(2).coupling);
    EXPECT_THROW((void)router::route_sabre(circuit(2), dist, {.trials = 0}), std::invalid_argument);
}

TEST(qmap, stats_reflect_layers) {
    const auto device = arch::grid(3, 3);
    const distance_provider dist(device.coupling);
    const circuit logical = random_circuit(9, 40, 11);
    router::qmap_stats stats;
    const auto routed = router::route_qmap(logical, dist, {}, &stats);
    EXPECT_TRUE(validate_routed(logical, routed, device.coupling).valid);
    EXPECT_GT(stats.layers, 0u);
    EXPECT_EQ(stats.layers, stats.astar_solved_layers + stats.fallback_layers);
}

TEST(routers, empty_and_single_qubit_circuits) {
    const auto device = arch::line(4);
    const distance_provider dist(device.coupling);
    circuit empty(4);
    circuit only_1q(4);
    only_1q.append(gate::h(0));
    only_1q.append(gate::rz(3, 0.25));
    for (const auto& logical : {empty, only_1q}) {
        const auto sabre = router::route_sabre(logical, dist, {.trials = 1});
        EXPECT_TRUE(validate_routed(logical, sabre, device.coupling).valid);
        EXPECT_EQ(sabre.swap_count(), 0u);
        const auto tket = router::route_tket(logical, dist);
        EXPECT_TRUE(validate_routed(logical, tket, device.coupling).valid);
        const auto qmap = router::route_qmap(logical, dist);
        EXPECT_TRUE(validate_routed(logical, qmap, device.coupling).valid);
        const auto mlqls = router::route_mlqls(logical, dist, router::mlqls_options{});
        EXPECT_TRUE(validate_routed(logical, mlqls, device.coupling).valid);
    }
}

TEST(router_common, dag_frontier_tracks_execution) {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 1));
    const gate_dag dag(c);
    router::dag_frontier frontier(dag);
    EXPECT_EQ(frontier.front(), std::vector<int>{0});
    EXPECT_FALSE(frontier.done());
    EXPECT_THROW(frontier.execute(1), std::logic_error);  // not in front
    frontier.execute(0);
    EXPECT_EQ(frontier.front(), std::vector<int>{1});
    frontier.execute(1);
    frontier.execute(2);
    EXPECT_TRUE(frontier.done());
    EXPECT_EQ(frontier.executed_count(), 3);
}

TEST(router_common, lookahead_set_respects_limit_and_order) {
    circuit c(4);
    c.append(gate::cx(0, 1));  // front
    c.append(gate::cx(1, 2));  // depth 1
    c.append(gate::cx(2, 3));  // depth 2
    c.append(gate::cx(0, 3));  // depth 3
    const gate_dag dag(c);
    router::dag_frontier frontier(dag);
    // Both node 1 (via q1) and node 3 (via q0) are direct successors of
    // the front node, so BFS discovery order is {1, 3}.
    const auto set2 = frontier.lookahead_set(2);
    EXPECT_EQ(set2, (std::vector<int>{1, 3}));
    EXPECT_TRUE(frontier.lookahead_set(0).empty());
    EXPECT_EQ(frontier.lookahead_set(100).size(), 3u);
}

TEST(router_common, greedy_placement_is_injective) {
    const auto device = arch::rochester53();
    const circuit logical = random_circuit(53, 200, 13);
    const distance_provider dist(device.coupling);
    const mapping m = router::greedy_placement(logical, dist);
    std::set<int> images;
    for (int q = 0; q < 53; ++q) images.insert(m.physical(q));
    EXPECT_EQ(images.size(), 53u);
}

TEST(router_common, force_route_makes_gate_executable) {
    const auto device = arch::line(6);
    circuit c(6);
    c.append(gate::cx(0, 5));
    const gate_dag dag(c);
    const distance_provider dist(device.coupling);
    mapping m = mapping::identity(6, 6);
    router::emission_buffer emit(c, dag, 6);
    router::force_route(0, dag, dist, m, emit);
    EXPECT_TRUE(device.coupling.has_edge(m.physical(0), m.physical(5)));
    EXPECT_EQ(emit.swaps_emitted(), 4u);  // distance 5 -> 4 swaps
}

// The score kernel's determinism contract: the dispatched backend (AVX2
// where the hardware has it) must route bit-identically to forced
// scalar, for every registered tool — a weaker promise ("close scores")
// would let vectorization silently change published swap counts.
TEST(score_kernel, all_registry_tools_route_identically_across_backends) {
    const auto device = arch::rochester53();
    const circuit logical = random_circuit(device.num_qubits(), 150, 11);
    for (const auto& name : tools::registered_tool_names()) {
        auto tool = tools::make_tool(name);
        router::force_simd_backend(router::simd_backend::scalar);
        const auto scalar_routed = tool.run(logical, device.coupling);
        router::reset_simd_backend_from_env();
        const auto dispatched_routed = tool.run(logical, device.coupling);
        EXPECT_EQ(scalar_routed.swap_count(), dispatched_routed.swap_count())
            << name << " diverged under backend "
            << router::simd_backend_name(router::active_simd_backend());
        EXPECT_TRUE(scalar_routed.physical.gates() == dispatched_routed.physical.gates())
            << name << " emitted different circuits across score backends";
    }
    router::reset_simd_backend_from_env();
}

// The lazy distance provider is an optimization, never an observable:
// every registered tool must route identically on a forced-dense and a
// forced-lazy routing context, at every thread count (concurrent trials
// race to materialize rows — first writer wins, all readers see
// identical values). This covers every lazy read path: the SABRE score
// kernel, greedy_placement, force_route and the tket/qmap/mlqls loops.
TEST(distance_provider_routing, lazy_matches_dense_at_1_2_4_threads) {
    const auto device = arch::rochester53();
    const circuit logical = random_circuit(device.num_qubits(), 200, 23);
    distance_options dense_opts;
    dense_opts.mode = distance_options::storage_mode::dense;
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    const auto dense = tools::make_routing_context(device.coupling, dense_opts);
    ASSERT_FALSE(dense->lazy_distances());
    for (const auto& name : tools::registered_tool_names()) {
        const tools::tool_info& info = tools::tool_registry_info(name);
        for (const int threads : {1, 2, 4}) {
            // Thread count only matters to tools that have the knob.
            if (threads > 1 && info.find_option("threads") == nullptr) continue;
            json::object overrides;
            if (info.find_option("trials") != nullptr) overrides["trials"] = 8;
            if (info.find_option("threads") != nullptr) overrides["threads"] = threads;
            const auto lazy = tools::make_routing_context(device.coupling, lazy_opts);
            ASSERT_TRUE(lazy->lazy_distances());
            const json::value options(std::move(overrides));
            const auto dense_routed =
                tools::make_tool(name, options, dense).run(logical, device.coupling);
            const auto lazy_routed =
                tools::make_tool(name, options, lazy).run(logical, device.coupling);
            EXPECT_GT(lazy->distances().rows_built(), 0u) << name;
            EXPECT_EQ(dense_routed.swap_count(), lazy_routed.swap_count())
                << name << ": lazy diverged from dense at threads=" << threads;
            EXPECT_TRUE(dense_routed.physical.gates() == lazy_routed.physical.gates())
                << name << ": lazy emitted a different circuit at threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace qubikos
