// Router tests: every tool must produce validated routings on every
// architecture; SABRE-specific behaviours (trials, fixed initial mapping,
// observer, lookahead decay) are exercised directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "arch/architectures.hpp"
#include "circuit/dag.hpp"
#include "circuit/qasm.hpp"
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
            // Candidates reach the observer once each, in ascending edge
            // order, whatever order the router scored them in.
            for (std::size_t i = 1; i < d.scores.size(); ++i) {
                EXPECT_LT(d.scores[i - 1].candidate, d.scores[i].candidate);
            }
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

TEST(sabre, rejects_lookahead_decay_outside_unit_interval) {
    // Outside [0, 1] (NaN included) is an error at every SABRE entry
    // point, not a silent fallback to uniform weights.
    const distance_provider dist(arch::line(3).coupling);
    circuit logical(3);
    logical.append(gate::cx(0, 2));
    const mapping initial = mapping::identity(3, 3);
    for (const double decay : {1.5, -0.1, std::nan("")}) {
        router::sabre_options options;
        options.lookahead_decay = decay;
        EXPECT_THROW((void)router::route_sabre(logical, dist, options), std::invalid_argument)
            << decay;
        EXPECT_THROW((void)router::route_sabre_with_initial(logical, dist, initial, options),
                     std::invalid_argument)
            << decay;
        EXPECT_THROW((void)router::sabre_final_mapping(logical, dist, initial, options),
                     std::invalid_argument)
            << decay;
    }
    for (const double decay : {0.0, 1.0}) {
        router::sabre_options options;
        options.lookahead_decay = decay;
        EXPECT_TRUE(validate_routed(logical,
                                    router::route_sabre_with_initial(logical, dist, initial,
                                                                     options),
                                    dist.coupling())
                        .valid);
    }
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

    // The buffer-reusing variant resets only the `seen` entries it set;
    // over a whole execution sequence (one buffer set, several limits,
    // every frontier state) it must return exactly what the allocating
    // one does and leave `seen` all-zero.
    const circuit logical = random_circuit(12, 300, 41);
    const gate_dag long_dag(logical);
    frontier.reset(long_dag);
    std::vector<int> out;
    std::vector<char> seen;
    std::vector<int> queue;
    std::size_t states = 0;
    while (!frontier.done()) {
        for (const int limit : {1, 5, 20, 1000}) {
            frontier.lookahead_set(limit, out, seen, queue);
            EXPECT_EQ(out, frontier.lookahead_set(limit)) << "limit " << limit;
            EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 0) << "limit " << limit;
        }
        frontier.execute(frontier.front().back());
        ++states;
    }
    EXPECT_EQ(states, static_cast<std::size_t>(long_dag.num_nodes()));
}

TEST(router_common, candidate_swaps_emit_each_incident_edge_once) {
    // The generator leaves its output unordered; as a set it must be every
    // coupling edge touching a front-gate operand, each exactly once.
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const circuit logical = random_circuit(device.num_qubits(), 400, 19);
    const gate_dag dag(logical);
    router::dag_frontier frontier(dag);
    rng random(3);
    const mapping current = mapping::random(device.num_qubits(), device.num_qubits(), random);
    router::candidate_marks marks;
    std::vector<edge> out;
    while (!frontier.done()) {
        router::candidate_swaps(frontier.front(), dag, dist, current, marks, out);
        std::set<edge> expected;
        for (const int node : frontier.front()) {
            const gate& g = dag.node_gate(node);
            for (const int q : {g.q0, g.q1}) {
                const int p = current.physical(q);
                for (const int pn : device.coupling.neighbors(p)) expected.insert(edge(p, pn));
            }
        }
        std::vector<edge> sorted = out;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, std::vector<edge>(expected.begin(), expected.end()));
        frontier.execute(frontier.front().front());
    }
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

// --- golden routed-output pins ------------------------------------------------
//
// Every other identity test here is relative (scalar vs dispatched, lazy vs
// dense, 1 vs N threads): a rewrite of the decision loop that changed
// decisions identically on both sides would pass all of them. These pins
// are absolute: swap count plus an FNV-1a-64 fingerprint of the emitted
// QASM and the initial mapping, recorded from the reference
// implementation. They hold under every score backend and distance mode.

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t routed_fingerprint(const routed_circuit& routed) {
    std::string text = qasm::write(routed.physical);
    text += "initial:";
    for (const int p : routed.initial.program_to_physical()) text += std::to_string(p) + ",";
    return fnv1a(text);
}

core::benchmark_instance golden_instance(const arch::architecture& device, int swaps,
                                         int gates, std::uint64_t seed) {
    core::generator_options options;
    options.num_swaps = swaps;
    options.seed = seed;
    options.total_two_qubit_gates = gates;
    return core::generate(device, options);
}

struct golden_pin {
    const char* label;
    std::size_t swaps;
    std::uint64_t fingerprint;
};

void expect_pin(const golden_pin& pin, const routed_circuit& routed) {
    EXPECT_EQ(routed.swap_count(), pin.swaps) << pin.label;
    EXPECT_EQ(routed_fingerprint(routed), pin.fingerprint)
        << pin.label << ": fingerprint 0x" << std::hex << routed_fingerprint(routed);
}

TEST(golden_routes, lightsabre_on_three_devices_at_two_lookahead_decays) {
    const std::vector<std::pair<const char*, int>> devices = {
        {"aspen4", 150}, {"sycamore54", 300}, {"eagle127", 400}};
    const std::vector<golden_pin> pins = {
        {"aspen4 decay=1.0", 55, 0x08e051a9b897e52fULL},
        {"aspen4 decay=0.5", 74, 0xa51ee80447545319ULL},
        {"sycamore54 decay=1.0", 234, 0x29652747a30e2f38ULL},
        {"sycamore54 decay=0.5", 313, 0xf08452f7b3850172ULL},
        {"eagle127 decay=1.0", 1840, 0xbab0b8699a3342e3ULL},
        {"eagle127 decay=0.5", 2207, 0x5f5339439bd72182ULL},
    };
    std::size_t next = 0;
    for (const auto& [name, gates] : devices) {
        const auto device = arch::by_name(name);
        const auto instance = golden_instance(device, 6, gates, 31);
        for (const double decay : {1.0, 0.5}) {
            const auto tool = tools::make_tool(
                "lightsabre", json::object{{"trials", 4}, {"lookahead_decay", decay}});
            expect_pin(pins[next++], tool.run(instance.logical, device.coupling));
        }
    }
}

TEST(golden_routes, sabre_with_initial_tket_and_mlqls) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const auto instance = golden_instance(device, 5, 250, 47);
    expect_pin({"sabre_with_initial", 5, 0x84af35c823047ce5ULL},
               router::route_sabre_with_initial(instance.logical, dist,
                                                instance.answer.initial));
    expect_pin({"sabre_with_identity_initial", 403, 0x8e6311c02b41ea71ULL},
               router::route_sabre_with_initial(
                   instance.logical, dist,
                   mapping::identity(instance.logical.num_qubits(), device.num_qubits())));
    expect_pin({"tket", 264, 0x75318bd1fbc6721bULL}, tools::make_tool("tket").run(instance.logical, device.coupling));
    expect_pin({"mlqls", 132, 0xe86ccb7ead6879daULL},
               tools::make_tool("mlqls").run(instance.logical, device.coupling));
}

}  // namespace
}  // namespace qubikos
