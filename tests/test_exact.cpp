// Tests for the exact QLS engines: hand-verifiable cases, witness
// validity, monotone feasibility, and randomized agreement between the
// SAT-based OLSQ encoding and the brute-force state search.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "circuit/routed.hpp"
#include "exact/brute.hpp"
#include "exact/olsq.hpp"
#include "graph/gen.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

/// cx(0,1), cx(1,2), cx(0,2) on a 3-line: the triangle interaction graph
/// cannot embed into a path, so at least one swap; one suffices.
circuit triangle_circuit() {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 2));
    return c;
}

TEST(olsq, zero_swap_when_embeddable) {
    circuit c(3);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(1, 2));
    const auto result = exact::solve_optimal(c, arch::line(3).coupling, {.max_swaps = 2});
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);
    EXPECT_TRUE(validate_routed(c, result.witness, arch::line(3).coupling).valid);
}

TEST(olsq, triangle_on_line_needs_one_swap) {
    const auto result =
        exact::solve_optimal(triangle_circuit(), arch::line(3).coupling, {.max_swaps = 2});
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 1);
    const auto report =
        validate_routed(triangle_circuit(), result.witness, arch::line(3).coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(report.swap_count, 1u);
}

TEST(olsq, triangle_on_ring_is_free) {
    const auto result =
        exact::solve_optimal(triangle_circuit(), arch::ring(3).coupling, {.max_swaps = 1});
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);
}

TEST(olsq, feasibility_is_monotone) {
    const circuit c = triangle_circuit();
    const graph& line = arch::line(3).coupling;
    EXPECT_EQ(exact::check_swap_count(c, line, 0), exact::feasibility::infeasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 1), exact::feasibility::feasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 2), exact::feasibility::feasible);
    EXPECT_EQ(exact::check_swap_count(c, line, 3), exact::feasibility::feasible);
}

TEST(olsq, conflict_limit_aborts) {
    // A 9-qubit instance with a tiny conflict budget must abort cleanly.
    rng random(7);
    circuit c(9);
    for (int i = 0; i < 25; ++i) {
        const int a = random.range(0, 8);
        const int b = random.range(0, 8);
        if (a != b) c.append(gate::cx(a, b));
    }
    exact::olsq_options options;
    options.max_swaps = 6;
    options.conflict_limit = 1;
    const auto result = exact::solve_optimal(c, arch::grid(3, 3).coupling, options);
    EXPECT_TRUE(result.aborted || result.solved);
}

TEST(olsq, conflicts_per_k_records_each_attempt) {
    // One entry per attempted k, and together they account for every
    // conflict the solver reported to telemetry over the call.
    rng random(11);
    circuit c(6);
    for (int i = 0; i < 16; ++i) {
        const int a = random.range(0, 5);
        const int b = random.range(0, 5);
        if (a != b) c.append(gate::cx(a, b));
    }
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    exact::olsq_options options;
    options.max_swaps = 6;
    const std::uint64_t before = obs::collect().value("sat.conflicts");
    const auto result = exact::solve_optimal(c, arch::grid(2, 3).coupling, options);
    const std::uint64_t after = obs::collect().value("sat.conflicts");
    obs::set_enabled(was_enabled);

    const int last_k = result.solved ? result.optimal_swaps : options.max_swaps;
    EXPECT_FALSE(result.aborted);
    ASSERT_EQ(result.conflicts_per_k.size(),
              static_cast<std::size_t>(last_k - options.min_swaps + 1));
    std::uint64_t sum = 0;
    for (const std::uint64_t conflicts : result.conflicts_per_k) sum += conflicts;
    EXPECT_EQ(sum, after - before);
    EXPECT_GT(sum, 0u);
}

TEST(olsq, argument_validation) {
    EXPECT_THROW((void)exact::check_swap_count(circuit(3), arch::line(3).coupling, -1),
                 std::invalid_argument);
    EXPECT_THROW((void)exact::check_swap_count(circuit(5), arch::line(3).coupling, 0),
                 std::invalid_argument);
}

TEST(olsq, witness_replays_single_qubit_gates) {
    // The witness must validate against the full logical circuit,
    // including decoration gates.
    circuit c(3);
    c.append(gate::h(0));
    c.append(gate::cx(0, 1));
    c.append(gate::rz(1, 0.25));
    c.append(gate::cx(1, 2));
    c.append(gate::cx(0, 2));
    c.append(gate::h(2));
    const auto result = exact::solve_optimal(c, arch::line(3).coupling, {.max_swaps = 2});
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 1);
    const auto report = validate_routed(c, result.witness, arch::line(3).coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(result.witness.physical.num_single_qubit_gates(), 3u);
}

TEST(brute, trivial_and_known_cases) {
    circuit empty(3);
    auto result = exact::brute_force_optimal_swaps(empty, arch::line(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);

    result = exact::brute_force_optimal_swaps(triangle_circuit(), arch::line(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 1);

    result = exact::brute_force_optimal_swaps(triangle_circuit(), arch::ring(3).coupling);
    ASSERT_TRUE(result.solved);
    EXPECT_EQ(result.optimal_swaps, 0);
}

TEST(brute, rejects_oversized_instances) {
    EXPECT_THROW(
        (void)exact::brute_force_optimal_swaps(circuit(17), arch::line(17).coupling),
        std::invalid_argument);
    circuit many(3);
    for (int i = 0; i < 70; ++i) many.append(gate::cx(i % 2, 2));
    EXPECT_THROW((void)exact::brute_force_optimal_swaps(many, arch::line(3).coupling),
                 std::invalid_argument);
}

/// Randomized agreement between the two exact engines.
class exact_agreement : public ::testing::TestWithParam<int> {};

TEST_P(exact_agreement, olsq_matches_brute_force) {
    rng random(static_cast<std::uint64_t>(GetParam()) * 31);
    for (int trial = 0; trial < 6; ++trial) {
        const int n = random.range(3, 5);
        const graph coupling = random_connected_graph(n, random.range(0, 2), random);
        circuit c(n);
        const int gates = random.range(1, 10);
        for (int i = 0; i < gates; ++i) {
            const int a = random.range(0, n - 1);
            const int b = random.range(0, n - 1);
            if (a != b) c.append(gate::cx(a, b));
        }
        const auto brute = exact::brute_force_optimal_swaps(c, coupling, {.max_swaps = 6});
        ASSERT_TRUE(brute.solved);
        const auto olsq = exact::solve_optimal(c, coupling, {.max_swaps = 6});
        ASSERT_TRUE(olsq.solved);
        EXPECT_EQ(olsq.optimal_swaps, brute.optimal_swaps) << coupling.describe();
        const auto report = validate_routed(c, olsq.witness, coupling);
        EXPECT_TRUE(report.valid) << report.error;
        EXPECT_EQ(report.swap_count, static_cast<std::size_t>(olsq.optimal_swaps));
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, exact_agreement, ::testing::Range(1, 9));

}  // namespace
}  // namespace qubikos
