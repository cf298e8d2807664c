// Token swapping tests: correctness of the emitted sequence, bounds, and
// agreement with a BFS-exact reference on tiny instances.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "graph/gen.hpp"
#include "graph/token_swapping.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

/// Applies a swap sequence to a placement and returns the result.
std::vector<int> apply_sequence(const graph& g, std::vector<int> placement,
                                const std::vector<edge>& swaps) {
    std::vector<int> holder(static_cast<std::size_t>(g.num_vertices()), -1);
    for (std::size_t t = 0; t < placement.size(); ++t) {
        holder[static_cast<std::size_t>(placement[t])] = static_cast<int>(t);
    }
    for (const auto& e : swaps) {
        EXPECT_TRUE(g.has_edge(e.a, e.b)) << "swap on non-edge";
        const int ta = holder[static_cast<std::size_t>(e.a)];
        const int tb = holder[static_cast<std::size_t>(e.b)];
        std::swap(holder[static_cast<std::size_t>(e.a)], holder[static_cast<std::size_t>(e.b)]);
        if (ta != -1) placement[static_cast<std::size_t>(ta)] = e.b;
        if (tb != -1) placement[static_cast<std::size_t>(tb)] = e.a;
    }
    return placement;
}

/// BFS-exact token swap distance for tiny instances.
std::size_t exact_distance(const graph& g, const std::vector<int>& current,
                           const std::vector<int>& target) {
    std::map<std::vector<int>, std::size_t> seen{{current, 0}};
    std::deque<std::vector<int>> queue{current};
    while (!queue.empty()) {
        const auto state = queue.front();
        queue.pop_front();
        if (state == target) return seen[state];
        for (const auto& e : g.edges()) {
            auto next = state;
            for (auto& v : next) {
                if (v == e.a) {
                    v = e.b;
                } else if (v == e.b) {
                    v = e.a;
                }
            }
            if (seen.emplace(next, seen[state] + 1).second) queue.push_back(next);
        }
    }
    ADD_FAILURE() << "target unreachable";
    return 0;
}

TEST(token_swapping, identity_needs_no_swaps) {
    const graph g = path_graph(5);
    const std::vector<int> placement{0, 1, 2, 3, 4};
    EXPECT_TRUE(token_swapping_sequence(g, placement, placement).empty());
}

TEST(token_swapping, adjacent_transposition) {
    const graph g = path_graph(3);
    const auto swaps = token_swapping_sequence(g, {0, 1}, {1, 0});
    EXPECT_EQ(apply_sequence(g, {0, 1}, swaps), (std::vector<int>{1, 0}));
    EXPECT_EQ(swaps.size(), 1u);
}

TEST(token_swapping, endpoint_transposition_on_path) {
    // Swapping the two ends of a 3-path needs 3 swaps.
    const graph g = path_graph(3);
    const auto swaps = token_swapping_sequence(g, {0, 1, 2}, {2, 1, 0});
    EXPECT_EQ(apply_sequence(g, {0, 1, 2}, swaps), (std::vector<int>{2, 1, 0}));
    EXPECT_EQ(swaps.size(), 3u);
}

TEST(token_swapping, partial_placements_use_blanks) {
    // One token on a path can slide through blanks at cost = distance.
    const graph g = path_graph(6);
    const auto swaps = token_swapping_sequence(g, {0}, {5});
    EXPECT_EQ(apply_sequence(g, {0}, swaps), (std::vector<int>{5}));
    EXPECT_EQ(swaps.size(), 5u);
}

TEST(token_swapping, argument_validation) {
    const graph g = path_graph(4);
    EXPECT_THROW((void)token_swapping_sequence(g, {0, 0}, {1, 2}), std::invalid_argument);
    EXPECT_THROW((void)token_swapping_sequence(g, {0, 1}, {2, 2}), std::invalid_argument);
    EXPECT_THROW((void)token_swapping_sequence(g, {0}, {9}), std::invalid_argument);
    EXPECT_THROW((void)token_swapping_sequence(g, {0, 1}, {2}), std::invalid_argument);
    graph disconnected(4);
    disconnected.add_edge(0, 1);
    EXPECT_THROW((void)token_swapping_sequence(disconnected, {0}, {3}), std::invalid_argument);
}

class token_swapping_random : public ::testing::TestWithParam<int> {};

TEST_P(token_swapping_random, sequence_realizes_target_within_bounds) {
    rng random(static_cast<std::uint64_t>(GetParam()) * 613);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = random.range(2, 10);
        const graph g = random_connected_graph(n, random.range(0, 6), random);
        const int tokens = random.range(1, n);
        auto current = random.permutation(n);
        auto target = random.permutation(n);
        current.resize(static_cast<std::size_t>(tokens));
        target.resize(static_cast<std::size_t>(tokens));

        const auto swaps = token_swapping_sequence(g, current, target);
        EXPECT_EQ(apply_sequence(g, current, swaps), target);

        // Weak upper bound: each token can always be finished with a
        // there-and-back transposition walk.
        const distance_provider dist(g);
        std::size_t bound = 0;
        for (int t = 0; t < tokens; ++t) {
            bound += 2 * static_cast<std::size_t>(
                             dist(current[static_cast<std::size_t>(t)],
                                  target[static_cast<std::size_t>(t)])) +
                     2;
        }
        bound = bound * 2 + 2 * static_cast<std::size_t>(g.num_vertices());
        EXPECT_LE(swaps.size(), bound);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, token_swapping_random, ::testing::Range(1, 9));

TEST(token_swapping, near_optimal_on_tiny_instances) {
    // Against BFS-exact distances: the greedy result must stay within 2x
    // optimal + 2 on 4-5 vertex graphs (it usually matches exactly).
    rng random(77);
    for (int trial = 0; trial < 15; ++trial) {
        const int n = random.range(3, 5);
        const graph g = random_connected_graph(n, random.range(0, 3), random);
        const int tokens = random.range(1, n);
        auto current = random.permutation(n);
        auto target = random.permutation(n);
        current.resize(static_cast<std::size_t>(tokens));
        target.resize(static_cast<std::size_t>(tokens));
        const std::size_t greedy = token_swap_distance(g, current, target);
        const std::size_t optimal = exact_distance(g, current, target);
        EXPECT_LE(greedy, optimal * 2 + 2) << g.describe();
        EXPECT_GE(greedy, optimal);
    }
}

}  // namespace
}  // namespace qubikos
