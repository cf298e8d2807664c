// Tests for the graph substrate: core graph type, BFS orders, distances,
// connectivity utilities.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <thread>

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/distance.hpp"
#include "graph/gen.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

TEST(graph, edges_and_degrees) {
    graph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_EQ(g.num_vertices(), 4);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_FALSE(g.has_edge(0, 0));
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_EQ(g.max_degree(), 2);
}

TEST(graph, rejects_bad_edges) {
    graph g(3);
    g.add_edge(0, 1);
    EXPECT_THROW(g.add_edge(0, 1), std::invalid_argument);   // duplicate
    EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);   // reversed duplicate
    EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);   // self loop
    EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);       // out of range
    EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
    EXPECT_FALSE(g.add_edge_if_absent(0, 1));
    EXPECT_TRUE(g.add_edge_if_absent(1, 2));
}

TEST(graph, count_degree_at_least) {
    const graph g = star_graph(5);  // center degree 5, leaves degree 1
    EXPECT_EQ(g.count_degree_at_least(5), 1);
    EXPECT_EQ(g.count_degree_at_least(2), 1);
    EXPECT_EQ(g.count_degree_at_least(1), 6);
    EXPECT_EQ(g.count_degree_at_least(0), 6);
}

TEST(graph, edge_normalization) {
    const edge e(3, 1);
    EXPECT_EQ(e.a, 1);
    EXPECT_EQ(e.b, 3);
    EXPECT_EQ(e, edge(1, 3));
}

TEST(bfs, vertex_order_from_source) {
    const graph g = path_graph(5);
    const auto order = bfs_vertices(g, {2});
    EXPECT_EQ(order.size(), 5u);
    EXPECT_EQ(order.front(), 2);
    // Distance-1 vertices come before distance-2 vertices.
    const auto position = [&order](int v) {
        return std::find(order.begin(), order.end(), v) - order.begin();
    };
    EXPECT_LT(position(1), position(0));
    EXPECT_LT(position(3), position(4));
}

TEST(bfs, edge_order_covers_component_and_chains) {
    rng random(5);
    for (int trial = 0; trial < 30; ++trial) {
        const graph g = random_connected_graph(random.range(2, 12), random.range(0, 8), random);
        const int source = random.range(0, g.num_vertices() - 1);
        const auto order = bfs_edge_order(g, {source});
        ASSERT_EQ(order.size(), static_cast<std::size_t>(g.num_edges()));
        // Property used by Algorithm 2: every emitted edge shares an
        // endpoint with an earlier edge or contains the source.
        std::set<int> touched{source};
        for (const auto& e : order) {
            EXPECT_TRUE(touched.count(e.a) || touched.count(e.b))
                << "edge (" << e.a << "," << e.b << ") disconnected from prefix";
            touched.insert(e.a);
            touched.insert(e.b);
        }
    }
}

TEST(bfs, distances_and_unreachable) {
    graph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    const auto dist = bfs_distances(g, {0});
    EXPECT_EQ(dist[0], 0);
    EXPECT_EQ(dist[1], 1);
    EXPECT_EQ(dist[2], 2);
    EXPECT_EQ(dist[3], -1);
    EXPECT_THROW(bfs_distances(g, {}), std::invalid_argument);
    EXPECT_THROW(bfs_distances(g, {9}), std::out_of_range);
}

TEST(bfs, shortest_path_endpoints) {
    const graph g = grid_graph(3, 3);
    const auto path = shortest_path(g, 0, 8);
    ASSERT_EQ(path.size(), 5u);  // manhattan distance 4
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 8);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }

    graph disconnected(4);
    disconnected.add_edge(0, 1);
    EXPECT_TRUE(shortest_path(disconnected, 0, 3).empty());
}

/// Forces the dense backend regardless of QUBIKOS_LAZY_DIST.
distance_options dense_only() {
    distance_options options;
    options.mode = distance_options::storage_mode::dense;
    return options;
}

TEST(distance_provider, dense_matches_bfs) {
    rng random(17);
    for (int trial = 0; trial < 10; ++trial) {
        const graph g = random_connected_graph(random.range(2, 15), random.range(0, 10), random);
        const distance_provider dist(g, dense_only());
        for (int v = 0; v < g.num_vertices(); ++v) {
            const auto row = bfs_distances(g, {v});
            for (int u = 0; u < g.num_vertices(); ++u) {
                EXPECT_EQ(dist(v, u), row[static_cast<std::size_t>(u)]);
            }
        }
    }
}

TEST(distance_provider, dense_diameter_of_known_graphs) {
    EXPECT_EQ(distance_provider(path_graph(6), dense_only()).diameter(), 5);
    EXPECT_EQ(distance_provider(cycle_graph(6), dense_only()).diameter(), 3);
    EXPECT_EQ(distance_provider(grid_graph(3, 4), dense_only()).diameter(), 5);
    EXPECT_EQ(distance_provider(complete_graph(5), dense_only()).diameter(), 1);
}

TEST(distance_provider, lazy_matches_dense_values_and_diameter) {
    rng random(41);
    distance_options lazy_opts;
    lazy_opts.mode = distance_options::storage_mode::lazy;
    for (int trial = 0; trial < 10; ++trial) {
        const graph g = random_connected_graph(random.range(2, 20), random.range(0, 12), random);
        const distance_provider dense(g, dense_only());
        const distance_provider lazy(g, lazy_opts);
        ASSERT_FALSE(dense.is_lazy());
        ASSERT_TRUE(lazy.is_lazy());
        for (int v = 0; v < g.num_vertices(); ++v) {
            for (int u = 0; u < g.num_vertices(); ++u) {
                EXPECT_EQ(lazy(v, u), dense(v, u));
            }
        }
        // The release valve derives its default from diameter(); lazy and
        // dense must agree exactly or routing would diverge by mode.
        EXPECT_EQ(lazy.diameter(), dense.diameter());
    }
}

TEST(distance_provider, mode_selection_by_threshold_and_force) {
    const graph small = grid_graph(4, 4);   // 16 vertices
    const graph larger = grid_graph(6, 6);  // 36 vertices

    distance_options opts;  // automatic
    opts.lazy_threshold = 20;
    EXPECT_FALSE(distance_provider(small, opts).is_lazy());
    EXPECT_TRUE(distance_provider(larger, opts).is_lazy());

    distance_options forced_dense;
    forced_dense.mode = distance_options::storage_mode::dense;
    forced_dense.lazy_threshold = 1;
    EXPECT_FALSE(distance_provider(larger, forced_dense).is_lazy());

    distance_options forced_lazy;
    forced_lazy.mode = distance_options::storage_mode::lazy;
    EXPECT_TRUE(distance_provider(small, forced_lazy).is_lazy());
}

TEST(distance_provider, lazy_builds_rows_on_demand_only) {
    const graph g = grid_graph(5, 5);
    distance_options opts;
    opts.mode = distance_options::storage_mode::lazy;
    const distance_provider dist(g, opts);
    const auto from_3 = bfs_distances(g, {3});
    EXPECT_EQ(dist.rows_built(), 0u);
    EXPECT_EQ(dist(3, 7), from_3[7]);
    EXPECT_EQ(dist.rows_built(), 1u);
    EXPECT_EQ(dist(3, 21), from_3[21]);  // same source: row is reused
    EXPECT_EQ(dist.rows_built(), 1u);
    (void)dist.row(9);
    EXPECT_EQ(dist.rows_built(), 2u);
    // Dense providers never report lazy rows and expose the flat matrix
    // (forced dense, so QUBIKOS_LAZY_DIST cannot flip the mode).
    const distance_provider dense(g, dense_only());
    EXPECT_FALSE(dense.is_lazy());
    EXPECT_NE(dense.dense_data(), nullptr);
    EXPECT_EQ(dist.dense_data(), nullptr);
}

TEST(distance_provider, from_env_parses_modes_and_thresholds) {
    const auto with_env = [](const char* value) {
        if (value == nullptr) {
            ::unsetenv("QUBIKOS_LAZY_DIST");
        } else {
            ::setenv("QUBIKOS_LAZY_DIST", value, 1);
        }
        const auto opts = distance_options::from_env();
        ::unsetenv("QUBIKOS_LAZY_DIST");
        return opts;
    };
    EXPECT_EQ(with_env(nullptr).mode, distance_options::storage_mode::automatic);
    EXPECT_EQ(with_env(nullptr).lazy_threshold, 512);
    EXPECT_EQ(with_env("dense").mode, distance_options::storage_mode::dense);
    EXPECT_EQ(with_env("lazy").mode, distance_options::storage_mode::lazy);
    const auto threshold = with_env("300");
    EXPECT_EQ(threshold.mode, distance_options::storage_mode::automatic);
    EXPECT_EQ(threshold.lazy_threshold, 300);
    // Unparsable values fall back to the defaults rather than throwing —
    // an env typo must not take down a routing service.
    EXPECT_EQ(with_env("bogus").mode, distance_options::storage_mode::automatic);
    EXPECT_EQ(with_env("bogus").lazy_threshold, 512);
    // A number with trailing text is unparsable too, not a prefix parse:
    // "1e3" must not become threshold 1 (every device lazy), nor "64k"
    // threshold 64 (eagle127 lazy).
    for (const char* partial : {"1e3", "64k"}) {
        EXPECT_EQ(with_env(partial).mode, distance_options::storage_mode::automatic) << partial;
        EXPECT_EQ(with_env(partial).lazy_threshold, 512) << partial;
    }
}

TEST(distance_provider, concurrent_lazy_queries_are_consistent) {
    rng random(53);
    const graph g = random_connected_graph(60, 40, random);
    const distance_provider dense(g, dense_only());
    distance_options opts;
    opts.mode = distance_options::storage_mode::lazy;
    const distance_provider lazy(g, opts);
    // Four threads race to materialize overlapping rows; every read must
    // equal the dense answer regardless of which thread built the row.
    std::vector<std::thread> workers;
    std::vector<int> mismatches(4, 0);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (int v = t; v < g.num_vertices(); v += 2) {
                for (int u = 0; u < g.num_vertices(); ++u) {
                    if (lazy(v, u) != dense(v, u)) ++mismatches[static_cast<std::size_t>(t)];
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    for (const int m : mismatches) EXPECT_EQ(m, 0);
    EXPECT_EQ(lazy.rows_built(), static_cast<std::size_t>(g.num_vertices()));
}

TEST(connectivity, components) {
    graph g(6);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    const auto labels = connected_components(g);
    EXPECT_EQ(labels[0], labels[1]);
    EXPECT_EQ(labels[2], labels[3]);
    EXPECT_EQ(labels[3], labels[4]);
    EXPECT_NE(labels[0], labels[2]);
    EXPECT_NE(labels[5], labels[0]);
    EXPECT_NE(labels[5], labels[2]);
    EXPECT_FALSE(is_connected(g));
    EXPECT_TRUE(is_connected(path_graph(4)));
    EXPECT_TRUE(is_connected(graph(1)));
    EXPECT_TRUE(is_connected(graph(0)));
}

TEST(connectivity, connect_components_properties) {
    rng random(23);
    for (int trial = 0; trial < 40; ++trial) {
        const graph allowed = random_connected_graph(random.range(4, 14), random.range(2, 10), random);
        // Random existing edge set drawn from allowed edges.
        std::vector<edge> existing;
        std::vector<int> terminals;
        for (const auto& e : allowed.edges()) {
            if (random.chance(0.3)) existing.push_back(e);
        }
        for (int v = 0; v < allowed.num_vertices(); ++v) {
            if (random.chance(0.4)) terminals.push_back(v);
        }
        if (terminals.empty()) terminals.push_back(0);

        const auto patch = connect_components(allowed, existing, terminals);
        // Every patch edge must be an allowed edge.
        for (const auto& e : patch) EXPECT_TRUE(allowed.has_edge(e.a, e.b));
        // existing + patch must connect all terminals.
        graph combined(allowed.num_vertices());
        for (const auto& e : existing) combined.add_edge_if_absent(e.a, e.b);
        for (const auto& e : patch) combined.add_edge_if_absent(e.a, e.b);
        const auto labels = connected_components(combined);
        for (const int t : terminals) {
            EXPECT_EQ(labels[static_cast<std::size_t>(t)],
                      labels[static_cast<std::size_t>(terminals.front())]);
        }
    }
}

TEST(connectivity, connect_components_impossible) {
    graph allowed(4);
    allowed.add_edge(0, 1);
    allowed.add_edge(2, 3);
    EXPECT_THROW(connect_components(allowed, {}, {0, 3}), std::runtime_error);
}

TEST(gen, random_connected_graph_is_connected) {
    rng random(31);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = random.range(1, 20);
        const graph g = random_connected_graph(n, random.range(0, 10), random);
        EXPECT_EQ(g.num_vertices(), n);
        EXPECT_TRUE(is_connected(g));
        EXPECT_GE(g.num_edges(), n - 1);
    }
}

}  // namespace
}  // namespace qubikos
