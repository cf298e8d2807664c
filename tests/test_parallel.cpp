// Concurrency-subsystem tests: the thread pool itself, and the promise
// that every parallel path (SABRE trials, suite evaluation, the flat
// distance matrix) is bit-identical to its serial counterpart.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "arch/architectures.hpp"
#include "core/qubikos.hpp"
#include "core/suite.hpp"
#include "eval/harness.hpp"
#include "graph/bfs.hpp"
#include "graph/distance.hpp"
#include "graph/gen.hpp"
#include "router/sabre.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qubikos {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(thread_pool, covers_every_index_exactly_once) {
    thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(thread_pool, single_thread_runs_inline_in_order) {
    thread_pool pool(1);
    std::vector<std::size_t> order;
    pool.parallel_for(3, 8, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(thread_pool, empty_range_is_a_noop) {
    thread_pool pool(2);
    pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(thread_pool, reusable_across_jobs) {
    thread_pool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(0, 100, [&](std::size_t i) { sum.fetch_add(i); });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(thread_pool, propagates_exceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [](std::size_t i) {
                                       if (i == 13) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(thread_pool, cancellation_skips_indices_after_a_throw) {
    // Two participants, two chunks of two. Whoever claims the chunk
    // {0, 1} throws at index 0; the cancellation check before every
    // index guarantees index 1 — same chunk, already claimed — never
    // runs. (The other chunk may or may not run, depending on timing.)
    thread_pool pool(2);
    std::vector<std::atomic<int>> hits(4);
    EXPECT_THROW(pool.parallel_for_slots(0, 4, 0,
                                         [&](std::size_t i, std::size_t) {
                                             if (i == 0) throw std::runtime_error("boom");
                                             hits[i].fetch_add(1);
                                         },
                                         /*chunk=*/2),
                 std::runtime_error);
    EXPECT_EQ(hits[1].load(), 0);
}

TEST(thread_pool, inline_path_stops_at_the_throw) {
    thread_pool pool(1);
    std::vector<int> hits(10, 0);
    EXPECT_THROW(pool.parallel_for(0, 10,
                                   [&](std::size_t i) {
                                       if (i == 5) throw std::runtime_error("boom");
                                       hits[i] = 1;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(thread_pool, slots_cover_indices_in_ascending_claim_order) {
    // Width-capped chunked dispatch: every index exactly once, slot ids
    // below the cap, and each slot's claims monotonically increasing —
    // the property the per-slot best reduction of route_sabre relies on.
    thread_pool pool(8);
    constexpr std::size_t n = 5000;
    constexpr std::size_t width = 3;
    std::vector<std::vector<std::size_t>> per_slot(width);
    pool.parallel_for_slots(
        0, n, width,
        [&](std::size_t i, std::size_t slot) {
            ASSERT_LT(slot, width);
            per_slot[slot].push_back(i);  // slot-local, no synchronization needed
        },
        /*chunk=*/7);
    std::vector<char> seen(n, 0);
    for (const auto& claimed : per_slot) {
        for (std::size_t k = 0; k < claimed.size(); ++k) {
            if (k > 0) EXPECT_LT(claimed[k - 1], claimed[k]);
            ASSERT_LT(claimed[k], n);
            EXPECT_EQ(seen[claimed[k]], 0) << claimed[k];
            seen[claimed[k]] = 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << i;
}

TEST(thread_pool, shared_pool_supports_nested_parallel_for) {
    // The hot paths all dispatch onto one process-wide pool; a nested
    // publish from inside a running job (evaluate_suite -> route_sabre)
    // must complete rather than deadlock, because publishers always
    // participate in their own jobs.
    auto& pool = thread_pool::shared();
    EXPECT_GE(pool.size(), 1u);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(0, 8, [&](std::size_t) {
        pool.parallel_for(0, 100, [&](std::size_t i) { total.fetch_add(i); });
    });
    EXPECT_EQ(total.load(), 8u * 4950u);
}

TEST(thread_pool, env_override_resolves_auto_size) {
    ASSERT_EQ(setenv("QUBIKOS_THREADS", "3", 1), 0);
    EXPECT_EQ(thread_pool::resolve_threads(0), 3u);
    EXPECT_EQ(thread_pool::resolve_threads(7), 7u);  // explicit beats env
    ASSERT_EQ(unsetenv("QUBIKOS_THREADS"), 0);
    EXPECT_GE(thread_pool::resolve_threads(0), 1u);
}

// --- parallel SABRE trials ---------------------------------------------------

TEST(parallel_sabre, identical_output_for_any_thread_count) {
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 6;
    gen.total_two_qubit_gates = 120;
    gen.seed = 11;
    const auto instance = core::generate(device, gen);

    // 20 trials > the 16-slot recycling block, so the reduction crosses
    // a block boundary in both the serial and parallel configurations.
    router::sabre_options serial;
    serial.trials = 20;
    serial.seed = 5;
    serial.threads = 1;
    router::sabre_stats serial_stats;
    const auto serial_routed = router::route_sabre(instance.logical, dist, serial, &serial_stats);

    for (const int threads : {2, 4}) {
        router::sabre_options parallel = serial;
        parallel.threads = threads;
        router::sabre_stats parallel_stats;
        const auto parallel_routed = router::route_sabre(instance.logical, dist,
                                                         parallel, &parallel_stats);
        EXPECT_EQ(parallel_stats.best_trial, serial_stats.best_trial) << threads;
        EXPECT_EQ(parallel_stats.best_swaps, serial_stats.best_swaps) << threads;
        EXPECT_EQ(parallel_stats.force_routes, serial_stats.force_routes) << threads;
        EXPECT_EQ(parallel_routed.initial, serial_routed.initial) << threads;
        EXPECT_EQ(parallel_routed.physical.gates(), serial_routed.physical.gates())
            << threads;
    }
}

TEST(parallel_sabre, more_threads_than_trials) {
    const auto device = arch::grid(2, 3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 2;
    gen.seed = 4;
    const auto instance = core::generate(device, gen);

    router::sabre_options one_trial;
    one_trial.trials = 1;
    one_trial.threads = 8;
    router::sabre_options serial = one_trial;
    serial.threads = 1;
    const auto a = router::route_sabre(instance.logical, dist, one_trial);
    const auto b = router::route_sabre(instance.logical, dist, serial);
    EXPECT_EQ(a.initial, b.initial);
    EXPECT_EQ(a.physical.gates(), b.physical.gates());
}

TEST(parallel_sabre, stats_report_live_arena_slots) {
    // Peak trial-result memory is O(min(threads, trials)): the engine
    // sizes its arenas to the live slots, not the trial count.
    const auto device = arch::aspen4();
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 3;
    gen.total_two_qubit_gates = 60;
    gen.seed = 21;
    const auto instance = core::generate(device, gen);

    router::sabre_options options;
    options.trials = 3;
    options.threads = 8;  // more threads than trials: slots clamp to trials
    router::sabre_stats stats;
    (void)router::route_sabre(instance.logical, dist, options, &stats);
    EXPECT_EQ(stats.arena_slots, 3u);
    EXPECT_EQ(stats.trials_run, 3u);
    EXPECT_EQ(stats.trials_pruned, 0u);
    EXPECT_EQ(stats.trials_skipped, 0u);
    EXPECT_GT(stats.pass_decisions, 0u);

    options.trials = 20;
    options.threads = 2;
    (void)router::route_sabre(instance.logical, dist, options, &stats);
    EXPECT_EQ(stats.arena_slots, 2u);
    EXPECT_EQ(stats.trials_run, 20u);
}

// --- portfolio trial scheduler -----------------------------------------------

core::benchmark_instance portfolio_instance() {
    const auto device = arch::sycamore54();
    core::generator_options gen;
    gen.num_swaps = 8;
    gen.total_two_qubit_gates = 200;
    gen.seed = 33;
    return core::generate(device, gen);
}

TEST(portfolio_sabre, deterministic_for_fixed_config_across_thread_counts) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const auto instance = portfolio_instance();

    router::sabre_options options;
    options.trials = 24;
    options.seed = 7;
    options.portfolio = true;
    options.portfolio_wave = 6;
    options.threads = 1;
    router::sabre_stats reference_stats;
    const auto reference = router::route_sabre(instance.logical, dist, options, &reference_stats);

    for (const int threads : {2, 4}) {
        options.threads = threads;
        router::sabre_stats stats;
        const auto routed = router::route_sabre(instance.logical, dist, options, &stats);
        EXPECT_EQ(stats.best_swaps, reference_stats.best_swaps) << threads;
        EXPECT_EQ(stats.best_trial, reference_stats.best_trial) << threads;
        EXPECT_EQ(stats.waves, reference_stats.waves) << threads;
        EXPECT_EQ(routed.initial, reference.initial) << threads;
        EXPECT_EQ(routed.physical.gates(), reference.physical.gates()) << threads;
    }
}

TEST(portfolio_sabre, incumbent_cuts_alone_preserve_the_plain_result) {
    // With budget cuts disabled and every wave scheduled, the only cut
    // left is the incumbent abort — which is provably sound, so the
    // portfolio must reproduce the plain run's winner exactly (same
    // seeds, same trial count).
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const auto instance = portfolio_instance();

    router::sabre_options plain;
    plain.trials = 16;
    plain.seed = 3;
    plain.threads = 1;
    router::sabre_stats plain_stats;
    const auto plain_routed = router::route_sabre(instance.logical, dist, plain, &plain_stats);

    router::sabre_options portfolio = plain;
    portfolio.portfolio = true;
    portfolio.portfolio_patience = 0;                  // schedule every wave
    portfolio.portfolio_budget_base = 2147483647;      // disable budget cuts
    for (const int threads : {1, 2}) {
        portfolio.threads = threads;
        router::sabre_stats stats;
        const auto routed = router::route_sabre(instance.logical, dist, portfolio, &stats);
        EXPECT_EQ(stats.best_swaps, plain_stats.best_swaps) << threads;
        EXPECT_EQ(stats.best_trial, plain_stats.best_trial) << threads;
        EXPECT_EQ(stats.trials_skipped, 0u) << threads;
        EXPECT_EQ(routed.initial, plain_routed.initial) << threads;
        EXPECT_EQ(routed.physical.gates(), plain_routed.physical.gates()) << threads;
        // The saved work shows up as pruned trials, never as a worse result.
        EXPECT_LE(stats.pass_decisions, plain_stats.pass_decisions) << threads;
    }
}

TEST(portfolio_sabre, accounts_for_every_requested_trial) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const auto instance = portfolio_instance();

    router::sabre_options options;
    options.trials = 24;
    options.seed = 5;
    options.threads = 1;
    options.portfolio = true;
    options.portfolio_wave = 4;
    options.portfolio_patience = 1;  // aggressive early stop: skips expected
    router::sabre_stats stats;
    (void)router::route_sabre(instance.logical, dist, options, &stats);
    EXPECT_EQ(stats.trials_run + stats.trials_pruned + stats.trials_skipped, 24u);
    EXPECT_GE(stats.waves, 1u);
    EXPECT_LE(stats.waves, 6u);
    EXPECT_GT(stats.trials_run, 0u);
}

TEST(portfolio_sabre, target_swaps_stops_scheduling) {
    const auto device = arch::sycamore54();
    const distance_provider dist(device.coupling);
    const auto instance = portfolio_instance();

    router::sabre_options options;
    options.trials = 32;
    options.seed = 5;
    options.threads = 1;
    options.portfolio = true;
    options.portfolio_wave = 4;
    options.portfolio_patience = 0;
    options.portfolio_target_swaps = 1000000;  // any result satisfies the target
    router::sabre_stats stats;
    (void)router::route_sabre(instance.logical, dist, options, &stats);
    // One wave establishes an incumbent below the target; no further
    // waves are scheduled.
    EXPECT_EQ(stats.waves, 1u);
    EXPECT_EQ(stats.trials_skipped, 28u);
}

TEST(portfolio_sabre, rejects_shrinking_budget_growth) {
    const auto device = arch::line(3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 1;
    gen.seed = 1;
    const auto instance = core::generate(device, gen);
    router::sabre_options options;
    options.portfolio = true;
    options.portfolio_budget_growth = 0.5;
    EXPECT_THROW((void)router::route_sabre(instance.logical, dist, options), std::invalid_argument);
}

TEST(parallel_sabre, rejects_negative_threads) {
    const auto device = arch::line(3);
    const distance_provider dist(device.coupling);
    core::generator_options gen;
    gen.num_swaps = 1;
    gen.seed = 1;
    const auto instance = core::generate(device, gen);
    router::sabre_options options;
    options.threads = -1;
    EXPECT_THROW((void)router::route_sabre(instance.logical, dist, options), std::invalid_argument);
}

// --- flat distance matrix ----------------------------------------------------

TEST(flat_distance, matches_naive_bfs_on_random_graphs) {
    distance_options dense;
    dense.mode = distance_options::storage_mode::dense;
    rng random(17);
    for (int round = 0; round < 20; ++round) {
        const int n = random.range(2, 40);
        const graph g = random_connected_graph(n, random.range(0, n), random);
        const distance_provider dist(g, dense);
        ASSERT_EQ(dist.num_vertices(), n);
        for (int v = 0; v < n; ++v) {
            const auto row = bfs_distances(g, {v});
            for (int u = 0; u < n; ++u) {
                ASSERT_EQ(dist(v, u), row[static_cast<std::size_t>(u)])
                    << "round " << round << " pair (" << v << "," << u << ")";
            }
        }
    }
}

TEST(flat_distance, disconnected_pairs_unreachable) {
    graph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    distance_options dense;
    dense.mode = distance_options::storage_mode::dense;
    const distance_provider dist(g, dense);
    EXPECT_EQ(dist(0, 1), 1);
    EXPECT_EQ(dist(0, 2), distance_provider::unreachable());
    EXPECT_EQ(dist(3, 1), distance_provider::unreachable());
    EXPECT_EQ(dist.diameter(), 1);
}

// --- parallel suite evaluation ----------------------------------------------

TEST(parallel_eval, records_match_serial_order_and_values) {
    const auto device = arch::aspen4();
    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {2, 3};
    spec.circuits_per_count = 2;
    spec.total_two_qubit_gates = 50;
    spec.base_seed = 9;
    const auto s = core::generate_suite(device, spec);

    // Tools stay serial (the registry default); parallelism lives at the
    // suite level here.
    const auto tools = eval::paper_toolbox(/*sabre_trials=*/2);

    const auto serial = eval::evaluate_suite(s, device, tools, 1);
    const auto parallel = eval::evaluate_suite(s, device, tools, 4);

    EXPECT_EQ(parallel.invalid_runs, serial.invalid_runs);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_EQ(parallel.records[i].tool, serial.records[i].tool) << i;
        EXPECT_EQ(parallel.records[i].designed_swaps, serial.records[i].designed_swaps)
            << i;
        EXPECT_EQ(parallel.records[i].measured_swaps, serial.records[i].measured_swaps)
            << i;
        EXPECT_EQ(parallel.records[i].valid, serial.records[i].valid) << i;
        EXPECT_DOUBLE_EQ(parallel.records[i].depth_ratio, serial.records[i].depth_ratio)
            << i;
    }
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(parallel.cells[i].tool, serial.cells[i].tool) << i;
        EXPECT_DOUBLE_EQ(parallel.cells[i].swap_ratio, serial.cells[i].swap_ratio) << i;
    }
}

}  // namespace
}  // namespace qubikos
