// Cross-module property sweeps: the full pipeline (generate -> serialize
// -> reload -> verify -> route -> validate) exercised across
// architectures and seeds in one place.
#include <gtest/gtest.h>

#include <filesystem>

#include "arch/architectures.hpp"
#include "circuit/dag.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "core/suite.hpp"
#include "core/verifier.hpp"
#include "router/sabre.hpp"

namespace qubikos {
namespace {

class pipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(pipeline, full_round_trip_per_architecture) {
    const auto device = arch::by_name(GetParam());
    const distance_provider dist(device.coupling);

    core::suite_spec spec;
    spec.arch_name = device.name;
    spec.swap_counts = {2, 4};
    spec.circuits_per_count = 1;
    spec.total_two_qubit_gates = 80;
    spec.single_qubit_rate = 0.2;
    spec.base_seed = 5150;
    const auto s = core::generate_suite(device, spec);

    // Serialize + reload.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("qubikos_pipeline_" + device.name);
    std::filesystem::remove_all(dir);
    core::save_suite(s, dir.string());
    const auto loaded = core::load_suite(dir.string());
    std::filesystem::remove_all(dir);
    ASSERT_EQ(loaded.instances.size(), s.instances.size());

    for (const auto& instance : loaded.instances) {
        // Structure still certified after the disk round trip.
        const auto structure = core::verify_structure(instance, device);
        ASSERT_TRUE(structure.valid) << device.name << ": " << structure.error;

        // A tool run on the reloaded instance validates and respects the
        // certified lower bound.
        router::sabre_options options;
        options.trials = 2;
        const auto routed = router::route_sabre(instance.logical, dist, options);
        const auto report = validate_routed(instance.logical, routed, device.coupling);
        ASSERT_TRUE(report.valid) << report.error;
        EXPECT_GE(report.swap_count, static_cast<std::size_t>(instance.optimal_swaps));
    }
}

INSTANTIATE_TEST_SUITE_P(architectures, pipeline,
                         ::testing::Values("aspen4", "sycamore54", "rochester53", "eagle127",
                                           "grid3x3", "line8", "ring9"));

class generator_structure : public ::testing::TestWithParam<int> {};

TEST_P(generator_structure, invariants_hold_across_seeds) {
    const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    const auto device = arch::rochester53();
    core::generator_options options;
    options.num_swaps = 6;
    options.total_two_qubit_gates = 500;
    options.seed = seed;
    const auto instance = core::generate(device, options);

    // The logical circuit never contains swap gates.
    EXPECT_EQ(instance.logical.num_swap_gates(), 0u);
    // The answer contains exactly n swaps, interleaved in section order.
    EXPECT_EQ(instance.answer.physical.num_swap_gates(), 6u);
    // Special gates partition the backbone: their indices are strictly
    // increasing and each section's body indices precede its special.
    std::size_t previous_special = 0;
    for (std::size_t i = 0; i < instance.sections.size(); ++i) {
        const auto& section = instance.sections[i];
        if (i > 0) {
            EXPECT_GT(section.special_gate_index, previous_special);
        }
        for (const std::size_t body_index : section.body_gate_indices) {
            EXPECT_LT(body_index, section.special_gate_index);
            if (i > 0) {
                EXPECT_GT(body_index, previous_special);
            }
        }
        previous_special = section.special_gate_index;
        // Section metadata matches the circuit's gates.
        const gate& special = instance.logical[section.special_gate_index];
        EXPECT_TRUE(special.is_two_qubit());
        EXPECT_EQ(edge(special.q0, special.q1), section.special);
    }
    // The dependency DAG of the logical circuit is acyclic by
    // construction; its node count matches the two-qubit gate count.
    const gate_dag dag(instance.logical);
    EXPECT_EQ(static_cast<std::size_t>(dag.num_nodes()),
              instance.logical.num_two_qubit_gates());
}

INSTANTIATE_TEST_SUITE_P(seeds, generator_structure, ::testing::Range(1, 9));

TEST(properties, qasm_round_trip_of_generated_answers) {
    // The answer circuit (with swaps) must round-trip through QASM and
    // still validate against the logical circuit.
    const auto device = arch::aspen4();
    core::generator_options options;
    options.num_swaps = 4;
    options.seed = 31;
    options.total_two_qubit_gates = 120;
    const auto instance = core::generate(device, options);

    routed_circuit reloaded;
    reloaded.initial = instance.answer.initial;
    reloaded.physical = qasm::parse(qasm::write(instance.answer.physical));
    const auto report = validate_routed(instance.logical, reloaded, device.coupling);
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(report.swap_count, 4u);
}

}  // namespace
}  // namespace qubikos
