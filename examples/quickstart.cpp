// Quickstart: generate one QUBIKOS benchmark, verify its structure, route
// it with a QLS tool and measure the optimality gap.
//
//   $ ./quickstart
//
// This is the 60-second tour of the library's public API.
#include <cstdio>

#include "arch/architectures.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "core/verifier.hpp"
#include "router/sabre.hpp"

int main() {
    using namespace qubikos;

    // 1. Pick a device: Rigetti Aspen-4, 16 qubits, two bridged octagons.
    const arch::architecture device = arch::aspen4();
    std::printf("device: %s (%d qubits, %d couplers)\n", device.name.c_str(),
                device.num_qubits(), device.num_couplers());

    // 2. Generate a benchmark whose optimal SWAP count is 5, padded to 300
    //    two-qubit gates.
    core::generator_options options;
    options.num_swaps = 5;
    options.total_two_qubit_gates = 300;
    options.seed = 2025;
    const core::benchmark_instance instance = core::generate(device, options);
    std::printf("benchmark: %zu two-qubit gates, provably optimal SWAP count = %d\n",
                instance.logical.num_two_qubit_gates(), instance.optimal_swaps);

    // 3. Verify the construction invariants (Lemmas 1-3 of the paper,
    //    checked mechanically: non-isomorphic sections, serialization,
    //    valid reference answer).
    const auto verification = core::verify_structure(instance, device);
    std::printf("structural verification: %s\n",
                verification.valid ? "PASS" : verification.error.c_str());

    // 4. Route with SABRE (LightSABRE = SABRE + many trials). Routers
    //    read the coupling graph and its distances from one provider.
    router::sabre_options sabre;
    sabre.trials = 64;
    const distance_provider dist(device.coupling);
    const routed_circuit routed = router::route_sabre(instance.logical, dist, sabre);

    // 5. Validate the tool's output and report the optimality gap.
    const auto report = validate_routed(instance.logical, routed, device.coupling);
    std::printf("sabre result: %s, %zu swaps -> optimality gap %.2fx\n",
                report.valid ? "valid" : report.error.c_str(), report.swap_count,
                static_cast<double>(report.swap_count) / instance.optimal_swaps);

    // 6. Export the benchmark as OpenQASM for other toolchains.
    qasm::save(instance.logical, "quickstart_benchmark.qasm");
    qasm::save(instance.answer.physical, "quickstart_answer.qasm");
    std::printf("wrote quickstart_benchmark.qasm / quickstart_answer.qasm\n");
    return verification.valid && report.valid ? 0 : 1;
}
