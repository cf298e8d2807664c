// Self-test: every workload at tiny size, untraced and traced, must be
// correct; tampered responses must be caught by the oracles.
#include <cstdio>
#include <string>

#include "arch/architectures.hpp"
#include "bench.hpp"
#include "util/json.hpp"

namespace e2e {

namespace {

using qubikos::json::object;
using qubikos::json::value;

/// Response with numeric field `key` set to `v` (unchanged when absent).
std::string with_number(const std::string& response, const char* key, double v) {
    const value doc = qubikos::json::parse(response);
    if (doc.type() != qubikos::json::kind::object || !doc.contains(key)) return response;
    object obj = doc.as_object();
    obj[key] = v;
    return value(std::move(obj)).dump();
}

/// Route responses claim fewer swaps than the designed optimum.
std::string swaps_below_optimum(const std::string& response) {
    return with_number(response, "swaps", 0);
}

/// The first two-qubit gate of the emitted QASM moves onto a pair of
/// qubits the device does not couple.
std::string gate_on_uncoupled_pair(const std::string& response) {
    const value doc = qubikos::json::parse(response);
    if (!doc.contains("qasm")) return response;
    const auto device = qubikos::arch::by_name(doc.at("device").as_string());
    std::string qasm = doc.at("qasm").as_string();
    const std::size_t at = qasm.find("cx q[");
    if (at == std::string::npos) return response;
    const std::size_t end = qasm.find('\n', at);
    const int a = std::stoi(qasm.substr(at + 5));
    int b = 0;
    while (b == a || device.coupling.has_edge(a, b)) ++b;
    qasm.replace(at, end - at, "cx q[" + std::to_string(a) + "],q[" + std::to_string(b) + "];");
    object obj = doc.as_object();
    obj["qasm"] = qasm;
    return value(std::move(obj)).dump();
}

/// Certify responses whose solver count disagrees with the declared one.
std::string solver_below_declared(const std::string& response) {
    const value doc = qubikos::json::parse(response);
    if (!doc.contains("solver_swaps")) return response;
    return with_number(response, "solver_swaps", doc.at("solver_swaps").as_number() - 1);
}

/// Campaign records measuring fewer swaps than designed.
std::string measured_below_designed(const std::string& record) {
    return with_number(record, "measured_swaps", 0);
}

int checks = 0;
int failures = 0;

void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) ++failures;
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
}

}  // namespace

int run_selftest(const std::string& workdir) {
    struct workload {
        const char* name;
        run_result (*run)(const run_config&, tamper_fn);
        tamper_fn tamper;
        const char* tamper_name;
    };
    const workload workloads[] = {
        {"route_lightsabre", run_route_lightsabre, swaps_below_optimum, "swaps below optimum"},
        {"route_lightsabre", run_route_lightsabre, gate_on_uncoupled_pair,
         "gate on an uncoupled pair"},
        {"certify_exact", run_certify_exact, solver_below_declared, "solver != declared"},
        {"campaign_fig4", run_campaign_fig4, measured_below_designed, "measured < designed"},
        {"serve_mixed", run_serve_mixed, swaps_below_optimum, "tampered route bytes"},
        {"serve_mixed", run_serve_mixed, solver_below_declared, "tampered certify bytes"},
    };
    try {
        for (const workload& w : workloads) {
            run_config config;
            config.workload = w.name;
            config.seed = 7;
            config.seconds = 0.0;
            config.tiny = true;
            config.workdir = workdir;
            const std::string name = w.name;
            for (const bool trace : {false, true}) {
                config.trace = trace;
                const run_result r = w.run(config, nullptr);
                for (const auto& why : r.failures) std::printf("     %s\n", why.c_str());
                const auto& lineup = trace ? per_layer_metrics() : end_to_end_metrics();
                bool complete = true;
                for (const auto& m : lineup) {
                    // Traced runs fill the layers they touch; main() zeroes
                    // the rest and adds host/fail metrics.
                    if (!trace && !r.metrics.contains(m.name)) complete = false;
                }
                expect(r.attempted > 0 && r.failed == 0 && r.replay_identical && complete,
                       name + (trace ? " traced" : " untraced") + ": " +
                           std::to_string(r.attempted) + " ops, " + std::to_string(r.failed) +
                           " failed");
                if (trace) {
                    expect(r.metrics.contains("bench.unattributed_frac") &&
                               r.metrics.at("bench.unattributed_frac") < 0.10,
                           name + " traced: unattributed share below 0.10");
                }
            }
            config.trace = false;
            const run_result tampered = w.run(config, w.tamper);
            expect(tampered.failed > 0,
                   name + " with " + w.tamper_name + ": " + std::to_string(tampered.failed) +
                       " of " + std::to_string(tampered.attempted) + " failed");
        }
    } catch (const std::exception& e) {
        std::printf("FAIL selftest threw: %s\n", e.what());
        return 1;
    }
    std::printf("%d/%d checks passed\n", checks - failures, checks);
    return failures == 0 ? 0 : 1;
}

}  // namespace e2e
