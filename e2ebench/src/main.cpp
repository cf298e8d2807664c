// qubikos_e2e: the end-to-end benchmark binary (run through run.py).
//
//   qubikos_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --workdir <dir>
//   qubikos_e2e --selftest --workdir <dir>
//
// Prints a provenance line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. Exit code 0 only when the run completed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "graph/distance.hpp"
#include "router/score_kernel.hpp"

#ifndef QUBIKOS_E2E_BUILD_TYPE
#define QUBIKOS_E2E_BUILD_TYPE "unknown"
#endif

namespace {

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string lazy_distance_mode() {
    const auto options = qubikos::distance_options::from_env();
    switch (options.mode) {
        case qubikos::distance_options::storage_mode::dense: return "dense";
        case qubikos::distance_options::storage_mode::lazy: return "lazy";
        case qubikos::distance_options::storage_mode::automatic: break;
    }
    return "automatic(threshold=" + std::to_string(options.lazy_threshold) + ")";
}

int usage() {
    std::fputs(
        "usage: qubikos_e2e --workload <route_lightsabre|certify_exact|campaign_fig4|"
        "serve_mixed> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n"
        "       qubikos_e2e --selftest --workdir <dir>\n",
        stderr);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    e2e::run_config config;
    bool selftest = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--selftest") {
                selftest = true;
                continue;
            }
            if (i + 1 >= argc) return usage();
            const std::string val = argv[++i];
            if (arg == "--workload") {
                config.workload = val;
            } else if (arg == "--seed") {
                config.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                config.seconds = std::stod(val);
            } else if (arg == "--trace") {
                config.trace = val == "1";
            } else if (arg == "--workdir") {
                config.workdir = val;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (config.workdir.empty()) return usage();
    std::filesystem::create_directories(config.workdir);
    if (selftest) return e2e::run_selftest(config.workdir);

    using runner = e2e::run_result (*)(const e2e::run_config&, e2e::tamper_fn);
    runner run = nullptr;
    if (config.workload == "route_lightsabre") run = e2e::run_route_lightsabre;
    if (config.workload == "certify_exact") run = e2e::run_certify_exact;
    if (config.workload == "campaign_fig4") run = e2e::run_campaign_fig4;
    if (config.workload == "serve_mixed") run = e2e::run_serve_mixed;
    if (run == nullptr) return usage();

    const double calib = e2e::calibrate_host();
    std::printf(
        "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
        "\"nproc\":%u,\"host.calib_s\":%s,\"build_type\":\"%s\",\"simd_backend\":\"%s\","
        "\"lazy_distance\":\"%s\"}}\n",
        config.workload.c_str(), static_cast<unsigned long long>(config.seed),
        number(config.seconds).c_str(), config.trace ? 1 : 0,
        std::thread::hardware_concurrency(), number(calib).c_str(), QUBIKOS_E2E_BUILD_TYPE,
        qubikos::router::simd_backend_name(qubikos::router::active_simd_backend()),
        lazy_distance_mode().c_str());
    std::fflush(stdout);

    e2e::run_result result;
    try {
        result = run(config, nullptr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qubikos_e2e: %s failed: %s\n", config.workload.c_str(), e.what());
        return 1;
    }
    for (const auto& why : result.failures) std::fprintf(stderr, "FAIL: %s\n", why.c_str());

    const auto& lineup = config.trace ? e2e::per_layer_metrics() : e2e::end_to_end_metrics();
    if (config.trace) {
        result.metrics["host.calib_s"] = calib;
        result.metrics["fail_frac"] = result.attempted == 0
                                          ? 1.0
                                          : static_cast<double>(result.failed) /
                                                static_cast<double>(result.attempted);
    }
    std::string metrics;
    for (const auto& m : lineup) {
        const auto it = result.metrics.find(m.name);
        // A workload a layer does not serve reports 0 for it; an
        // end-to-end metric is never optional.
        if (it == result.metrics.end() && !config.trace) {
            std::fprintf(stderr, "qubikos_e2e: %s did not measure %s\n", config.workload.c_str(),
                         m.name);
            return 1;
        }
        const double v = it == result.metrics.end() ? 0.0 : it->second;
        char entry[160];
        std::snprintf(entry, sizeof entry, "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                      metrics.empty() ? "" : ",", m.name, number(v).c_str(), m.unit);
        metrics += entry;
    }
    const bool correct = result.failed == 0 && result.replay_identical && result.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return 0;
}
