// Statistics helpers, metric lineups, the span tracer and host probes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"

namespace e2e {

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& ratios) {
    if (ratios.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double r : ratios) log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
    const std::uint64_t mixed =
        splitmix64(splitmix64(seed) ^ splitmix64(stream * 1000003ULL + index));
    return (mixed & ((1ULL << 52) - 1)) | 1ULL;
}

void run_result::fail(const std::string& reason) {
    ++failed;
    if (failures.size() < 8) failures.push_back(reason);
}

const std::vector<metric_spec>& end_to_end_metrics() {
    static const std::vector<metric_spec> metrics = {
        {"setup_s", "s"},  {"lat_p50_s", "s"},      {"lat_p75_s", "s"},
        {"ops_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
    };
    return metrics;
}

const std::vector<metric_spec>& per_layer_metrics() {
    static const std::vector<metric_spec> metrics = {
        {"serve.parse_s", "s"},
        {"serve.emit_s", "s"},
        {"serve.queue_wait_s", "s"},
        {"serve.batches", "1/round"},
        {"serve.slow_lat_s", "s"},
        {"tools.context_build_s", "s"},
        {"tools.make_tool_s", "s"},
        {"graph.rows_built", "count"},
        {"core.generate_s", "s"},
        {"circuit.qasm_parse_s", "s"},
        {"circuit.qasm_write_s", "s"},
        {"circuit.validate_s", "s"},
        {"circuit.depth_s", "s"},
        {"circuit.qasm_bytes", "bytes"},
        {"router.lightsabre_s", "s"},
        {"router.mlqls_s", "s"},
        {"router.qmap_s", "s"},
        {"router.tket_s", "s"},
        {"router.sabre_decisions", "count"},
        {"router.sabre_decisions_per_s", "1/s"},
        {"router.sabre_trials_run", "count"},
        {"router.swaps", "count"},
        {"exact.unsat_s", "s"},
        {"exact.sat_s", "s"},
        {"exact.conflicts", "count"},
        {"campaign.plan_s", "s"},
        {"campaign.unit_s", "s"},
        {"campaign.store_append_s", "s"},
        {"campaign.store_flush_s", "s"},
        {"campaign.store_bytes", "bytes"},
        {"campaign.report_s", "s"},
        {"gap_lightsabre", "ratio"},
        {"gap_mlqls", "ratio"},
        {"gap_qmap", "ratio"},
        {"gap_tket", "ratio"},
        {"fail_frac", "ratio"},
        {"host.calib_s", "s"},
        {"bench.trace_overhead", "ratio"},
        {"bench.unattributed_frac", "ratio"},
    };
    return metrics;
}

// --- tracer ------------------------------------------------------------------

int tracer::begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, op_, now_s(), 0.0});
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void tracer::end(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
}

double tracer::total(const std::string& name) const {
    double sum = 0.0;
    for (const auto& s : spans_) {
        if (name == s.name) sum += s.end - s.start;
    }
    return sum;
}

double tracer::self_total(const std::string& name) const {
    // Children always follow their parent in spans_, so one pass that
    // charges each child to its parent gives every span's covered time.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const auto& s : spans_) {
        if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name) sum += (spans_[i].end - spans_[i].start) - covered[i];
    }
    return sum;
}

double tracer::counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

void tracer::write_chrome_trace(const std::string& path) const {
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::string out = "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"op\":%d,\"parent\":%d}}",
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6, s.op, s.parent);
        out += "{\"name\":";
        qubikos::json::append_quoted(out, s.name);
        out += buf;
        out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]\n";
    std::ofstream file(path, std::ios::binary);
    file << out;
}

void finish_trace(const tracer& t, const run_config& config, double ops, run_result& out) {
    // Layer self seconds per operation, from the spans around each module
    // call (self time: a tool run inside run_tool_record's span is charged
    // to the router, not to validation).
    static const std::pair<const char*, const char*> per_op_spans[] = {
        {"serve.parse_s", "serve.parse"},
        {"serve.emit_s", "serve.emit"},
        {"tools.make_tool_s", "tools.make_tool"},
        {"core.generate_s", "core.generate"},
        {"circuit.qasm_parse_s", "circuit.qasm_parse"},
        {"circuit.qasm_write_s", "circuit.qasm_write"},
        {"circuit.validate_s", "circuit.validate"},
        {"circuit.depth_s", "circuit.depth"},
        {"router.lightsabre_s", "router.lightsabre"},
        {"router.mlqls_s", "router.mlqls"},
        {"router.qmap_s", "router.qmap"},
        {"router.tket_s", "router.tket"},
        {"exact.unsat_s", "exact.unsat"},
        {"exact.sat_s", "exact.sat"},
        {"campaign.store_append_s", "campaign.store_append"},
        {"campaign.store_flush_s", "campaign.store_flush"},
    };
    static const char* per_op_counts[] = {"circuit.qasm_bytes", "router.sabre_decisions",
                                          "router.sabre_trials_run", "router.swaps",
                                          "exact.conflicts"};
    const double denom = ops > 0 ? ops : 1.0;
    for (const auto& [metric, name] : per_op_spans) {
        out.metrics[metric] = t.self_total(name) / denom;
    }
    out.metrics["campaign.unit_s"] = t.total("campaign.unit") / denom;
    for (const char* metric : per_op_counts) out.metrics[metric] = t.counted(metric) / denom;
    const double sabre_s = t.total("router.lightsabre");
    out.metrics["router.sabre_decisions_per_s"] =
        sabre_s > 0 ? t.counted("router.sabre_decisions") / sabre_s : 0.0;

    const double root = t.total("bench.op");
    out.metrics["bench.unattributed_frac"] = root > 0 ? t.self_total("bench.op") / root : 0.0;

    if (!config.workdir.empty()) {
        t.write_chrome_trace(config.workdir + "/trace-" + config.workload + "-" +
                             std::to_string(config.seed) + ".json");
    }
}

bool reset_peak_rss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibrate_host() {
    std::vector<double> times;
    for (int repeat = 0; repeat < 5; ++repeat) {
        const double start = now_s();
        std::uint64_t x = 0x2545F4914F6CDD1DULL;
        for (int i = 0; i < 20'000'000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            x ^= x >> 29;
            // Opaque to the optimizer: every iteration must run.
            asm volatile("" : "+r"(x));
        }
        times.push_back(now_s() - start);
    }
    return median(times);
}

}  // namespace e2e
