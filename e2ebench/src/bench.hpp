// End-to-end QUBIKOS benchmark: shared declarations.
//
// The benchmark drives the four things QUBIKOS users do — route an
// instance with lightsabre, certify an optimum, run a Fig. 4 campaign and
// serve mixed daemon traffic — through the public entry points the CLI
// and the daemon use (serve::handle_line, serve::server,
// campaign::run_campaign_shard). Every output is checked by an oracle
// that does not depend on the router under test. A separate traced run
// replays each operation step by step from this benchmark's own code,
// with spans around each call into a library module, to attribute the
// end-to-end time to layers. See ../README.md for the workload rationale
// and the metric -> layer -> workload map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/store.hpp"
#include "graph/graph.hpp"

namespace e2e {

/// Steady-clock seconds (arbitrary epoch).
[[nodiscard]] double now_s();

/// Median / linear-interpolated percentile of a sample (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}
/// Geometric mean of positive ratios (0 when empty).
[[nodiscard]] double geomean(const std::vector<double>& ratios);

/// Deterministic 52-bit seed for item `index` of input stream `stream`,
/// derived from the workload seed (splitmix64; fits a JSON number).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index);

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    /// Sizes the fixed number of rounds a run times (about this long).
    double seconds = 10.0;
    bool trace = false;
    /// Self-test shapes: a few tiny operations per workload.
    bool tiny = false;
    /// Working directory for stores and the trace file.
    std::string workdir;
};

/// What one run measured. `metrics` holds the metrics of the run's mode
/// (end-to-end when untraced, per-layer when traced).
struct run_result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Trace mode: did every replay reproduce the untraced bytes?
    bool replay_identical = true;
    std::map<std::string, double> metrics;
    /// First few oracle / replay failure messages (stderr diagnostics).
    std::vector<std::string> failures;

    void fail(const std::string& reason);
};

struct metric_spec {
    const char* name;
    const char* unit;
};

/// The metric lineups BENCHMARK.json declares, in declaration order.
[[nodiscard]] const std::vector<metric_spec>& end_to_end_metrics();
[[nodiscard]] const std::vector<metric_spec>& per_layer_metrics();

// --- tracing -------------------------------------------------------------

/// In-memory span recorder for the traced replay. Spans nest on one
/// thread; each carries the id of the operation that caused it. Nothing
/// is written until write_chrome_trace() at the end of the run.
class tracer {
public:
    struct span_record {
        const char* name;
        int parent;
        int op;
        double start;
        double end;
    };

    /// Starts a new operation; later spans carry its id.
    void begin_op() { ++op_; }
    [[nodiscard]] int begin(const char* name);
    void end(int index);

    /// Sum of the durations of every span called `name`.
    [[nodiscard]] double total(const std::string& name) const;
    /// Span duration minus the part its direct children cover, summed
    /// over every span called `name`.
    [[nodiscard]] double self_total(const std::string& name) const;

    /// Counters recorded at the same boundaries as the spans.
    void count(const std::string& name, double delta) { counts_[name] += delta; }
    [[nodiscard]] double counted(const std::string& name) const;

    /// Chrome-trace JSON ("X" events, microseconds).
    void write_chrome_trace(const std::string& path) const;

private:
    std::vector<span_record> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
    int op_ = 0;
};

/// RAII span: [construction, destruction) under the enclosing span.
class span {
public:
    span(tracer& t, const char* name) : tracer_(t), index_(t.begin(name)) {}
    ~span() { tracer_.end(index_); }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    tracer& tracer_;
    int index_;
};

/// Fills the span-derived per-layer metrics of a traced run: layer
/// seconds and counts per operation, the unattributed share of the
/// "bench.op" root spans, and the Chrome trace in the workdir.
void finish_trace(const tracer& t, const run_config& config, double ops, run_result& out);

// --- oracles (independent of the router under test) -----------------------

/// A route response passes when it is ok and legal, its swaps are at
/// least the designed optimum, it carries emitted QASM whose swap count
/// equals the reported swaps, and every two-qubit gate of that QASM acts
/// on a coupling edge. Returns "" on pass, else the reason.
[[nodiscard]] std::string check_route(const std::string& response, const qubikos::graph& coupling,
                                      int designed, long long* swaps_out = nullptr);

/// A certify response passes when it is ok, confirmed and
/// solver_swaps == declared_swaps == the designed count.
[[nodiscard]] std::string check_certify(const std::string& response, int designed);

/// The exact line a correct certify of `designed` swaps answers with:
/// the certify oracle in byte form.
[[nodiscard]] std::string expected_certify_line(const std::string& id, const std::string& device,
                                                int designed);

/// A campaign unit passes when it succeeded, is valid, and its measured
/// swaps are at least the designed count.
[[nodiscard]] std::string check_campaign_unit(const qubikos::campaign::stored_run& run);

/// Byte comparison with a short diagnosis of the first difference.
[[nodiscard]] std::string check_identical(const std::string& got, const std::string& want);

// --- workloads -------------------------------------------------------------

/// Optional tamper hook the self-test installs to corrupt responses
/// before the oracles see them (must raise the failure count).
using tamper_fn = std::string (*)(const std::string& response);

run_result run_route_lightsabre(const run_config& config, tamper_fn tamper = nullptr);
run_result run_certify_exact(const run_config& config, tamper_fn tamper = nullptr);
run_result run_campaign_fig4(const run_config& config, tamper_fn tamper = nullptr);
run_result run_serve_mixed(const run_config& config, tamper_fn tamper = nullptr);

/// Peak resident set of this process in MiB since the last successful
/// reset_peak_rss() (or since start).
[[nodiscard]] double peak_rss_mb();
/// Resets the kernel's peak-RSS mark; false where that is unsupported.
bool reset_peak_rss();

/// Fixed spin loop (median of a few repeats) — the host calibration.
[[nodiscard]] double calibrate_host();

/// Self-test: every workload at tiny size in both modes, plus tampered
/// responses that must be caught. Returns the process exit code.
int run_selftest(const std::string& workdir);

}  // namespace e2e
