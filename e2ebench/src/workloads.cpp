// The four workloads. Each generates its inputs from the seed before
// timing, runs one closed-loop client on the calling thread, checks
// every output with an oracle, and reports either the end-to-end metrics
// (untraced) or the per-layer metrics of a traced replay (traced).
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "arch/architectures.hpp"
#include "campaign/merge.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/worker.hpp"
#include "circuit/qasm.hpp"
#include "core/qubikos.hpp"
#include "obs/obs.hpp"
#include "replay.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "tools/context.hpp"
#include "util/json.hpp"

namespace e2e {

namespace qs = qubikos::serve;
namespace qc = qubikos::campaign;
namespace fs = std::filesystem;
using qubikos::json::object;
using qubikos::json::value;

namespace {

/// Set-up is sub-millisecond and its time swings with the host's state
/// from one second to the next, so it is sampled repeatedly — before the
/// first operation and again after the last — and the median reported.
constexpr int kSetupRepeats = 25;

/// Set-up samples of a run: the whole set-up and its device_for part.
struct setup_samples {
    std::vector<double> total;
    std::vector<double> contexts;
};

/// Rounds sized to about `seconds` at `round_s` nominal seconds each, and
/// at least `min_rounds`. The count depends on --seconds only, never on
/// how fast the host or the code runs, so a seed always times the same
/// inputs. Self-test shapes run one round.
std::size_t rounds_for(const run_config& config, double round_s, std::size_t min_rounds) {
    if (config.tiny) return 1;
    const auto sized = static_cast<std::size_t>(config.seconds / round_s + 0.5);
    return std::max(min_rounds, sized);
}

/// "<prefix><a>-<b>": a request id, unique within a run.
std::string request_id(char prefix, std::size_t a, std::size_t b) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%c%zu-%zu", prefix, a, b);
    return buf;
}

/// One generated request and what its oracle needs.
struct request_input {
    std::string line;
    std::string device;
    int designed = 0;
    bool is_route = true;
};

using round_inputs = std::vector<request_input>;

/// A QUBIKOS circuit with `swaps` designed swaps as an inline-QASM
/// route request (the program receives only the circuit text).
request_input route_input(const std::string& id, const qubikos::arch::architecture& device,
                          int swaps, std::size_t gates, std::uint64_t seed, int trials) {
    qubikos::core::generator_options options;
    options.num_swaps = swaps;
    options.total_two_qubit_gates = gates;
    options.seed = seed;
    const auto instance = qubikos::core::generate(device, options);
    object tool_options;
    tool_options["threads"] = 1;
    tool_options["trials"] = trials;
    object req;
    req["id"] = id;
    req["op"] = "route";
    req["device"] = device.name;
    req["tool"] = "lightsabre";
    req["options"] = value(std::move(tool_options));
    req["qasm"] = qubikos::qasm::write(instance.logical);
    req["emit_qasm"] = true;
    return {value(std::move(req)).dump(), device.name, instance.optimal_swaps, true};
}

/// A certify request carrying generator parameters (certify has no
/// QASM form: the daemon generates the instance itself).
request_input certify_input(const std::string& id, const std::string& device, int swaps,
                            std::size_t gates, std::uint64_t seed) {
    object generate;
    generate["swaps"] = swaps;
    generate["gates"] = gates;
    generate["seed"] = static_cast<std::int64_t>(seed);
    object req;
    req["id"] = id;
    req["op"] = "certify";
    req["device"] = device;
    req["generate"] = value(std::move(generate));
    return {value(std::move(req)).dump(), device, swaps, false};
}

/// One set-up: a fresh engine plus a cold device_for per device.
std::unique_ptr<qs::engine> set_up_engine(const std::vector<std::string>& devices,
                                          setup_samples& samples) {
    const double start = now_s();
    auto eng = std::make_unique<qs::engine>();
    const double built = now_s();
    for (const auto& name : devices) (void)eng->device_for(name);
    const double end = now_s();
    samples.total.push_back(end - start);
    samples.contexts.push_back(end - built);
    return eng;
}

double rows_built(qs::engine& eng, const std::vector<std::string>& devices) {
    double rows = 0.0;
    for (const auto& name : devices) {
        rows += static_cast<double>(eng.device_for(name)->context->distances().rows_built());
    }
    return rows;
}

/// Oracle for one response of a handle_line workload: "" on pass, else
/// the reason. Sets `swaps` to a route's swap count (for the gap).
std::string oracle(const request_input& input, const std::string& response,
                   const std::map<std::string, qubikos::arch::architecture>& devices,
                   long long& swaps) {
    return input.is_route
               ? check_route(response, devices.at(input.device).coupling, input.designed, &swaps)
               : check_certify(response, input.designed);
}

std::map<std::string, qubikos::arch::architecture> device_map(
    const std::vector<std::string>& names) {
    std::map<std::string, qubikos::arch::architecture> devices;
    for (const auto& name : names) devices.emplace(name, qubikos::arch::by_name(name));
    return devices;
}

/// The closed loop shared by route_lightsabre and certify_exact: one
/// client calls serve::handle_line on every request of every round.
/// Traced runs replay every request step by step as well (alternating
/// which goes first) and require identical bytes.
run_result run_handle_line_workload(const run_config& config,
                                    const std::vector<std::string>& device_names,
                                    const std::vector<round_inputs>& rounds, tamper_fn tamper) {
    const auto devices = device_map(device_names);
    setup_samples setups;
    std::unique_ptr<qs::engine> engine;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
        engine = set_up_engine(device_names, setups);
    }
    qs::engine& eng = *engine;

    run_result out;
    tracer trace;
    std::vector<double> latencies;
    std::vector<double> op_peaks;
    std::vector<double> gap_ratios;
    double traced_s = 0.0;
    const double start = now_s();
    for (const round_inputs& round : rounds) {
        for (const request_input& input : round) {
            std::string response;
            std::string replayed;
            const bool replay_first = config.trace && latencies.size() % 2 == 1;
            if (replay_first) {
                const double t0 = now_s();
                replayed = replay_request(eng, input.line, trace);
                traced_s += now_s() - t0;
            }
            reset_peak_rss();
            const double t0 = now_s();
            response = qs::handle_line(eng, input.line);
            latencies.push_back(now_s() - t0);
            op_peaks.push_back(peak_rss_mb());
            if (config.trace && !replay_first) {
                const double t1 = now_s();
                replayed = replay_request(eng, input.line, trace);
                traced_s += now_s() - t1;
            }
            const std::string replay_diff =
                config.trace ? check_identical(replayed, response) : std::string();
            if (tamper != nullptr) response = tamper(response);
            long long swaps = -1;
            std::string why = oracle(input, response, devices, swaps);
            if (!replay_diff.empty()) {
                out.replay_identical = false;
                if (why.empty()) why = "replay of " + input.line.substr(0, 60) + ": " + replay_diff;
            }
            if (!why.empty()) out.fail(why);
            if (input.is_route && swaps > 0 && input.designed > 0) {
                gap_ratios.push_back(static_cast<double>(swaps) / input.designed);
            }
            ++out.attempted;
        }
    }
    const double wall = now_s() - start;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) (void)set_up_engine(device_names, setups);

    if (!config.trace) {
        out.metrics["setup_s"] = median(setups.total);
        out.metrics["lat_p50_s"] = percentile(latencies, 0.5);
        out.metrics["lat_p75_s"] = percentile(latencies, 0.75);
        out.metrics["ops_per_s"] = static_cast<double>(latencies.size()) / wall;
        out.metrics["peak_rss_mb"] = median(op_peaks);
        return out;
    }
    finish_trace(trace, config, static_cast<double>(latencies.size()), out);
    double untraced_s = 0.0;
    for (const double l : latencies) untraced_s += l;
    out.metrics["bench.trace_overhead"] = traced_s / untraced_s;
    out.metrics["tools.context_build_s"] = median(setups.contexts);
    out.metrics["graph.rows_built"] = rows_built(eng, device_names);
    if (!gap_ratios.empty()) out.metrics["gap_lightsabre"] = geomean(gap_ratios);
    return out;
}

}  // namespace

// --- route_lightsabre --------------------------------------------------------

run_result run_route_lightsabre(const run_config& config, tamper_fn tamper) {
    // A round routes two sycamore54 circuits per designed count and one
    // eagle127 circuit (its count rotating): the latency percentiles sit
    // inside the sycamore54 mix, eagle127 weighs on throughput.
    const std::vector<int> counts =
        config.tiny ? std::vector<int>{2} : std::vector<int>{5, 10, 15, 20};
    const std::string small = "sycamore54";
    const std::string large = config.tiny ? "aspen4" : "eagle127";
    const std::size_t small_per_count = config.tiny ? 1 : 2;
    const std::size_t small_gates = config.tiny ? 60 : 600;
    const std::size_t large_gates = config.tiny ? 40 : 1500;
    const int trials = config.tiny ? 2 : 32;
    // A round of nine requests takes about 2.8 s; five rounds give the
    // 45 latency samples p75 needs.
    const std::size_t num_rounds = rounds_for(config, 2.8, 5);

    const auto small_device = qubikos::arch::by_name(small);
    const auto large_device = qubikos::arch::by_name(large);
    std::vector<round_inputs> rounds(num_rounds);
    for (std::size_t r = 0; r < num_rounds; ++r) {
        for (std::size_t i = 0; i < counts.size() * small_per_count; ++i) {
            rounds[r].push_back(route_input(request_id('r', r, i), small_device,
                                            counts[i % counts.size()], small_gates,
                                            derive_seed(config.seed, 1, r * 16 + i), trials));
        }
        rounds[r].push_back(route_input(request_id('R', r, 0), large_device,
                                        counts[r % counts.size()], large_gates,
                                        derive_seed(config.seed, 2, r), trials));
    }
    return run_handle_line_workload(config, {small, large}, rounds, tamper);
}

// --- certify_exact -------------------------------------------------------------

run_result run_certify_exact(const run_config& config, tamper_fn tamper) {
    const std::vector<std::string> devices =
        config.tiny ? std::vector<std::string>{"aspen4"}
                    : std::vector<std::string>{"aspen4", "guadalupe16"};
    const std::vector<int> counts = config.tiny ? std::vector<int>{2} : std::vector<int>{4, 5, 6};
    const std::size_t gates = config.tiny ? 30 : 60;
    // A round of six requests takes about 2.4 s; seven rounds give the 42
    // latency samples p75 needs.
    const std::size_t num_rounds = rounds_for(config, 2.4, 7);

    std::vector<round_inputs> rounds(num_rounds);
    for (std::size_t r = 0; r < num_rounds; ++r) {
        for (std::size_t d = 0; d < devices.size(); ++d) {
            for (std::size_t i = 0; i < counts.size(); ++i) {
                rounds[r].push_back(certify_input(request_id('c', r, d * counts.size() + i),
                                                  devices[d], counts[i], gates,
                                                  derive_seed(config.seed, 10 + d, r * 8 + i)));
            }
        }
    }
    return run_handle_line_workload(config, devices, rounds, tamper);
}

// --- campaign_fig4 ---------------------------------------------------------------

namespace {

/// The Fig. 4(a) aspen4 sweep: n in {5,10,15,20}, 300 gates, all four
/// paper tools, as one suite per count. The paper runs 10 circuits per
/// count; the run runs as many as fit its --seconds (a four-row round
/// takes about 0.16 s), and at least those 10.
qc::campaign_spec fig4_spec(const run_config& config) {
    qc::campaign_spec spec;
    spec.name = "e2e-fig4";
    spec.mode = qc::campaign_mode::tools;
    spec.sabre_trials = config.tiny ? 2 : 32;
    const std::vector<int> counts =
        config.tiny ? std::vector<int>{2, 3} : std::vector<int>{5, 10, 15, 20};
    const auto circuits = static_cast<int>(rounds_for(config, 0.16, 10));
    for (const int count : counts) {
        qubikos::core::suite_spec s;
        s.arch_name = "aspen4";
        s.swap_counts = {count};
        s.circuits_per_count = circuits;
        s.total_two_qubit_gates = config.tiny ? 40 : 300;
        s.base_seed = derive_seed(config.seed, 20, spec.suites.size()) >> 12;
        spec.suites.emplace_back(s);
    }
    return spec;
}

/// Judges the merged records against the plan and collects per-tool
/// swap ratios.
void judge_campaign(const qc::campaign_plan& plan, const std::vector<qc::stored_run>& runs,
                    tamper_fn tamper, run_result& out,
                    std::map<std::string, std::vector<double>>& ratios) {
    std::map<std::string, const qc::stored_run*> by_id;
    for (const auto& run : runs) by_id[run.unit_id] = &run;
    for (const qc::work_unit& unit : plan.units) {
        ++out.attempted;
        const auto it = by_id.find(unit.id);
        if (it == by_id.end()) {
            out.fail("unit " + unit.id + " has no record");
            continue;
        }
        qc::stored_run run = *it->second;
        if (tamper != nullptr) {
            run = qc::run_from_json(qubikos::json::parse(tamper(qc::run_to_json(run).dump())));
        }
        std::string why = check_campaign_unit(run);
        if (why.empty() && run.record.designed_swaps != unit.designed_swaps) {
            why = "unit " + unit.id + " designed count differs from the plan";
        }
        if (!why.empty()) out.fail(why);
        if (unit.designed_swaps > 0 && run.record.valid) {
            ratios[unit.tool].push_back(static_cast<double>(run.record.measured_swaps) /
                                        unit.designed_swaps);
        }
    }
}

std::uintmax_t directory_bytes(const std::string& dir) {
    std::uintmax_t bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) bytes += entry.file_size();
    }
    return bytes;
}

}  // namespace

run_result run_campaign_fig4(const run_config& config, tamper_fn tamper) {
    const qc::campaign_spec spec = fig4_spec(config);
    const std::string base = config.workdir + "/campaign-" + std::to_string(config.seed);
    fs::remove_all(base);
    fs::create_directories(base);

    // Set-up: plan expansion plus what the worker builds before its first
    // unit (devices, routing contexts, tools), sampled before the rows and
    // again after them. The rows' stores are created here too but not
    // timed: a store's creation fsyncs twice, which took 0.5-1.7 ms in
    // windows seconds apart and drowned the rest of the set-up.
    qc::campaign_plan plan;
    std::vector<double> setups;
    const auto set_up = [&] {
        const double start = now_s();
        plan = qc::expand_plan(spec);
        const qc::unit_executor executor(plan.spec);
        setups.push_back(now_s() - start);
    };
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) set_up();
    const std::vector<qc::campaign_plan> rows = instance_rows(plan);
    const std::vector<std::string> dirs = create_row_stores(plan, rows.size(), base + "/store");

    // The operation is one instance row (the instance under all four
    // tools): one run_campaign_shard call at one thread into the row's
    // store, timed on this benchmark's clock. Merge and report close the
    // campaign and count toward its throughput.
    run_result out;
    std::vector<double> latencies;
    std::vector<double> row_peaks;
    qc::worker_options options;
    options.threads = 1;
    const double start = now_s();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        reset_peak_rss();
        const double t0 = now_s();
        (void)qc::run_campaign_shard(rows[i], dirs[i], options);
        latencies.push_back(now_s() - t0);
        row_peaks.push_back(peak_rss_mb());
    }
    const qc::merged_campaign merged = qc::merge_stores(plan, dirs);
    const std::string report = qc::render_report(plan, merged);
    const double wall = now_s() - start;
    std::map<std::string, std::vector<double>> ratios;
    judge_campaign(plan, merged.runs, tamper, out, ratios);

    if (!config.trace) {
        for (int repeat = 0; repeat < kSetupRepeats; ++repeat) set_up();
        fs::remove_all(base);
        out.metrics["setup_s"] = median(setups);
        out.metrics["lat_p50_s"] = percentile(latencies, 0.5);
        out.metrics["lat_p75_s"] = percentile(latencies, 0.75);
        out.metrics["ops_per_s"] = static_cast<double>(plan.units.size()) / wall;
        out.metrics["peak_rss_mb"] = median(row_peaks);
        return out;
    }

    // Traced: replay the same rows step by step into their own store.
    tracer trace;
    const std::string replay_dir = base + "/replay";
    const double t1 = now_s();
    const campaign_outcome replayed = replay_campaign(spec, replay_dir, trace);
    const double replay_wall = now_s() - t1;
    std::string why = check_identical(replayed.report, report);
    if (why.empty() && replayed.runs.size() != merged.runs.size()) why = "record count differs";
    for (std::size_t i = 0; why.empty() && i < merged.runs.size(); ++i) {
        why = check_identical(comparable_record(replayed.runs[i]),
                              comparable_record(merged.runs[i]));
    }
    if (!why.empty()) {
        out.replay_identical = false;
        out.fail("campaign replay: " + why);
    }
    const auto num_rows = static_cast<double>(rows.size());
    finish_trace(trace, config, static_cast<double>(plan.units.size()), out);
    out.metrics["campaign.plan_s"] = trace.total("campaign.plan");
    out.metrics["campaign.report_s"] = trace.total("campaign.report");
    out.metrics["campaign.store_bytes"] = static_cast<double>(directory_bytes(replay_dir));
    out.metrics["tools.context_build_s"] = trace.total("tools.context_build") / num_rows;
    out.metrics["graph.rows_built"] = trace.counted("graph.rows_built") / num_rows;
    out.metrics["bench.trace_overhead"] = replay_wall / wall;
    for (const auto& [tool, list] : ratios) out.metrics["gap_" + tool] = geomean(list);
    fs::remove_all(base);
    return out;
}

// --- serve_mixed -----------------------------------------------------------------

namespace {

/// Client end of a socketpair: writes request lines, reads response lines.
class connection {
public:
    explicit connection(qs::server& srv) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            throw std::runtime_error("serve_mixed: socketpair failed");
        }
        fd_ = fds[0];
        srv.add_client(fds[1]);
    }
    ~connection() { close(); }
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;

    void close() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }
    [[nodiscard]] int fd() const { return fd_; }

    void send(const std::string& line) const {
        const std::string data = line + "\n";
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
            if (n <= 0) throw std::runtime_error("serve_mixed: send failed");
            off += static_cast<std::size_t>(n);
        }
    }

    /// Reads what is available; true once a full line is buffered.
    bool pump() {
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0) throw std::runtime_error("serve_mixed: server closed the connection");
        buffer_.append(chunk, static_cast<std::size_t>(n));
        return has_line();
    }
    [[nodiscard]] bool has_line() const { return buffer_.find('\n') != std::string::npos; }
    std::string take_line() {
        const std::size_t end = buffer_.find('\n');
        std::string line = buffer_.substr(0, end);
        buffer_.erase(0, end + 1);
        return line;
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

/// Waits for one response line on each connection, recording when each
/// arrived.
void await_both(connection& a, connection& b, double& a_done, double& b_done) {
    a_done = a.has_line() ? now_s() : -1.0;
    b_done = b.has_line() ? now_s() : -1.0;
    while (a_done < 0 || b_done < 0) {
        pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b.fd(), POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) throw std::runtime_error("serve_mixed: poll failed");
        if (a_done < 0 && fds[0].revents != 0 && a.pump()) a_done = now_s();
        if (b_done < 0 && fds[1].revents != 0 && b.pump()) b_done = now_s();
    }
}

/// The daemon side of serve_mixed: engine, in-process server and the
/// two client connections (declared so they tear down back to front).
struct served_daemon {
    std::unique_ptr<qs::engine> eng;
    std::unique_ptr<qs::server> srv;
    std::unique_ptr<connection> a;
    std::unique_ptr<connection> b;

    void reset() {
        b.reset();
        a.reset();
        srv.reset();
        eng.reset();
    }
};

/// One set-up: engine, server, both connections and a cold device_for
/// per device.
served_daemon set_up_daemon(const std::string& slow_device, const std::string& fast_device,
                     setup_samples& samples) {
    served_daemon d;
    const double start = now_s();
    d.eng = std::make_unique<qs::engine>();
    d.srv = std::make_unique<qs::server>(*d.eng);
    d.a = std::make_unique<connection>(*d.srv);
    d.b = std::make_unique<connection>(*d.srv);
    const double built = now_s();
    (void)d.eng->device_for(slow_device);
    (void)d.eng->device_for(fast_device);
    const double end = now_s();
    samples.total.push_back(end - start);
    samples.contexts.push_back(end - built);
    return d;
}

struct round_record {
    std::string slow_response;
    std::string fast_response;
    double slow_lat = 0.0;
    double fast_lat = 0.0;
    double peak_rss = 0.0;
};

}  // namespace

run_result run_serve_mixed(const run_config& config, tamper_fn tamper) {
    // Connection A sends a slow aspen4 certify, connection B right after
    // it a small sycamore54 route; B's latency is what the dispatcher sets.
    // At k=3 a certify takes 0.1-0.3 s, so a round takes about 0.14 s and
    // a run holds about 140 rounds; the per-round memory peak no longer
    // depends on which few hard k=4 instances a seed draws.
    const std::string slow_device = "aspen4";
    const std::string fast_device = "sycamore54";
    const int slow_swaps = config.tiny ? 2 : 3;
    const std::size_t slow_gates = config.tiny ? 30 : 60;
    const int fast_swaps = config.tiny ? 2 : 3;
    const std::size_t fast_gates = 60;
    const std::size_t num_rounds = rounds_for(config, 0.14, 48);

    const auto devices = device_map({slow_device, fast_device});
    std::vector<request_input> slow(num_rounds);
    std::vector<request_input> fast(num_rounds);
    for (std::size_t r = 0; r < num_rounds; ++r) {
        slow[r] = certify_input(request_id('a', r, 0), slow_device, slow_swaps, slow_gates,
                                derive_seed(config.seed, 30, r));
        fast[r] = route_input(request_id('b', r, 0), devices.at(fast_device), fast_swaps,
                              fast_gates, derive_seed(config.seed, 31, r), 1);
    }

    setup_samples setups;
    served_daemon d = set_up_daemon(slow_device, fast_device, setups);
    for (int repeat = 1; repeat < kSetupRepeats; ++repeat) {
        d.reset();
        d = set_up_daemon(slow_device, fast_device, setups);
    }

    const auto before = qubikos::obs::collect();
    std::vector<round_record> records;
    const double start = now_s();
    for (std::size_t r = 0; r < num_rounds; ++r) {
        round_record rec;
        reset_peak_rss();
        const double a_sent = now_s();
        d.a->send(slow[r].line);
        // Let the dispatcher take A as a batch of its own (it then runs A
        // on its own thread and cannot read B until A is answered). Sent
        // together, A and B share a batch in some rounds only, which made
        // latency and memory depend on that race.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const double b_sent = now_s();
        d.b->send(fast[r].line);
        double a_done = 0.0;
        double b_done = 0.0;
        await_both(*d.a, *d.b, a_done, b_done);
        rec.slow_lat = a_done - a_sent;
        rec.fast_lat = b_done - b_sent;
        rec.slow_response = d.a->take_line();
        rec.fast_response = d.b->take_line();
        rec.peak_rss = peak_rss_mb();
        records.push_back(std::move(rec));
    }
    const double wall = now_s() - start;
    const auto after = qubikos::obs::collect();
    d.a.reset();
    d.b.reset();
    d.srv->stop();
    qs::engine& eng = *d.eng;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
        set_up_daemon(slow_device, fast_device, setups).reset();
    }

    run_result out;
    std::vector<double> fast_lat;
    std::vector<double> slow_lat;
    std::vector<double> round_peaks;
    std::vector<double> gap_ratios;
    tracer trace;
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (std::size_t r = 0; r < records.size(); ++r) {
        const round_record& rec = records[r];
        fast_lat.push_back(rec.fast_lat);
        slow_lat.push_back(rec.slow_lat);
        round_peaks.push_back(rec.peak_rss);
        untraced_s += std::max(rec.slow_lat, rec.fast_lat);
        out.attempted += 2;
        std::string slow_got = rec.slow_response;
        std::string fast_got = rec.fast_response;
        if (tamper != nullptr) {
            slow_got = tamper(slow_got);
            fast_got = tamper(fast_got);
        }
        // B: byte-equal to the same request run alone; A: byte-equal to
        // the certify oracle's line (running every certify alone again
        // would double the run).
        long long swaps = -1;
        std::string fast_why = check_identical(fast_got, qs::handle_line(eng, fast[r].line));
        if (fast_why.empty()) {
            fast_why = check_route(fast_got, devices.at(fast_device).coupling, fast[r].designed,
                                   &swaps);
        }
        std::string slow_why = check_identical(
            slow_got, expected_certify_line(request_id('a', r, 0), slow_device, slow_swaps));
        if (swaps > 0) {
            gap_ratios.push_back(static_cast<double>(swaps) / fast[r].designed);
        }
        if (config.trace) {
            const double t0 = now_s();
            const std::string slow_replayed = replay_request(eng, slow[r].line, trace);
            const std::string fast_replayed = replay_request(eng, fast[r].line, trace);
            traced_s += now_s() - t0;
            const std::string slow_diff = check_identical(slow_replayed, rec.slow_response);
            const std::string fast_diff = check_identical(fast_replayed, rec.fast_response);
            if (!slow_diff.empty() || !fast_diff.empty()) out.replay_identical = false;
            if (slow_why.empty() && !slow_diff.empty()) slow_why = "replay: " + slow_diff;
            if (fast_why.empty() && !fast_diff.empty()) fast_why = "replay: " + fast_diff;
        }
        if (!fast_why.empty()) out.fail("serve_mixed b" + std::to_string(r) + ": " + fast_why);
        if (!slow_why.empty()) out.fail("serve_mixed a" + std::to_string(r) + ": " + slow_why);
    }

    if (!config.trace) {
        out.metrics["setup_s"] = median(setups.total);
        out.metrics["lat_p50_s"] = percentile(fast_lat, 0.5);
        out.metrics["lat_p75_s"] = percentile(fast_lat, 0.75);
        out.metrics["ops_per_s"] = 2.0 * static_cast<double>(records.size()) / wall;
        out.metrics["peak_rss_mb"] = median(round_peaks);
        return out;
    }
    finish_trace(trace, config, 2.0 * static_cast<double>(records.size()), out);
    const double waits = static_cast<double>(after.value("serve.queue_wait.calls") -
                                             before.value("serve.queue_wait.calls"));
    const double wait_ns = static_cast<double>(after.value("serve.queue_wait.ns") -
                                               before.value("serve.queue_wait.ns"));
    out.metrics["serve.queue_wait_s"] = waits > 0 ? wait_ns * 1e-9 / waits : 0.0;
    out.metrics["serve.batches"] =
        static_cast<double>(after.value("serve.batches") - before.value("serve.batches")) /
        static_cast<double>(records.size());
    out.metrics["serve.slow_lat_s"] = median(slow_lat);
    out.metrics["bench.trace_overhead"] = traced_s / untraced_s;
    out.metrics["tools.context_build_s"] = median(setups.contexts);
    out.metrics["graph.rows_built"] = rows_built(eng, {slow_device, fast_device});
    if (!gap_ratios.empty()) out.metrics["gap_lightsabre"] = geomean(gap_ratios);
    return out;
}

}  // namespace e2e
