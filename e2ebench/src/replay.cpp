// Traced replays of the route, certify and campaign operations.
#include "replay.hpp"

#include <map>
#include <utility>
#include <memory>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "campaign/merge.hpp"
#include "campaign/report.hpp"
#include "campaign/worker.hpp"
#include "circuit/qasm.hpp"
#include "circuit/routed.hpp"
#include "core/qubikos.hpp"
#include "eval/harness.hpp"
#include "exact/olsq.hpp"
#include "obs/obs.hpp"
#include "serve/request.hpp"
#include "tools/registry.hpp"

namespace e2e {

namespace qs = qubikos::serve;
namespace qc = qubikos::campaign;
using qubikos::circuit;
using qubikos::routed_circuit;

namespace {

/// Span name of a tool's run callable (span names must outlive the run).
const char* router_span(const std::string& tool) {
    if (tool == "lightsabre") return "router.lightsabre";
    if (tool == "mlqls") return "router.mlqls";
    if (tool == "qmap") return "router.qmap";
    if (tool == "tket") return "router.tket";
    return "router.other";
}

/// Runs a tool inside its router span, recording the router stats the
/// tool reports (eval::tool_run_stats) at the same boundary.
routed_circuit run_tool(const qubikos::eval::tool& tool, const std::string& registry_name,
                        const circuit& logical, const qubikos::graph& coupling, tracer& t) {
    qubikos::eval::tool_run_stats stats;
    routed_circuit routed;
    {
        const span s(t, router_span(registry_name));
        routed = tool.run_stats ? tool.run_stats(logical, coupling, stats)
                                : tool.run(logical, coupling);
    }
    if (stats.present) {
        t.count("router.sabre_decisions", static_cast<double>(stats.pass_decisions));
        t.count("router.sabre_trials_run", static_cast<double>(stats.trials_run));
    }
    return routed;
}

std::string replay_route(qs::engine& eng, const qs::route_request& req, tracer& t) {
    std::shared_ptr<const qs::engine::device_entry> entry;
    {
        const span s(t, "tools.device_for");
        entry = eng.device_for(req.device);
    }
    const qubikos::graph& coupling = entry->device.coupling;
    // The workloads send every route as inline QASM.
    if (req.generate.has_value()) throw std::runtime_error("replay: route without QASM");
    circuit logical;
    {
        const span s(t, "circuit.qasm_parse");
        logical = qubikos::qasm::parse(req.qasm);
    }
    qubikos::eval::tool tool;
    {
        const span s(t, "tools.make_tool");
        tool = qubikos::tools::make_tool(req.tool, req.options, entry->context);
    }
    const routed_circuit routed = run_tool(tool, req.tool, logical, coupling, t);
    qubikos::validation_report report;
    {
        const span s(t, "circuit.validate");
        report = qubikos::validate_routed(logical, routed, coupling);
    }
    qs::route_response resp;
    resp.id = req.id;
    resp.device = req.device;
    resp.tool = qubikos::tools::tool_selection{req.tool, req.options}.canonical();
    resp.swaps = report.swap_count;
    resp.legal = report.valid;
    resp.validation_error = report.error;
    {
        const span s(t, "circuit.depth");
        resp.depth = routed.physical.depth();
        const int logical_depth = logical.depth();
        if (logical_depth > 0) {
            resp.depth_ratio =
                static_cast<double>(resp.depth) / static_cast<double>(logical_depth);
        }
    }
    t.count("router.swaps", static_cast<double>(report.swap_count));
    if (req.emit_qasm) {
        const span s(t, "circuit.qasm_write");
        resp.qasm = qubikos::qasm::write(routed.physical);
    }
    t.count("circuit.qasm_bytes", static_cast<double>(resp.qasm.size()));
    const span s(t, "serve.emit");
    return resp.to_json().dump();
}

std::string replay_certify(qs::engine& eng, const qs::certify_request& req, tracer& t) {
    std::shared_ptr<const qs::engine::device_entry> entry;
    {
        const span s(t, "tools.device_for");
        entry = eng.device_for(req.device);
    }
    qubikos::core::benchmark_instance instance;
    {
        const span s(t, "core.generate");
        qubikos::core::generator_options options;
        options.num_swaps = req.generate.swaps;
        options.total_two_qubit_gates = req.generate.gates;
        options.seed = req.generate.seed;
        instance = qubikos::core::generate(entry->device, options);
    }
    // The engine's bracket: UNSAT at k-1, SAT at k, one past k to turn a
    // wrong declared count into a mismatch (exact::solve_optimal's loop).
    const int declared = instance.optimal_swaps;
    qs::certify_response resp;
    resp.id = req.id;
    resp.device = req.device;
    resp.declared_swaps = declared;
    for (int k = declared > 0 ? declared - 1 : 0; k <= declared + 1; ++k) {
        routed_circuit witness;
        qubikos::exact::feasibility f;
        {
            const char* name = k < declared    ? "exact.unsat"
                               : k == declared ? "exact.sat"
                                               : "exact.check";
            const span s(t, name);
            f = qubikos::exact::check_swap_count(instance.logical, entry->device.coupling, k,
                                                 req.conflict_limit, &witness);
        }
        if (f == qubikos::exact::feasibility::unknown) {
            resp.aborted = true;
            break;
        }
        if (f == qubikos::exact::feasibility::feasible) {
            resp.solver_swaps = k;
            resp.confirmed = k == declared;
            break;
        }
    }
    const span s(t, "serve.emit");
    return resp.to_json().dump();
}

/// campaign/worker.cpp's spec-level overrides for one tool variant:
/// sabre_trials feeds lightsabre's trial count, toolbox_seed every seeded
/// tool, and the variant's own overrides win on top.
qubikos::json::value campaign_overrides(const qc::campaign_spec& spec,
                                        const qc::tool_variant& variant) {
    const auto& info = qubikos::tools::tool_registry_info(variant.name);
    qubikos::json::object merged;
    if (variant.name == "lightsabre" && info.find_option("trials") != nullptr) {
        merged["trials"] = spec.sabre_trials;
    }
    if (info.find_option("seed") != nullptr) {
        merged["seed"] = static_cast<std::int64_t>(spec.toolbox_seed);
    }
    if (variant.has_options()) {
        for (const auto& [key, value] : variant.options.as_object()) merged[key] = value;
    }
    return qubikos::json::value(std::move(merged));
}

}  // namespace

std::string replay_request(qs::engine& eng, const std::string& line, tracer& t) {
    const double conflicts_before =
        static_cast<double>(qubikos::obs::collect().value("sat.conflicts"));
    t.begin_op();
    std::string response;
    {
        const span root(t, "bench.op");
        qs::request req;
        {
            const span s(t, "serve.parse");
            req = qs::parse_request(line);
        }
        if (req.which == qs::op::route) {
            response = replay_route(eng, req.route, t);
        } else if (req.which == qs::op::certify) {
            response = replay_certify(eng, req.certify, t);
        } else {
            throw std::runtime_error("replay: unsupported op in " + line);
        }
    }
    t.count("exact.conflicts",
            static_cast<double>(qubikos::obs::collect().value("sat.conflicts")) - conflicts_before);
    return response;
}

std::vector<qc::campaign_plan> instance_rows(const qc::campaign_plan& plan) {
    std::map<std::pair<std::size_t, std::size_t>, qc::campaign_plan> rows;
    for (const qc::work_unit& unit : plan.units) {
        qc::campaign_plan& row = rows[{unit.instance_index, unit.suite_index}];
        if (row.units.empty()) row.spec = plan.spec;
        row.units.push_back(unit);
    }
    std::vector<qc::campaign_plan> out;
    out.reserve(rows.size());
    for (auto& [key, row] : rows) out.push_back(std::move(row));
    return out;
}

std::vector<std::string> create_row_stores(const qc::campaign_plan& plan, std::size_t rows,
                                           const std::string& base) {
    std::vector<std::string> dirs;
    dirs.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        dirs.push_back(base + "/" + std::to_string(i));
        const qc::result_store store(dirs.back(), plan.spec);
    }
    return dirs;
}

namespace {

/// One run_campaign_shard call on a row plan at one thread, step by step:
/// store open -> contexts and tools (the unit_executor) -> per unit
/// (generate -> run -> validate -> store append) -> flush per batch.
void replay_row(const qc::campaign_plan& row, const std::string& store_dir, tracer& t) {
    std::unique_ptr<qc::result_store> store;
    {
        const span s(t, "campaign.store_open");
        store = std::make_unique<qc::result_store>(store_dir, row.spec);
    }

    // unit_executor's set-up: one context per distinct device, one tool
    // lineup per suite bound to it.
    std::vector<qubikos::arch::architecture> devices;
    std::vector<std::vector<qubikos::eval::tool>> suite_tools;
    std::vector<std::vector<std::string>> suite_tool_names;
    std::map<std::string, std::shared_ptr<const qubikos::tools::routing_context>> contexts;
    {
        const auto variants = qc::resolved_tool_variants(row.spec);
        for (const auto& suite : row.spec.suites) {
            auto& context = contexts[suite.arch_name];
            {
                const span s(t, "tools.context_build");
                devices.push_back(qubikos::arch::by_name(suite.arch_name));
                if (context == nullptr) {
                    context = qubikos::tools::make_routing_context(devices.back().coupling);
                }
            }
            suite_tools.emplace_back();
            suite_tool_names.emplace_back();
            for (const auto& variant : variants) {
                const span s(t, "tools.make_tool");
                qubikos::eval::tool tool = qubikos::tools::make_tool(
                    variant.name, campaign_overrides(row.spec, variant), context);
                tool.name = variant.display();
                suite_tools.back().push_back(std::move(tool));
                suite_tool_names.back().push_back(variant.name);
            }
        }
    }

    // The worker's loop at one thread: execute, append in unit order,
    // flush once per batch.
    const std::size_t batch_size = qc::worker_options{}.batch_size;
    for (std::size_t i = 0; i < row.units.size(); ++i) {
        const qc::work_unit& unit = row.units[i];
        qc::stored_run run;
        {
            const span unit_span(t, "campaign.unit");
            const qc::campaign_suite& suite = row.spec.suites[unit.suite_index];
            const auto& device = devices[unit.suite_index];
            qubikos::core::benchmark_instance instance;
            {
                const span s(t, "core.generate");
                qubikos::core::generator_options generator;
                generator.num_swaps = unit.sweep_value;
                generator.total_two_qubit_gates = suite.total_two_qubit_gates;
                generator.single_qubit_rate = suite.single_qubit_rate;
                generator.seed = unit.instance_seed;
                instance = qubikos::core::generate(device, generator);
            }
            const auto& tools = suite_tools[unit.suite_index];
            std::size_t which = 0;
            while (which < tools.size() && tools[which].name != unit.tool) ++which;
            if (which == tools.size()) {
                throw std::runtime_error("replay: unknown tool " + unit.tool);
            }
            const qubikos::eval::tool& tool = tools[which];
            const std::string& registry_name = suite_tool_names[unit.suite_index][which];
            // run_tool_record times and validates; the wrapper puts the
            // tool's own call in its router span inside that.
            qubikos::eval::tool traced{tool.name, nullptr, nullptr};
            traced.run_stats = [&](const circuit& c, const qubikos::graph& g,
                                   qubikos::eval::tool_run_stats& stats) {
                const span s(t, router_span(registry_name));
                return tool.run_stats ? tool.run_stats(c, g, stats) : tool.run(c, g);
            };
            {
                const span s(t, "circuit.validate");
                run.record = qubikos::eval::run_tool_record(traced, instance, device);
            }
            run.unit_id = unit.id;
            run.attempt = 1;
            if (run.record.trials_run >= 0) {
                t.count("router.sabre_decisions", static_cast<double>(run.record.pass_decisions));
                t.count("router.sabre_trials_run", static_cast<double>(run.record.trials_run));
            }
            t.count("router.swaps", static_cast<double>(run.record.measured_swaps));
            const span s(t, "campaign.store_append");
            store->append(run);
        }
        if ((i + 1) % batch_size == 0 || i + 1 == row.units.size()) {
            const span s(t, "campaign.store_flush");
            store->flush();
        }
    }
    for (const auto& [name, context] : contexts) {
        t.count("graph.rows_built", static_cast<double>(context->distances().rows_built()));
    }
}

}  // namespace

campaign_outcome replay_campaign(const qc::campaign_spec& spec, const std::string& store_dir,
                                 tracer& t) {
    qc::campaign_plan plan;
    {
        const span s(t, "campaign.plan");
        plan = qc::expand_plan(spec);
    }
    const std::vector<qc::campaign_plan> rows = instance_rows(plan);
    std::vector<std::string> dirs;
    {
        const span s(t, "campaign.store_create");
        dirs = create_row_stores(plan, rows.size(), store_dir);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        t.begin_op();
        const span root(t, "bench.op");
        replay_row(rows[i], dirs[i], t);
    }

    campaign_outcome out;
    qc::merged_campaign merged;
    {
        const span s(t, "campaign.merge");
        merged = qc::merge_stores(plan, dirs);
    }
    {
        const span s(t, "campaign.report");
        out.report = qc::render_report(plan, merged);
    }
    out.runs = std::move(merged.runs);
    return out;
}

std::string comparable_record(qc::stored_run run) {
    run.record.seconds = 0.0;
    return qc::run_to_json(run).dump();
}

}  // namespace e2e
