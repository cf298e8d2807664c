// Traced replays: each operation re-run step by step from the
// benchmark's own code, one span around every call into a library
// module, producing the same bytes as the untraced entry point.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/plan.hpp"
#include "serve/engine.hpp"

namespace e2e {

/// Replays one route or certify request line under a "bench.op" root
/// span and returns the response line handle_line would produce.
///   route:   parse -> device_for -> qasm::parse -> make_tool -> run ->
///            validate_routed -> depth -> qasm::write -> emit
///   certify: parse -> device_for -> generate -> check_swap_count per k
///            -> emit
[[nodiscard]] std::string replay_request(qubikos::serve::engine& eng, const std::string& line,
                                         tracer& t);

/// The campaign's operations: one plan per instance row (the units of
/// one suite instance under every tool), ordered instance-major so each
/// suite's rows are spread over the whole run.
[[nodiscard]] std::vector<qubikos::campaign::campaign_plan> instance_rows(
    const qubikos::campaign::campaign_plan& plan);

/// Creates one empty store per row, `base`/0 ... `base`/<rows-1>, and
/// returns their paths. Each row writes its own store, so a row's call
/// costs the same wherever it falls in the run (reopening one shared
/// store rereads every record written before).
[[nodiscard]] std::vector<std::string> create_row_stores(
    const qubikos::campaign::campaign_plan& plan, std::size_t rows, const std::string& base);

/// What a replayed campaign leaves behind: the merged records in plan
/// order and the rendered Fig. 4 report.
struct campaign_outcome {
    std::vector<qubikos::campaign::stored_run> runs;
    std::string report;
};

/// Replays the campaign's rows step by step, each as the
/// run_campaign_shard call on its row plan does it into its own store
/// under `store_dir`: expand_plan -> store creation -> per row (store
/// open -> contexts and tools -> per unit (generate -> run -> validate ->
/// store append) -> flush) -> merge -> render_report.
[[nodiscard]] campaign_outcome replay_campaign(const qubikos::campaign::campaign_spec& spec,
                                               const std::string& store_dir, tracer& t);

/// One record as compared between the untraced and the replayed store:
/// its JSON with the timing field zeroed.
[[nodiscard]] std::string comparable_record(qubikos::campaign::stored_run run);

}  // namespace e2e
