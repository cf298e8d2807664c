// Tool-evaluation harness: runs QLS tools over a QUBIKOS suite and
// aggregates swap ratios (the Sec. IV-B experiment).
//
// Every routed result is validated before being counted; an invalid
// result is recorded but excluded from the aggregates (and loudly
// reported by the benches — none of the shipped tools produce one).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "circuit/routed.hpp"
#include "core/suite.hpp"
#include "eval/metrics.hpp"

namespace qubikos::tools {
class routing_context;  // tools/context.hpp (tools/ sits above eval/)
}  // namespace qubikos::tools

namespace qubikos::eval {

/// Router statistics a tool may report alongside its routed circuit
/// (see tool::run_stats). Fields mirror run_record's router stats.
struct tool_run_stats {
    bool present = false;
    long long trials_run = 0;
    long long trials_pruned = 0;
    long long pass_decisions = 0;
    long long arena_slots = 0;
};

/// A named QLS tool: circuit + coupling graph -> routed circuit.
/// `run_stats` is the same routing (same options, same seed) with any
/// router-internal statistics surfaced; the harness prefers it when set.
/// Registry tools set both, leaving tool_run_stats::present false when
/// the router has nothing to report. Aggregate initialization
/// `{"name", fn}` stays valid.
struct tool {
    std::string name;
    std::function<routed_circuit(const circuit&, const graph&)> run;
    std::function<routed_circuit(const circuit&, const graph&, tool_run_stats&)> run_stats;
};

/// Builds the standard four-tool lineup (lightsabre, mlqls, qmap, tket)
/// by querying the tool registry (tools/registry.hpp), which holds the
/// lineup, docs and option schemas. `sabre_trials` is the LightSABRE
/// trial count — 32 by default here, 1000 in the paper (benches scale it
/// down and say so) — and `seed` feeds every seeded tool; every other
/// knob keeps its registry default. A non-null `context` (see
/// tools::make_routing_context) lets every tool share one distance
/// provider for the device it will run on.
[[nodiscard]] std::vector<tool> paper_toolbox(
    int sabre_trials = 32, std::uint64_t seed = 1,
    std::shared_ptr<const tools::routing_context> context = nullptr);

struct evaluation_result {
    std::vector<run_record> records;
    std::vector<ratio_cell> cells;
    int invalid_runs = 0;
};

/// Runs one tool on one instance and fills the complete run_record — the
/// per-pair primitive of evaluate_suite. The campaign worker calls this
/// same function, so a store record and a serial harness record agree
/// field for field by construction (seconds is thread-CPU time around
/// the tool invocation only; validation is untimed).
[[nodiscard]] run_record run_tool_record(const tool& t, const core::benchmark_instance& instance,
                                         const arch::architecture& device);

/// Runs every tool on every instance of the suite. The (tool x instance)
/// grid is embarrassingly parallel: pairs run on a thread pool sized by
/// `threads` (0 = auto via QUBIKOS_THREADS / hardware_concurrency, 1 =
/// serial) and each writes a preallocated record slot, so records keep
/// the serial order (instance-major, tool-minor) and identical swap
/// counts, validity and depth ratios for every thread count. `seconds`
/// is per-record *thread-CPU* time (serial timing semantics): it measures
/// what the tool invocation itself costs and does not inflate when
/// sibling records contend for cores, so records taken at any `threads`
/// are comparable. It still excludes nothing the tool does internally —
/// keep the tools themselves serial (sabre_options::threads = 1) when
/// parallelizing here, both to avoid oversubscription and so a tool's
/// own worker threads don't escape its timing.
[[nodiscard]] evaluation_result evaluate_suite(const core::suite& s,
                                               const arch::architecture& device,
                                               const std::vector<tool>& tools,
                                               int threads = 1);

}  // namespace qubikos::eval
