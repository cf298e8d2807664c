// Shared machinery for the heuristic QLS tools.
//
// All four routers (SABRE, t|ket>-style, QMAP-style, ML-QLS-style) share:
//   - dag_frontier: incremental front layer over the gate dependency DAG;
//   - emission_buffer: writes the physical circuit, interleaving the
//     single-qubit gates at their correct positions;
//   - greedy_placement: interaction-aware initial mapping used by the
//     tket/QMAP-style flows;
//   - shortest-path fallback routing used as a progress guarantee.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/mapping.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qubikos::router {

/// Incremental front layer of a gate_dag.
class dag_frontier {
public:
    explicit dag_frontier(const gate_dag& dag);

    /// Re-initializes over `dag` (which may be the same one), reusing
    /// the internal buffers' capacity — per-trial arenas reset one
    /// frontier per pass instead of constructing a fresh one.
    void reset(const gate_dag& dag);

    [[nodiscard]] const std::vector<int>& front() const { return front_; }
    [[nodiscard]] bool done() const { return executed_ == dag_->num_nodes(); }
    [[nodiscard]] int executed_count() const { return executed_; }
    [[nodiscard]] bool executed(int node) const {
        return executed_flags_[static_cast<std::size_t>(node)] != 0;
    }

    /// Marks a front node executed and promotes newly ready successors.
    void execute(int node);

    /// Collects up to `limit` upcoming nodes beyond the front (BFS over
    /// successors, deduplicated, in discovery order) — SABRE's extended
    /// set.
    [[nodiscard]] std::vector<int> lookahead_set(int limit) const;

    /// Allocation-free variant: fills `out` (cleared first) with exactly
    /// the nodes lookahead_set(limit) would return, using the caller's
    /// `seen`/`queue` scratch. The routers call this once per emitted
    /// swap, so the buffers' capacity persists across the routing loop.
    void lookahead_set(int limit, std::vector<int>& out, std::vector<char>& seen,
                       std::vector<int>& queue) const;

private:
    const gate_dag* dag_;
    std::vector<int> remaining_preds_;
    std::vector<char> executed_flags_;
    std::vector<int> front_;
    int executed_ = 0;
};

/// Emits the physical circuit: swaps on demand, two-qubit gates when the
/// router schedules them, and pending single-qubit gates just before the
/// first later gate on the same qubit.
class emission_buffer {
public:
    emission_buffer(const circuit& logical, const gate_dag& dag, int num_physical);

    /// Emits DAG node `node` (and any pending earlier single-qubit gates
    /// on its operands) under the current mapping.
    void execute_two_qubit(int node, const mapping& current);

    void emit_swap(int pa, int pb);

    /// Emits all trailing single-qubit gates; call once after routing.
    void finish(const mapping& current);

    /// Rewinds to the just-constructed state (no gates emitted, cursors
    /// at zero) while keeping the per-qubit index lists and all buffer
    /// capacity — the same logical circuit can be routed again with zero
    /// steady-state allocation. Per-trial arenas call this between
    /// trials.
    void reset();

    [[nodiscard]] circuit take() { return std::move(physical_); }
    /// Borrow the emitted circuit without consuming it (arenas copy the
    /// best trial's circuit out and then reset() for the next trial).
    [[nodiscard]] const circuit& physical_circuit() const { return physical_; }
    [[nodiscard]] std::size_t swaps_emitted() const { return swaps_; }

private:
    void drain_single_qubit(int program_qubit, std::size_t before_index, const mapping& current);

    const circuit* logical_;
    const gate_dag* dag_;
    circuit physical_;
    /// Per program qubit: indices of logical gates touching it, ascending.
    std::vector<std::vector<std::size_t>> per_qubit_;
    std::vector<std::size_t> cursor_;
    std::size_t swaps_ = 0;
};

/// Interaction-aware greedy initial placement: program qubits in
/// descending interaction-degree order, each placed on the free physical
/// qubit minimizing summed distance to already-placed interaction
/// partners (ties: higher physical degree). Used by the tket- and
/// QMAP-style flows. `gate_window` limits how many leading two-qubit
/// gates the placement sees (0 = all) — real placement passes only look
/// at a prefix of the circuit.
[[nodiscard]] mapping greedy_placement(const circuit& logical, const distance_provider& dist,
                                       std::size_t gate_window = 0);

/// Progress fallback: swaps one endpoint of `node`'s gate along a
/// shortest path until the gate is executable, emitting the swaps.
/// Guarantees any single gate becomes executable in <= diameter swaps.
void force_route(int node, const gate_dag& dag, const distance_provider& dist, mapping& current,
                 emission_buffer& out);

/// Candidate swaps for a front layer: all coupling edges incident to the
/// physical location of any front-gate operand (normalized, deduplicated,
/// ascending). Fills `out` (cleared first) via sort+unique on the caller's
/// reused buffer — the routers call this once per emitted swap, so the
/// buffer's capacity persists across the whole routing loop instead of a
/// std::set allocating per node per decision point.
void candidate_swaps(const std::vector<int>& front, const gate_dag& dag,
                     const distance_provider& dist, const mapping& current,
                     std::vector<edge>& out);

}  // namespace qubikos::router
