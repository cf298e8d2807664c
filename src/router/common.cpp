// qubikos-lint: hot-path — dag_frontier/score kernels run once per gate per trial.
#include "router/common.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace qubikos::router {

// --- dag_frontier ----------------------------------------------------------

dag_frontier::dag_frontier(const gate_dag& dag) { reset(dag); }

void dag_frontier::reset(const gate_dag& dag) {
    dag_ = &dag;
    executed_ = 0;
    front_.clear();
    remaining_preds_.resize(static_cast<std::size_t>(dag.num_nodes()));
    executed_flags_.assign(static_cast<std::size_t>(dag.num_nodes()), 0);
    for (int node = 0; node < dag.num_nodes(); ++node) {
        remaining_preds_[static_cast<std::size_t>(node)] =
            static_cast<int>(dag.preds(node).size());
        if (remaining_preds_[static_cast<std::size_t>(node)] == 0) front_.push_back(node);
    }
}

void dag_frontier::execute(int node) {
    const auto it = std::find(front_.begin(), front_.end(), node);
    if (it == front_.end()) {
        throw std::logic_error("dag_frontier::execute: node not in front layer");
    }
    front_.erase(it);
    executed_flags_[static_cast<std::size_t>(node)] = 1;
    ++executed_;
    for (const int succ : dag_->succs(node)) {
        if (--remaining_preds_[static_cast<std::size_t>(succ)] == 0) front_.push_back(succ);
    }
}

std::vector<int> dag_frontier::lookahead_set(int limit) const {
    std::vector<int> out;
    std::vector<char> seen;
    std::vector<int> queue;
    lookahead_set(limit, out, seen, queue);
    return out;
}

void dag_frontier::lookahead_set(int limit, std::vector<int>& out, std::vector<char>& seen,
                                 std::vector<int>& queue) const {
    out.clear();
    if (limit <= 0) return;
    seen.assign(static_cast<std::size_t>(dag_->num_nodes()), 0);
    queue.clear();
    // The deque of the allocating version becomes a vector plus a head
    // cursor: pops never reclaim space, so the traversal order (and the
    // returned set) is unchanged while the storage is reusable.
    std::size_t head = 0;
    for (const int node : front_) {
        seen[static_cast<std::size_t>(node)] = 1;
        queue.push_back(node);
    }
    while (head < queue.size() && static_cast<int>(out.size()) < limit) {
        const int cur = queue[head++];
        for (const int succ : dag_->succs(cur)) {
            if (seen[static_cast<std::size_t>(succ)] ||
                executed_flags_[static_cast<std::size_t>(succ)]) {
                continue;
            }
            seen[static_cast<std::size_t>(succ)] = 1;
            out.push_back(succ);
            if (static_cast<int>(out.size()) >= limit) break;
            queue.push_back(succ);
        }
    }
}

// --- emission_buffer --------------------------------------------------------

emission_buffer::emission_buffer(const circuit& logical, const gate_dag& dag, int num_physical)
    : logical_(&logical), dag_(&dag), physical_(num_physical) {
    per_qubit_.resize(static_cast<std::size_t>(logical.num_qubits()));
    cursor_.assign(static_cast<std::size_t>(logical.num_qubits()), 0);
    for (std::size_t i = 0; i < logical.size(); ++i) {
        const gate& g = logical[i];
        per_qubit_[static_cast<std::size_t>(g.q0)].push_back(i);
        if (g.is_two_qubit()) per_qubit_[static_cast<std::size_t>(g.q1)].push_back(i);
    }
}

void emission_buffer::drain_single_qubit(int program_qubit, std::size_t before_index,
                                         const mapping& current) {
    auto& cursor = cursor_[static_cast<std::size_t>(program_qubit)];
    const auto& list = per_qubit_[static_cast<std::size_t>(program_qubit)];
    while (cursor < list.size() && list[cursor] < before_index) {
        const gate& g = (*logical_)[list[cursor]];
        if (g.is_two_qubit()) {
            throw std::logic_error(
                "emission_buffer: two-qubit gate executed out of dependency order");
        }
        physical_.append(gate::single(g.kind, current.physical(program_qubit), g.angle));
        ++cursor;
    }
}

void emission_buffer::execute_two_qubit(int node, const mapping& current) {
    const std::size_t index = dag_->circuit_index(node);
    const gate& g = dag_->node_gate(node);
    drain_single_qubit(g.q0, index, current);
    drain_single_qubit(g.q1, index, current);
    physical_.append(gate::two(g.kind, current.physical(g.q0), current.physical(g.q1)));
    // Step both cursors past this gate.
    ++cursor_[static_cast<std::size_t>(g.q0)];
    ++cursor_[static_cast<std::size_t>(g.q1)];
}

void emission_buffer::emit_swap(int pa, int pb) {
    physical_.append(gate::swap_gate(pa, pb));
    ++swaps_;
}

void emission_buffer::finish(const mapping& current) {
    for (int q = 0; q < logical_->num_qubits(); ++q) {
        drain_single_qubit(q, logical_->size(), current);
    }
}

void emission_buffer::reset() {
    physical_.clear_gates();
    std::fill(cursor_.begin(), cursor_.end(), 0);
    swaps_ = 0;
}

// --- greedy placement -------------------------------------------------------

mapping greedy_placement(const circuit& logical, const distance_provider& dist,
                         std::size_t gate_window) {
    const graph& coupling = dist.coupling();
    const int num_program = logical.num_qubits();
    const int num_physical = coupling.num_vertices();
    if (num_program > num_physical) {
        throw std::invalid_argument("greedy_placement: more program than physical qubits");
    }

    // Interaction graph of (a prefix of) the circuit.
    graph interactions(num_program);
    std::size_t seen = 0;
    for (const auto& g : logical.gates()) {
        if (!g.is_two_qubit()) continue;
        if (gate_window != 0 && seen >= gate_window) break;
        interactions.add_edge_if_absent(g.q0, g.q1);
        ++seen;
    }

    std::vector<int> order(static_cast<std::size_t>(num_program));
    for (int q = 0; q < num_program; ++q) order[static_cast<std::size_t>(q)] = q;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return interactions.degree(a) > interactions.degree(b);
    });

    std::vector<int> q2p(static_cast<std::size_t>(num_program), -1);
    std::vector<char> used(static_cast<std::size_t>(num_physical), 0);
    for (const int q : order) {
        int best = -1;
        long best_cost = 0;
        for (int p = 0; p < num_physical; ++p) {
            if (used[static_cast<std::size_t>(p)]) continue;
            long cost = 0;
            for (const int partner : interactions.neighbors(q)) {
                const int pp = q2p[static_cast<std::size_t>(partner)];
                // Source the lookup from the *placed* endpoint: distances
                // are symmetric, so the value is unchanged, but a lazy
                // provider then only materializes rows for the handful of
                // already-placed partners instead of every candidate p.
                if (pp != -1) cost += dist(pp, p);
            }
            // Prefer low distance to placed partners; ties by high degree
            // (center of the device), encoded by subtracting degree
            // scaled below any distance contribution.
            const long score = cost * 1024 - coupling.degree(p);
            if (best == -1 || score < best_cost) {
                best = p;
                best_cost = score;
            }
        }
        q2p[static_cast<std::size_t>(q)] = best;
        used[static_cast<std::size_t>(best)] = 1;
    }
    return mapping::from_program_to_physical(q2p, num_physical);
}

// --- force_route -------------------------------------------------------------

void force_route(int node, const gate_dag& dag, const distance_provider& dist, mapping& current,
                 emission_buffer& out) {
    const graph& coupling = dist.coupling();
    const gate& g = dag.node_gate(node);
    int pa = current.physical(g.q0);
    const int pb = current.physical(g.q1);
    // All comparisons read distances *to pb*, so one provider row covers
    // the whole walk (distances are symmetric; values unchanged).
    const std::int32_t* to_pb = dist.row(pb);
    while (!coupling.has_edge(pa, pb)) {
        // Move q0 one step along a shortest path toward q1.
        int next = -1;
        for (const int pn : coupling.neighbors(pa)) {
            if (to_pb[pn] < to_pb[pa]) {
                next = pn;
                break;
            }
        }
        if (next == -1) {
            throw std::logic_error("force_route: no distance-decreasing neighbor");
        }
        out.emit_swap(pa, next);
        current.swap_physical(pa, next);
        pa = next;
    }
}

// --- candidate swaps ----------------------------------------------------------

void candidate_swaps(const std::vector<int>& front, const gate_dag& dag,
                     const distance_provider& dist, const mapping& current,
                     std::vector<edge>& out) {
    const graph& coupling = dist.coupling();
    out.clear();
    for (const int node : front) {
        const gate& g = dag.node_gate(node);
        for (const int q : {g.q0, g.q1}) {
            const int p = current.physical(q);
            for (const int pn : coupling.neighbors(p)) out.push_back(edge(p, pn));
        }
    }
    // Sorted + deduplicated matches the old std::set iteration order
    // exactly, so routing decisions (and tie-breaks) are unchanged.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace qubikos::router
