#include "exact/olsq.hpp"

#include <stdexcept>

#include "circuit/dag.hpp"
#include "sat/encodings.hpp"
#include "sat/solver.hpp"

namespace qubikos::exact {

namespace {

using sat::lit;
using sat::neg;
using sat::pos;
using sat::var;

/// Variable bookkeeping for one (circuit, coupling, k) encoding.
struct encoding {
    int num_program;
    int num_physical;
    int num_blocks;  // k + 1
    int num_gates;
    int num_edges;

    // x[t][q][p], y[g][t], sigma[t][e] flattened.
    std::vector<var> x, y, sigma;

    [[nodiscard]] var map_var(int t, int q, int p) const {
        return x[(static_cast<std::size_t>(t) * static_cast<std::size_t>(num_program) +
                  static_cast<std::size_t>(q)) *
                     static_cast<std::size_t>(num_physical) +
                 static_cast<std::size_t>(p)];
    }
    [[nodiscard]] var gate_var(int g, int t) const {
        return y[static_cast<std::size_t>(g) * static_cast<std::size_t>(num_blocks) +
                 static_cast<std::size_t>(t)];
    }
    [[nodiscard]] var swap_var(int t, int e) const {
        return sigma[static_cast<std::size_t>(t) * static_cast<std::size_t>(num_edges) +
                     static_cast<std::size_t>(e)];
    }
};

encoding build(sat::solver& s, const circuit& c, const gate_dag& dag, const graph& coupling,
               int k) {
    encoding enc;
    enc.num_program = c.num_qubits();
    enc.num_physical = coupling.num_vertices();
    enc.num_blocks = k + 1;
    enc.num_gates = dag.num_nodes();
    enc.num_edges = coupling.num_edges();

    const auto make_vars = [&s](std::size_t count) {
        std::vector<var> out(count);
        for (auto& v : out) v = s.new_var();
        return out;
    };
    enc.x = make_vars(static_cast<std::size_t>(enc.num_blocks) *
                      static_cast<std::size_t>(enc.num_program) *
                      static_cast<std::size_t>(enc.num_physical));
    enc.y = make_vars(static_cast<std::size_t>(enc.num_gates) *
                      static_cast<std::size_t>(enc.num_blocks));
    enc.sigma = make_vars(static_cast<std::size_t>(k) * static_cast<std::size_t>(enc.num_edges));

    // 1. Each program qubit sits on exactly one physical qubit per block.
    for (int t = 0; t < enc.num_blocks; ++t) {
        for (int q = 0; q < enc.num_program; ++q) {
            std::vector<lit> row;
            row.reserve(static_cast<std::size_t>(enc.num_physical));
            for (int p = 0; p < enc.num_physical; ++p) row.push_back(pos(enc.map_var(t, q, p)));
            sat::exactly_one(s, row);
        }
        // 2. No physical qubit hosts two program qubits.
        for (int p = 0; p < enc.num_physical; ++p) {
            std::vector<lit> col;
            col.reserve(static_cast<std::size_t>(enc.num_program));
            for (int q = 0; q < enc.num_program; ++q) col.push_back(pos(enc.map_var(t, q, p)));
            sat::at_most_one(s, col);
        }
    }

    // 3. Exactly one swap per transition.
    for (int t = 0; t < k; ++t) {
        std::vector<lit> swaps;
        swaps.reserve(static_cast<std::size_t>(enc.num_edges));
        for (int e = 0; e < enc.num_edges; ++e) swaps.push_back(pos(enc.swap_var(t, e)));
        sat::exactly_one(s, swaps);
    }

    // 4. Transition consistency: the chosen swap exchanges its endpoints'
    //    occupants and fixes everything else.
    for (int t = 0; t < k; ++t) {
        for (int e = 0; e < enc.num_edges; ++e) {
            const lit sw = pos(enc.swap_var(t, e));
            const int pa = coupling.edges()[static_cast<std::size_t>(e)].a;
            const int pb = coupling.edges()[static_cast<std::size_t>(e)].b;
            for (int q = 0; q < enc.num_program; ++q) {
                // x[t+1][q][pa] <-> x[t][q][pb]
                s.add_clause(~sw, neg(enc.map_var(t, q, pb)), pos(enc.map_var(t + 1, q, pa)));
                s.add_clause(~sw, pos(enc.map_var(t, q, pb)), neg(enc.map_var(t + 1, q, pa)));
                // x[t+1][q][pb] <-> x[t][q][pa]
                s.add_clause(~sw, neg(enc.map_var(t, q, pa)), pos(enc.map_var(t + 1, q, pb)));
                s.add_clause(~sw, pos(enc.map_var(t, q, pa)), neg(enc.map_var(t + 1, q, pb)));
                // Everything else stays put.
                for (int p = 0; p < enc.num_physical; ++p) {
                    if (p == pa || p == pb) continue;
                    s.add_clause(~sw, neg(enc.map_var(t, q, p)), pos(enc.map_var(t + 1, q, p)));
                    s.add_clause(~sw, pos(enc.map_var(t, q, p)), neg(enc.map_var(t + 1, q, p)));
                }
            }
        }
    }

    // 5. Each gate executes in exactly one block.
    for (int g = 0; g < enc.num_gates; ++g) {
        std::vector<lit> blocks;
        blocks.reserve(static_cast<std::size_t>(enc.num_blocks));
        for (int t = 0; t < enc.num_blocks; ++t) blocks.push_back(pos(enc.gate_var(g, t)));
        sat::exactly_one(s, blocks);
    }

    // 6. Executability: a gate's qubits must be coupling-adjacent in its
    //    block.
    for (int g = 0; g < enc.num_gates; ++g) {
        const gate& gt = dag.node_gate(g);
        for (int t = 0; t < enc.num_blocks; ++t) {
            const lit yg = pos(enc.gate_var(g, t));
            for (int p = 0; p < enc.num_physical; ++p) {
                // y[g][t] & x[t][q0][p] -> OR_{p' in N(p)} x[t][q1][p']
                std::vector<lit> clause{~yg, neg(enc.map_var(t, gt.q0, p))};
                for (const int pn : coupling.neighbors(p)) {
                    clause.push_back(pos(enc.map_var(t, gt.q1, pn)));
                }
                s.add_clause(std::move(clause));
            }
        }
    }

    // 7. Dependencies: an immediate successor may not run in an earlier
    //    block than its predecessor.
    for (int g = 0; g < enc.num_gates; ++g) {
        for (const int succ : dag.succs(g)) {
            for (int t = 1; t < enc.num_blocks; ++t) {
                for (int tp = 0; tp < t; ++tp) {
                    s.add_clause(neg(enc.gate_var(g, t)), neg(enc.gate_var(succ, tp)));
                }
            }
        }
    }

    return enc;
}

/// Reconstructs a routed circuit from a SAT model.
routed_circuit decode(const sat::solver& s, const encoding& enc, const circuit& c,
                      const gate_dag& dag, const graph& coupling, int k) {
    routed_circuit out;

    std::vector<int> q2p(static_cast<std::size_t>(enc.num_program), -1);
    for (int q = 0; q < enc.num_program; ++q) {
        for (int p = 0; p < enc.num_physical; ++p) {
            if (s.model_value(enc.map_var(0, q, p))) {
                q2p[static_cast<std::size_t>(q)] = p;
                break;
            }
        }
    }
    out.initial = mapping::from_program_to_physical(q2p, enc.num_physical);

    // Block of each gate.
    std::vector<int> block(static_cast<std::size_t>(enc.num_gates), -1);
    for (int g = 0; g < enc.num_gates; ++g) {
        for (int t = 0; t < enc.num_blocks; ++t) {
            if (s.model_value(enc.gate_var(g, t))) {
                block[static_cast<std::size_t>(g)] = t;
                break;
            }
        }
    }

    // Single-qubit gates do not constrain the encoding; replay each one in
    // the block of the next two-qubit gate on the same qubit (or the last
    // block), just before that gate, preserving per-qubit order.
    std::vector<int> block_of_circuit_gate(c.size(), enc.num_blocks - 1);
    for (int g = 0; g < enc.num_gates; ++g) {
        block_of_circuit_gate[dag.circuit_index(g)] = block[static_cast<std::size_t>(g)];
    }
    {
        // Sweep backwards: a 1q gate inherits the block of the next gate
        // on its qubit.
        std::vector<int> next_block(static_cast<std::size_t>(c.num_qubits()),
                                    enc.num_blocks - 1);
        for (std::size_t i = c.size(); i-- > 0;) {
            const gate& gt = c[i];
            if (gt.is_two_qubit()) {
                next_block[static_cast<std::size_t>(gt.q0)] = block_of_circuit_gate[i];
                next_block[static_cast<std::size_t>(gt.q1)] = block_of_circuit_gate[i];
            } else {
                block_of_circuit_gate[i] = next_block[static_cast<std::size_t>(gt.q0)];
            }
        }
    }

    circuit physical(enc.num_physical);
    mapping current = out.initial;
    for (int t = 0; t < enc.num_blocks; ++t) {
        // Gates of block t in original circuit order (a topological order).
        for (std::size_t i = 0; i < c.size(); ++i) {
            if (block_of_circuit_gate[i] != t) continue;
            const gate& gt = c[i];
            if (gt.is_two_qubit()) {
                physical.append(
                    gate::two(gt.kind, current.physical(gt.q0), current.physical(gt.q1)));
            } else {
                physical.append(gate::single(gt.kind, current.physical(gt.q0), gt.angle));
            }
        }
        if (t < k) {
            for (int e = 0; e < enc.num_edges; ++e) {
                if (!s.model_value(enc.swap_var(t, e))) continue;
                const auto& edge = coupling.edges()[static_cast<std::size_t>(e)];
                physical.append(gate::swap_gate(edge.a, edge.b));
                current.swap_physical(edge.a, edge.b);
                break;
            }
        }
    }
    out.physical = std::move(physical);
    return out;
}

/// check_swap_count that also reports the conflicts its solver spent.
feasibility check_counted(const circuit& c, const graph& coupling, int k,
                          std::uint64_t conflict_limit, routed_circuit* witness,
                          std::uint64_t& conflicts) {
    if (k < 0) throw std::invalid_argument("check_swap_count: negative k");
    if (c.num_qubits() > coupling.num_vertices()) {
        throw std::invalid_argument("check_swap_count: more program than physical qubits");
    }
    const gate_dag dag(c);
    sat::solver s;
    if (conflict_limit != 0) s.set_conflict_limit(conflict_limit);
    const encoding enc = build(s, c, dag, coupling, k);
    const sat::status st = s.solve();
    conflicts = s.stats().conflicts;
    if (st == sat::status::unknown) return feasibility::unknown;
    if (st == sat::status::unsat) return feasibility::infeasible;
    if (witness != nullptr) *witness = decode(s, enc, c, dag, coupling, k);
    return feasibility::feasible;
}

}  // namespace

feasibility check_swap_count(const circuit& c, const graph& coupling, int k,
                             std::uint64_t conflict_limit, routed_circuit* witness) {
    std::uint64_t conflicts = 0;
    return check_counted(c, coupling, k, conflict_limit, witness, conflicts);
}

olsq_result solve_optimal(const circuit& c, const graph& coupling, const olsq_options& options) {
    olsq_result result;
    for (int k = options.min_swaps; k <= options.max_swaps; ++k) {
        routed_circuit witness;
        std::uint64_t conflicts = 0;
        const feasibility f =
            check_counted(c, coupling, k, options.conflict_limit, &witness, conflicts);
        result.conflicts_per_k.push_back(conflicts);
        if (f == feasibility::unknown) {
            result.aborted = true;
            return result;
        }
        if (f == feasibility::feasible) {
            result.solved = true;
            result.optimal_swaps = k;
            result.witness = std::move(witness);
            return result;
        }
    }
    return result;  // not solvable within max_swaps
}

}  // namespace qubikos::exact
