// t|ket>-style slice router (Cowtan et al. [32], "On the qubit routing
// problem").
//
// The routing strategy that distinguishes t|ket> from SABRE-family tools:
//   - initial placement by greedy interaction-graph matching;
//   - the circuit is viewed as timeslices of parallel two-qubit gates;
//   - swap selection minimizes the summed coupling distance of the
//     current slice plus geometrically down-weighted future slices;
//   - deterministic (no random restarts), no decay term.
// On QUBIKOS circuits this slice-global view is exactly what the paper
// observes to lag SABRE by a wide margin (Sec. IV-B).
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"

namespace qubikos::router {

struct tket_options {
    /// How many future slices the swap cost looks at.
    int lookahead_slices = 4;
    /// Geometric weight applied per future slice.
    double slice_discount = 0.5;
    /// Stagnation bound before force-routing the nearest gate
    /// (0 = auto: 3*diameter + 20).
    int stagnation_limit = 0;
    /// Initial placement only sees this many leading two-qubit gates —
    /// mirroring tket's GraphPlacement, which matches a pattern built
    /// from the first slices of the circuit rather than the whole
    /// interaction graph (0 = whole circuit).
    std::size_t placement_window = 50;
};

/// Routes on `dist.coupling()` from a greedy interaction-aware placement.
[[nodiscard]] routed_circuit route_tket(const circuit& logical, const distance_provider& dist,
                                        const tket_options& options = {});

/// Routing-only entry point with a caller-fixed initial mapping —
/// the standalone-router evaluation mode of Sec. IV-C.
[[nodiscard]] routed_circuit route_tket_with_initial(const circuit& logical,
                                                     const distance_provider& dist,
                                                     const mapping& initial,
                                                     const tket_options& options = {});

}  // namespace qubikos::router
