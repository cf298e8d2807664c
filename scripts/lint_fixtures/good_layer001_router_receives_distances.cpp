// Fixture: the sanctioned router shape — distances arrive as a const
// reference (or a pointer in a kernel batch) and the graph is read from
// the provider. Mentions of construction in comments and strings do not
// count: "const distance_provider dist(coupling);". Must produce zero
// findings.
// This file is lint input only; it is never compiled.
// lint-fixture-path: src/router/fixture_router.cpp
#include "graph/distance.hpp"

namespace qubikos::router {

struct score_batch {
    const distance_provider* dist = nullptr;
};

int route(const circuit& logical, const distance_provider& dist) {
    // A router never builds distances: distance_provider dist(g);
    const graph& coupling = dist.coupling();
    score_batch batch;
    batch.dist = &dist;
    const char* note = "distance_provider(coupling)";
    return coupling.num_vertices() + logical.num_qubits() + batch.dist->diameter() +
           static_cast<int>(note[0]);
}

}  // namespace qubikos::router
