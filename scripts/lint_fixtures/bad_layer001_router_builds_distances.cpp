// Fixture: LAYER-001 must fire wherever a router constructs, allocates or
// owns a distance_provider by value — routers receive distances from the
// caller and never build them.
// This file is lint input only; it is never compiled.
// lint-fixture-path: src/router/fixture_router.cpp
#include <memory>
#include <optional>

#include "graph/distance.hpp"

namespace qubikos::router {

int self_building(const graph& coupling) {
    const distance_provider dist(coupling);                   // expect: LAYER-001
    distance_provider braced{coupling};                       // expect: LAYER-001
    auto copy = distance_provider(coupling);                  // expect: LAYER-001
    auto heap = std::make_shared<const distance_provider>(coupling);  // expect: LAYER-001
    std::optional<distance_provider> maybe;                   // expect: LAYER-001
    auto* raw = new distance_provider(coupling);              // expect: LAYER-001
    return dist.diameter() + braced.diameter() + copy.diameter() + heap->diameter() +
           raw->diameter() + static_cast<int>(maybe.has_value());
}

}  // namespace qubikos::router
