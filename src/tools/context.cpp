#include "tools/context.hpp"

namespace qubikos::tools {

routing_context::routing_context(const graph& coupling, distance_options options)
    : dist_(coupling, options) {}

bool routing_context::matches(const graph& g) const {
    return g.num_vertices() == coupling().num_vertices() && g.edges() == coupling().edges();
}

std::shared_ptr<const routing_context> make_routing_context(const graph& coupling) {
    return std::make_shared<const routing_context>(coupling);
}

std::shared_ptr<const routing_context> make_routing_context(const graph& coupling,
                                                            distance_options options) {
    return std::make_shared<const routing_context>(coupling, options);
}

}  // namespace qubikos::tools
