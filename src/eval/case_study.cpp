#include "eval/case_study.hpp"

#include <cmath>

namespace qubikos::eval {

case_study_result analyze_lightsabre(const core::benchmark_instance& instance,
                                     const graph& coupling,
                                     const router::sabre_options& options) {
    case_study_result result;
    result.optimal_swaps = instance.optimal_swaps;

    const auto observer = [&result](const router::sabre_decision& d) {
        result.decisions.push_back(d);
    };

    const routed_circuit routed = router::route_sabre_with_initial(
        instance.logical, distance_provider(coupling), instance.answer.initial, options,
        observer);
    result.sabre_swaps = routed.swap_count();

    // The reference optimal swap sequence, in order.
    std::vector<edge> optimal_sequence;
    optimal_sequence.reserve(instance.sections.size());
    for (const auto& section : instance.sections) {
        optimal_sequence.push_back(section.swap_physical);
    }

    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        const auto& decision = result.decisions[i];
        // While SABRE follows the optimal sequence, decision i consumes
        // optimal swap i.
        if (i < optimal_sequence.size() && decision.chosen == optimal_sequence[i]) continue;

        deviation_report dev;
        dev.decision_index = i;
        dev.optimal_swap = i < optimal_sequence.size() ? optimal_sequence[i] : edge{};
        for (const auto& score : decision.scores) {
            if (score.candidate == decision.chosen) dev.chosen = score;
            if (i < optimal_sequence.size() && score.candidate == optimal_sequence[i]) {
                dev.optimal_score = score;
            }
        }
        if (dev.optimal_score.has_value()) {
            const bool basic_tied =
                std::abs(dev.chosen.basic - dev.optimal_score->basic) < 1e-9;
            const bool decay_tied =
                std::abs(dev.chosen.decay_factor - dev.optimal_score->decay_factor) < 1e-12;
            dev.lookahead_decided =
                basic_tied && decay_tied &&
                dev.chosen.lookahead < dev.optimal_score->lookahead;
        }
        result.deviation = std::move(dev);
        break;
    }
    return result;
}

}  // namespace qubikos::eval
