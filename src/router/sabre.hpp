// SABRE / LightSABRE heuristic layout synthesis.
//
// Li, Ding, Xie (ASPLOS'19) routing with the Qiskit LightSABRE cost
// function the paper's case study dissects (Sec. IV-C):
//
//   score(swap) = max(decay[p1], decay[p2]) *
//                 ( (1/|F|) * sum_F D[pi(q0)][pi(q1)]
//                 + (W/|E|) * sum_E D[pi(q0)][pi(q1)] )
//
// with extended set size 20, weight W = 0.5, decay increment 0.001 and
// decay reset every 5 swaps — Qiskit 1.2 defaults. "LightSABRE" in the
// paper means this algorithm run with many random trials (1000 in their
// setup), keeping the best result; `trials` controls that here.
//
// Extras beyond stock SABRE:
//   - bidirectional initial-mapping passes (forward/backward/forward);
//   - a release valve (as in LightSABRE) that force-routes the nearest
//     front gate when no gate executed for a while, guaranteeing progress;
//   - `lookahead_decay` < 1 applies the geometric decay to extended-set
//     terms that Sec. IV-C proposes as a fix, enabling the ablation bench.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mapping.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"

namespace qubikos::router {

struct sabre_options {
    /// Random restarts; the best (fewest-swap) result is kept.
    int trials = 1;
    /// Worker threads for the trial loop: 0 = auto (QUBIKOS_THREADS env
    /// override, else hardware_concurrency), 1 = serial. Trials use
    /// independent salted RNG streams, so the result is bit-identical
    /// for every thread count (ties go to the lowest trial index).
    /// Defaults to serial so cross-tool runtime comparisons stay fair
    /// and callers opt in to parallelism explicitly.
    int threads = 1;
    int extended_set_size = 20;
    double extended_set_weight = 0.5;
    double decay_increment = 0.001;
    int decay_reset_interval = 5;
    /// Geometric decay over extended-set positions; 1.0 reproduces Qiskit
    /// (uniform weights), < 1.0 is the Sec. IV-C proposed fix.
    double lookahead_decay = 1.0;
    /// Run the forward/backward/forward initial-mapping refinement.
    bool bidirectional = true;
    /// Force-route the closest front gate after this many consecutive
    /// swaps without executing a gate (0 = auto: 3*diameter + 20).
    int release_valve = 0;
    std::uint64_t seed = 1;

    // --- portfolio trial scheduler (opt-in) --------------------------------
    //
    // Instead of running every trial to completion, the portfolio
    // schedules the same diversified-seed trials in deterministic waves
    // and cuts losers early:
    //   - the final (emission) pass of every trial aborts once its
    //     emitted swaps exceed the best completed trial so far (a
    //     relaxed atomic incumbent). This cut is *sound*: an aborted
    //     trial provably could not have improved the result, so the
    //     returned best (count, trial index, circuit) is identical to
    //     running all scheduled trials in full — for any thread count;
    //   - from the second wave on, each mapping-refinement pass runs
    //     under a swap-decision budget of base * luby(wave) (or
    //     base * growth^wave), where base auto-calibrates to half the
    //     current winner's own costliest mapping pass. This is the
    //     restart-budget idiom of CDCL solvers: doomed trials are
    //     abandoned after a cheap prefix, while the growing schedule
    //     still lets occasional long-shot trials run far. Budget cuts
    //     are heuristic (a cut trial *might* have refined into a
    //     winner), which is why the portfolio is opt-in;
    //   - the scheduler stops scheduling new waves once a target quality
    //     is reached or `patience` consecutive waves brought no
    //     improvement.
    // All scheduling decisions (budgets, stops) are frozen at wave
    // barriers from already-deterministic values, so portfolio results
    // are bit-identical for a fixed (seed, knobs) pair at any thread
    // count.
    bool portfolio = false;
    /// Trials per wave (0 = auto: max(worker count, 4)). Affects budget
    /// calibration and stop granularity, so it is part of the
    /// deterministic configuration.
    int portfolio_wave = 0;
    /// Per-mapping-pass swap-decision budget base for waves >= 1; 0 =
    /// auto (half the costliest mapping pass of the best trial so far,
    /// re-read at every wave barrier). Set very large to disable budget
    /// cuts.
    int portfolio_budget_base = 0;
    /// 0 = scale the budget by the Luby sequence (1,1,2,1,1,2,4,...);
    /// >= 1 = geometric: budget_base * growth^(wave-1).
    double portfolio_budget_growth = 0.0;
    /// Stop scheduling new waves after this many consecutive waves
    /// without improving the incumbent (0 = run all trials).
    int portfolio_patience = 2;
    /// Stop as soon as the incumbent reaches this many swaps or fewer
    /// (0 = disabled).
    int portfolio_target_swaps = 0;
};

/// Score breakdown for one candidate swap at a decision point (consumed by
/// the Sec. IV-C case study).
struct swap_score {
    edge candidate;
    double basic = 0.0;
    double lookahead = 0.0;
    double decay_factor = 1.0;
    [[nodiscard]] double total() const { return decay_factor * (basic + lookahead); }
};

/// Observer invoked at every swap decision of the *final* routing pass.
struct sabre_decision {
    std::vector<int> front_nodes;
    std::vector<int> extended_nodes;
    std::vector<swap_score> scores;
    edge chosen;
    std::size_t swaps_so_far = 0;
};
using sabre_observer = std::function<void(const sabre_decision&)>;

struct sabre_stats {
    std::size_t best_swaps = 0;
    int best_trial = -1;
    std::size_t force_routes = 0;
    /// Trials that ran to completion / were cut early (budget or
    /// incumbent abort) / were never started (early stop). Sums to the
    /// requested trial count. In the default (non-portfolio) mode
    /// trials_run == trials.
    std::size_t trials_run = 0;
    std::size_t trials_pruned = 0;
    std::size_t trials_skipped = 0;
    /// Total swap decisions applied across every pass of every trial —
    /// the work metric the portfolio optimizes. Deterministic at one
    /// thread; at higher thread counts incumbent cuts can land earlier
    /// or later, so only the result (not this cost) is exactly stable.
    std::size_t pass_decisions = 0;
    /// Portfolio waves executed (0 in the default mode).
    std::size_t waves = 0;
    /// Concurrent trial slots (live arenas / preallocated result slots)
    /// the run used: min(threads, trials) — peak memory holds this many
    /// routed circuits, not O(trials).
    std::size_t arena_slots = 0;
};

/// Full SABRE flow: per trial, a random initial mapping refined by
/// bidirectional passes, then routing; best trial wins. Routes on
/// `dist.coupling()`. A shared per-device routing context passes the
/// same provider to every call, amortizing the distance construction;
/// results are bit-identical across dense/lazy providers and kernel
/// backends.
[[nodiscard]] routed_circuit route_sabre(const circuit& logical, const distance_provider& dist,
                                         const sabre_options& options = {},
                                         sabre_stats* stats = nullptr);

/// Routing-only entry point with a caller-fixed initial mapping (no
/// trials, no bidirectional refinement). This is the standalone-router
/// evaluation mode Sec. IV-C describes: feed the known-optimal initial
/// mapping and measure pure routing quality. `observer` (optional) sees
/// every swap decision.
[[nodiscard]] routed_circuit route_sabre_with_initial(const circuit& logical,
                                                      const distance_provider& dist,
                                                      const mapping& initial,
                                                      const sabre_options& options = {},
                                                      const sabre_observer& observer = {},
                                                      sabre_stats* stats = nullptr);

/// Mapping-only pass: routes `logical` from `initial` without emitting a
/// circuit and returns the final mapping. Building block for
/// forward/backward initial-mapping refinement in other flows (ML-QLS).
[[nodiscard]] mapping sabre_final_mapping(const circuit& logical, const distance_provider& dist,
                                          const mapping& initial,
                                          const sabre_options& options = {});

}  // namespace qubikos::router
