// Batched SABRE candidate-score kernel.
//
// route_pass evaluates every candidate swap of a decision point against
// the same flat operand buffers (front-layer and extended-set physical
// pairs). This kernel takes those buffers structure-of-arrays and scores
// all candidates in one call through a runtime-dispatched backend:
//
//   - scalar: the portable baseline, bit-for-bit the original loop;
//   - avx2:   8-wide int32 distance gathers from the dense matrix
//             (function multiversioning — no global -mavx2; selected
//             only when __builtin_cpu_supports("avx2") and the provider
//             has a dense base to gather from).
//
// Determinism contract: integer distance sums are exact in double
// (< 2^53), so they are reassociation-safe. The front-layer term is
// always such a sum, and so is the extended-set term of a uniform batch
// (ext_weight == nullptr, SABRE's lookahead_decay == 1): both backends
// sum those distances as integers in any order and convert once. A
// weighted batch applies its floating-point weights in the original gate
// order in both backends. Every backend therefore produces bit-identical
// scores, equal to an ordered double accumulation — routed output never
// depends on the dispatch, pinned by test.
//
// QUBIKOS_SIMD=scalar|auto overrides the dispatch (auto = best
// supported); force_simd_backend() overrides it programmatically for
// benches and tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos::router {

enum class simd_backend { scalar, avx2 };

[[nodiscard]] const char* simd_backend_name(simd_backend backend);

/// The backend score_candidates dispatches to right now.
[[nodiscard]] simd_backend active_simd_backend();

/// Force a backend (bench/test hook). Requesting avx2 on hardware
/// without it falls back to scalar.
void force_simd_backend(simd_backend backend);

/// Re-resolve from QUBIKOS_SIMD + CPU support (undoes force_simd_backend).
void reset_simd_backend_from_env();

/// One decision point's inputs, structure-of-arrays. All pointers borrow
/// the caller's buffers; `dist` must outlive the call.
struct score_batch {
    const std::int32_t* front_p0 = nullptr;  ///< front-gate operand 0, physical
    const std::int32_t* front_p1 = nullptr;  ///< front-gate operand 1, physical
    std::size_t front_gates = 0;
    const std::int32_t* ext_p0 = nullptr;  ///< extended-set operand 0, physical
    const std::int32_t* ext_p1 = nullptr;  ///< extended-set operand 1, physical
    std::size_t ext_gates = 0;
    /// Per extended gate, original order; nullptr = uniform weights (the
    /// extended distances are summed as integers).
    const double* ext_weight = nullptr;
    double ext_norm = 1.0;
    double extended_set_weight = 0.5;
    const distance_provider* dist = nullptr;
};

/// Scores `count` candidate swaps against `batch`, writing per-candidate
/// basic and lookahead terms (decay is applied by the caller — it is
/// per-candidate state, not per-gate). Requires front_gates > 0 when
/// count > 0.
void score_candidates(const score_batch& batch, const edge* candidates, std::size_t count,
                      double* basic, double* lookahead);

}  // namespace qubikos::router
