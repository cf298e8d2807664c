// qubikos-lint: hot-path — every SABRE swap decision scores all candidates here.
#include "router/score_kernel.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QUBIKOS_SCORE_KERNEL_AVX2 1
#include <immintrin.h>
#else
#define QUBIKOS_SCORE_KERNEL_AVX2 0
#endif

namespace qubikos::router {

namespace {

bool avx2_supported() {
#if QUBIKOS_SCORE_KERNEL_AVX2
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// QUBIKOS_SIMD=scalar pins the baseline; "auto" (or unset, or any other
/// value) picks the best backend the CPU supports.
simd_backend resolve_backend_from_env() {
    const char* raw = std::getenv("QUBIKOS_SIMD");
    if (raw != nullptr && std::string_view(raw) == "scalar") return simd_backend::scalar;
    return avx2_supported() ? simd_backend::avx2 : simd_backend::scalar;
}

std::atomic<simd_backend>& backend_state() {
    static std::atomic<simd_backend> state{resolve_backend_from_env()};
    return state;
}

/// The reference loop every other backend must match bit-for-bit: per
/// candidate, the front distances summed, then the extended-set distances
/// summed as integers (uniform batch) or weighted in gate order.
void score_candidates_scalar(const score_batch& batch, const edge* candidates,
                             std::size_t count, double* basic, double* lookahead) {
    const distance_provider& dist = *batch.dist;
    for (std::size_t k = 0; k < count; ++k) {
        const int pa = candidates[k].a;
        const int pb = candidates[k].b;
        const auto swapped_distance = [&](const std::int32_t* p0s, const std::int32_t* p1s,
                                          std::size_t i) {
            const int p0 = p0s[i];
            const int p1 = p1s[i];
            const int m0 = p0 == pa ? pb : (p0 == pb ? pa : p0);
            const int m1 = p1 == pa ? pb : (p1 == pb ? pa : p1);
            return dist(m0, m1);
        };
        std::int64_t front_sum = 0;
        for (std::size_t i = 0; i < batch.front_gates; ++i) {
            front_sum += swapped_distance(batch.front_p0, batch.front_p1, i);
        }
        basic[k] = static_cast<double>(front_sum) / static_cast<double>(batch.front_gates);
        if (batch.ext_gates == 0) {
            lookahead[k] = 0.0;
            continue;
        }
        double ext = 0.0;
        if (batch.ext_weight == nullptr) {
            std::int64_t ext_sum = 0;
            for (std::size_t i = 0; i < batch.ext_gates; ++i) {
                ext_sum += swapped_distance(batch.ext_p0, batch.ext_p1, i);
            }
            ext = static_cast<double>(ext_sum);
        } else {
            for (std::size_t i = 0; i < batch.ext_gates; ++i) {
                ext += batch.ext_weight[i] * swapped_distance(batch.ext_p0, batch.ext_p1, i);
            }
        }
        lookahead[k] = batch.extended_set_weight * ext / batch.ext_norm;
    }
}

#if QUBIKOS_SCORE_KERNEL_AVX2

__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return _mm_cvtsi128_si32(s);
}

/// Applies the hypothetical swap (vpa, vpb) to 8 physical indices at
/// once: lanes equal to pa become pb and vice versa (pa != pb, so the
/// two blends never both fire on one lane). cmpeq's all-ones 32-bit
/// masks drive blendv_epi8 lane-uniformly.
__attribute__((target("avx2"))) inline __m256i apply_swap8(__m256i p, __m256i vpa,
                                                           __m256i vpb) {
    const __m256i eqa = _mm256_cmpeq_epi32(p, vpa);
    const __m256i eqb = _mm256_cmpeq_epi32(p, vpb);
    __m256i m = _mm256_blendv_epi8(p, vpb, eqa);
    m = _mm256_blendv_epi8(m, vpa, eqb);
    return m;
}

/// Sum of the post-swap distances of gates [0, count) of one operand
/// pair, 8 gathers at a time. Integer sums are exact, so the lane order
/// cannot change the result.
__attribute__((target("avx2"))) inline std::int64_t swapped_sum_avx2(
    const std::int32_t* base, int n, const std::int32_t* p0s, const std::int32_t* p1s,
    std::size_t count, int pa, int pb) {
    const __m256i vn = _mm256_set1_epi32(n);
    const __m256i vpa = _mm256_set1_epi32(pa);
    const __m256i vpb = _mm256_set1_epi32(pb);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256i p0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p0s + i));
        const __m256i p1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p1s + i));
        const __m256i m0 = apply_swap8(p0, vpa, vpb);
        const __m256i m1 = apply_swap8(p1, vpa, vpb);
        const __m256i idx = _mm256_add_epi32(_mm256_mullo_epi32(m0, vn), m1);
        acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32(base, idx, 4));
    }
    std::int64_t sum = hsum_epi32(acc);
    for (; i < count; ++i) {
        const int p0 = p0s[i];
        const int p1 = p1s[i];
        const int m0 = p0 == pa ? pb : (p0 == pb ? pa : p0);
        const int m1 = p1 == pa ? pb : (p1 == pb ? pa : p1);
        sum += base[static_cast<std::size_t>(m0) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(m1)];
    }
    return sum;
}

/// 8-wide path over the dense matrix: the front term and a uniform
/// extended term are gathered integer sums. A weighted batch applies its
/// FP weights in the original gate order, one scalar lookup per gate,
/// exactly as the scalar backend does. Dense only: the flat index
/// m0*n + m1 stays well inside int32 for any matrix that fits in memory.
__attribute__((target("avx2"))) void score_candidates_avx2(const score_batch& batch,
                                                           const edge* candidates,
                                                           std::size_t count, double* basic,
                                                           double* lookahead) {
    const std::int32_t* base = batch.dist->dense_data();
    const int n = batch.dist->num_vertices();
    for (std::size_t k = 0; k < count; ++k) {
        const int pa = candidates[k].a;
        const int pb = candidates[k].b;
        const std::int64_t front_sum = swapped_sum_avx2(base, n, batch.front_p0, batch.front_p1,
                                                        batch.front_gates, pa, pb);
        basic[k] = static_cast<double>(front_sum) / static_cast<double>(batch.front_gates);
        if (batch.ext_gates == 0) {
            lookahead[k] = 0.0;
            continue;
        }
        double ext = 0.0;
        if (batch.ext_weight == nullptr) {
            ext = static_cast<double>(swapped_sum_avx2(base, n, batch.ext_p0, batch.ext_p1,
                                                       batch.ext_gates, pa, pb));
        } else {
            for (std::size_t i = 0; i < batch.ext_gates; ++i) {
                const int p0 = batch.ext_p0[i];
                const int p1 = batch.ext_p1[i];
                const int m0 = p0 == pa ? pb : (p0 == pb ? pa : p0);
                const int m1 = p1 == pa ? pb : (p1 == pb ? pa : p1);
                ext += batch.ext_weight[i] *
                       base[static_cast<std::size_t>(m0) * static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(m1)];
            }
        }
        lookahead[k] = batch.extended_set_weight * ext / batch.ext_norm;
    }
}

#endif  // QUBIKOS_SCORE_KERNEL_AVX2

}  // namespace

const char* simd_backend_name(simd_backend backend) {
    switch (backend) {
        case simd_backend::avx2:
            return "avx2";
        case simd_backend::scalar:
            break;
    }
    return "scalar";
}

simd_backend active_simd_backend() {
    return backend_state().load(std::memory_order_relaxed);
}

void force_simd_backend(simd_backend backend) {
    if (backend == simd_backend::avx2 && !avx2_supported()) backend = simd_backend::scalar;
    backend_state().store(backend, std::memory_order_relaxed);
}

void reset_simd_backend_from_env() {
    backend_state().store(resolve_backend_from_env(), std::memory_order_relaxed);
}

void score_candidates(const score_batch& batch, const edge* candidates, std::size_t count,
                      double* basic, double* lookahead) {
    if (count == 0) return;
#if QUBIKOS_SCORE_KERNEL_AVX2
    // The gather path needs a dense base; lazy providers score through
    // the scalar loop (their row cache is the win at that scale).
    if (active_simd_backend() == simd_backend::avx2 &&
        batch.dist->dense_data() != nullptr) {
        score_candidates_avx2(batch, candidates, count, basic, lookahead);
        return;
    }
#endif
    score_candidates_scalar(batch, candidates, count, basic, lookahead);
}

}  // namespace qubikos::router
