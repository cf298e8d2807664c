// All-pairs shortest-path distances on unweighted graphs.
//
// Every heuristic router scores SWAP candidates by coupling-graph
// distance. Small devices get one dense matrix computed up front;
// thousand-qubit synthetic devices get lazy rows, materializing only the
// BFS rows a route actually touches. One type, distance_provider, serves
// both.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"

namespace qubikos {

/// Storage policy for distance_provider. `automatic` picks dense below
/// lazy_threshold vertices and lazy at or above it; `dense`/`lazy`
/// force a backend. The QUBIKOS_LAZY_DIST environment variable
/// overrides the default ("dense", "lazy", or a positive integer
/// threshold), and make_routing_context exposes the option to every
/// registry tool and the serve engine's device cache.
struct distance_options {
    enum class storage_mode { automatic, dense, lazy };

    storage_mode mode = storage_mode::automatic;
    /// Vertex count at which `automatic` switches to lazy rows. 512 is
    /// far above every physical device in the paper's evaluation
    /// (eagle127) but below the synthetic thousand-qubit sweeps.
    int lazy_threshold = 512;

    [[nodiscard]] bool use_lazy(int num_vertices) const {
        if (mode == storage_mode::dense) return false;
        if (mode == storage_mode::lazy) return true;
        return num_vertices >= lazy_threshold;
    }

    /// Defaults overlaid with QUBIKOS_LAZY_DIST. Unrecognized values —
    /// including numbers with trailing text, such as "1e3" or "64k" —
    /// are ignored, keeping the automatic policy.
    [[nodiscard]] static distance_options from_env();
};

/// Uniform distance oracle over either backend, bound to the coupling
/// graph it was built from (a copy is kept in both modes, so the graph
/// and its distances can never disagree).
///
/// Dense mode computes the full APSP matrix up front: one BFS per source
/// into one contiguous int32 slab (a row per source, written in place).
/// Rows are independent, so above a row-count threshold the build fans
/// out over thread_pool::shared(); each row is produced by the same
/// serial BFS either way, so the matrix is bit-identical at any thread
/// count. Lazy mode computes per-source BFS rows on first use, caching
/// them in a mutex-protected slab with lock-free (acquire-load) hits — so
/// a heavy-hex device scaled to thousands of qubits routes without ever
/// materializing O(V^2), and concurrent trials share the same cache.
/// Both backends return identical values for every query, including
/// diameter(); routed output therefore never depends on the backend.
/// Distances of disconnected pairs are reported as unreachable().
class distance_provider {
public:
    explicit distance_provider(const graph& g,
                               distance_options options = distance_options::from_env());

    distance_provider(const distance_provider&) = delete;
    distance_provider& operator=(const distance_provider&) = delete;

    [[nodiscard]] int operator()(int u, int v) const {
        const std::int32_t* base = dense_;
        if (base != nullptr) {
            return base[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(v)];
        }
        return lazy_row(u)[v];
    }

    /// Row of distances from source u (built on demand in lazy mode).
    [[nodiscard]] const std::int32_t* row(int u) const {
        const std::int32_t* base = dense_;
        if (base != nullptr) {
            return base + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
        }
        return lazy_row(u);
    }

    /// Contiguous n*n storage in dense mode, nullptr in lazy mode — the
    /// gather-based kernel path requires a dense base.
    [[nodiscard]] const std::int32_t* dense_data() const { return dense_; }

    /// The coupling graph these distances were computed on.
    [[nodiscard]] const graph& coupling() const { return graph_; }

    [[nodiscard]] int num_vertices() const { return n_; }
    [[nodiscard]] bool is_lazy() const { return dense_ == nullptr; }
    [[nodiscard]] static constexpr int unreachable() { return -1; }

    /// BFS rows materialized so far (== num_vertices in dense mode).
    [[nodiscard]] std::size_t rows_built() const;

    /// Largest finite pairwise distance, identical to the dense value in
    /// both modes (lazy computes it with one O(V*(V+E)) scan the first
    /// time, caching the result — O(V) memory, no row materialization).
    /// Routers derive the stagnation release valve from this, so it must
    /// not depend on the backend.
    [[nodiscard]] int diameter() const;

private:
    [[nodiscard]] const std::int32_t* lazy_row(int u) const;

    int n_ = 0;
    graph graph_;
    std::vector<std::int32_t> matrix_;     // dense backend: n*n row-major (empty when lazy)
    const std::int32_t* dense_ = nullptr;  // matrix_.data() or nullptr

    // Lazy row cache. rows_ holds one atomic pointer per source; a row
    // is published with a release store after its slab vector is fully
    // written, so readers that acquire-load a non-null pointer see a
    // complete row without taking the mutex. The deque gives slab
    // entries stable addresses across growth.
    mutable std::vector<std::atomic<const std::int32_t*>> rows_;
    mutable std::mutex slab_mutex_;
    mutable std::deque<std::vector<std::int32_t>> slab_;
    mutable std::atomic<std::size_t> rows_built_{0};
    mutable std::atomic<int> diameter_{-1};
};

}  // namespace qubikos
