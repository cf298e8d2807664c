#include "graph/distance.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string>

#include "util/thread_pool.hpp"

namespace qubikos {

namespace {

/// One BFS from `source` into `row` (length n, pre-filled with
/// unreachable()), using `frontier` (length >= n) as the queue. The row
/// itself is the visited marker. A BFS queue only grows, so two cursors
/// over a flat array replace a deque.
void bfs_row(const graph& g, int source, std::int32_t* row, std::int32_t* frontier) {
    row[source] = 0;
    frontier[0] = static_cast<std::int32_t>(source);
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
        const std::int32_t u = frontier[head++];
        const std::int32_t du = row[u];
        for (const int w : g.neighbors(u)) {
            if (row[w] == distance_provider::unreachable()) {
                row[w] = du + 1;
                frontier[tail++] = static_cast<std::int32_t>(w);
            }
        }
    }
}

/// Rows are independent BFS runs; below this count the dispatch
/// overhead exceeds the BFS work and the build stays serial.
constexpr int kParallelBuildThreshold = 64;

}  // namespace

distance_options distance_options::from_env() {
    distance_options options;
    const char* raw = std::getenv("QUBIKOS_LAZY_DIST");
    if (raw == nullptr || *raw == '\0') return options;
    const std::string value(raw);
    if (value == "dense") {
        options.mode = storage_mode::dense;
    } else if (value == "lazy") {
        options.mode = storage_mode::lazy;
    } else {
        // The whole value must be a positive integer; anything else
        // (including "1e3" or "64k") keeps the automatic policy.
        int threshold = 0;
        const char* end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, threshold);
        if (ec == std::errc() && ptr == end && threshold > 0) {
            options.lazy_threshold = threshold;
        }
    }
    return options;
}

distance_provider::distance_provider(const graph& g, distance_options options)
    : n_(g.num_vertices()), graph_(g) {
    const auto n = static_cast<std::size_t>(n_);
    if (options.use_lazy(n_)) {
        rows_ = std::vector<std::atomic<const std::int32_t*>>(n);
        for (auto& row : rows_) row.store(nullptr, std::memory_order_relaxed);
        return;
    }
    // One allocation sized up front; each BFS writes its row in place.
    // Rows are disjoint and each is produced by the same serial BFS, so
    // the parallel build is bit-identical to the serial one.
    matrix_.assign(n * n, unreachable());
    if (n_ >= kParallelBuildThreshold) {
        thread_pool& pool = thread_pool::shared();
        std::vector<std::vector<std::int32_t>> frontiers(pool.size(),
                                                         std::vector<std::int32_t>(n));
        pool.parallel_for_slots(
            0, n, pool.size(),
            [&](std::size_t v, std::size_t slot) {
                bfs_row(g, static_cast<int>(v), matrix_.data() + v * n,
                        frontiers[slot].data());
            },
            /*chunk=*/8);
    } else {
        std::vector<std::int32_t> frontier(n);
        for (int v = 0; v < n_; ++v) {
            bfs_row(g, v, matrix_.data() + static_cast<std::size_t>(v) * n, frontier.data());
        }
    }
    dense_ = matrix_.data();
}

const std::int32_t* distance_provider::lazy_row(int u) const {
    const std::int32_t* hit =
        rows_[static_cast<std::size_t>(u)].load(std::memory_order_acquire);
    if (hit != nullptr) return hit;
    const std::lock_guard<std::mutex> lock(slab_mutex_);
    hit = rows_[static_cast<std::size_t>(u)].load(std::memory_order_relaxed);
    if (hit != nullptr) return hit;
    slab_.emplace_back(static_cast<std::size_t>(n_),
                       static_cast<std::int32_t>(unreachable()));
    std::vector<std::int32_t>& row = slab_.back();
    std::vector<std::int32_t> frontier(static_cast<std::size_t>(n_));
    bfs_row(graph_, u, row.data(), frontier.data());
    rows_built_.fetch_add(1, std::memory_order_relaxed);
    rows_[static_cast<std::size_t>(u)].store(row.data(), std::memory_order_release);
    return row.data();
}

std::size_t distance_provider::rows_built() const {
    if (dense_ != nullptr) return static_cast<std::size_t>(n_);
    return rows_built_.load(std::memory_order_relaxed);
}

int distance_provider::diameter() const {
    const int cached = diameter_.load(std::memory_order_acquire);
    if (cached >= 0) return cached;
    int best = 0;
    if (dense_ != nullptr) {
        for (const std::int32_t d : matrix_) best = std::max(best, static_cast<int>(d));
    } else {
        // One BFS per source with O(V) scratch: exact, never stores a
        // row. Must match the dense diameter bit-for-bit — the routers'
        // default release valve is derived from it.
        std::vector<std::int32_t> row(static_cast<std::size_t>(n_));
        std::vector<std::int32_t> frontier(static_cast<std::size_t>(n_));
        for (int v = 0; v < n_; ++v) {
            std::fill(row.begin(), row.end(),
                      static_cast<std::int32_t>(unreachable()));
            bfs_row(graph_, v, row.data(), frontier.data());
            for (const std::int32_t d : row) best = std::max(best, static_cast<int>(d));
        }
    }
    diameter_.store(best, std::memory_order_release);
    return best;
}

}  // namespace qubikos
