// Request-execution engine of the routing service.
//
// Owns what outlives a single request: an LRU cache of per-device
// routing state. Every request names its device; building one costs
// arch::by_name (graph construction) plus tools::make_routing_context
// (all-pairs distances for small devices, lazily built BFS rows above
// the distance_options threshold) — for the devices a daemon typically
// serves, that dwarfs routing a small circuit. The
// engine builds each device once and every subsequent request on it
// reuses the cached context, which is where bench_serve's cached-vs-cold
// speedup comes from. Sharing is purely an optimization: tools::make_tool
// builds a per-call provider whenever the context does not match the
// graph being routed, so responses are bit-identical with the cache on,
// off, or thrashing.
//
// Thread-safety: route()/certify()/device_for() may be called from any
// number of threads concurrently (the server dispatches batches onto the
// shared pool). The cache mutex guards only the lookup; device
// construction runs unlocked, so a cold request for one device never
// stalls traffic on another.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "serve/request.hpp"
#include "tools/context.hpp"

namespace qubikos::serve {

struct engine_options {
    /// false = rebuild device + context per request (the cold baseline
    /// bench_serve measures the cache against).
    bool cache_contexts = true;
    /// LRU capacity in devices. Small on purpose: a dense entry is
    /// O(V^2) int32 (eagle127 ~ 64 KB; larger devices cache lazily-built
    /// BFS rows instead) and real workloads name few devices.
    std::size_t max_cached_devices = 8;
};

class engine {
public:
    /// A cached device: the architecture plus its shared routing context.
    /// Immutable once published; handed out as shared_ptr so an eviction
    /// never invalidates a request mid-flight.
    struct device_entry {
        arch::architecture device;
        std::shared_ptr<const tools::routing_context> context;
    };

    struct cache_stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    explicit engine(engine_options options = {});

    /// Resolves a device by name through the cache. Throws request_error
    /// (unknown_device) for names arch::by_name rejects. Exposed so
    /// tests can pin cache identity (same shared_ptr on a hit).
    [[nodiscard]] std::shared_ptr<const device_entry> device_for(const std::string& name);

    /// Executes one route request; throws request_error on request-level
    /// failures (execute() turns those into error envelopes).
    [[nodiscard]] route_response route(const route_request& req);

    /// Generates the requested QUBIKOS instance and confirms its declared
    /// optimal SWAP count with the exact solver.
    [[nodiscard]] certify_response certify(const certify_request& req);

    [[nodiscard]] cache_stats stats() const;

private:
    engine_options options_;
    mutable std::mutex mutex_;
    /// Most-recently-used first. A vector, not a map: capacity is single
    /// digits, the scan is cheaper than any tree, and iteration order is
    /// trivially deterministic (DET-001).
    std::vector<std::pair<std::string, std::shared_ptr<const device_entry>>> lru_;
    cache_stats stats_;
};

}  // namespace qubikos::serve
