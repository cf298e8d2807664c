// JSONL socket server for the routing service.
//
// Transport only — every byte of protocol semantics lives in
// serve/request.*. The server owns:
//
//   accept thread      one per listening socket (unix or TCP loopback)
//   reader threads     one per client: split the byte stream into lines,
//                      enforce the max-line bound, execute each complete
//                      line and write its response before reading on
//                      (and stop once a write to the client fails).
//                      Requests of different clients run concurrently;
//                      route trials still share thread_pool::shared().
//
// Ordering: within one client, responses come back in request order
// (one thread reads, executes and writes them in turn); across clients
// no order is promised. Execution is stateless per request (the context
// cache is internally synchronized), so concurrency never shows in a
// response. No server-side queue exists: a client that stops reading
// blocks only its own reader, in send(), and its socket buffers are the
// backpressure.
//
// Shutdown (stop()): listeners close, client reads half-close, each
// reader answers what is already on the wire and closes its socket —
// a client that stops sending always gets every answer it paid for.
// A client that never reads its responses keeps stop() waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <memory>

namespace qubikos::serve {

class engine;

struct server_options {
    /// Reject (and answer with an oversized_line envelope) any request
    /// line longer than this many bytes.
    std::size_t max_line_bytes = 1u << 20;
};

class server {
public:
    /// The engine must outlive the server.
    explicit server(engine& eng, server_options options = {});
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Binds a unix-domain socket at `path` (unlinking a stale one) and
    /// starts accepting. Throws std::runtime_error on bind failure.
    void listen_unix(const std::string& path);

    /// Binds 127.0.0.1:<port> (0 = ephemeral) and starts accepting;
    /// returns the bound port.
    int listen_tcp(int port);

    /// Adopts an already-connected socket (e.g. one end of a
    /// socketpair) as a client. The server owns the fd from here on.
    void add_client(int fd);

    /// Stops accepting, half-closes client reads, answers every request
    /// already on the wire, closes sockets and joins all threads.
    /// Idempotent; also run by the destructor.
    void stop();

    /// Total requests answered so far (including error envelopes).
    [[nodiscard]] std::uint64_t requests_served() const;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
};

}  // namespace qubikos::serve
