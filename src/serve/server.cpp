#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"

namespace qubikos::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
    throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

bool write_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

struct client_state {
    int fd = -1;
    std::thread reader;
    bool done = false;  // reader finished and closed fd; guarded by impl::mu
};

}  // namespace

struct server::impl {
    engine& eng;
    server_options opts;

    std::mutex mu;
    std::vector<std::unique_ptr<client_state>> clients;
    bool stopping = false;

    std::vector<int> listen_fds;
    std::vector<std::thread> acceptors;
    std::string unix_path;
    std::atomic<std::uint64_t> served{0};

    impl(engine& e, server_options o) : eng(e), opts(o) {}

    /// Executes one request line (nullptr: an oversized one) and writes
    /// its response; false once the client can no longer be written to.
    bool answer(int fd, const std::string* line) {
        static const obs::metric_id errors = obs::counter("serve.errors");
        std::string response;
        if (line == nullptr) {
            obs::add(errors);
            response = error_line("", error_code::oversized_line,
                                  "request line exceeds " +
                                      std::to_string(opts.max_line_bytes) + " bytes");
        } else {
            try {
                response = handle_line(eng, *line);
            } catch (const std::exception& e) {
                obs::add(errors);
                response = error_line("", error_code::internal, e.what());
            }
        }
        // Count before the write: a client that has read response i must
        // never observe requests_served() < i+1.
        served.fetch_add(1, std::memory_order_relaxed);
        return write_all(fd, response + "\n");
    }

    void reader_loop(client_state* c) {
        std::string line;
        char chunk[4096];
        bool drop = false;  // inside an oversized line: discard to '\n'
        bool open = true;   // the client still takes responses
        while (open) {
            const ssize_t n = ::recv(c->fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;
            for (ssize_t i = 0; i < n && open; ++i) {
                const char b = chunk[i];
                if (b == '\n') {
                    if (drop) {
                        open = answer(c->fd, nullptr);
                        drop = false;
                    } else if (!line.empty()) {
                        open = answer(c->fd, &line);
                    }
                    line.clear();
                    continue;
                }
                if (drop) continue;
                line += b;
                if (line.size() > opts.max_line_bytes) {
                    line.clear();
                    drop = true;
                }
            }
        }
        // A final unterminated line still gets an answer (clients that
        // half-close after their last request need no trailing newline).
        if (open && drop) {
            answer(c->fd, nullptr);
        } else if (open && !line.empty()) {
            answer(c->fd, &line);
        }
        // Closing under the lock keeps stop() from shutting down a reused
        // fd number; the client sees EOF now, not at the next reap.
        const std::lock_guard<std::mutex> lock(mu);
        ::close(c->fd);
        c->done = true;
    }

    void adopt(int fd) {
        std::vector<std::unique_ptr<client_state>> dead;
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (stopping) {
                ::close(fd);
                return;
            }
            // Reap readers whose clients hung up, so a long-lived daemon
            // holds one thread per live connection only.
            for (std::size_t i = clients.size(); i-- > 0;) {
                if (clients[i]->done) {
                    dead.push_back(std::move(clients[i]));
                    clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
                }
            }
            auto c = std::make_unique<client_state>();
            c->fd = fd;
            client_state* raw = c.get();
            clients.push_back(std::move(c));
            raw->reader = std::thread([this, raw] { reader_loop(raw); });
        }
        for (auto& c : dead) c->reader.join();
    }

    void accept_loop(int lfd) {
        for (;;) {
            const int fd = ::accept(lfd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR) continue;
                return;  // listener shut down
            }
            adopt(fd);
        }
    }

    void start_acceptor(int lfd) {
        {
            const std::lock_guard<std::mutex> lock(mu);
            listen_fds.push_back(lfd);
        }
        acceptors.emplace_back([this, lfd] { accept_loop(lfd); });
    }

    void stop() {
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (stopping) return;
            stopping = true;
            // Unblock accept() (Linux: shutdown on a listener fails the
            // blocked call) and half-close client reads so readers see
            // EOF after the bytes already in flight.
            for (const int lfd : listen_fds) ::shutdown(lfd, SHUT_RDWR);
            for (const auto& c : clients) {
                if (!c->done) ::shutdown(c->fd, SHUT_RD);
            }
        }
        for (auto& t : acceptors) t.join();
        acceptors.clear();
        for (const int lfd : listen_fds) ::close(lfd);
        listen_fds.clear();
        // No acceptor is left to adopt a client: each reader answers what
        // it already read, then returns.
        std::vector<std::unique_ptr<client_state>> all;
        {
            const std::lock_guard<std::mutex> lock(mu);
            all.swap(clients);
        }
        for (auto& c : all) c->reader.join();
        if (!unix_path.empty()) ::unlink(unix_path.c_str());
    }
};

server::server(engine& eng, server_options options)
    : impl_(std::make_unique<impl>(eng, options)) {}

server::~server() { impl_->stop(); }

void server::listen_unix(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("serve: socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) sys_fail("socket");
    ::unlink(path.c_str());  // a stale socket from a killed daemon
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 64) != 0) {
        ::close(lfd);
        sys_fail("bind/listen on " + path);
    }
    impl_->unix_path = path;
    impl_->start_acceptor(lfd);
}

int server::listen_tcp(int port) {
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (lfd < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd, 64) != 0) {
        ::close(lfd);
        sys_fail("bind/listen on 127.0.0.1:" + std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        ::close(lfd);
        sys_fail("getsockname");
    }
    impl_->start_acceptor(lfd);
    return static_cast<int>(ntohs(bound.sin_port));
}

void server::add_client(int fd) { impl_->adopt(fd); }

void server::stop() { impl_->stop(); }

std::uint64_t server::requests_served() const {
    return impl_->served.load(std::memory_order_relaxed);
}

}  // namespace qubikos::serve
