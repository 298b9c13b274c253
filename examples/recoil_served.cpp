// The serve stack's network daemon: `recoil_served --store DIR --port N`
// boots a ContentServer over a persistent DiskStore and runs the epoll
// event loop (src/net/daemon.hpp) until SIGTERM/SIGINT, which triggers a
// graceful drain — new connects refused, in-flight streams completed and
// flushed, then exit 0. Clients speak the length-prefixed frame protocol:
// `recoil_client` (examples/recoil_client.cpp), the src/net/client.hpp
// library, or anything that can write `[u32 LE length][RCRQ frame]`.
//
// `--loops N` runs N epoll event-loop threads over the one ContentServer,
// sharing the port via SO_REUSEPORT (with an accept-and-hand-off
// fallback). The default is 1, the classic single-loop daemon.
//
// `--seed-demo` encodes a small deterministic text asset ("demo", 1 MB,
// 256-way splits) into the store at boot so the daemon can serve traffic
// without a separately prepared store — what the CI smoke and the README
// quick-start use.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "net/daemon.hpp"
#include "serve/store.hpp"
#include "workload/datasets.hpp"

using namespace recoil;

namespace {

net::Daemon* g_daemon = nullptr;

// begin_drain() is an atomic store plus one eventfd write per loop —
// async-signal-safe.
void on_signal(int) {
    if (g_daemon != nullptr) g_daemon->begin_drain();
}

u64 parse_bytes(const char* s) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || v < 0) return 0;
    u64 mult = 1;
    if (*end == 'K' || *end == 'k') mult = u64{1} << 10, ++end;
    else if (*end == 'M' || *end == 'm') mult = u64{1} << 20, ++end;
    else if (*end == 'G' || *end == 'g') mult = u64{1} << 30, ++end;
    if (*end != '\0') return 0;
    return static_cast<u64>(v * static_cast<double>(mult));
}

int usage() {
    std::fprintf(stderr,
                 "usage: recoil_served [--store DIR] [--port N] [--bind ADDR]\n"
                 "                     [--mem-budget SZ] [--max-conns N]\n"
                 "                     [--idle-timeout MS]\n"
                 "                     [--seed-demo] [--loops N]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const char* store_dir = nullptr;
    bool seed_demo = false;
    u64 mem_budget = 0;
    net::DaemonOptions dopt;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--store") == 0) {
            store_dir = need("--store");
        } else if (std::strcmp(argv[i], "--port") == 0) {
            dopt.port = static_cast<u16>(std::atoi(need("--port")));
        } else if (std::strcmp(argv[i], "--bind") == 0) {
            dopt.bind_address = need("--bind");
        } else if (std::strcmp(argv[i], "--mem-budget") == 0) {
            if ((mem_budget = parse_bytes(need("--mem-budget"))) == 0) {
                std::fprintf(stderr, "--mem-budget requires a size, e.g. 64M\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--max-conns") == 0) {
            dopt.max_connections =
                static_cast<u32>(std::atoi(need("--max-conns")));
        } else if (std::strcmp(argv[i], "--idle-timeout") == 0) {
            dopt.idle_timeout =
                std::chrono::milliseconds(std::atoi(need("--idle-timeout")));
        } else if (std::strcmp(argv[i], "--seed-demo") == 0) {
            seed_demo = true;
        } else if (std::strcmp(argv[i], "--loops") == 0) {
            dopt.loops = static_cast<u32>(std::atoi(need("--loops")));
            if (dopt.loops == 0) dopt.loops = 1;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (store_dir == nullptr && !seed_demo) {
        std::fprintf(stderr,
                     "nothing to serve: pass --store DIR and/or --seed-demo\n");
        return usage();
    }

    try {
        serve::ServerOptions sopt;
        sopt.mem_budget_bytes = mem_budget;
        serve::ContentServer server(sopt);
        if (store_dir != nullptr) {
            auto disk = std::make_shared<serve::DiskStore>(store_dir);
            server.store().attach_backing(disk);
            std::printf("store: %s (%zu stored assets)\n", store_dir,
                        disk->size());
        }
        if (seed_demo && server.store().resolve("demo") == nullptr) {
            auto data = workload::gen_text(1'000'000, 2024);
            server.store().encode_bytes("demo", data, 256);
            std::printf("seeded 'demo' (1 MB text, 256-way splits)\n");
        }
        net::Daemon daemon(server, dopt);
        g_daemon = &daemon;
        std::signal(SIGTERM, on_signal);
        std::signal(SIGINT, on_signal);
        std::printf("recoil_served listening on %s:%u (%u loop%s"
                    "%s, max-conns %u, idle-timeout %lld ms)\n",
                    dopt.bind_address.c_str(), daemon.port(), dopt.loops,
                    dopt.loops == 1 ? "" : "s",
                    dopt.loops > 1
                        ? (daemon.reuseport() ? ", reuseport" : ", hand-off")
                        : "",
                    dopt.max_connections,
                    static_cast<long long>(dopt.idle_timeout.count()));
        std::fflush(stdout);
        daemon.run();
        const auto s = daemon.stats();
        g_daemon = nullptr;
        std::printf("drained: %llu conns served, %llu requests "
                    "(%llu streamed), %llu refused, %llu idle-closed, "
                    "%llu hand-offs\n",
                    static_cast<unsigned long long>(s.accepted),
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.streamed),
                    static_cast<unsigned long long>(s.refused),
                    static_cast<unsigned long long>(s.idle_closed),
                    static_cast<unsigned long long>(s.loop_handoffs));
    } catch (const net::NetError& e) {
        std::fprintf(stderr, "recoil_served: %s\n", e.what());
        return 1;
    } catch (const Error& e) {
        std::fprintf(stderr, "recoil_served: %s\n", e.what());
        return 1;
    }
    return 0;
}
