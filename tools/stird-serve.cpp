//===- tools/stird-serve.cpp - Resident serving daemon ------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stird-serve: compiles one or more Datalog programs once, keeps their
/// de-specialized relations resident, and serves stird-wire-v2 requests
/// (load / query / stats / shutdown) over a Unix or TCP socket through an
/// epoll event loop. The positional program becomes the "default" tenant;
/// --tenant name=path hosts additional sessions behind the same endpoint,
/// addressed by the request's "tenant" member. See docs/wire-protocol.md.
///
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"
#include "srv/Server.h"
#include "srv/Session.h"
#include "util/Args.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace stird;

static std::string parseCount(const std::string &Value, std::size_t &Out) {
  char *End = nullptr;
  const long long N = std::strtoll(Value.c_str(), &End, 10);
  if (End == Value.c_str() || *End != '\0' || N <= 0)
    return "expected a positive count, got '" + Value + "'";
  Out = static_cast<std::size_t>(N);
  return "";
}

int main(int Argc, char **Argv) {
  std::string ProgramPath;
  srv::SessionOptions Session;
  srv::ServerOptions Server;
  std::string PortText;
  std::vector<std::pair<std::string, std::string>> TenantSpecs;

  util::Args Args("stird-serve",
                  "serve resident Datalog programs over a socket");
  Args.positional("program.dl", tools::pathSink(ProgramPath));
  Args.option({"--socket"}, "path", "listen on a Unix socket at this path",
              tools::pathSink(Server.UnixPath));
  Args.option({"--host"}, "addr", "TCP listen address (default 127.0.0.1)",
              tools::pathSink(Server.Host));
  Args.option({"--port"}, "n", "TCP port (0 lets the kernel pick)",
              [&](const std::string &Value) -> std::string {
                char *End = nullptr;
                const long N = std::strtol(Value.c_str(), &End, 10);
                if (End == Value.c_str() || *End != '\0' || N < 0 ||
                    N > 65535)
                  return "invalid port '" + Value + "'";
                Server.Port = static_cast<int>(N);
                PortText = Value;
                return "";
              });
  Args.option({"--tenant"}, "name=program.dl",
              "host an additional session, addressed by request \"tenant\"",
              [&TenantSpecs](const std::string &Value) -> std::string {
                const std::size_t Eq = Value.find('=');
                if (Eq == 0 || Eq == std::string::npos ||
                    Eq + 1 == Value.size())
                  return "expected name=program.dl, got '" + Value + "'";
                TenantSpecs.emplace_back(Value.substr(0, Eq),
                                         Value.substr(Eq + 1));
                return "";
              });
  Args.option({"--backlog"}, "n", "listen(2) backlog (default SOMAXCONN)",
              [&Server](const std::string &Value) -> std::string {
                std::size_t N = 0;
                const std::string E = parseCount(Value, N);
                if (E.empty())
                  Server.Backlog = static_cast<int>(N);
                return E;
              });
  Args.option({"--max-connections"}, "n",
              "close connections beyond this many (default 8192)",
              [&Server](const std::string &Value) {
                return parseCount(Value, Server.MaxConnections);
              });
  Args.option({"--max-inflight"}, "n",
              "total in-flight request budget before admission control "
              "answers \"overloaded\" (default 1024)",
              [&Server](const std::string &Value) {
                return parseCount(Value, Server.MaxInFlightTotal);
              });
  Args.option({"--max-inflight-per-connection"}, "n",
              "pipelining window per connection (default 32)",
              [&Server](const std::string &Value) {
                return parseCount(Value, Server.MaxInFlightPerConnection);
              });
  Args.option({"--pool-threads"}, "n",
              "request-execution pool size (default: session threads)",
              [&Server](const std::string &Value) {
                return parseCount(Value, Server.PoolThreads);
              });
  Args.option({"--metrics-port"}, "n",
              "serve Prometheus text metrics over HTTP on this TCP port "
              "(0 lets the kernel pick)",
              [&](const std::string &Value) -> std::string {
                char *End = nullptr;
                const long N = std::strtol(Value.c_str(), &End, 10);
                if (End == Value.c_str() || *End != '\0' || N < 0 ||
                    N > 65535)
                  return "invalid port '" + Value + "'";
                Server.MetricsPort = static_cast<int>(N);
                return "";
              });
  Args.option({"--trace-sample"}, "n",
              "record a lifecycle trace for every nth request "
              "(see the stats \"trace\" member; 0 disables)",
              [&Server](const std::string &Value) {
                std::size_t N = 0;
                const std::string E = parseCount(Value, N);
                if (E.empty())
                  Server.TraceSampleEvery = N;
                return E;
              });
  Args.option({"--trace-out"}, "file",
              "write retained request traces as Chrome trace-event JSON "
              "at shutdown",
              tools::pathSink(Server.TraceOutPath));
  Args.option({"--slow-query-log"}, "file",
              "append a JSONL record for every request at or above "
              "--slow-query-micros",
              tools::pathSink(Server.SlowQueryLogPath));
  Args.option({"--slow-query-micros"}, "n",
              "slow-query threshold in microseconds (default 10000; 0 "
              "logs every request)",
              [&Server](const std::string &Value) -> std::string {
                char *End = nullptr;
                const long long N = std::strtoll(Value.c_str(), &End, 10);
                if (End == Value.c_str() || *End != '\0' || N < 0)
                  return "expected a non-negative count, got '" + Value +
                         "'";
                Server.SlowQueryMicros = static_cast<std::uint64_t>(N);
                return "";
              });
  Args.option({"--slow-query-log-max-bytes"}, "n",
              "rotate the slow-query log past this size (default: never)",
              [&Server](const std::string &Value) {
                std::size_t N = 0;
                const std::string E = parseCount(Value, N);
                if (E.empty())
                  Server.SlowQueryLogMaxBytes = N;
                return E;
              });
  Args.flag({"--run-io"},
            "execute the program's .input/.output directives at bootstrap",
            [&Session] { Session.RunIo = true; });
  tools::addEngineOptions(Args, Session.Engine);
  Args.parseOrExit(Argc, Argv);

  if (Server.UnixPath.empty() && PortText.empty()) {
    std::fprintf(stderr,
                 "stird-serve: pick a listen endpoint: --socket or --port\n");
    return 1;
  }

  auto boot = [&Session](const std::string &Path)
      -> std::unique_ptr<srv::EngineSession> {
    std::vector<std::string> Errors;
    std::unique_ptr<srv::EngineSession> Sess =
        srv::EngineSession::fromFile(Path, Session, &Errors);
    if (!Sess)
      for (const std::string &Message : Errors)
        std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                     Message.c_str());
    return Sess;
  };

  std::vector<std::unique_ptr<srv::EngineSession>> Sessions;
  srv::TenantRegistry Tenants;
  std::unique_ptr<srv::EngineSession> Default = boot(ProgramPath);
  if (!Default)
    return 1;
  Tenants.add("default", *Default);
  Sessions.push_back(std::move(Default));
  for (const auto &[Name, Path] : TenantSpecs) {
    if (Tenants.find(Name)) {
      std::fprintf(stderr, "stird-serve: duplicate tenant '%s'\n",
                   Name.c_str());
      return 1;
    }
    std::unique_ptr<srv::EngineSession> Sess = boot(Path);
    if (!Sess)
      return 1;
    Tenants.add(Name, *Sess);
    Sessions.push_back(std::move(Sess));
  }

  srv::Server Srv(Tenants, Server);
  std::string Error;
  if (!Srv.start(&Error)) {
    std::fprintf(stderr, "stird-serve: %s\n", Error.c_str());
    return 1;
  }
  if (!Server.UnixPath.empty())
    std::fprintf(stderr, "stird-serve: listening on %s (%zu tenants)\n",
                 Server.UnixPath.c_str(), Tenants.size());
  else
    std::fprintf(stderr, "stird-serve: listening on %s:%d (%zu tenants)\n",
                 Server.Host.c_str(), Srv.boundPort(), Tenants.size());
  if (Srv.metricsPort() != 0)
    std::fprintf(stderr, "stird-serve: metrics on http://%s:%d/metrics\n",
                 Server.UnixPath.empty() ? Server.Host.c_str()
                                         : "127.0.0.1",
                 Srv.metricsPort());
  std::fflush(stderr);

  Srv.serve();
  std::fprintf(stderr, "stird-serve: shut down\n");
  return 0;
}
