// dbsd — the model-serving daemon.
//
//   dbsd [port=7070] [workers=4] [queue=256] [model=name:est.dbsk]...
//
// Serves the dbs wire protocol on loopback TCP: clients register saved
// .dbsk estimators by name and then issue density-batch, biased-sample and
// outlier-score requests against them (see tools/dbs_query.cc). port=0
// picks an ephemeral port; the bound port is printed either way, so
// scripts can parse it. The daemon runs until a client sends a shutdown
// request (dbs_query op=shutdown).
//
// `model=` flags preload models at startup; repeatable as model, model2,
// model3, ... since the flag parser keeps one value per key.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "parallel/batch_executor.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tools/flags.h"

int main(int argc, char** argv) {
  dbs::tools::Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  int64_t port = flags.GetInt("port", 7070);
  int64_t workers = flags.GetInt("workers", 4);
  int64_t queue = flags.GetInt("queue", 256);

  // Preload flags: model=, model2=, model3=, ... each "name:path".
  std::vector<std::pair<std::string, std::string>> preload;
  for (int i = 1; i <= 16; ++i) {
    std::string key = i == 1 ? "model" : "model" + std::to_string(i);
    std::string value = flags.GetString(key, "");
    if (value.empty()) continue;
    size_t colon = value.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == value.size()) {
      std::fprintf(stderr, "expected %s=name:path, got '%s'\n", key.c_str(),
                   value.c_str());
      return 2;
    }
    preload.emplace_back(value.substr(0, colon), value.substr(colon + 1));
  }
  if (!flags.AllKnown()) return 2;
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "port must be in [0, 65535]\n");
    return 2;
  }

  dbs::serve::ModelRegistry registry;
  for (const auto& [name, path] : preload) {
    dbs::Status status = registry.LoadKdeFile(name, path);
    if (!status.ok()) {
      std::fprintf(stderr, "preload of '%s' failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("model: %s <- %s\n", name.c_str(), path.c_str());
  }

  dbs::parallel::BatchExecutorOptions executor_opts;
  executor_opts.num_workers = static_cast<int>(workers);
  executor_opts.queue_capacity = queue;
  dbs::parallel::BatchExecutor executor(executor_opts);
  dbs::serve::ModelService service(&registry, &executor);

  dbs::serve::ServerOptions server_opts;
  server_opts.port = static_cast<uint16_t>(port);
  auto server = dbs::serve::Server::Start(&service, server_opts);
  if (!server.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("dbsd: listening on 127.0.0.1:%u (%d workers, queue %lld)\n",
              (*server)->port(), executor.num_workers(),
              static_cast<long long>(queue));
  std::fflush(stdout);

  (*server)->WaitForShutdown();
  std::printf("dbsd: shutdown requested, draining\n");
  (*server)->Stop();
  executor.Shutdown();
  return 0;
}
