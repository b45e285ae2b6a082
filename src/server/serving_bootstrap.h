#ifndef TARA_SERVER_SERVING_BOOTSTRAP_H_
#define TARA_SERVER_SERVING_BOOTSTRAP_H_

#include <cstdint>
#include <string>

#include "common/expected.h"
#include "core/tara_engine.h"

namespace tara::server {

/// How a serving process obtains its engine: load a TARAKB3 knowledge-base
/// directory, or synthesize + build a Quest dataset (demos, smoke tests,
/// load generation). Shared by the tara_server binary and `tara_cli
/// serve` so the two front doors stay behaviorally identical.
struct EngineBootstrap {
  /// When non-empty, load this knowledge-base directory and ignore the
  /// generator fields.
  std::string loaddir;
  /// When non-empty, attach a write-ahead log in this directory: appends
  /// are acked only after their WAL record is fdatasync'd, and startup
  /// replays any log tail a crash left behind (on top of `loaddir`'s
  /// checkpoint when both are given, on top of the deterministically
  /// rebuilt Quest base otherwise).
  std::string wal_dir;
  /// Open `loaddir` in mapped mode (zero-copy, windows materialize on
  /// demand). Ignored when a WAL is configured — replay forces an eager
  /// open.
  bool mmap = false;
  /// Verify checkpoint content hashes before serving from it.
  bool verify_hashes = false;
  uint32_t quest_transactions = 4000;
  uint32_t quest_items = 120;
  uint32_t windows = 4;
  double support_floor = 0.01;
  double confidence_floor = 0.1;
  /// Query-cache budget for the serving engine (0 disables).
  size_t cache_bytes = 32u << 20;
  /// Instrument destination (usually the process-global registry).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Builds or loads the serving engine. Returns an error message suitable
/// for stderr on failure (bad directory, invalid floors).
Expected<TaraEngine, std::string> BootstrapEngine(
    const EngineBootstrap& bootstrap);

/// Writes the decimal port into `path` (for scripts that started a
/// server on an ephemeral port). Returns false on I/O failure.
bool WritePortFile(const std::string& path, uint16_t port);

/// The full serve entry point shared by the `tara_server` daemon and
/// `tara_cli serve`: parses `HOST:PORT [flags...]` from `args`,
/// bootstraps an engine, serves until SIGINT/SIGTERM, and returns the
/// process exit code. `usage_prefix` names the front door in usage and
/// log lines (e.g. "tara_server" or "tara_cli serve").
int RunServeMain(int argc, char** argv, const char* usage_prefix);

}  // namespace tara::server

#endif  // TARA_SERVER_SERVING_BOOTSTRAP_H_
