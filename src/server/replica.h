#ifndef TARA_SERVER_REPLICA_H_
#define TARA_SERVER_REPLICA_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/tara_engine.h"
#include "obs/metrics.h"
#include "server/net_io.h"

namespace tara::server {

/// Configuration of a hot-standby follower.
struct ReplicaOptions {
  /// The primary's TaraServer endpoint.
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Optional local checkpoint (TARAKB3 directory) to bootstrap
  /// from before subscribing; empty = bootstrap entirely from the
  /// primary's stream. A checkpoint must carry the primary's floors —
  /// the handshake refuses mismatched options, exactly as AttachWal
  /// refuses a foreign log.
  std::string kb_dir;
  /// Instrument destination for the tara.replica.* series; nullptr = no
  /// metrics. Also becomes the replica engine's registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Engine knobs for the local replica engine.
  uint64_t query_cache_bytes = 0;
  uint32_t parallelism = 1;
  /// Reconnect backoff: starts at `backoff_initial_ms`, doubles per
  /// consecutive failure, saturates at `backoff_max_ms`.
  uint32_t backoff_initial_ms = 50;
  uint32_t backoff_max_ms = 2000;
  /// Per-syscall socket deadline on the subscription connection. Must
  /// comfortably exceed the primary's heartbeat cadence (default 250 ms)
  /// or a healthy idle stream reads as a dead peer.
  uint32_t io_timeout_ms = 5000;
};

/// A hot-standby follower of one TARA primary: it bootstraps from an
/// optional local checkpoint, subscribes to the primary's durably-acked
/// window stream (kReplicaSubscribe), and installs each kReplicaRecord
/// through TaraEngine::InstallWindowSegment — so the replica's
/// knowledge base is rebuilt by exactly the machinery WAL recovery uses,
/// and every generation it publishes is byte-identical to the primary's
/// at the same window count (the differential oracle in
/// tests/test_replication.cc enforces this).
///
/// ## Threading model
///
/// One tail thread owns the subscription socket and is the engine's
/// single writer. Readers query engine() concurrently at any time — the
/// engine's RCU snapshot design needs nothing more. Status()/
/// WaitForWindows() are safe from any thread.
///
/// ## Failure model
///
/// Any stream problem — connect refusal, read timeout, torn frame, a
/// record that does not decode, a gap past the next expected window —
/// tears the connection down and reconnects with exponential backoff,
/// resubscribing from the engine's own window count. Windows already
/// applied are never reapplied (the subscribe position advances), so a
/// mid-stream primary restart or replica kill resumes exactly at the
/// last durably-acked window. A primary whose floors mismatch the local
/// checkpoint is a permanent error: the tail loop parks in backoff and
/// reports the message through Status().
///
/// ## Metrics (with ReplicaOptions::metrics set)
///
///   tara.replica.generation       engine generation (gauge)
///   tara.replica.lag_windows      primary durable windows - local (gauge)
///   tara.replica.reconnects      resubscriptions after the first (counter)
///   tara.replica.records_applied windows replayed off the stream (counter)
class ReplicaEngine {
 public:
  /// A point-in-time view of the follower, for CLI status and tests.
  struct Status {
    bool connected = false;
    uint32_t window_count = 0;
    uint64_t generation = 0;
    /// The primary's durable window count per the latest checkpoint/
    /// heartbeat/record seen (0 until the first handshake).
    uint32_t primary_windows = 0;
    uint32_t lag_windows = 0;
    uint64_t records_applied = 0;
    uint64_t reconnects = 0;
    /// Last connection/replay error, "" while healthy.
    std::string last_error;
  };

  explicit ReplicaEngine(ReplicaOptions options);
  ~ReplicaEngine();

  ReplicaEngine(const ReplicaEngine&) = delete;
  ReplicaEngine& operator=(const ReplicaEngine&) = delete;

  /// Loads the checkpoint (if any), performs the first subscribe +
  /// handshake synchronously — so misconfiguration (bad endpoint, floor
  /// mismatch, corrupt checkpoint) is a returned error, not a silent
  /// retry loop — then starts the tail thread. Call at most once.
  std::optional<std::string> Start();

  /// Stops tailing: wakes the backoff sleeper, shuts the live socket,
  /// joins the tail thread. Idempotent; the destructor calls it.
  void Stop();

  /// The local engine. Valid after a successful Start(); serve it
  /// read-only (TaraServer with ServerOptions::read_only) or query it
  /// directly. The tail thread is the only writer.
  TaraEngine* engine() { return engine_.get(); }
  const TaraEngine* engine() const { return engine_.get(); }

  Status GetStatus() const;

  /// Blocks until the engine holds >= `windows` windows or `timeout`
  /// elapses; returns the window count either way. Condition-based (no
  /// polling) — tests and the lag bench wait on this.
  uint32_t WaitForWindows(uint32_t windows,
                          std::chrono::milliseconds timeout) const;

 private:
  /// One subscription lifetime: reads and applies the stream off a live
  /// socket until it breaks. Returns the error that ended it.
  std::string RunSession(Socket* socket);
  /// Connect + subscribe-from-engine-window-count + checkpoint
  /// handshake. On success fills `*socket` with the live stream.
  std::optional<std::string> OpenStream(Socket* socket);
  /// Applies one kReplicaRecord payload as a one-window install.
  std::optional<std::string> ApplyRecord(const std::string& payload);
  void TailLoop();
  /// Interruptible backoff sleep; returns false when stopping.
  bool SleepBackoff(uint32_t* backoff_ms);
  void NoteError(const std::string& message);
  void UpdateLagMetrics();

  ReplicaOptions options_;
  std::unique_ptr<TaraEngine> engine_;
  std::thread tail_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Guards live_fd_ so Stop() can shutdown(2) the socket the tail
  /// thread is blocked reading.
  mutable std::mutex socket_mutex_;
  int live_fd_ = -1;

  mutable std::mutex state_mutex_;
  mutable std::condition_variable state_cv_;
  bool connected_ = false;
  uint32_t primary_windows_ = 0;
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::string last_error_;

  obs::Gauge* generation_gauge_ = nullptr;
  obs::Gauge* lag_gauge_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
};

}  // namespace tara::server

#endif  // TARA_SERVER_REPLICA_H_
