// The three workloads. Each builds its knowledge base one window at a time,
// saves it as TARAKB3 blocks, opens it mapped, warms up, then runs a timed
// phase whose request sequence was drawn from the seed beforehand, and
// finally checks the answers apart from the query path.
//
// Load rules: one process; every client is a closed loop; the engine runs
// at parallelism 1; threads and connections together never exceed four
// (serve: the driving thread, the server's accept thread and one handler
// per each of two connections; ingest: the reader and the appender).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "obs/metrics.h"
#include "server/tara_client.h"
#include "server/tara_server.h"

namespace tara::perfbench {
namespace {

namespace fs = std::filesystem;

/// Transactions per window of explore and serve.
constexpr uint32_t kTxPerWindow = 2000;
/// explore and serve: about two dozen windows.
constexpr uint32_t kBaseWindows = 24;
/// ingest starts smaller, with larger windows, and appends the same live
/// windows in every round.
constexpr uint32_t kIngestBaseWindows = 8;
constexpr uint32_t kIngestTxPerWindow = 6000;
constexpr uint32_t kIngestLiveWindows = 16;
/// Windows the WAL twin probe of a traced run appends.
constexpr uint32_t kProbeWindows = 3;
/// Length of the drawn timed sequence; a run cycles it if it gets through.
constexpr size_t kSequenceLength = 20000;
constexpr size_t kWarmupRequests = 100;
/// Requests of explore whose answers are checked after the run: every
/// kCheckStride-th, up to kCheckedAnswers, with kScratchMinings of them
/// also mined from scratch.
constexpr size_t kCheckStride = 37;
constexpr size_t kCheckedAnswers = 60;
constexpr int kScratchMinings = 4;
/// serve: a fixed request set, a Zipf stream over it, and wire appends at
/// fixed request indices that move the generation, so the hot set misses
/// again after each.
constexpr size_t kServeDistinct = 1000;
constexpr double kServeZipf = 1.1;
constexpr size_t kServeAppendEvery = 4000;
constexpr uint32_t kServeAppends = 6;
constexpr size_t kServeCacheBytes = 4u << 20;

/// The run's scratch directory inside the checkout, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const Args& args)
      : path_(".bench_out/work-" + args.workload + "-" +
              std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string operator/(const char* name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

template <typename T>
T Must(Expected<T, LoadError> value, const char* what) {
  if (!value.has_value()) {
    throw std::runtime_error(std::string(what) + ": " + value.error().message);
  }
  return std::move(value).value();
}

void Must(const std::optional<LoadError>& error, const char* what) {
  if (error.has_value()) {
    throw std::runtime_error(std::string(what) + ": " + error->message);
  }
}

struct Setup {
  std::optional<TaraEngine> engine;
  std::vector<WindowId> appended;
  std::vector<double> append_ms;
  double save_ms = 0;
  double open_us = 0;
  double materialize_ms = 0;
  double seconds = 0;
};

/// The timed set-up: `windows` appends through TaraEngine::AppendWindow,
/// a TARAKB3 save to open.kb_dir, a mapped OpenKnowledgeBase, full
/// materialisation and a warm-up pass of requests drawn from `seed`.
Setup BuildBase(const EvolvingDatabase& data, uint32_t windows,
                OpenOptions open, uint64_t seed, Tracer* tracer) {
  Setup s;
  const uint64_t start = NowNs();
  {
    TaraEngine builder(EngineOptions());
    for (WindowId w = 0; w < windows; ++w) {
      const uint64_t t0 = NowNs();
      builder.AppendWindow(data.database(), data.window(w).begin,
                           data.window(w).end);
      const uint64_t t1 = NowNs();
      if (tracer != nullptr) tracer->Record("kb_builder.append", t0, t1);
      s.appended.push_back(w);
      s.append_ms.push_back(Ms(t1 - t0));
    }
    const uint64_t t0 = NowNs();
    Traced(tracer, "kb_blocks.save", [&] {
      Must(SaveKnowledgeBaseBlocks(*builder.Snapshot(), open.kb_dir), "save");
      return 0;
    });
    s.save_ms = Ms(NowNs() - t0);
  }
  open.mode = OpenMode::kMapped;
  uint64_t t0 = NowNs();
  s.engine.emplace(Traced(tracer, "kb_open.open", [&] {
    return Must(OpenKnowledgeBase(open), "open");
  }));
  s.open_us = Us(NowNs() - t0);
  t0 = NowNs();
  const auto snapshot =
      Traced(tracer, "kb_open.materialize", [&] { return s.engine->Snapshot(); });
  s.materialize_ms = Ms(NowNs() - t0);
  Rng rng(seed ^ 0x5eed0001ULL);
  const std::vector<QueryRequest> warmup =
      DrawRequests(&rng, kWarmupRequests, windows, snapshot->rule_count(),
                   data, ExploreShape(windows));
  Traced(tracer, "warmup", [&] {
    for (const QueryRequest& r : warmup) (void)ExecuteQuery(*snapshot, r);
    return 0;
  });
  s.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return s;
}

/// What a timed phase saw. `busy_ns` is the phase's wall time minus the
/// answer bookkeeping done between requests (hashing responses for the
/// post-run checks), which belongs to the benchmark, not the system.
struct Timed {
  std::vector<double> latency_us;
  std::vector<std::vector<double>> kind_us =
      std::vector<std::vector<double>>(kQueryKindCount);
  std::vector<double> pin_us;
  uint64_t busy_ns = 0;
  uint64_t requests = 0;
  uint64_t failed = 0;

  void Note(const QueryRequest& r, uint64_t t0, uint64_t t1, bool ok,
            Tracer* tracer) {
    latency_us.push_back(Us(t1 - t0));
    kind_us[static_cast<int>(r.kind)].push_back(Us(t1 - t0));
    ++requests;
    failed += ok ? 0 : 1;
    if (tracer != nullptr) {
      tracer->Record(std::string("request.") +
                         std::string(QueryKindName(r.kind)),
                     t0, t1, -1, requests);
    }
  }
  double qps() const {
    return static_cast<double>(requests) /
           (static_cast<double>(busy_ns) / 1e9);
  }
};

uint64_t Hash(QueryKind kind, const QueryResult& result) {
  return std::hash<std::string>{}(EncodeQueryResult(kind, result));
}

/// Records `hash` as an answer seen for request `index`.
void NoteAnswer(std::vector<std::vector<uint64_t>>* seen, size_t index,
                uint64_t hash) {
  std::vector<uint64_t>& list = (*seen)[index];
  if (std::find(list.begin(), list.end(), hash) == list.end()) {
    list.push_back(hash);
  }
}

/// Every recorded answer of request i must equal `execute(i)`'s.
void CheckSeen(const std::vector<std::vector<uint64_t>>& seen,
               const std::vector<QueryRequest>& requests,
               const std::function<Expected<QueryResult, QueryError>(
                   const QueryRequest&)>& execute,
               const char* check, std::vector<std::string>* errors) {
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i].empty()) continue;
    const auto result = execute(requests[i]);
    const bool same = result.has_value() && seen[i].size() == 1 &&
                      seen[i][0] == Hash(requests[i].kind, result.value());
    if (!same) {
      errors->push_back(std::string(check) + ": request " +
                        std::to_string(i) + " (" +
                        std::string(QueryKindName(requests[i].kind)) +
                        ") answered differently from its re-execution");
    }
  }
}

/// `peak_rss` is read before the post-run checks, whose engines are the
/// benchmark's, not the workload's.
void AddEndToEnd(const Setup& setup, Timed* timed,
                 const std::vector<double>& append_ms, uint64_t kb_bytes,
                 double peak_rss, Outcome* out) {
  out->Add("setup_s", setup.seconds, "s");
  out->Add("query_p50_us", Quantile(&timed->latency_us, 0.50), "us");
  out->Add("query_p99_us", Quantile(&timed->latency_us, 0.99), "us");
  out->Add("queries_per_s", timed->qps(), "1/s");
  out->Add("append_ms", Median(append_ms), "ms");
  out->Add("kb_bytes", static_cast<double>(kb_bytes), "bytes");
  out->Add("peak_rss_mb", peak_rss, "MiB");
}

LayerInputs Layers(const EvolvingDatabase& data, TaraEngine* engine,
                   const Setup& setup, const Timed& timed,
                   const std::vector<QueryRequest>& requests,
                   const std::string& kb_dir, const WorkDir& work) {
  LayerInputs in;
  in.data = &data;
  in.engine = engine;
  in.kb_dir = kb_dir;
  in.work_dir = work.path();
  in.appended = setup.appended;
  in.append_ms = setup.append_ms;
  in.save_ms = setup.save_ms;
  in.open_us = setup.open_us;
  in.materialize_ms = setup.materialize_ms;
  in.kb_bytes_per_window =
      static_cast<double>(DirBytes(kb_dir)) / setup.appended.size();
  in.requests = &requests;
  in.kind_us = timed.kind_us;
  in.pin_us = timed.pin_us;
  in.traced_qps = timed.qps();
  return in;
}

}  // namespace

Outcome RunExplore(const Args& args, Tracer* tracer) {
  const WorkDir work(args);
  const uint32_t windows = kBaseWindows;
  const EvolvingDatabase data =
      MakeWindows(args.seed, windows + kProbeWindows, kTxPerWindow);
  OpenOptions open;
  open.kb_dir = work / "kb";
  Setup setup = BuildBase(data, windows, open, args.seed, tracer);
  TaraEngine& engine = *setup.engine;
  const auto snapshot = engine.Snapshot();
  Rng rng(args.seed ^ 0xe4910e00ULL);
  const std::vector<QueryRequest> requests =
      DrawRequests(&rng, kSequenceLength, windows, snapshot->rule_count(),
                   data, ExploreShape(windows));

  Timed timed;
  std::vector<std::pair<size_t, QueryResult>> kept;
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    const QueryRequest& r = requests[i % requests.size()];
    if (tracer != nullptr) {
      const uint64_t p0 = NowNs();
      (void)engine.Snapshot();
      timed.pin_us.push_back(Us(NowNs() - p0));
    }
    const uint64_t t0 = NowNs();
    auto result = engine.Execute(r);
    const uint64_t t1 = NowNs();
    timed.Note(r, t0, t1, result.has_value(), tracer);
    if (result.has_value() && i % kCheckStride == 0 &&
        kept.size() < kCheckedAnswers) {
      kept.emplace_back(i % requests.size(), std::move(result).value());
    }
    timed.busy_ns = t1 - start;
    if (timed.busy_ns >= budget_ns) break;
  }
  const double peak_rss = PeakRssMiB();

  Outcome out;
  out.attempted = timed.requests + setup.appended.size();
  out.failed = timed.failed;
  int scratch = kScratchMinings;
  for (const auto& [index, result] : kept) {
    CheckAnswer(data, *snapshot, requests[index], result, &scratch,
                &out.errors);
  }
  if (tracer == nullptr) {
    AddEndToEnd(setup, &timed, setup.append_ms, DirBytes(open.kb_dir),
                peak_rss, &out);
  } else {
    LayerInputs in = Layers(data, &engine, setup, timed, requests,
                            open.kb_dir, work);
    for (uint32_t k = 0; k < kProbeWindows; ++k) {
      in.probe_windows.push_back(windows + k);
    }
    MeasureLayers(in, tracer, &out);
  }
  return out;
}

Outcome RunServe(const Args& args, Tracer* tracer) {
  const WorkDir work(args);
  const uint32_t windows = kBaseWindows;
  const EvolvingDatabase data =
      MakeWindows(args.seed, windows + kServeAppends, kTxPerWindow);
  OpenOptions open;
  open.kb_dir = work / "kb";
  open.query_cache_bytes = kServeCacheBytes;
  Setup setup = BuildBase(data, windows, open, args.seed, tracer);
  TaraEngine& engine = *setup.engine;
  Rng rng(args.seed ^ 0x5e12e000ULL);
  const std::vector<QueryRequest> requests =
      DrawRequests(&rng, kServeDistinct, windows,
                   engine.Snapshot()->rule_count(), data, ServeShape(windows));
  std::vector<size_t> stream(kSequenceLength);
  for (size_t& index : stream) index = rng.NextZipf(kServeDistinct, kServeZipf);

  server::ServerOptions server_options;
  server_options.max_concurrent_queries = 2;
  server_options.max_queued_queries = 2;
  server::TaraServer server(&engine, server_options);
  if (auto error = server.Start()) throw std::runtime_error(*error);
  std::vector<server::TaraClient> clients;
  for (int c = 0; c < 2; ++c) {
    auto client = server::TaraClient::Connect("127.0.0.1", server.port());
    if (!client.has_value()) throw std::runtime_error(client.error().message);
    clients.push_back(std::move(client).value());
  }

  Timed timed;
  std::vector<double> append_ms;
  std::vector<std::vector<uint64_t>> seen(kServeDistinct);
  uint64_t appends_failed = 0, excluded_ns = 0;
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = NowNs();
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % kServeAppendEvery == 0 &&
        append_ms.size() < kServeAppends) {
      // Appends are timed on their own and kept out of the query phase.
      const WindowInfo& info = data.window(windows + append_ms.size());
      const uint64_t t0 = NowNs();
      const bool ok =
          clients[0].AppendWindow(data.database(), info.begin, info.end)
              .has_value();
      const uint64_t dt = NowNs() - t0;
      append_ms.push_back(Ms(dt));
      excluded_ns += dt;
      appends_failed += ok ? 0 : 1;
    }
    const size_t index = stream[i % stream.size()];
    const QueryRequest& r = requests[index];
    if (tracer != nullptr) {
      const uint64_t p0 = NowNs();
      (void)engine.Snapshot();
      timed.pin_us.push_back(Us(NowNs() - p0));
    }
    const uint64_t t0 = NowNs();
    const auto result = clients[i % 2].Execute(r);
    const uint64_t t1 = NowNs();
    timed.Note(r, t0, t1, result.has_value(), tracer);
    if (result.has_value()) NoteAnswer(&seen, index, Hash(r.kind, *result));
    excluded_ns += NowNs() - t1;
    timed.busy_ns = NowNs() - start - excluded_ns;
    if (timed.busy_ns >= budget_ns) break;
  }
  const double peak_rss = PeakRssMiB();
  const QueryCache::Stats cache_stats = engine.query_cache()->stats();
  clients.clear();
  server.Stop();

  Outcome out;
  out.attempted = timed.requests + append_ms.size();
  out.failed = timed.failed + appends_failed;
  // Every distinct response against an uncached in-process execution.
  engine.SetQueryCacheBytes(0);
  CheckSeen(seen, requests,
            [&](const QueryRequest& r) { return engine.Execute(r); },
            "serve-bytes", &out.errors);
  if (tracer == nullptr) {
    AddEndToEnd(setup, &timed, append_ms, DirBytes(open.kb_dir), peak_rss,
                &out);
  } else {
    LayerInputs in = Layers(data, &engine, setup, timed, requests,
                            open.kb_dir, work);
    for (uint32_t k = 0; k < std::min(kProbeWindows, kServeAppends); ++k) {
      in.probe_windows.push_back(windows + k);
    }
    in.cache_stats = cache_stats;
    in.cache_budget = kServeCacheBytes;
    MeasureLayers(in, tracer, &out);
  }
  return out;
}

Outcome RunIngest(const Args& args, Tracer* tracer) {
  const WorkDir work(args);
  const uint32_t base = kIngestBaseWindows;
  const uint32_t live = kIngestLiveWindows;
  const EvolvingDatabase data =
      MakeWindows(args.seed, base + live, kIngestTxPerWindow);
  obs::MetricsRegistry registry;
  OpenOptions open;
  open.kb_dir = work / "base";
  open.wal_dir = work / "wal";
  if (tracer != nullptr) open.metrics = &registry;
  Setup setup = BuildBase(data, base, open, args.seed, tracer);
  std::optional<TaraEngine> engine = std::move(setup.engine);
  Rng rng(args.seed ^ 0x12e57000ULL);
  const std::vector<QueryRequest> requests =
      DrawRequests(&rng, kSequenceLength, base,
                   engine->Snapshot()->rule_count(), data, ExploreShape(base));
  obs::Counter* fsyncs = registry.GetCounter("tara.wal.fsyncs");
  obs::Counter* wal_bytes = registry.GetCounter("tara.wal.bytes");

  // Whole rounds until --seconds of timed phase: each round appends the
  // same live windows, one at a time on one thread, to a fresh engine
  // opened from the base with an empty WAL, while one reader replays the
  // explore mix over the base windows; each round ends with a TARAKB3
  // checkpoint. Re-opening between rounds is not timed. The reader starts
  // each round at the head of its sequence.
  Timed timed;
  std::vector<double> append_ms;
  std::vector<std::vector<uint64_t>> seen(requests.size());
  uint64_t wal_fsyncs = 0, wal_written = 0, rounds = 0;
  const std::string final_dir = work / "final";
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  for (;;) {
    if (rounds > 0) {
      engine.reset();
      fs::remove_all(open.wal_dir);
      engine.emplace(Must(OpenKnowledgeBase(open), "reopen base"));
      (void)engine->Snapshot();
    }
    const uint64_t fsyncs0 = fsyncs->Value(), bytes0 = wal_bytes->Value();
    std::vector<uint64_t> append_start(live), append_end(live);
    std::atomic<bool> done{false};
    std::thread appender([&] {
      for (uint32_t k = 0; k < live; ++k) {
        const WindowInfo& info = data.window(base + k);
        append_start[k] = NowNs();
        engine->AppendWindow(data.database(), info.begin, info.end);
        append_end[k] = NowNs();
      }
      done.store(true, std::memory_order_release);
    });
    uint64_t excluded_ns = 0;
    const uint64_t start = NowNs();
    for (size_t next = 0; !done.load(std::memory_order_acquire); ++next) {
      const size_t index = next % requests.size();
      const QueryRequest& r = requests[index];
      if (tracer != nullptr) {
        const uint64_t p0 = NowNs();
        (void)engine->Snapshot();
        timed.pin_us.push_back(Us(NowNs() - p0));
      }
      const uint64_t t0 = NowNs();
      const auto result = engine->Execute(r);
      const uint64_t t1 = NowNs();
      timed.Note(r, t0, t1, result.has_value(), tracer);
      if (result.has_value()) NoteAnswer(&seen, index, Hash(r.kind, *result));
      excluded_ns += NowNs() - t1;
    }
    timed.busy_ns += NowNs() - start - excluded_ns;
    appender.join();
    wal_fsyncs += fsyncs->Value() - fsyncs0;
    wal_written += wal_bytes->Value() - bytes0;
    for (uint32_t k = 0; k < live; ++k) {
      append_ms.push_back(Ms(append_end[k] - append_start[k]));
      if (tracer != nullptr) {
        tracer->Record("kb_builder.live_append", append_start[k],
                       append_end[k]);
      }
    }
    fs::remove_all(final_dir);
    Must(SaveKnowledgeBaseBlocks(*engine->Snapshot(), final_dir),
         "checkpoint");
    ++rounds;
    if (timed.busy_ns >= budget_ns) break;
  }
  const double peak_rss = PeakRssMiB();

  Outcome out;
  out.attempted = timed.requests + append_ms.size();
  out.failed = timed.failed;
  const auto snapshot = engine->Snapshot();
  for (uint32_t k = 0; k < live; ++k) {
    CheckAppendedWindow(data, *snapshot, base + k, &out.errors);
  }
  CheckSeen(seen, requests,
            [&](const QueryRequest& r) { return ExecuteQuery(*snapshot, r); },
            "reader-stable", &out.errors);
  {
    // Reopen the last checkpoint, and separately recover base + the last
    // round's WAL; both must answer a sample byte-identically to the
    // live engine.
    std::vector<QueryRequest> sample(requests.begin(), requests.begin() + 40);
    Rng sample_rng(args.seed ^ 0x5a3b1e00ULL);
    for (QueryRequest& r :
         DrawRequests(&sample_rng, 40, base + live, snapshot->rule_count(),
                      data, ExploreShape(base + live))) {
      sample.push_back(std::move(r));
    }
    std::vector<uint64_t> want;
    for (const QueryRequest& r : sample) {
      const auto result = ExecuteQuery(*snapshot, r);
      want.push_back(result.has_value() ? Hash(r.kind, *result) : 0);
    }
    const std::string wal_copy = work / "wal-copy";
    fs::copy(open.wal_dir, wal_copy);
    OpenOptions reopen;
    reopen.kb_dir = final_dir;
    reopen.mode = OpenMode::kMapped;
    OpenOptions recover;
    recover.kb_dir = open.kb_dir;
    recover.wal_dir = wal_copy;
    for (const OpenOptions& options : {reopen, recover}) {
      const TaraEngine other = Must(OpenKnowledgeBase(options), "reopen");
      const auto s = other.Snapshot();
      for (size_t i = 0; i < sample.size(); ++i) {
        const auto result = ExecuteQuery(*s, sample[i]);
        if (!result.has_value() || Hash(sample[i].kind, *result) != want[i]) {
          out.errors.push_back(
              std::string("ingest-") +
              (options.wal_dir.empty() ? "reopen" : "recover") + ": " +
              std::string(QueryKindName(sample[i].kind)) +
              " answered differently from the live engine");
        }
      }
    }
  }
  if (tracer == nullptr) {
    AddEndToEnd(setup, &timed, append_ms, DirBytes(final_dir), peak_rss,
                &out);
  } else {
    LayerInputs in = Layers(data, &*engine, setup, timed, requests,
                            open.kb_dir, work);
    in.appended.clear();
    for (uint32_t k = 0; k < live; ++k) in.appended.push_back(base + k);
    in.append_ms.assign(append_ms.end() - live, append_ms.end());
    in.probe_windows = {in.appended.begin(),
                        in.appended.begin() + kProbeWindows};
    in.kb_bytes_per_window =
        static_cast<double>(DirBytes(final_dir)) / (base + live);
    in.wal_fsyncs = wal_fsyncs;
    in.wal_bytes = wal_written;
    in.wal_windows = append_ms.size();
    MeasureLayers(in, tracer, &out);
  }
  return out;
}

}  // namespace tara::perfbench
