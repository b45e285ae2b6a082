#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the TARA benchmark driver: inputs drawn from the
// seed, the in-memory span recorder, the answer checks made apart from
// the query path, the per-layer probes of a traced run, and the three
// workloads. See perfbench/README.md for what each workload measures.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/kb_snapshot.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "txdb/evolving_database.h"

namespace tara::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One reported figure; the order of insertion is the order printed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the result line's fields.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Every failed answer check, one line each; empty means correct.
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

uint64_t NowNs();
double Ms(uint64_t ns);
double Us(uint64_t ns);
/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);
/// Peak resident set of this process, MiB.
double PeakRssMiB();
/// Total bytes of the regular files directly under `dir`.
uint64_t DirBytes(const std::string& dir);

// --- Inputs (inputs.cc) ----------------------------------------------------

/// Construction floors shared by every workload's engine.
KbOptions EngineOptions();

/// `count` retail-shaped windows of `tx_per_window` transactions each,
/// generated from `seed` (same seed, same bytes).
EvolvingDatabase MakeWindows(uint64_t seed, uint32_t count,
                             uint32_t tx_per_window);

/// Where a request mix draws its thresholds and window sets.
struct MixShape {
  double support_lo = 0;
  double support_hi = 0;
  double confidence_lo = 0;
  double confidence_hi = 0;
  uint32_t span_lo = 1;  ///< window-set length, clipped to the windows
  uint32_t span_hi = 1;
  /// Roll-up mining folds a few adjacent windows (weeks into a month); its
  /// cost grows with every rule of every window in the set.
  uint32_t rollup_span_lo = 1;
  uint32_t rollup_span_hi = 1;
  /// Requests of each QueryKind per round of the mix.
  std::array<int, kQueryKindCount> weights{1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
};

/// Wide horizons, thresholds spread upward from the floors: the analyst
/// mix of `explore` and of the `ingest` reader.
MixShape ExploreShape(uint32_t windows);
/// Tighter thresholds and shorter spans: small results, so a hot set of
/// them fits the serving cache.
MixShape ServeShape(uint32_t windows);

/// `count` requests in shuffled rounds holding each kind `weights` times, over
/// windows [0, windows) and rules [0, rules). Q5 probes are items of a
/// random transaction of the request's window.
std::vector<QueryRequest> DrawRequests(Rng* rng, size_t count,
                                       uint32_t windows, size_t rules,
                                       const EvolvingDatabase& data,
                                       const MixShape& shape);

// --- Spans (trace.cc) ------------------------------------------------------

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the recorder, -1 for a root
  uint64_t request = 0;
};

/// In-memory span recorder of a traced run, written out at the end.
/// Untraced runs never construct one.
class Tracer {
 public:
  int64_t Begin(std::string name, int64_t parent = -1, uint64_t request = 0);
  void End(int64_t span);
  /// Records a span whose bounds were taken by the caller.
  int64_t Record(std::string name, uint64_t start_ns, uint64_t end_ns,
                 int64_t parent = -1, uint64_t request = 0);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a span named `name` when `tracer` is set.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, Fn&& fn) {
  const int64_t span = tracer != nullptr ? tracer->Begin(name) : -1;
  struct Closer {
    Tracer* tracer;
    int64_t span;
    ~Closer() {
      if (tracer != nullptr) tracer->End(span);
    }
  } closer{tracer, span};
  return fn();
}

// --- Answer checks (checks.cc) -----------------------------------------------

/// Raw support count of `items` in window `w`, by a scan of the window's
/// transactions that shares no code with the miners or the archive.
uint64_t RawCount(const EvolvingDatabase& data, WindowId w,
                  const Itemset& items);

/// Checks one answer against the raw transactions and the properties the
/// method must have; appends one line per violation to `errors`. `budget`
/// caps the expensive from-scratch minings; it is decremented as used.
void CheckAnswer(const EvolvingDatabase& data,
                 const KnowledgeBaseSnapshot& snapshot,
                 const QueryRequest& request, const QueryResult& result,
                 int* scratch_budget, std::vector<std::string>* errors);

/// Raw-count check of a sample of rules from window `w`'s ruleset at the
/// floors (the rules an append just archived).
void CheckAppendedWindow(const EvolvingDatabase& data,
                         const KnowledgeBaseSnapshot& snapshot, WindowId w,
                         std::vector<std::string>* errors);

/// Feeds every check a correct and a perturbed answer on a small
/// knowledge base; returns 0 when each passes the first and rejects the
/// second.
int RunCheckSelfTest();

// --- Traced per-layer probes (layers.cc) -------------------------------------

/// What the probes need to know about a workload's run.
struct LayerInputs {
  const EvolvingDatabase* data = nullptr;
  TaraEngine* engine = nullptr;
  std::string kb_dir;    ///< the TARAKB3 directory set-up wrote
  std::string work_dir;  ///< scratch space for the WAL twin probe
  /// Windows the workload appended, with the wall time of each append.
  std::vector<WindowId> appended;
  std::vector<double> append_ms;
  /// Windows appended again by the WAL twin probe on top of `kb_dir`.
  std::vector<WindowId> probe_windows;
  /// Set-up stage times and the size of the directory the run wrote.
  double save_ms = 0;
  double open_us = 0;
  double materialize_ms = 0;
  double kb_bytes_per_window = 0;
  /// Requests of the timed sequence and what the timed phase saw.
  const std::vector<QueryRequest>* requests = nullptr;
  std::vector<std::vector<double>> kind_us;  ///< latencies by QueryKind
  std::vector<double> pin_us;                ///< Snapshot() costs
  double traced_qps = 0;
  /// WAL counter deltas over the workload's own logged appends (ingest);
  /// with wal_windows == 0 the twin probe's counters are reported.
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_windows = 0;
  /// The engine's query cache counters over the run (zero without one).
  QueryCache::Stats cache_stats;
  size_t cache_budget = 0;
};

/// Replays a per-kind sample of the requests through the public functions
/// of each layer, runs the mining, WAL, cache and wire probes, and adds
/// every per-layer metric to `out` (recording spans on `tracer`).
void MeasureLayers(const LayerInputs& in, Tracer* tracer, Outcome* out);

// --- Workloads (workloads.cc) -----------------------------------------------

Outcome RunExplore(const Args& args, Tracer* tracer);
Outcome RunServe(const Args& args, Tracer* tracer);
Outcome RunIngest(const Args& args, Tracer* tracer);

}  // namespace tara::perfbench

#endif  // PERFBENCH_BENCH_H_
