// Per-layer figures of a traced run. Each layer is timed from outside the
// program, around calls into the public functions of its module: a sample
// of the workload's requests is replayed stage by stage (the same calls
// the snapshot's query methods make, in the same order), the miners are
// called directly on the workload's windows, and the WAL, cache and wire
// layers are driven by small probes on the workload's own knowledge base.

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "core/kb_open.h"
#include "core/query_cache.h"
#include "core/wire_format.h"
#include "mining/fp_growth.h"
#include "mining/rule_generation.h"
#include "obs/metrics.h"
#include "server/tara_client.h"
#include "server/tara_server.h"

namespace tara::perfbench {
namespace {

constexpr size_t kReplaysPerKind = 20;

/// Stage times of one replayed request, in ns, plus the work counts.
struct Stages {
  uint64_t collect = 0;  ///< WindowIndex::CollectRules
  uint64_t index = 0;    ///< WindowIndex::Locate / ContentQuery
  uint64_t decode = 0;   ///< TarArchive::DecodeInto
  uint64_t build = 0;    ///< BuildTrajectory(+ComputeMeasures), decode incl.
  uint64_t rollup = 0;   ///< RollUpTree::RollUp
  uint64_t merge = 0;    ///< the snapshot's own set algebra
  uint64_t rules = 0;    ///< rules collected
  uint64_t decodes = 0;
  uint64_t decoded_entries = 0;

  /// The trajectory layer's share: assembly minus the decode inside it.
  int64_t fill() const {
    return static_cast<int64_t>(build) - static_cast<int64_t>(decode);
  }
  /// collect + index + decode + fill + rollup + merge, where decode + fill
  /// is `build` (the decode stage only apportions it).
  uint64_t sum() const { return collect + index + build + rollup + merge; }
};

/// Replays `r` through the layers, mirroring KnowledgeBaseSnapshot's query
/// methods; each stage call becomes a child span of `parent`.
class Replayer {
 public:
  Replayer(const KnowledgeBaseSnapshot& s, Tracer* tracer, int64_t parent,
           uint64_t request)
      : s_(s), tracer_(tracer), parent_(parent), request_(request) {}

  Stages Run(const QueryRequest& r) {
    const std::vector<WindowId>& ids = r.windows;
    switch (r.kind) {
      case QueryKind::kMineWindow:
        Collect(r.window, r.setting);
        break;
      case QueryKind::kMineWindows:
        MineWindows(ids, r.setting, r.mode);
        break;
      case QueryKind::kTrajectory:
        Trajectories(Collect(r.window, r.setting), ids);
        break;
      case QueryKind::kCompare: {
        const std::vector<RuleId> a = MineWindows(ids, r.setting, r.mode);
        const std::vector<RuleId> b = MineWindows(ids, r.second, r.mode);
        Stage("kb_snapshot.merge", &st_.merge, [&] {
          RulesetDiff diff;
          std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(diff.only_first));
          std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                              std::back_inserter(diff.only_second));
          return diff.only_first.size();
        });
        break;
      }
      case QueryKind::kRegion:
        Stage("stable_region_index.locate", &st_.index, [&] {
          return s_.window_index(r.window)
              .Locate(r.setting.min_support, r.setting.min_confidence)
              .result_size;
        });
        break;
      case QueryKind::kMeasures: {
        Decode({r.rule});
        Stage("trajectory.build", &st_.build, [&] {
          DecodeArena arena;
          return ComputeMeasures(
                     BuildTrajectoryInto(s_.archive(), r.rule, ids, arena))
              .coverage;
        });
        break;
      }
      case QueryKind::kContent:
        Stage("stable_region_index.content", &st_.index, [&] {
          std::vector<RuleId> out;
          s_.window_index(r.window).ContentQuery(
              r.items, r.setting.min_support, r.setting.min_confidence, &out);
          return out.size();
        });
        break;
      case QueryKind::kContentView: {
        const std::vector<RuleId> rules = Collect(r.window, r.setting);
        Stage("kb_snapshot.merge", &st_.merge, [&] {
          ContentViewResult view;
          for (RuleId rule : rules) {
            const Rule& x = s_.catalog().rule(rule);
            for (ItemId item : x.antecedent) view[item].push_back(rule);
            for (ItemId item : x.consequent) view[item].push_back(rule);
          }
          for (auto& [item, list] : view) std::sort(list.begin(), list.end());
          return view.size();
        });
        break;
      }
      case QueryKind::kRollUpRule:
        Stage("rollup_tree.rollup", &st_.rollup, [&] {
          return s_.rollup_tree().RollUp(r.rule, ids).missing_windows;
        });
        break;
      case QueryKind::kRollUpMine: {
        std::vector<RuleId> candidates;
        Stage("kb_snapshot.merge", &st_.merge, [&] {
          for (WindowId w : ids) {
            for (const WindowIndex::Entry& e : s_.window_entries(w)) {
              candidates.push_back(e.rule);
            }
          }
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(std::unique(candidates.begin(), candidates.end()),
                           candidates.end());
          return candidates.size();
        });
        Stage("rollup_tree.rollup", &st_.rollup, [&] {
          RolledUpRules out;
          const ParameterSetting& p = r.setting;
          for (RuleId rule : candidates) {
            const RollUpBound b = s_.rollup_tree().RollUp(rule, ids);
            if (b.support_lo + 1e-12 >= p.min_support &&
                b.confidence_lo + 1e-12 >= p.min_confidence) {
              out.certain.push_back(rule);
            } else if (b.support_hi + 1e-12 >= p.min_support &&
                       b.confidence_hi + 1e-12 >= p.min_confidence) {
              out.possible.push_back(rule);
            }
          }
          return out.certain.size();
        });
        break;
      }
    }
    return st_;
  }

 private:
  template <typename Fn>
  void Stage(const char* name, uint64_t* acc, Fn&& fn) {
    const uint64_t t0 = NowNs();
    volatile size_t sink = static_cast<size_t>(fn());
    (void)sink;
    const uint64_t t1 = NowNs();
    *acc += t1 - t0;
    if (tracer_ != nullptr) tracer_->Record(name, t0, t1, parent_, request_);
  }

  std::vector<RuleId> Collect(WindowId w, const ParameterSetting& p) {
    std::vector<RuleId> out;
    Stage("stable_region_index.collect", &st_.collect, [&] {
      s_.window_index(w).CollectRules(p.min_support, p.min_confidence, &out);
      return out.size();
    });
    st_.rules += out.size();
    return out;
  }

  std::vector<RuleId> MineWindows(const std::vector<WindowId>& ids,
                                  const ParameterSetting& p, MatchMode mode) {
    std::vector<RuleId> combined;
    bool first = true;
    for (WindowId w : ids) {
      std::vector<RuleId> rules = Collect(w, p);
      Stage("kb_snapshot.merge", &st_.merge, [&] {
        std::sort(rules.begin(), rules.end());
        if (first) {
          combined = std::move(rules);
          first = false;
          return combined.size();
        }
        std::vector<RuleId> merged;
        if (mode == MatchMode::kSingle) {
          std::set_union(combined.begin(), combined.end(), rules.begin(),
                         rules.end(), std::back_inserter(merged));
        } else {
          std::set_intersection(combined.begin(), combined.end(),
                                rules.begin(), rules.end(),
                                std::back_inserter(merged));
        }
        combined = std::move(merged);
        return combined.size();
      });
    }
    return combined;
  }

  void Decode(const std::vector<RuleId>& rules) {
    Stage("tar_archive.decode", &st_.decode, [&] {
      DecodeArena arena;
      size_t entries = 0;
      for (RuleId rule : rules) {
        arena.Reset();
        entries += s_.archive().DecodeInto(rule, arena).size();
      }
      st_.decoded_entries += entries;
      return entries;
    });
    st_.decodes += rules.size();
  }

  void Trajectories(const std::vector<RuleId>& rules,
                    const std::vector<WindowId>& ids) {
    Decode(rules);
    Stage("trajectory.build", &st_.build, [&] {
      TrajectoryQueryResult result;
      result.rules = rules;
      result.trajectories.reserve(rules.size());
      DecodeArena arena;
      for (RuleId rule : rules) {
        arena.Reset();
        result.trajectories.push_back(
            BuildTrajectory(s_.archive(), rule, ids, &arena));
      }
      return result.trajectories.size();
    });
  }

  const KnowledgeBaseSnapshot& s_;
  Tracer* tracer_;
  int64_t parent_;
  uint64_t request_;
  Stages st_;
};

/// A probe that cannot run marks the run's outputs as incorrect.
void Fail(Outcome* out, const char* what) {
  out->errors.push_back(std::string("layer probe: ") + what);
}

double PerRequest(uint64_t total_ns, uint64_t requests) {
  return requests == 0 ? 0.0 : Us(total_ns) / static_cast<double>(requests);
}

/// Median append time of `windows` appended on top of the knowledge base
/// in `kb_dir`, with a WAL in `wal_dir` when it is non-empty.
double TwinAppendMs(const EvolvingDatabase& data, const std::string& kb_dir,
                    const std::string& wal_dir,
                    const std::vector<WindowId>& windows,
                    obs::MetricsRegistry* registry, uint64_t* fsyncs,
                    uint64_t* bytes) {
  OpenOptions options;
  options.kb_dir = kb_dir;
  options.mode = OpenMode::kMapped;
  options.wal_dir = wal_dir;
  options.metrics = registry;
  TaraEngine engine = OpenKnowledgeBase(options).value();
  (void)engine.Snapshot();
  const auto counter = [&](const char* name) {
    return registry->GetCounter(name)->Value();
  };
  const uint64_t fsyncs0 = counter("tara.wal.fsyncs");
  const uint64_t bytes0 = counter("tara.wal.bytes");
  std::vector<double> ms;
  for (WindowId w : windows) {
    const uint64_t t0 = NowNs();
    engine.AppendWindow(data.database(), data.window(w).begin,
                        data.window(w).end);
    ms.push_back(Ms(NowNs() - t0));
  }
  *fsyncs = counter("tara.wal.fsyncs") - fsyncs0;
  *bytes = counter("tara.wal.bytes") - bytes0;
  return Median(ms);
}

}  // namespace

void MeasureLayers(const LayerInputs& in, Tracer* tracer, Outcome* out) {
  const EvolvingDatabase& data = *in.data;
  const auto snapshot = in.engine->Snapshot();
  const KnowledgeBaseSnapshot& s = *snapshot;
  const KbOptions& options = s.options();

  // mining + kb_builder: the miners called directly on the appended
  // windows; the builder's own share is the append minus that mining.
  std::vector<double> mine_ms, self_ms;
  for (size_t i = 0; i < in.appended.size(); ++i) {
    const WindowInfo& info = data.window(in.appended[i]);
    const uint64_t t0 = NowNs();
    FrequentItemsetMiner::Options mine;
    mine.min_count = MinCountForSupport(options.min_support_floor, info.size());
    mine.max_size = options.max_itemset_size;
    const std::vector<MinedRule> rules = GenerateRules(
        FpGrowthMiner().Mine(data.database(), info.begin, info.end, mine),
        options.min_confidence_floor);
    const uint64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Record("mining.window", t0, t1);
    mine_ms.push_back(Ms(t1 - t0));
    self_ms.push_back(in.append_ms[i] - mine_ms.back());
  }
  const size_t quarter = std::max<size_t>(1, self_ms.size() / 4);
  out->Add("mining.window_ms", Median(mine_ms), "ms");
  out->Add("kb_builder.append_self_ms", Median(self_ms), "ms");
  out->Add("kb_builder.append_first_quarter_ms",
           Median({self_ms.begin(), self_ms.begin() + quarter}), "ms");
  out->Add("kb_builder.append_last_quarter_ms",
           Median({self_ms.end() - quarter, self_ms.end()}), "ms");

  // wal: twin engines over the same knowledge base and windows, one
  // logging to a WAL, one not.
  {
    obs::MetricsRegistry with_registry, without_registry;
    uint64_t fsyncs = 0, bytes = 0, unused = 0;
    const std::string wal_dir = in.work_dir + "/wal-twin";
    std::filesystem::remove_all(wal_dir);
    const double with_wal =
        TwinAppendMs(data, in.kb_dir, wal_dir, in.probe_windows,
                     &with_registry, &fsyncs, &bytes);
    const double without_wal = TwinAppendMs(data, in.kb_dir, "",
                                            in.probe_windows,
                                            &without_registry, &unused,
                                            &unused);
    std::filesystem::remove_all(wal_dir);
    uint64_t windows = in.probe_windows.size();
    if (in.wal_windows > 0) {
      fsyncs = in.wal_fsyncs;
      bytes = in.wal_bytes;
      windows = in.wal_windows;
    }
    out->Add("wal.fsyncs", static_cast<double>(fsyncs) / windows, "count");
    out->Add("wal.bytes_per_window", static_cast<double>(bytes) / windows,
             "bytes");
    out->Add("wal.append_overhead_ms", with_wal - without_wal, "ms");
  }

  out->Add("kb_blocks.save_ms", in.save_ms, "ms");
  out->Add("kb_open.open_us", in.open_us, "us");
  out->Add("kb_open.materialize_ms", in.materialize_ms, "ms");
  out->Add("kb_blocks.bytes_per_window", in.kb_bytes_per_window, "bytes");

  // Replays: per kind, the first kReplaysPerKind requests of the timed
  // sequence; Execute's uncached core and the stage replay alternate
  // three times and each keeps its median.
  std::vector<std::vector<const QueryRequest*>> by_kind(kQueryKindCount);
  for (const QueryRequest& r : *in.requests) {
    auto& list = by_kind[static_cast<int>(r.kind)];
    if (list.size() < kReplaysPerKind) list.push_back(&r);
  }
  Stages total;
  uint64_t collect_requests = 0, decode_requests = 0, rollup_requests = 0;
  int64_t fill_ns = 0;
  uint64_t request_id = 1u << 30;
  std::vector<const QueryRequest*> sample;
  for (int k = 0; k < kQueryKindCount; ++k) {
    const std::string kind(QueryKindName(static_cast<QueryKind>(k)));
    uint64_t exec_sum = 0, stage_sum = 0;
    for (const QueryRequest* r : by_kind[k]) {
      sample.push_back(r);
      std::vector<double> exec, replay;
      Stages kept;
      for (int rep = 0; rep < 3; ++rep) {
        const uint64_t t0 = NowNs();
        const auto result = ExecuteQuery(s, *r);
        exec.push_back(static_cast<double>(NowNs() - t0));
        if (!result.has_value()) Fail(out, "replayed request failed");
        const int64_t root =
            tracer != nullptr ? tracer->Begin("replay." + kind, -1, request_id)
                              : -1;
        Stages st = Replayer(s, tracer, root, request_id).Run(*r);
        if (tracer != nullptr) tracer->End(root);
        replay.push_back(static_cast<double>(st.sum()));
        if (rep == 0) kept = st;
        ++request_id;
      }
      exec_sum += static_cast<uint64_t>(Median(exec));
      stage_sum += static_cast<uint64_t>(Median(replay));
      total.collect += kept.collect;
      total.index += kept.index;
      total.decode += kept.decode;
      total.rollup += kept.rollup;
      total.rules += kept.rules;
      total.decodes += kept.decodes;
      total.decoded_entries += kept.decoded_entries;
      fill_ns += kept.fill();
      collect_requests += kept.collect > 0 ? 1 : 0;
      decode_requests += kept.decodes > 0 ? 1 : 0;
      rollup_requests += kept.rollup > 0 ? 1 : 0;
    }
    const uint64_t n = by_kind[k].size();
    out->Add("replay." + kind + ".stage_sum_us", PerRequest(stage_sum, n),
             "us");
    out->Add("replay." + kind + ".execute_us", PerRequest(exec_sum, n), "us");
  }
  out->Add("stable_region_index.collect_us",
           PerRequest(total.collect, collect_requests), "us");
  out->Add("stable_region_index.rules_per_request",
           static_cast<double>(total.rules) /
               std::max<uint64_t>(1, collect_requests),
           "count");
  out->Add("tar_archive.decode_us_per_request",
           PerRequest(total.decode, decode_requests), "us");
  out->Add("tar_archive.decodes_per_request",
           static_cast<double>(total.decodes) /
               std::max<uint64_t>(1, decode_requests),
           "count");
  out->Add("tar_archive.decode_mb_per_s",
           static_cast<double>(total.decoded_entries * sizeof(ArchiveEntry)) /
               std::max(1e-9, static_cast<double>(total.decode) / 1e9) / 1e6,
           "MB/s");
  out->Add("trajectory.fill_us_per_request",
           PerRequest(static_cast<uint64_t>(std::max<int64_t>(0, fill_ns)),
                      decode_requests),
           "us");
  out->Add("rollup_tree.rollup_us_per_request",
           PerRequest(total.rollup, rollup_requests), "us");

  // kb_snapshot: the timed phase's per-kind latencies and pin costs.
  for (int k = 0; k < kQueryKindCount; ++k) {
    const std::string kind(QueryKindName(static_cast<QueryKind>(k)));
    out->Add("kind." + kind + ".p50_us", Median(in.kind_us[k]), "us");
    out->Add("kind." + kind + ".count",
             static_cast<double>(in.kind_us[k].size()), "count");
  }
  out->Add("kb_snapshot.pin_us", Median(in.pin_us), "us");

  // query_request + query_cache: the result codec and the cache's miss
  // and hit paths as Execute takes them, on the same sample.
  {
    QueryCache cache(in.cache_budget > 0 ? in.cache_budget : 64u << 20);
    std::vector<double> encode_us, decode_us, hit_us, miss_us, frame_us;
    uint64_t result_bytes = 0, request_bytes = 0, response_bytes = 0;
    for (const QueryRequest* r : sample) {
      uint64_t t0 = NowNs();
      const std::string key = EncodeQueryRequest(*r);
      const bool missed = !cache.Get(s.generation(), r->kind, key).has_value();
      const QueryResult result = ExecuteQuery(s, *r).value();
      const uint64_t t1 = NowNs();
      std::string bytes = EncodeQueryResult(r->kind, result);
      const uint64_t t2 = NowNs();
      cache.Put(s.generation(), r->kind, key, bytes);
      miss_us.push_back(Us(NowNs() - t0));
      encode_us.push_back(Us(t2 - t1));
      if (!missed) Fail(out, "cache probe hit before its first put");
      t0 = NowNs();
      const std::optional<std::string> hit =
          cache.Get(s.generation(), r->kind, key);
      const uint64_t t3 = NowNs();
      const bool decoded =
          hit.has_value() && DecodeQueryResult(r->kind, *hit).has_value();
      const uint64_t t4 = NowNs();
      // Bytes over the cache budget's shard share are never cached.
      if (hit.has_value()) hit_us.push_back(Us(t4 - t0));
      if (decoded) decode_us.push_back(Us(t4 - t3));
      result_bytes += bytes.size();
      request_bytes += EncodeExecuteFrame(*r).size();
      const std::string frame = EncodeResultFrame(r->kind, result);
      response_bytes += frame.size();
      t0 = NowNs();
      const auto parsed = DecodeFrame(frame);
      const bool ok = parsed.has_value() &&
                      DecodeResultPayload(parsed->payload).has_value();
      frame_us.push_back(Us(NowNs() - t0));
      if (!ok) Fail(out, "result frame does not decode");
    }
    const double n = static_cast<double>(std::max<size_t>(1, sample.size()));
    out->Add("query_request.encode_result_us", Median(encode_us), "us");
    out->Add("query_request.decode_result_us", Median(decode_us), "us");
    out->Add("query_request.result_bytes", result_bytes / n, "bytes");
    const QueryCache::Stats& stats = in.cache_stats;
    out->Add("query_cache.hits", static_cast<double>(stats.hits), "count");
    out->Add("query_cache.misses", static_cast<double>(stats.misses), "count");
    out->Add("query_cache.evictions", static_cast<double>(stats.evictions),
             "count");
    out->Add("query_cache.hit_rate", stats.hit_rate(), "ratio");
    out->Add("query_cache.hit_us", Median(hit_us), "us");
    out->Add("query_cache.miss_us", Median(miss_us), "us");

    // server: a probe server on the workload's engine, one connection.
    server::ServerOptions server_options;
    server_options.max_concurrent_queries = 1;
    server::TaraServer server(in.engine, server_options);
    std::vector<double> ping_us;
    if (!server.Start().has_value()) {
      auto client = server::TaraClient::Connect("127.0.0.1", server.port());
      for (int i = 0; client.has_value() && i < 300; ++i) {
        const uint64_t p0 = NowNs();
        const bool pong = client.value().Ping().has_value();
        ping_us.push_back(Us(NowNs() - p0));
        if (!pong) Fail(out, "ping failed");
      }
    }
    server.Stop();
    if (ping_us.empty()) Fail(out, "probe server unreachable");
    out->Add("server.ping_rtt_us", Median(ping_us), "us");
    out->Add("server.request_bytes", request_bytes / n, "bytes");
    out->Add("server.response_bytes", response_bytes / n, "bytes");
    out->Add("server.frame_decode_us", Median(frame_us), "us");
  }

  // Tracing overhead: the first requests of the sequence through Execute,
  // in alternating blocks without and with a span per request.
  {
    const std::vector<QueryRequest>& seq = *in.requests;
    const size_t block = std::min<size_t>(seq.size(), 100);
    Tracer probe;
    uint64_t plain = 0, traced = 0;
    for (int rep = -1; rep < 6; ++rep) {  // rep -1 warms up, unmeasured
      const bool trace = rep % 2 == 1;
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i < block; ++i) {
        const uint64_t q0 = NowNs();
        const bool ok = in.engine->Execute(seq[i]).has_value();
        if (trace) probe.Record("request", q0, NowNs(), -1, i + 1);
        if (!ok) Fail(out, "overhead probe request failed");
      }
      if (rep >= 0) (trace ? traced : plain) += NowNs() - t0;
    }
    out->Add("trace.queries_per_s", in.traced_qps, "1/s");
    out->Add("trace.overhead_pct",
             100.0 * (static_cast<double>(traced) / plain - 1.0), "%");
  }
}

}  // namespace tara::perfbench
