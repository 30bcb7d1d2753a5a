// The in-process analyst phase: cold drill-down sessions on freshly
// prepared datasets, each followed by its warm replay.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "data/group_by.h"
#include "obs/trace.h"
#include "shape.h"

namespace perfbench {
namespace {

using reptile::BatchOptions;
using reptile::DatasetHandle;
using reptile::ExploreResponse;
using reptile::Session;

/// Stage times summed over traced recommends (seconds).
struct StageSums {
  double validate = 0.0;
  double plan = 0.0;
  double fit = 0.0;
  double rank = 0.0;
  double train = 0.0;
  double warm_group_stats = 0.0;
  int64_t recommends = 0;
  int64_t warm_recommends = 0;
};

/// Cache counters of one prepared dataset after a cold session and its warm
/// replay.
struct CacheCounters {
  double agg_hit_ratio = 0.0;
  double fit_hit_ratio = 0.0;
  double agg_bytes = 0.0;
  double model_bytes = 0.0;
};

CacheCounters ReadCaches(const reptile::PreparedDataset& dataset) {
  const auto ratio = [](int64_t hits, int64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                             : 0.0;
  };
  CacheCounters out;
  out.agg_hit_ratio = ratio(dataset.cache_hits(), dataset.cache_misses());
  out.fit_hit_ratio = ratio(dataset.model_cache_hits(), dataset.model_cache_misses());
  out.agg_bytes = static_cast<double>(dataset.cache_bytes());
  out.model_bytes = static_cast<double>(dataset.model_cache_bytes());
  return out;
}

struct SessionRun {
  double seconds = 0.0;
  std::vector<ExploreResponse> responses;
  int64_t aggregate_builds = 0;
  int64_t models_trained = 0;
};

DatasetHandle PrepareOrDie(reptile::Dataset dataset) {
  reptile::Result<DatasetHandle> handle = reptile::PreparedDataset::Prepare(std::move(dataset));
  if (!handle.ok()) Die("prepare: " + handle.status().ToString());
  return std::move(handle).value();
}

Session OpenOrDie(const Shape& shape, const DatasetHandle& handle, const reptile::Table* aux) {
  reptile::Result<Session> session =
      Session::Open(handle, reptile::ExploreRequest().Threads(1));
  if (!session.ok()) Die("session open: " + session.status().ToString());
  if (aux != nullptr) {
    reptile::AuxiliaryRequest request;
    request.name = shape.aux_measure;
    request.table = *aux;
    request.join_attributes = {shape.aux_join};
    request.measure = shape.aux_measure;
    reptile::Status registered = session->RegisterAuxiliary(std::move(request));
    if (!registered.ok()) Die("register auxiliary: " + registered.ToString());
  }
  return std::move(session).value();
}

double SpanSeconds(const std::vector<reptile::TraceSpan>& spans, const std::string& name) {
  double total = 0.0;
  for (const reptile::TraceSpan& span : spans) {
    if (span.name == name) total += span.duration_seconds;
  }
  return total;
}

/// One drill-down session: pre-commits, then recommend + commit per step.
/// Only the steps are timed; opening the session and registering the
/// auxiliary table are not.
SessionRun DrillSession(const Shape& shape, const DatasetHandle& handle,
                        const reptile::Table* aux, bool warm, StageSums* stages) {
  Session session = OpenOrDie(shape, handle, aux);
  SessionRun run;
  run.responses.reserve(shape.commit_order.size());
  const double start = NowSeconds();
  for (const std::string& hierarchy : shape.pre_commits) {
    reptile::Status committed = session.Commit(hierarchy);
    if (!committed.ok()) Die("commit " + hierarchy + ": " + committed.ToString());
  }
  for (const std::string& hierarchy : shape.commit_order) {
    reptile::TraceContext trace("perfbench");
    BatchOptions options;
    if (stages != nullptr) options.WithTrace(&trace);
    reptile::Result<ExploreResponse> response = session.Recommend(shape.complaint, options);
    if (!response.ok()) Die("recommend: " + response.status().ToString());
    if (stages != nullptr) {
      std::vector<reptile::TraceSpan> spans = trace.Spans();
      double train = 0.0;
      for (const reptile::HierarchyResponse& candidate : response->candidates) {
        train += candidate.train_seconds;
      }
      const double fit = SpanSeconds(spans, "fit");
      stages->validate += SpanSeconds(spans, "validate");
      stages->plan += SpanSeconds(spans, "plan");
      stages->fit += fit;
      stages->rank += SpanSeconds(spans, "rank");
      stages->train += train;
      stages->recommends += 1;
      if (warm) {
        stages->warm_group_stats += fit - train;
        stages->warm_recommends += 1;
      }
    }
    run.responses.push_back(std::move(response).value());
    reptile::Status committed = session.Commit(hierarchy);
    if (!committed.ok()) Die("commit " + hierarchy + ": " + committed.ToString());
  }
  run.seconds = NowSeconds() - start;
  run.aggregate_builds = session.aggregate_builds();
  run.models_trained = session.models_trained();
  return run;
}

std::vector<std::string> Zeroed(const SessionRun& run) {
  std::vector<std::string> out;
  for (const ExploreResponse& response : run.responses) out.push_back(ZeroedJson(response));
  return out;
}

/// Checks the reference cold session: workload checks per step, and every
/// returned group's observed COUNT against the generator's own tally.
void CheckReference(const Shape& shape, const SessionRun& run) {
  for (size_t step = 0; step < run.responses.size(); ++step) {
    const ExploreResponse& response = run.responses[step];
    if (shape.check_step) shape.check_step(static_cast<int>(step), response);
    if (shape.tally == nullptr) continue;
    for (const reptile::HierarchyResponse& candidate : response.candidates) {
      for (const reptile::GroupResponse& group : candidate.groups) {
        auto count = group.observed.find("count");
        const int64_t expected = shape.tally->Tally(group.key);
        if (count == group.observed.end() ||
            std::llround(count->second) != expected ||
            count->second != std::floor(count->second)) {
          CheckFailed("step " + std::to_string(step) + " group " + group.description +
                      ": observed count " +
                      (count == group.observed.end() ? std::string("missing")
                                                     : std::to_string(count->second)) +
                      ", generated " + std::to_string(expected));
        }
      }
    }
  }
}

}  // namespace

reptile::Dataset ParseDataset(const Shape& shape, const std::string& csv) {
  reptile::Result<reptile::Table> table = reptile::LoadCsvText(csv, shape.spec);
  if (!table.ok()) Die("parse: " + table.status().ToString());
  reptile::Result<reptile::Dataset> dataset =
      reptile::Dataset::Make(std::move(table).value(), shape.hierarchies);
  if (!dataset.ok()) Die("dataset: " + dataset.status().ToString());
  return std::move(dataset).value();
}

AnalystResult RunAnalyst(const Shape& shape, const Args& args, double seconds,
                         int setup_probes, Report* report) {
  AnalystResult result;

  // Cold set-up: the version-1 bytes to a prepared dataset.
  const double setup_start = NowSeconds();
  DatasetHandle first = PrepareOrDie(ParseDataset(shape, shape.csv));
  result.setup_s = NowSeconds() - setup_start;
  if (args.setup_probe) return result;

  std::optional<reptile::Table> aux;
  if (!shape.aux_csv.empty()) {
    reptile::CsvSpec spec;
    spec.dimension_columns = {shape.aux_join};
    spec.measure_columns = {shape.aux_measure};
    reptile::Result<reptile::Table> table = reptile::LoadCsvText(shape.aux_csv, spec);
    if (!table.ok()) Die("aux parse: " + table.status().ToString());
    aux = std::move(table).value();
  }
  const reptile::Table* aux_table = aux ? &*aux : nullptr;

  // Warm-up round outside the timed region; its cold session is the
  // reference every later session must reproduce byte for byte.
  const SessionRun reference = DrillSession(shape, first, aux_table, false, nullptr);
  CheckReference(shape, reference);
  const std::vector<std::string> expected = Zeroed(reference);
  if (Zeroed(DrillSession(shape, first, aux_table, true, nullptr)) != expected) {
    CheckFailed("warm-up replay differs from its cold session");
  }
  const reptile::Table base_table = first->table();
  first.reset();

  const int64_t operations_per_session =
      static_cast<int64_t>(shape.pre_commits.size() + 2 * shape.commit_order.size());
  StageSums stages;
  std::vector<double> prepare_s;
  std::vector<double> trace_overhead;  // traced cold / preceding untraced cold - 1
  std::vector<double> builds;
  std::vector<double> fits;
  CacheCounters caches;
  // Cold set-up probes run between rounds, spread evenly over the phase,
  // while this process waits for them.
  const double phase_start = NowSeconds();
  const double deadline = phase_start + seconds;
  const auto probe_due = [&] {
    const double due = phase_start + seconds * static_cast<double>(result.probe_setup_s.size()) /
                                         static_cast<double>(setup_probes);
    return static_cast<int>(result.probe_setup_s.size()) < setup_probes && NowSeconds() >= due;
  };
  for (int round = 0; round == 0 || NowSeconds() < deadline; ++round) {
    while (probe_due()) result.probe_setup_s.push_back(ColdSetupProbe(args));
    const bool traced = args.trace && round % 2 == 1;
    reptile::Table table = base_table;
    const double prepare_start = NowSeconds();
    DatasetHandle fresh =
        PrepareOrDie(reptile::Dataset::Make(std::move(table), shape.hierarchies).value());
    prepare_s.push_back(NowSeconds() - prepare_start);

    SessionRun cold = DrillSession(shape, fresh, aux_table, false, traced ? &stages : nullptr);
    SessionRun warm = DrillSession(shape, fresh, aux_table, true, traced ? &stages : nullptr);
    if (Zeroed(cold) != expected) {
      CheckFailed("cold session of round " + std::to_string(round) + " differs from the reference");
    }
    if (Zeroed(warm) != expected) {
      CheckFailed("warm replay of round " + std::to_string(round) +
                  " differs from its cold session");
    }
    if (traced) {
      trace_overhead.push_back(cold.seconds / result.cold_s.back() - 1.0);
    } else {
      result.cold_s.push_back(cold.seconds);
      result.warm_s.push_back(warm.seconds);
    }
    builds.push_back(static_cast<double>(cold.aggregate_builds));
    fits.push_back(static_cast<double>(cold.models_trained));
    if (args.trace) caches = ReadCaches(*fresh);
    result.operations += 2 * operations_per_session;
  }
  while (static_cast<int>(result.probe_setup_s.size()) < setup_probes) {
    result.probe_setup_s.push_back(ColdSetupProbe(args));
  }

  if (args.trace) {
    const double n = static_cast<double>(std::max<int64_t>(stages.recommends, 1));
    report->Set("api.validate_ms", 1e3 * stages.validate / n, "ms");
    report->Set("factor.plan_ms", 1e3 * stages.plan / n, "ms");
    report->Set("data.group_stats_ms", 1e3 * (stages.fit - stages.train) / n, "ms");
    report->Set("data.warm_group_stats_ms",
                1e3 * stages.warm_group_stats /
                    static_cast<double>(std::max<int64_t>(stages.warm_recommends, 1)),
                "ms");
    report->Set("model.train_ms", 1e3 * stages.train / n, "ms");
    report->Set("core.rank_ms", 1e3 * stages.rank / n, "ms");
    report->Set("api.prepare_ms", 1e3 * Median(prepare_s), "ms");
    report->Set("factor.aggregate_builds", Median(builds), "count");
    report->Set("model.fits", Median(fits), "count");
    int em_iterations = 0;
    for (const ExploreResponse& response : reference.responses) {
      em_iterations = std::max(em_iterations, response.model.em_iterations_run);
    }
    report->Set("model.em_iterations", em_iterations, "count");
    report->Set("factor.agg_cache_hit_ratio", caches.agg_hit_ratio, "ratio");
    report->Set("model.fit_cache_hit_ratio", caches.fit_hit_ratio, "ratio");
    report->Set("factor.cache_bytes", caches.agg_bytes, "bytes");
    report->Set("model.cache_bytes", caches.model_bytes, "bytes");
    // Each traced cold session against the untraced one just before it; the
    // quartile distance of those pairs is the noise the median sits in.
    report->Set("obs.trace_overhead_pct", 100.0 * Median(trace_overhead), "%");
    report->Set("obs.trace_overhead_spread_pct",
                100.0 * (Percentile(trace_overhead, 0.75) - Percentile(trace_overhead, 0.25)),
                "%");

    // Layer probes on the warm table: the CSV parse, and a direct GroupBy on
    // the final drill keys.
    std::vector<double> parse_s;
    for (int i = 0; i < 3; ++i) {
      const double start = NowSeconds();
      reptile::Result<reptile::Table> table = reptile::LoadCsvText(shape.csv, shape.spec);
      parse_s.push_back(NowSeconds() - start);
      if (!table.ok()) Die("parse: " + table.status().ToString());
    }
    report->Set("data.csv_parse_ms", 1e3 * Median(parse_s), "ms");
    std::vector<int> keys;
    for (const std::string& column : shape.final_keys) {
      keys.push_back(base_table.ColumnIndex(column));
    }
    std::vector<double> groupby_s;
    size_t groups = 0;
    for (int i = 0; i < 5; ++i) {
      const double start = NowSeconds();
      groups += reptile::GroupBy(base_table, keys, -1).num_groups();
      groupby_s.push_back(NowSeconds() - start);
    }
    if (groups == 0) CheckFailed("GroupBy over the final drill keys returned no groups");
    report->Set("data.groupby_mrows_per_s",
                static_cast<double>(base_table.num_rows()) / Median(groupby_s) / 1e6, "Mrows/s");
  }
  return result;
}

}  // namespace perfbench
