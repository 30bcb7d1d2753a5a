// The three workloads: their inputs, their traffic, and how each splits the
// run between the analyst and the serving phase.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json_util.h"
#include "shape.h"

namespace perfbench {
namespace {

using reptile::ComplaintSpec;
using reptile::ViewRequest;

/// Generator self-check: the same seed gives the same bytes, another seed
/// other bytes. Prints the digest of every input.
template <typename Make, typename Bytes>
void CheckGenerator(const char* name, uint64_t seed, Make make, Bytes bytes) {
  const std::string first = bytes(make(seed));
  const std::string again = bytes(make(seed));
  const std::string other = bytes(make(seed + 1));
  if (first != again) CheckFailed(std::string(name) + ": one seed gave two different inputs");
  if (Digest(first) == Digest(other)) {
    CheckFailed(std::string(name) + ": seeds " + std::to_string(seed) + " and " +
                std::to_string(seed + 1) + " gave the same input");
  }
  std::printf("input %s seed=%llu bytes=%zu digest=%s\n", name,
              static_cast<unsigned long long>(seed), first.size(), Digest(first).c_str());
}

constexpr int kDrillAppendRows = 9;

// Cold set-ups timed per run, each in a process of its own; setup_s is
// their median.
constexpr int kSetupProbes = 15;

/// Rows of one append to a DrillInput relation: rows of existing values,
/// the last of which carries a value of `new_column` that is new with this
/// cycle, so every append dirties that hierarchy.
std::string DrillAppendBatch(const DrillInput& input, uint64_t seed, int cycle,
                             size_t new_column) {
  Rng rng(seed * 0x100000001B3ull + 71 + static_cast<uint64_t>(cycle) * 7919);
  std::string csv;
  for (size_t c = 0; c < input.columns.size(); ++c) {
    csv += (c > 0 ? "," : "") + input.columns[c];
  }
  csv += '\n';
  for (int row = 0; row < kDrillAppendRows; ++row) {
    for (size_t c = 0; c < input.columns.size(); ++c) {
      const std::vector<std::string>& labels = input.labels[c];
      std::string value = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      if (row == kDrillAppendRows - 1 && c == new_column) {
        value = input.columns[c] + "_x" + std::to_string(cycle);
      }
      csv += (c > 0 ? "," : "") + value;
    }
    csv += '\n';
  }
  return csv;
}

std::string WhereJson(const std::vector<reptile::NamedPredicate>& where) {
  std::string out = "[";
  for (const reptile::NamedPredicate& p : where) {
    if (out.size() > 1) out += ',';
    out += "{\"column\":" + reptile::JsonQuote(p.column) +
           ",\"value\":" + reptile::JsonQuote(p.value) + "}";
  }
  return out + "]";
}

/// The parts every DrillInput shape shares.
Shape DrillShape(const std::string& name, const DrillInput& input,
                 const std::vector<std::string>& hierarchy_names) {
  Shape shape;
  shape.name = name;
  shape.csv = input.csv;
  shape.spec.dimension_columns = input.columns;
  for (size_t c = 0; c < input.columns.size(); ++c) {
    shape.hierarchies.push_back({hierarchy_names[c], {input.columns[c]}});
  }
  shape.complaint = ComplaintSpec::TooHigh("count");
  shape.commit_order = hierarchy_names;
  shape.tally = &input;
  shape.final_keys = input.columns;
  shape.append_rows = kDrillAppendRows;
  return shape;
}

}  // namespace

std::string ZeroedJson(reptile::ExploreResponse response) {
  for (reptile::HierarchyResponse& candidate : response.candidates) {
    candidate.train_seconds = 0.0;
    candidate.total_seconds = 0.0;
  }
  return response.ToJson();
}


std::string ComplaintJson(const ComplaintSpec& complaint) {
  std::string out = "{\"aggregate\":" + reptile::JsonQuote(complaint.aggregate);
  if (!complaint.measure.empty()) out += ",\"measure\":" + reptile::JsonQuote(complaint.measure);
  out += ",\"direction\":" + reptile::JsonQuote(complaint.direction);
  if (!complaint.where.empty()) out += ",\"where\":" + WhereJson(complaint.where);
  return out + "}";
}

std::string ViewJson(const ViewRequest& view) {
  std::string out = "{\"group_by\":[";
  for (size_t i = 0; i < view.group_by.size(); ++i) {
    out += (i > 0 ? "," : "") + reptile::JsonQuote(view.group_by[i]);
  }
  out += "]";
  if (!view.measure.empty()) out += ",\"measure\":" + reptile::JsonQuote(view.measure);
  if (!view.where.empty()) out += ",\"where\":" + WhereJson(view.where);
  return out + "}";
}

void RunShape(const Shape& shape, const Args& args, bool serving_first, Report* report) {
  if (args.setup_probe) {
    PrintSetupProbe(serving_first ? RunServing(shape, args, 0.0, report).setup_s
                                  : RunAnalyst(shape, args, 0.0, 0, report).setup_s);
    return;
  }
  const double analyst_s = args.seconds * shape.analyst_share;
  const double serving_s = args.seconds - analyst_s;
  const int setup_probes = args.trace ? 0 : kSetupProbes;
  AnalystResult analyst;
  ServingResult serving;
  if (serving_first) {
    serving = RunServing(shape, args, serving_s, report);
    analyst = RunAnalyst(shape, args, analyst_s, setup_probes, report);
  } else {
    analyst = RunAnalyst(shape, args, analyst_s, setup_probes, report);
    serving = RunServing(shape, args, serving_s, report);
  }
  report->SetAttempted(analyst.operations + serving.operations);
  if (args.trace) return;
  report->Set("setup_s", Median(analyst.probe_setup_s), "s");
  report->Set("session_s", Median(analyst.cold_s), "s");
  report->Set("warm_session_s", Median(analyst.warm_s), "s");
  report->Set("http_recommend_p50_ms", Median(serving.recommend_ms), "ms");
  report->Set("http_recommend_p90_ms", Percentile(serving.recommend_ms, 0.9), "ms");
  report->Set("http_ops_per_s", static_cast<double>(serving.reader_ops) / serving.reader_wall_s,
              "ops/s");
  report->Set("append_to_answer_p50_ms", Median(serving.append_to_answer_ms), "ms");
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  std::printf("samples cold=%zu warm=%zu recommend=%zu append=%zu\n", analyst.cold_s.size(),
              analyst.warm_s.size(), serving.recommend_ms.size(),
              serving.append_to_answer_ms.size());
}

void RunDrillAbsentee(const Args& args, Report* report) {
  if (!args.setup_probe) {
    CheckGenerator("absentee", args.seed, MakeAbsentee,
                   [](const DrillInput& in) { return in.csv + in.aux_csv; });
  }
  const DrillInput input = MakeAbsentee(args.seed);
  Shape shape = DrillShape("absentee", input, {"geo", "affiliation", "time", "demo"});
  shape.aux_csv = input.aux_csv;
  shape.aux_join = "county";
  shape.aux_measure = input.aux_measure;
  const std::string injected = input.injected_value;
  shape.check_step = [injected](int step, const reptile::ExploreResponse& response) {
    if (step != 0) return;
    for (const reptile::HierarchyResponse& candidate : response.candidates) {
      if (candidate.attribute != "county") continue;
      const bool first = !candidate.groups.empty() && !candidate.groups[0].key.empty() &&
                         candidate.groups[0].key[0].second == injected;
      if (!first) {
        CheckFailed("step 1: the duplicated county " + injected +
                    " is not the first county group (first: " +
                    (candidate.groups.empty() ? std::string("none")
                                              : candidate.groups[0].description) +
                    ")");
      }
      return;
    }
    CheckFailed("step 1: no county candidate");
  };
  shape.reader_state = {{"time", 1}};
  for (int week = 1; week <= 8; ++week) {
    char label[8];
    std::snprintf(label, sizeof(label), "w%02d", week);
    shape.reader_complaints.push_back(ComplaintSpec::TooHigh("count").Where("week", label));
  }
  shape.reader_views = {ViewRequest().GroupBy("party").Where("week", "w01")};
  shape.cycle_commit = "geo";
  shape.append_batch = [&input, seed = args.seed](int cycle) {
    return DrillAppendBatch(input, seed, cycle, 0);
  };
  shape.writer_cycles = 16;
  shape.count_view_column = "party";
  shape.analyst_share = 0.7;
  RunShape(shape, args, false, report);
}

void RunEmCrossprod(const Args& args, Report* report) {
  if (!args.setup_probe) {
    CheckGenerator("crossprod", args.seed, MakeCrossProduct,
                   [](const DrillInput& in) { return in.csv; });
  }
  const DrillInput input = MakeCrossProduct(args.seed);
  Shape shape = DrillShape("crossprod", input, {"h0", "h1", "h2", "h3"});
  const double values = static_cast<double>(input.labels[0].size());
  shape.check_step = [values](int step, const reptile::ExploreResponse& response) {
    const auto rows = static_cast<int64_t>(std::pow(values, step + 1));
    const auto clusters = static_cast<int64_t>(std::pow(values, step));
    for (const reptile::HierarchyResponse& candidate : response.candidates) {
      if (candidate.model_rows != rows || candidate.model_clusters != clusters) {
        CheckFailed("step " + std::to_string(step + 1) + " candidate " + candidate.hierarchy +
                    ": model_rows=" + std::to_string(candidate.model_rows) +
                    " model_clusters=" + std::to_string(candidate.model_clusters) +
                    ", want " + std::to_string(rows) + " and " + std::to_string(clusters));
      }
    }
  };
  shape.reader_state = {{"h0", 1}};
  for (int v = 0; v < 8; ++v) {
    shape.reader_complaints.push_back(
        ComplaintSpec::TooHigh("count").Where("a0", input.labels[0][v]));
  }
  shape.reader_views = {ViewRequest().GroupBy("a1").Where("a0", input.labels[0][0])};
  shape.cycle_commit = "h1";
  shape.append_batch = [&input, seed = args.seed](int cycle) {
    return DrillAppendBatch(input, seed, cycle, 3);
  };
  shape.writer_cycles = 32;
  shape.count_view_column = "a1";
  shape.analyst_share = 0.7;
  RunShape(shape, args, false, report);
}

void RunServeChurn(const Args& args, Report* report) {
  if (!args.setup_probe) {
    CheckGenerator("panel", args.seed, MakePanel, [](const PanelInput& in) { return in.csv; });
  }
  const PanelInput panel = MakePanel(args.seed);
  Shape shape;
  shape.name = "panel";
  shape.csv = panel.csv;
  shape.spec.dimension_columns = {"district", "village", "year"};
  shape.spec.measure_columns = {"severity"};
  shape.hierarchies = {{"geo", {"district", "village"}}, {"time", {"year"}}};
  shape.pre_commits = {"time"};
  shape.complaint =
      ComplaintSpec::TooHigh("std", "severity").Where("year", YearLabel(panel.spike_year));
  shape.commit_order = {"geo", "geo"};
  shape.final_keys = {"district", "village", "year"};
  shape.reader_state = {{"time", 1}};
  for (int year = 0; year < panel.years; ++year) {
    shape.reader_complaints.push_back(
        ComplaintSpec::TooHigh("std", "severity").Where("year", YearLabel(year)));
  }
  shape.reader_views = {
      ViewRequest().GroupBy("district").Measure("severity").Where("year", YearLabel(0)),
      ViewRequest().GroupBy("year").Measure("severity")};
  shape.cycle_commit = "geo";
  shape.append_batch = [seed = args.seed, &panel](int cycle) {
    return MakeAppendBatch(seed, cycle, panel.districts, panel.years);
  };
  shape.append_rows = AppendBatchRows(panel.districts);
  shape.writer_cycles = 60;
  shape.count_view_column = "district";
  shape.analyst_share = 0.25;
  RunShape(shape, args, true, report);
}

}  // namespace perfbench
