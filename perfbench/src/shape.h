// A workload's input shape and its traffic, and the two phases every
// workload runs over it:
//
//   analyst phase  in-process: one cold drill-down session (every recommend
//                  + commit) on a freshly prepared dataset, then the same
//                  session replayed on the now-warm dataset, repeated.
//   serving phase  over HTTP on loopback: two closed-loop reader clients on
//                  sessions pinned to version 1, one paced writer that
//                  appends a batch and asks the head for an answer.
//
// The workloads differ in the table and in how the run time is split.

#ifndef PERFBENCH_SHAPE_H_
#define PERFBENCH_SHAPE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "gen.h"
#include "reptile/reptile.h"

namespace perfbench {

struct Shape {
  std::string name;  // dataset name on the server
  std::string csv;   // version-1 bytes
  reptile::CsvSpec spec;
  std::vector<reptile::HierarchySchema> hierarchies;

  // --- Analyst session ---
  std::vector<std::string> pre_commits;   // committed before the first recommend
  reptile::ComplaintSpec complaint;       // filed at every step
  std::vector<std::string> commit_order;  // committed after each recommend
  // Auxiliary table registered on every analyst session ("" = none).
  std::string aux_csv;
  std::string aux_join;
  std::string aux_measure;
  // COUNT oracle for the returned groups (null = no tally check).
  const DrillInput* tally = nullptr;
  // Workload-specific checks of step `step` (0-based) of a cold session.
  std::function<void(int step, const reptile::ExploreResponse&)> check_step;
  // Final drill keys for the direct GroupBy probe.
  std::vector<std::string> final_keys;

  // --- Serving traffic ---
  std::map<std::string, int> reader_state;  // drill state of every reader session
  std::vector<reptile::ComplaintSpec> reader_complaints;  // one recommend each per round
  std::vector<reptile::ViewRequest> reader_views;         // one view each per round
  std::string cycle_commit;  // the session cycle: open, recommend, commit this, recommend, close
  std::function<std::string(int cycle)> append_batch;  // header + rows, cycle from 1
  int append_rows = 0;
  int writer_cycles = 0;
  std::string count_view_column;  // group-by column of the writer's head COUNT view

  // Share of the run spent in the analyst phase; the rest is serving.
  double analyst_share = 0.5;
};

/// Results of the analyst phase.
struct AnalystResult {
  double setup_s = 0.0;  // cold parse + prepare of the version-1 bytes
  std::vector<double> probe_setup_s;  // cold set-ups timed by the probes
  std::vector<double> cold_s;
  std::vector<double> warm_s;
  int64_t operations = 0;
};

/// Results of the serving phase.
struct ServingResult {
  double setup_s = 0.0;  // upload + warm-up pass
  std::vector<double> recommend_ms;
  std::vector<double> append_to_answer_ms;
  int64_t reader_ops = 0;
  double reader_wall_s = 0.0;
  int64_t operations = 0;
};

/// Parses `csv` as the shape's table and wraps it with the hierarchies.
reptile::Dataset ParseDataset(const Shape& shape, const std::string& csv);

/// The in-process analyst phase; between its rounds it runs `setup_probes`
/// cold set-up probes (ColdSetupProbe). With args.trace, fills the
/// per-layer metrics it owns into `report`. With args.setup_probe it
/// returns right after its set-up.
AnalystResult RunAnalyst(const Shape& shape, const Args& args, double seconds,
                         int setup_probes, Report* report);

/// The HTTP serving phase. With args.trace, fills the per-layer metrics it
/// owns into `report`. With args.setup_probe it returns right after its
/// set-up.
ServingResult RunServing(const Shape& shape, const Args& args, double seconds,
                         Report* report);

/// Runs both phases, analyst first unless `serving_first` (whose set-up then
/// is the one the set-up probes time), and reports the end-to-end metrics,
/// or with args.trace the per-layer ones. With args.setup_probe it runs only
/// that phase's set-up and prints its time.
void RunShape(const Shape& shape, const Args& args, bool serving_first, Report* report);

/// Zeroes the scheduling-dependent timing fields (what the wire option
/// zero_timings does) and serializes.
std::string ZeroedJson(reptile::ExploreResponse response);

/// The request-body spellings of a complaint and a view.
std::string ComplaintJson(const reptile::ComplaintSpec& complaint);
std::string ViewJson(const reptile::ViewRequest& view);

}  // namespace perfbench

#endif  // PERFBENCH_SHAPE_H_
