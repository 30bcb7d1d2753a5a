// Seeded input generators. Every input reaches the program as CSV text only
// (LoadCsvText or an HTTP upload); the row codes kept beside the text are
// the benchmark's own record of what it generated, used to tally the
// expected COUNT of any group independently of the program.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A relation of single-attribute hierarchies (one dimension column each).
struct DrillInput {
  std::string csv;
  std::vector<std::string> columns;              // dimension columns, CSV order
  std::vector<std::vector<std::string>> labels;  // labels[column][code]
  std::vector<uint16_t> codes;                   // row-major: rows x columns
  size_t rows = 0;
  // Optional auxiliary table (paper §3.3.2): "<join column>,<measure>" CSV.
  std::string aux_csv;
  std::string aux_measure;
  // The group carrying the injected error ("" when none was injected).
  std::string injected_value;

  /// COUNT of the rows whose columns equal every (column, value) of `key`.
  int64_t Tally(const std::vector<std::pair<std::string, std::string>>& key) const;
};

/// The absentee shape: county (100, skewed) x party (6) x week (53) x
/// gender (3), 178,869 rows, every record of one county duplicated, plus a
/// per-county expected-volume auxiliary table.
DrillInput MakeAbsentee(uint64_t seed);

/// The EM-bound shape: 50k uniform rows over four 40-value attributes.
DrillInput MakeCrossProduct(uint64_t seed);

/// The fig08 severity panel: 12 districts x 8 villages x 16 years x 6 rows,
/// columns district,village,year,severity.
struct PanelInput {
  std::string csv;
  int districts = 12;
  int villages = 8;
  int years = 16;
  int spike_year = 0;  // the year whose severity carries the injected spike
};
PanelInput MakePanel(uint64_t seed);

/// Rows of one writer append (header included): one row per district in
/// its first village, plus kAppendNewVillageRows rows in a village that is
/// new with this cycle, so every append dirties the village level.
constexpr int kAppendNewVillageRows = 4;
std::string MakeAppendBatch(uint64_t seed, int cycle, int districts, int years);
int AppendBatchRows(int districts);

/// Label spellings shared by the generators and the request bodies.
std::string YearLabel(int year);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
