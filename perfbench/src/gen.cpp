#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common.h"

namespace perfbench {
namespace {

std::string Label(const char* prefix, int i, int width) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%0*d", prefix, width, i);
  return buffer;
}

std::string Fixed(double value, int decimals) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

/// Index of the first cumulative weight above u * total.
int Sample(const std::vector<double>& cumulative, double u) {
  double target = u * cumulative.back();
  auto it = std::upper_bound(cumulative.begin(), cumulative.end(), target);
  return static_cast<int>(std::min<size_t>(it - cumulative.begin(), cumulative.size() - 1));
}

std::vector<double> Cumulative(const std::vector<double>& weights) {
  std::vector<double> out(weights.size());
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) out[i] = (sum += weights[i]);
  return out;
}

/// Renders header + rows of `input` into input->csv.
void RenderCsv(DrillInput* input) {
  const size_t width = input->columns.size();
  std::string& csv = input->csv;
  csv.clear();
  csv.reserve(input->rows * width * 10);
  for (size_t c = 0; c < width; ++c) {
    if (c > 0) csv += ',';
    csv += input->columns[c];
  }
  csv += '\n';
  for (size_t r = 0; r < input->rows; ++r) {
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) csv += ',';
      csv += input->labels[c][input->codes[r * width + c]];
    }
    csv += '\n';
  }
}

}  // namespace

int64_t DrillInput::Tally(const std::vector<std::pair<std::string, std::string>>& key) const {
  const size_t width = columns.size();
  std::vector<std::pair<size_t, uint16_t>> wanted;
  for (const auto& [column, value] : key) {
    auto col = std::find(columns.begin(), columns.end(), column);
    if (col == columns.end()) return -1;
    size_t c = static_cast<size_t>(col - columns.begin());
    auto code = std::find(labels[c].begin(), labels[c].end(), value);
    if (code == labels[c].end()) return -1;
    wanted.emplace_back(c, static_cast<uint16_t>(code - labels[c].begin()));
  }
  int64_t count = 0;
  for (size_t r = 0; r < rows; ++r) {
    bool match = true;
    for (const auto& [c, code] : wanted) match = match && codes[r * width + c] == code;
    count += match ? 1 : 0;
  }
  return count;
}

DrillInput MakeAbsentee(uint64_t seed) {
  constexpr int kCounties = 100;
  constexpr int kWeeks = 53;
  constexpr size_t kBaseRows = 173000;
  Rng rng(seed * 0x100000001B3ull + 11);

  DrillInput input;
  input.columns = {"county", "party", "week", "gender"};
  input.labels.resize(4);
  for (int i = 0; i < kCounties; ++i) input.labels[0].push_back(Label("county_", i, 3));
  // Which label gets which weight is part of the seed, so the largest
  // county is a different one on every seed.
  for (int i = kCounties - 1; i > 0; --i) {
    std::swap(input.labels[0][i], input.labels[0][rng.Below(static_cast<uint32_t>(i + 1))]);
  }
  for (int i = 1; i <= 6; ++i) input.labels[1].push_back(Label("party_", i, 1));
  for (int i = 1; i <= kWeeks; ++i) input.labels[2].push_back(Label("w", i, 2));
  input.labels[3] = {"F", "M", "X"};

  // Skewed county volumes, Zipf-like. The per-county row counts are fixed
  // (largest remainder), so every seed yields a table of the same size; the
  // seed decides which label gets which volume and the row order.
  std::vector<double> county_weight(kCounties);
  for (int i = 0; i < kCounties; ++i) county_weight[i] = std::pow(1.0 / (i + 1), 0.8);
  const double total_weight = std::accumulate(county_weight.begin(), county_weight.end(), 0.0);
  std::vector<size_t> county_rows(kCounties);
  std::vector<std::pair<double, int>> remainders;
  size_t assigned = 0;
  for (int i = 0; i < kCounties; ++i) {
    const double exact = kBaseRows * county_weight[i] / total_weight;
    county_rows[i] = static_cast<size_t>(exact);
    assigned += county_rows[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; assigned < kBaseRows; ++i, ++assigned) county_rows[remainders[i].second]++;
  std::vector<uint16_t> county_of_row;
  county_of_row.reserve(kBaseRows);
  for (int i = 0; i < kCounties; ++i) county_of_row.insert(county_of_row.end(), county_rows[i], i);
  for (size_t r = kBaseRows - 1; r > 0; --r) {
    std::swap(county_of_row[r], county_of_row[rng.Below(static_cast<uint32_t>(r + 1))]);
  }
  const std::vector<double> party_cdf = Cumulative({0.34, 0.31, 0.16, 0.09, 0.06, 0.04});
  const std::vector<double> gender_cdf = Cumulative({0.495, 0.49, 0.015});

  input.codes.reserve(kBaseRows * 4 * 11 / 10);
  for (size_t r = 0; r < kBaseRows; ++r) {
    input.codes.push_back(county_of_row[r]);
    input.codes.push_back(static_cast<uint16_t>(Sample(party_cdf, rng.Uniform())));
    input.codes.push_back(static_cast<uint16_t>(rng.Below(kWeeks)));
    input.codes.push_back(static_cast<uint16_t>(Sample(gender_cdf, rng.Uniform())));
  }

  // The group-wise error: every record of the county with the fifth
  // largest volume is loaded twice, the duplicates appended as one batch.
  const uint16_t injected = 4;
  input.injected_value = input.labels[0][injected];
  for (size_t r = 0; r < kBaseRows; ++r) {
    if (input.codes[r * 4] != injected) continue;
    for (size_t c = 0; c < 4; ++c) input.codes.push_back(input.codes[r * 4 + c]);
  }
  input.rows = input.codes.size() / 4;
  RenderCsv(&input);

  // Expected volume per county from the generating weights, +-3% noise.
  input.aux_measure = "expected_volume";
  input.aux_csv = "county,expected_volume\n";
  for (int i = 0; i < kCounties; ++i) {
    double expected = kBaseRows * county_weight[i] / total_weight *
                      (1.0 + 0.06 * (rng.Uniform() - 0.5));
    input.aux_csv += input.labels[0][i] + "," + Fixed(expected, 1) + "\n";
  }
  return input;
}

DrillInput MakeCrossProduct(uint64_t seed) {
  constexpr int kAttributes = 4;
  constexpr int kValues = 40;
  constexpr size_t kRows = 50000;
  Rng rng(seed * 0x100000001B3ull + 23);

  DrillInput input;
  input.labels.resize(kAttributes);
  for (int a = 0; a < kAttributes; ++a) {
    std::string column = "a" + std::to_string(a);
    input.columns.push_back(column);
    for (int v = 0; v < kValues; ++v) {
      input.labels[a].push_back(Label((column + "_").c_str(), v, 2));
    }
  }
  input.codes.reserve(kRows * kAttributes);
  for (size_t r = 0; r < kRows; ++r) {
    for (int a = 0; a < kAttributes; ++a) {
      input.codes.push_back(static_cast<uint16_t>(rng.Below(kValues)));
    }
  }
  input.rows = kRows;
  RenderCsv(&input);
  return input;
}

std::string YearLabel(int year) { return Label("y", year, 2); }

PanelInput MakePanel(uint64_t seed) {
  constexpr int kRowsPerCell = 6;
  Rng rng(seed * 0x100000001B3ull + 37);
  PanelInput panel;
  // One village-year cell carries a severity spike, so the STD complaints
  // of that year have something to find.
  const int spike_district = static_cast<int>(rng.Below(panel.districts));
  const int spike_village = static_cast<int>(rng.Below(panel.villages));
  panel.spike_year = static_cast<int>(rng.Below(panel.years));
  std::string& csv = panel.csv;
  csv = "district,village,year,severity\n";
  for (int d = 0; d < panel.districts; ++d) {
    const double district_level = 2.0 + 3.0 * rng.Uniform();
    const std::string district = Label("d", d, 2);
    for (int v = 0; v < panel.villages; ++v) {
      const double village_level = district_level + 0.5 * (rng.Uniform() - 0.5);
      const std::string village = district + "_v" + std::to_string(v);
      for (int y = 0; y < panel.years; ++y) {
        const std::string year = YearLabel(y);
        for (int r = 0; r < kRowsPerCell; ++r) {
          double severity = village_level + 0.1 * y + 0.8 * (rng.Uniform() - 0.5);
          if (d == spike_district && v == spike_village && y == panel.spike_year) severity += 3.0;
          csv += district + "," + village + "," + year + "," + Fixed(severity, 2) + "\n";
        }
      }
    }
  }
  return panel;
}

int AppendBatchRows(int districts) { return districts + kAppendNewVillageRows; }

std::string MakeAppendBatch(uint64_t seed, int cycle, int districts, int years) {
  Rng rng(seed * 0x100000001B3ull + 53 + static_cast<uint64_t>(cycle) * 7919);
  std::string csv = "district,village,year,severity\n";
  for (int d = 0; d < districts; ++d) {
    const std::string district = Label("d", d, 2);
    csv += district + "," + district + "_v0," + YearLabel((cycle + d) % years) + "," +
           Fixed(2.0 + 3.0 * rng.Uniform(), 2) + "\n";
  }
  const std::string district = Label("d", cycle % districts, 2);
  for (int i = 0; i < kAppendNewVillageRows; ++i) {
    csv += district + "," + district + "_n" + std::to_string(cycle) + "," +
           YearLabel((cycle + i) % years) + "," + Fixed(2.0 + 3.0 * rng.Uniform(), 2) + "\n";
  }
  return csv;
}

}  // namespace perfbench
