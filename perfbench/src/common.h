// Shared plumbing of the benchmark binary: the command line, the seeded
// random source, timing and summary statistics, the process's peak resident
// set, and the one-line JSON result.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Internal: run only the workload's cold set-up and print its time (see
  // ColdSetupProbe).
  bool setup_probe = false;
};

/// splitmix64: a tiny, fully specified generator, so the same seed yields
/// the same bytes on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the two middle values for an even count).
double Median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB();

/// Runs this binary again with --setup-probe for the same workload and seed,
/// waits for it, and returns the seconds of the one cold set-up it timed.
/// A probe whose output checks fail marks this run incorrect.
double ColdSetupProbe(const Args& args);

/// The line a --setup-probe run prints: the set-up time and whether its
/// checks passed.
void PrintSetupProbe(double setup_s);

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Reports a failed output check on stderr and marks the run incorrect; the
/// run goes on so every mismatch is listed.
void CheckFailed(const std::string& what);
bool AllChecksPassed();

/// Aborts the run (exit code 1, no result line) when the program refuses
/// an operation the workload needs.
[[noreturn]] void Die(const std::string& what);

/// The result line: {"correct","attempted","failed","metrics"}. An operation
/// the program refuses ends the run (Die), so "failed" is always 0.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void SetAttempted(int64_t attempted) { attempted_ = attempted; }
  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
};

/// A workload entry point: runs for args.seconds and fills the report with
/// the end-to-end metrics (args.trace == false) or the per-layer metrics.
using Workload = void (*)(const Args& args, Report* report);

void RunDrillAbsentee(const Args& args, Report* report);
void RunEmCrossprod(const Args& args, Report* report);
void RunServeChurn(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
