// reptile_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A failed output check
// shows as "correct":false; when the program refuses an operation the run
// exits with code 1 and prints no result.
//
// With the extra pair --setup-probe 1 it runs only the workload's cold
// set-up and prints "setup_s SECONDS PASSED"; a normal run starts itself
// this way several times to time set-ups that are each the first in their
// process.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

struct Entry {
  const char* name;
  perfbench::Workload run;
};

constexpr Entry kWorkloads[] = {
    {"drill_absentee", perfbench::RunDrillAbsentee},
    {"em_crossprod", perfbench::RunEmCrossprod},
    {"serve_churn", perfbench::RunServeChurn},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "reptile_perfbench: %s\nusage: reptile_perfbench --workload "
               "drill_absentee|em_crossprod|serve_churn --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--setup-probe") {
      args.setup_probe = std::strcmp(value, "1") == 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) Usage("flags come in pairs");
  for (const Entry& entry : kWorkloads) {
    if (args.workload != entry.name) continue;
    perfbench::Report report;
    entry.run(args, &report);
    if (!args.setup_probe) report.Print();
    return 0;
  }
  Usage(("unknown workload '" + args.workload + "'").c_str());
}
