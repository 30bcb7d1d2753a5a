#include "common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include <limits.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {
namespace {
// Written from the reader threads of the serving phase too.
std::atomic<bool> g_checks_passed{true};
}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}
double ColdSetupProbe(const Args& args) {
  char self[PATH_MAX];
  const ssize_t length = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (length <= 0) Die("set-up probe: cannot find this binary");
  self[length] = '\0';
  int fds[2];
  if (pipe(fds) != 0) Die("set-up probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> words = {
      self,     "--workload", args.workload, "--seed",        std::to_string(args.seed),
      "--trace", "0",         "--seconds",   "1",             "--setup-probe", "1"};
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buffer[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buffer, sizeof(buffer))) != 0) {
      if (n > 0) {
        out.append(buffer, static_cast<size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (spawned != 0) Die("set-up probe: spawn failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  double seconds = 0.0;
  int passed = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "setup_s %lf %d", &seconds, &passed) != 2) {
    Die("set-up probe failed");
  }
  if (passed != 1) CheckFailed("the output checks of a set-up probe failed");
  return seconds;
}

void PrintSetupProbe(double setup_s) {
  std::printf("setup_s %.17g %d\n", setup_s, AllChecksPassed() ? 1 : 0);
  std::fflush(stdout);
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

void CheckFailed(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  g_checks_passed = false;
}

bool AllChecksPassed() { return g_checks_passed; }

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Print() const {
  std::string out = "{\"correct\":";
  out += AllChecksPassed() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":0";
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value + ",\"unit\":\"" +
           metric.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
