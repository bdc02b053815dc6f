// streamq benchmark program: runs one workload from a seed and prints, as
// its last stdout line, one JSON object with the keys correct, attempted,
// failed and metrics. Preceding key=value lines carry the fingerprint
// (machine, build, seed, full workload configuration) and sample counts.
//
//   streamq_perfbench --workload <aq-global|keyed-sharded|service-loopback>
//       --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//       [--commit <text>]

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "build_info.h"
#include "common/cpu_affinity.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: streamq_perfbench --workload "
               "<aq-global|keyed-sharded|service-loopback> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <text>]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args, std::string* commit,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "bad --trace " + value;
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      *commit = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

void PrintFingerprint(const RunArgs& args, const std::string& commit) {
  PrintInfo("workload", args.workload);
  PrintInfo("seed", std::to_string(args.seed));
  PrintInfo("seconds", std::to_string(args.seconds));
  PrintInfo("trace", args.trace ? "1" : "0");
  PrintInfo("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  PrintInfo("hardware_concurrency",
            std::to_string(std::thread::hardware_concurrency()));
  PrintInfo("numa_nodes",
            std::to_string(streamq::NumaTopology::System().node_count()));
  PrintInfo("compiler", std::string(PERFBENCH_CXX_COMPILER) + " (" +
                            __VERSION__ + ")");
  PrintInfo("build_type", PERFBENCH_BUILD_TYPE);
  PrintInfo("cxx_flags", PERFBENCH_CXX_FLAGS);
  PrintInfo("commit", commit);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string commit = "unknown";
  std::string error;
  if (!ParseArgs(argc, argv, &args, &commit, &error)) return Usage(error);

  void (*run)(const RunArgs&, RunResult*) = nullptr;
  if (args.workload == "aq-global") {
    run = RunAqGlobal;
  } else if (args.workload == "keyed-sharded") {
    run = RunKeyedSharded;
  } else if (args.workload == "service-loopback") {
    run = RunServiceLoopback;
  } else {
    return Usage("unknown --workload '" + args.workload + "'");
  }

  PrintFingerprint(args, commit);
  RunResult result;
  run(args, &result);
  if (!args.trace) {
    result.Set("success_rate",
               1.0 - static_cast<double>(result.failed()) /
                         static_cast<double>(std::max<int64_t>(
                             1, result.attempted())));
  }
  std::string line;
  if (!result.Render(args.trace ? PerLayerMetrics() : EndToEndMetrics(),
                     &line, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cout << line << std::endl;
  return 0;
}
