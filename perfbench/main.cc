// perfbench: the repository benchmark's program. perfbench/run.py
// builds it and runs it as
//
//   perfbench --workload checkpoint|daemon_hot --seed N
//             --seconds S --trace 0|1 [--corrupt-expected] [--work-dir DIR]
//
// The last line of standard output is the result JSON object; a traced run
// also writes DIR/trace-<workload>-<seed>.json (chrome://tracing format).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload checkpoint|daemon_hot "
               "--seed N --seconds S --trace 0|1 [--corrupt-expected] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0)) return Usage();
  try {
    perfbench::Tracer::Get().Enable(false);
    int code = 0;
    if (args.workload == "checkpoint") {
      code = perfbench::RunCheckpoint(args);
    } else if (args.workload == "daemon_hot") {
      code = perfbench::RunDaemonHot(args);
    } else {
      return Usage();
    }
    if (args.trace) {
      const std::string path = args.work_dir + "/trace-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      if (!perfbench::Tracer::Get().WriteChromeTrace(
              path, perfbench::HostStamp(args))) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
