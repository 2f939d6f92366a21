// perfbench_main: one workload per process.
//
//   perfbench_main --mode reference|measure|trace --kind resnet|wire
//                    --workload NAME --seed N --seconds S --ref PATH
//                    [--set key=value ...]
//
// perfbench/run.py is the entry point; it supplies the workload's fixed parameters from
// perfbench/workloads.json. The last line of stdout is the run's record as JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_main --mode reference|measure|trace --kind resnet|wire "
               "--workload NAME --seed N --seconds S --ref PATH [--set key=value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string mode, kind;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      mode = value;
    } else if (flag == "--kind") {
      kind = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--ref") {
      args.reference_path = value;
    } else if (flag == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) {
        return Usage();
      }
      args.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Usage();
    }
  }
  if (args.reference_path.empty() || args.seconds <= 0.0 || (kind != "resnet" && kind != "wire")) {
    return Usage();
  }
  if (mode == "reference") {
    return perfbench::RunReference(args);
  }
  if (mode != "measure" && mode != "trace") {
    return Usage();
  }
  const bool traced = mode == "trace";
  return kind == "resnet" ? perfbench::RunResnet(args, traced) : perfbench::RunWire(args, traced);
}
