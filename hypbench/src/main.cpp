// hypbench: the HypDB benchmark binary.
//
//   hypbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--size full|toy]
//
// Workloads: cold-6k, cold-300k, serve-mix, ingest-mix (README.md says
// what each measures and why). --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer metrics of a traced run. The last line of
// standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 unless an answer was wrong or an accounting check
// failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common.h"
#include "util/build_info.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hypbench --workload cold-6k|cold-300k|serve-mix|"
               "ingest-mix --seed N --seconds S --trace 0|1 "
               "[--size full|toy]\n");
}

}  // namespace

int main(int argc, char** argv) {
  hypbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      args.toy = value == "toy";
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) {
    Usage();
    return 2;
  }

  // Host identity, as the paper benches' BENCH_*.json trails record it.
  std::printf("host: cores=%d version=%s compiler=%s build_type=%s\n",
              hypdb::bench::EffectiveCores(), hypdb::BuildVersion(),
              hypdb::BuildCompiler(), hypdb::BuildType());

  hypbench::RunResult result;
  int status = 2;
  if (args.workload == "cold-6k") {
    status = hypbench::RunCold(args, args.toy ? 400 : 6000, &result);
  } else if (args.workload == "cold-300k") {
    status = hypbench::RunCold(args, args.toy ? 2000 : 300000, &result);
  } else if (args.workload == "serve-mix") {
    status = hypbench::RunServe(args, &result);
  } else if (args.workload == "ingest-mix") {
    status = hypbench::RunIngest(args, &result);
  } else {
    Usage();
    return 2;
  }
  // A workload that could not run at all (datagen, server start) prints
  // no result.
  if (status != 0) return status;
  return result.Print();
}
