// bench_pipeline: one workload of the pipeline benchmark per invocation.
//
//   bench_pipeline --workload tick|vwap|load|serve|interp [--seed N]
//                  [--seconds S] [--trace 0|1] [--out PREFIX]
//                  [--scratch DIR]
//
// Prints a report, then one JSON result line; exits 0 only when every
// operation and output check succeeded. run.py builds and runs it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  dbtoaster::pipeline::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out") {
      opt.out = value;
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload tick|vwap|load|serve|interp [--seed N] "
                   "[--seconds S] [--trace 0|1] [--out PREFIX] "
                   "[--scratch DIR]\n",
                   argv[0]);
      return 2;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "%s: bad number '%s'\n", arg.c_str(), value);
      return 2;
    }
  }
  return dbtoaster::pipeline::RunBenchmark(opt);
}
