// e2ebench: the end-to-end benchmark of the LPS pipeline
// (load -> evaluate -> maintain -> freeze -> serve), driven only
// through the public API. Usually run through e2ebench/run.py, which
// builds this binary first:
//
//   e2ebench --workload bulk_fixpoint|serve_point|churn_publish
//            --seed N --seconds S --trace 0|1
//            [--smoke] [--trace-out FILE]
//
// The last stdout line is one JSON object: end-to-end metrics when
// untraced, per-layer metrics when traced. Any referee mismatch exits 1
// without printing it.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

size_t CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return lps::WorkerPool::HardwareConcurrency();
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "bulk_fixpoint|serve_point|churn_publish --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Context ctx;
  ctx.nproc = CpusAvailable();
  ctx.lanes = ctx.nproc;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      ctx.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      ctx.workload = value;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      ctx.trace = value != "0";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(ctx.seconds > 0 && ctx.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "e2ebench: refusing to measure an unoptimized build "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif

  e2e::Report report;
  e2e::DescribeHost(ctx, &report);
  e2e::Tracer tracer(ctx.trace);
  bool correct = false;
  if (ctx.workload == "bulk_fixpoint") {
    correct = e2e::RunBulkFixpoint(ctx, &tracer, &report);
  } else if (ctx.workload == "serve_point") {
    correct = e2e::RunServePoint(ctx, &tracer, &report);
  } else if (ctx.workload == "churn_publish") {
    correct = e2e::RunChurnPublish(ctx, &tracer, &report);
  } else {
    Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }
  if (ctx.trace && !trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  return report.Finish(ctx.trace, correct);
}
