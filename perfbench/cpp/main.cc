// wym_perf — the runner binary of the end-to-end benchmark. run.py
// calls one subcommand per step and reads the JSON line it prints:
//
//   wym_perf fingerprint --threads N
//   wym_perf setup   --workload W --work DIR --reps R
//   wym_perf pass    --workload W --seed S --model FILE --threads N [--limit K]
//   wym_perf trace   --workload W --seed S --model FILE --threads N --spans FILE
//   wym_perf loadgen --workload W --seed S --model FILE --socket PATH
//                    --rates r1,r2,.. --seconds X --connections C
//                    --p99-limit-ms L [--journal FILE --spans FILE]
//
// See perfbench/README.md for the workloads and metrics.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "la/kernels.h"
#include "layers.h"
#include "loadgen.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Millions of iterations per second of a fixed integer loop that no
/// compiler can shorten: a host-speed yardstick for reading another
/// machine's numbers.
double SpinScore(uint64_t iterations) {
  const uint64_t t0 = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double seconds = NsToSeconds(NowNs() - t0);
  if (x == 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(iterations) / seconds / 1e6;
}

int RunFingerprint(const Args& args) {
  const size_t threads = args.GetUint("threads", 1);
  constexpr uint64_t kIterations = 40'000'000;
  const double single = SpinScore(kIterations);
  std::vector<double> scores(threads);
  std::vector<std::thread> workers;
  const uint64_t t0 = NowNs();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&scores, t] { scores[t] = SpinScore(kIterations); });
  }
  for (auto& worker : workers) worker.join();
  const double wall = NsToSeconds(NowNs() - t0);
  // Effective cores: work done by `threads` spinners over the time one
  // spinner needs for its share.
  const double effective = static_cast<double>(threads) * kIterations / 1e6 / wall / single;
  JsonLine out;
  out.Str("phase", "fingerprint")
      .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("simd", wym::la::kernels::SimdLevelName(wym::la::kernels::ActiveSimdLevel()))
      .Num("spin_mips_1t", single).Num("spin_effective_cores", effective)
      .Int("spin_threads", threads);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: wym_perf fingerprint|setup|pass|trace|loadgen [--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (args.Has("workload") && !IsWorkload(args.Get("workload", ""))) {
    Fail("unknown workload: " + args.Get("workload", ""));
  }
  if (command == "fingerprint") return RunFingerprint(args);
  if (command == "setup") return RunSetup(args);
  if (command == "pass") return RunPass(args);
  if (command == "trace") return RunTrace(args);
  if (command == "loadgen") return RunLoadgen(args);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
