// pardb_perfbench: one benchmark session process.
//
//   pardb_perfbench --workload <name> --seed <n>
//
// Prints a header line {"txns_per_call":N}, then reads one request per stdin
// line, "<kind> <sub>", where kind is timed, checked, traced, bare, layers
// or parallel (see perfbench::CallKind) and sub names the sub-run whose
// inputs to use.
// Answers each with one JSON line on stdout: {"kind":..,"sub":..,
// "start_mono":<CLOCK_MONOTONIC seconds at call start>,"record":{...}}.
// Exits at end of input. run.py drives sessions, puts a deadline on every
// request and kills a session that misses one.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr, "usage: pardb_perfbench --workload <name> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pardb::perfbench;
  std::string workload_name;
  std::string seed_text;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--seed") {
      seed_text = argv[i + 1];
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload_name.empty() || seed_text.empty()) {
    return Usage();
  }
  auto workload = ParseWorkload(workload_name);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') return Usage();

  std::printf("{\"txns_per_call\":%llu}\n",
              static_cast<unsigned long long>(TxnsPerCall(workload.value())));
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string kind_name;
    unsigned long long sub = 0;
    if (!(in >> kind_name >> sub)) {
      std::fprintf(stderr, "bad request: %s\n", line.c_str());
      return 2;
    }
    auto kind = ParseCallKind(kind_name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    const double start = std::chrono::duration<double>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
    const CallRecord rec = RunCall(workload.value(), kind.value(), seed, sub);
    std::printf("{\"kind\":\"%s\",\"sub\":%llu,\"start_mono\":%.9f,"
                "\"record\":%s}\n",
                kind_name.c_str(), sub, start, rec.ToJson().c_str());
    std::fflush(stdout);
  }
  return 0;
}
