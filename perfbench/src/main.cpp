// adc_perfbench: runs one benchmark workload and prints its metrics.
//
//   adc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
//
// Workloads: sim-adc-fig11, sim-carp-bytes, live-adc-loopback.  With
// --trace 0 the end-to-end metrics are printed, with --trace 1 the
// per-layer ones (and the spans are written to PATH).  The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// Exits 1 when an output check fails, 2 on bad arguments or an error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.h"
#include "util/string_util.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

bool parse(int argc, char** argv, Options* out, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + std::string(flag);
      return false;
    }
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      out->workload = std::string(value);
      have_workload = true;
    } else if (flag == "--seed") {
      const auto seed = adc::util::parse_int(value);
      if (!seed || *seed < 0) {
        *error = "--seed takes a non-negative integer";
        return false;
      }
      out->seed = static_cast<std::uint64_t>(*seed);
    } else if (flag == "--seconds") {
      const auto seconds = adc::util::parse_double(value);
      if (!seconds || !(*seconds > 0.0) || *seconds > 3600.0) {
        *error = "--seconds takes a number in (0, 3600]";
        return false;
      }
      out->seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      out->trace = value == "1";
    } else if (flag == "--spans") {
      out->spans_path = std::string(value);
    } else {
      *error = "unknown flag " + std::string(flag);
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print(const Options& options, const Outcome& out) {
  std::cout << "# workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0) << '\n';
  std::cout << "# attempted=" << out.attempted << " failed=" << out.failed << '\n';
  for (const std::string& failure : out.check_failures) {
    std::cout << "# CHECK FAILED: " << failure << '\n';
  }
  for (const std::string& note : out.notes) std::cout << "# " << note << '\n';
  for (const auto& m : out.metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << ' ' << m.unit << '\n';
  }
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse(argc, argv, &options, &error)) {
    std::cerr << "adc_perfbench: " << error << '\n';
    return 2;
  }
  try {
    perfbench::SpanRecorder spans(options.trace);
    Outcome out;
    if (options.workload == "sim-adc-fig11") {
      out = perfbench::run_sim_adc_fig11(options, spans);
    } else if (options.workload == "sim-carp-bytes") {
      out = perfbench::run_sim_carp_bytes(options, spans);
    } else if (options.workload == "live-adc-loopback") {
      out = perfbench::run_live_adc_loopback(options, spans);
    } else {
      std::cerr << "adc_perfbench: unknown workload '" << options.workload << "'\n";
      return 2;
    }
    for (const auto& m : out.metrics) {
      out.check(std::isfinite(m.value), m.name + " is a finite number");
    }
    if (out.attempted == 0) out.check(false, "at least one operation attempted");
    if (options.trace && !options.spans_path.empty() && !spans.write_jsonl(options.spans_path)) {
      std::cerr << "adc_perfbench: cannot write spans to " << options.spans_path << '\n';
      return 2;
    }
    print(options, out);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "adc_perfbench: " << e.what() << '\n';
    return 2;
  }
}
