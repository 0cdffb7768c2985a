// adc_bench — one entry point for every simulator experiment: the paper's
// Figures 11-15 plus the ablations and extensions, one per bench/<name>.cpp.
//
//   adc_bench --list                       # name, shared flags read, title
//   adc_bench <name> [--workers N] [--json PATH] [--scale N]
//
// ADC_BENCH_SCALE (default 0.1) scales the workload; 1.0 is paper scale.
// The table of experiments is ADC_BENCH_EXPERIMENTS in bench_common.h.
// The shared flags are parsed here, once: an experiment accepts only the
// ones its row says it reads, and a bad value or an unknown name exits 2
// with a message instead of running at some fallback.
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "bench_common.h"

namespace {

using namespace adc;
using namespace adc::bench;

struct Experiment {
  std::string_view name;
  unsigned flags;  // Flag bits: the shared flags it reads
  std::string_view title;
  int (*run)(Context&);
};

constexpr Experiment kExperiments[] = {
#define ADC_BENCH_ROW(name, flags, title) {#name, flags, title, name},
    ADC_BENCH_EXPERIMENTS(ADC_BENCH_ROW)
#undef ADC_BENCH_ROW
};

constexpr std::pair<Flag, std::string_view> kSharedFlags[] = {
    {kWorkers, "--workers"}, {kJson, "--json"}, {kScale, "--scale"}};

std::string flag_list(unsigned flags) {
  std::string out;
  for (const auto& [bit, name] : kSharedFlags) {
    if ((flags & bit) != 0) out += (out.empty() ? "" : " ") + std::string(name);
  }
  return out;
}

std::optional<double> positive_double(std::string_view text) {
  const auto value = util::parse_double(text);
  if (!value || !std::isfinite(*value) || *value <= 0.0) return std::nullopt;
  return value;
}

/// Fills `ctx` from ADC_BENCH_SCALE and argv[2..]; returns the reason the
/// input is rejected, or an empty string.
std::string parse(const Experiment& experiment, int argc, char** argv, Context* ctx) {
  if (const char* env = std::getenv("ADC_BENCH_SCALE")) {
    const auto scale = positive_double(env);
    if (!scale) return "ADC_BENCH_SCALE='" + std::string(env) + "' is not a positive number";
    ctx->scale = *scale;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    Flag bit{};
    for (const auto& [candidate, candidate_name] : kSharedFlags) {
      if (name == candidate_name) bit = candidate;
    }
    if (bit == Flag{}) return "unknown argument '" + std::string(arg) + "'";
    if ((experiment.flags & bit) == 0) {
      const std::string reads = flag_list(experiment.flags);
      return std::string(name) + " is not read by this experiment (it reads " +
             (reads.empty() ? "none" : reads) + ")";
    }
    std::string_view value;
    if (name.size() < arg.size()) {
      value = arg.substr(name.size() + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    const std::string bad = std::string(name) + " '" + std::string(value) + "' is not ";
    if (bit == kWorkers) {
      const auto workers = util::parse_int(value);
      if (!workers || *workers < 1 || *workers > std::numeric_limits<int>::max()) {
        return bad + "a positive integer";
      }
      ctx->workers_flag = static_cast<int>(*workers);
    } else if (bit == kScale) {
      const auto scale = positive_double(value);
      if (!scale) return bad + "a positive number";
      ctx->extra_scale = *scale;
    } else {
      if (value.empty()) return bad + "a path";
      ctx->json_path = std::string(value);
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view command = argc > 1 ? argv[1] : "";
  if (command == "--list") {
    for (const Experiment& experiment : kExperiments) {
      const std::string flags = flag_list(experiment.flags);
      std::cout << std::left << std::setw(30) << experiment.name << std::setw(28)
                << (flags.empty() ? "-" : flags) << experiment.title << '\n';
    }
    return 0;
  }
  for (const Experiment& experiment : kExperiments) {
    if (experiment.name != command) continue;
    Context ctx;
    ctx.title = experiment.title;
    if (const std::string error = parse(experiment, argc, argv, &ctx); !error.empty()) {
      std::cerr << "adc_bench " << experiment.name << ": " << error << '\n';
      return 2;
    }
    return experiment.run(ctx);
  }
  std::cerr << (command.empty() ? "usage: adc_bench --list | adc_bench <experiment> [flags]"
                                : "adc_bench: unknown experiment '" + std::string(command) +
                                      "' (adc_bench --list names them)")
            << '\n';
  return 2;
}
