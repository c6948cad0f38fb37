// Subcommands that generate or inspect traces: simulate, inject, health,
// scenarios. Split out of the historical monolithic sentinel_cli.cpp;
// output is byte-identical to it.

#include <cstdio>
#include <memory>

#include "cli/common.h"
#include "faults/replay.h"
#include "trace/health.h"
#include "trace/trace_io.h"

namespace sentinel::cli {

int cmd_scenarios(const Args&) {
  for (const auto k : bench::all_injection_kinds()) {
    std::printf("%-14s expected: %s/%s\n", bench::to_string(k),
                core::to_string(bench::expected_verdict(k)).c_str(),
                core::to_string(bench::expected_kind(k)).c_str());
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const double days = opt_double(args, "--days", 14.0);
  const auto seed = opt_unsigned<std::uint64_t>(args, "--seed", 42);
  const std::string scenario = opt_str(args, "--scenario", "clean");
  const auto kind = kind_by_name(scenario);
  if (!kind) {
    std::fprintf(stderr, "unknown scenario '%s' (try: sentinel_cli scenarios)\n",
                 scenario.c_str());
    return 2;
  }

  bench::ScenarioConfig sc;
  sc.duration_days = days;
  sc.seed = seed;

  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = days * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  sim::GdiDeploymentConfig dc;
  dc.seed = seed;
  auto simulator = sim::make_gdi_deployment(env, dc);
  auto plan = std::make_shared<faults::InjectionPlan>();
  if (const auto inject = bench::make_injection(*kind, seed)) inject(*plan, env);
  simulator.set_transform(faults::make_transform(plan));
  const auto result = simulator.run(ec.duration_seconds);

  const AttrSchema schema = gdi_schema();
  write_trace_file(args.path, result.trace, &schema);
  std::printf("wrote %zu records (%zu sampled, %zu lost, %zu malformed) to %s\n",
              result.trace.size(), result.stats.sampled, result.stats.lost,
              result.stats.malformed, args.path.c_str());
  std::printf("scenario: %s\n", bench::to_string(*kind));
  return 0;
}

int cmd_inject(const Args& args) {
  const std::string scenario = opt_str(args, "--scenario", "stuck-at");
  const auto kind = kind_by_name(scenario);
  if (!kind || *kind == bench::InjectionKind::kClean) {
    std::fprintf(stderr, "unknown or empty scenario '%s'\n", scenario.c_str());
    return 2;
  }
  const auto seed = opt_unsigned<std::uint64_t>(args, "--seed", 42);
  const auto read = read_trace_file(args.path);
  if (read.records.empty()) {
    std::fprintf(stderr, "no parseable records in %s\n", args.path.c_str());
    return 1;
  }

  // Ground truth reconstructed from the recording itself (paper 4.2 on real
  // data); the injection starts one-seventh into the recording.
  const faults::TraceEnvironment env(read.records);
  const double t0 = read.records.front().time;
  const double t1 = read.records.back().time;
  faults::InjectionPlan plan;
  bench::make_injection(*kind, seed, t0 + (t1 - t0) / 7.0)(plan, env);
  const auto injected = faults::inject_into_trace(read.records, plan, env);

  const AttrSchema schema = gdi_schema();
  write_trace_file(args.path2, injected, &schema);
  std::printf("injected %s into %zu sensors; wrote %zu records to %s\n",
              bench::to_string(*kind), plan.injected_sensors().size(), injected.size(),
              args.path2.c_str());
  return 0;
}

int cmd_health(const Args& args) {
  const double period = opt_double(args, "--period", 5.0 * kSecondsPerMinute);
  const auto read = read_trace_file(args.path);
  if (read.records.empty()) {
    std::fprintf(stderr, "no parseable records in %s\n", args.path.c_str());
    return 1;
  }
  for (const auto& h : analyze_health(read.records, period)) {
    std::printf("%s\n", to_string(h).c_str());
  }
  return 0;
}

}  // namespace sentinel::cli
