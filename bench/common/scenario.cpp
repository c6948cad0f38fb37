#include "common/scenario.h"

#include <cstdio>
#include <ostream>

#include "core/offline_kmeans.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "util/thread_pool.h"
#include "util/vecn.h"

namespace sentinel::bench {

std::vector<AttrVec> initial_states_from_env(const sim::Environment& env,
                                             double duration_seconds, std::size_t k,
                                             std::uint64_t seed) {
  std::vector<AttrVec> history;
  for (double t = 0.0; t < duration_seconds; t += 30.0 * kSecondsPerMinute) {
    history.push_back(env.truth(t));
  }
  Rng rng(seed, "offline-kmeans");
  return core::kmeans(history, k, rng).centroids;
}

core::PipelineConfig make_pipeline_config(const sim::Environment& env,
                                          const ScenarioConfig& cfg) {
  core::PipelineConfig pc;
  // Table 1 defaults: w = 12 samples, alpha = 0.10, beta = gamma = 0.90.
  pc.window_seconds = static_cast<double>(cfg.window_samples) * 5.0 * kSecondsPerMinute;
  pc.initial_states = initial_states_from_env(env, cfg.duration_days * kSecondsPerDay,
                                              cfg.initial_states, cfg.seed);
  pc.beta = cfg.beta;
  pc.gamma = cfg.gamma;
  pc.model_states.alpha = cfg.alpha;
  pc.alarm_filter.kind = cfg.filter;
  pc.screen = cfg.screen;
  return pc;
}

ScenarioResult run_scenario(const sim::GdiEnvironmentConfig& env_cfg, const ScenarioConfig& cfg,
                            const InjectFn& inject) {
  sim::GdiEnvironmentConfig ec = env_cfg;
  ec.duration_seconds = cfg.duration_days * kSecondsPerDay;
  ec.seed = cfg.seed;
  const sim::GdiEnvironment env(ec);

  sim::GdiDeploymentConfig dc;
  dc.num_sensors = cfg.num_sensors;
  dc.packet_loss = cfg.packet_loss;
  dc.malform_prob = cfg.malform_prob;
  dc.noise_sigma = cfg.noise_sigma;
  dc.seed = cfg.seed;
  sim::Simulator simulator = sim::make_gdi_deployment(env, dc);

  auto plan = std::make_shared<faults::InjectionPlan>();
  if (inject) inject(*plan, env);
  simulator.set_transform(faults::make_transform(plan));

  ScenarioResult result;
  // Motes are independent, so trace generation fans out over the shared
  // pool; the merged trace is bit-identical to a serial run (see
  // Simulator::run(duration, pool)), so every bench stays reproducible.
  result.sim = simulator.run(ec.duration_seconds, util::ThreadPool::shared());
  result.pipeline_config = make_pipeline_config(env, cfg);
  result.pipeline = std::make_unique<core::DetectionPipeline>(result.pipeline_config);
  result.pipeline->process_trace(result.sim.trace);
  return result;
}

ObservationSet make_window(std::size_t index, double window_seconds,
                           std::vector<SensorId> sensors, std::vector<AttrVec> points) {
  ObservationSet w;
  w.window_index = index;
  w.window_start = window_seconds * static_cast<double>(index - 1);
  w.window_end = window_seconds * static_cast<double>(index);
  w.records = points.size();
  if (!points.empty()) {
    // vecn::mean adds in point order and scales once: the windower's bits.
    w.cached_mean = vecn::mean(points);
    w.rep_total.assign(points.front().size(), 0.0);
  }
  for (const AttrVec& p : points) {
    w.rep_sums.push_back(vecn::scalar_sum(p));
    for (std::size_t a = 0; a < p.size(); ++a) w.rep_total[a] += p[a];
  }
  w.rep_sensors = std::move(sensors);
  w.rep_points = std::move(points);
  return w;
}

const char* to_string(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::kClean: return "clean";
    case InjectionKind::kStuckAt: return "stuck-at";
    case InjectionKind::kCalibration: return "calibration";
    case InjectionKind::kAdditive: return "additive";
    case InjectionKind::kRandomNoise: return "random-noise";
    case InjectionKind::kCreation: return "creation";
    case InjectionKind::kDeletion: return "deletion";
    case InjectionKind::kChange: return "change";
    case InjectionKind::kMixed: return "mixed";
    case InjectionKind::kBenign: return "benign";
  }
  return "?";
}

std::vector<InjectionKind> all_injection_kinds() {
  return {InjectionKind::kClean,     InjectionKind::kStuckAt,  InjectionKind::kCalibration,
          InjectionKind::kAdditive,  InjectionKind::kRandomNoise, InjectionKind::kCreation,
          InjectionKind::kDeletion,  InjectionKind::kChange,   InjectionKind::kMixed,
          InjectionKind::kBenign};
}

InjectFn make_injection(InjectionKind kind, std::uint64_t seed, double start_time) {
  using namespace faults;
  const std::vector<SensorId> coalition{7, 8, 9};

  switch (kind) {
    case InjectionKind::kClean:
      return nullptr;
    case InjectionKind::kStuckAt:
      return [start_time](InjectionPlan& plan, const sim::Environment&) {
        plan.add(6, std::make_unique<StuckAtFault>(AttrVec{15.0, 1.0}), start_time);
      };
    case InjectionKind::kCalibration:
      return [start_time](InjectionPlan& plan, const sim::Environment&) {
        plan.add(6, std::make_unique<CalibrationFault>(AttrVec{0.70, 0.80}), start_time);
      };
    case InjectionKind::kAdditive:
      return [start_time](InjectionPlan& plan, const sim::Environment&) {
        plan.add(6, std::make_unique<AdditiveFault>(AttrVec{8.0, 5.0}), start_time);
      };
    case InjectionKind::kRandomNoise:
      return [start_time, seed](InjectionPlan& plan, const sim::Environment&) {
        plan.add(6, std::make_unique<RandomNoiseFault>(10.0, seed), start_time);
      };
    case InjectionKind::kCreation:
      return [start_time, coalition](InjectionPlan& plan, const sim::Environment&) {
        for (const SensorId s : coalition) {
          CreationAttackConfig ac;
          ac.victim = StateRegion{{12.0, 94.0}, 6.0};
          ac.created_state = {26.0, 90.0};
          ac.fraction = 0.3;
          plan.add(s, std::make_unique<DynamicCreationAttack>(ac), start_time);
        }
      };
    case InjectionKind::kDeletion:
      return [start_time, coalition](InjectionPlan& plan, const sim::Environment&) {
        for (const SensorId s : coalition) {
          DeletionAttackConfig ac;
          ac.deleted = StateRegion{{31.0, 56.0}, 7.0};
          ac.hold_state = {24.0, 70.0};
          ac.fraction = 0.3;
          plan.add(s, std::make_unique<DynamicDeletionAttack>(ac), start_time);
        }
      };
    case InjectionKind::kChange:
      return [start_time](InjectionPlan& plan, const sim::Environment&) {
        for (const SensorId s : {6u, 7u, 8u, 9u}) {
          ChangeAttackConfig ac;
          ac.victim = StateRegion{{12.0, 94.0}, 8.0};
          ac.observed_as = {18.0, 60.0};
          ac.fraction = 0.4;
          plan.add(s, std::make_unique<DynamicChangeAttack>(ac), start_time);
        }
      };
    case InjectionKind::kMixed:
      return [start_time, coalition](InjectionPlan& plan, const sim::Environment&) {
        for (const SensorId s : coalition) {
          CreationAttackConfig cc;
          cc.victim = StateRegion{{12.0, 94.0}, 6.0};
          cc.created_state = {26.0, 90.0};
          cc.fraction = 0.3;
          DeletionAttackConfig dc;
          dc.deleted = StateRegion{{31.0, 56.0}, 7.0};
          dc.hold_state = {24.0, 70.0};
          dc.fraction = 0.3;
          plan.add(s, std::make_unique<MixedAttack>(cc, dc), start_time);
        }
      };
    case InjectionKind::kBenign:
      return [start_time, seed, coalition](InjectionPlan& plan, const sim::Environment&) {
        for (const SensorId s : coalition) {
          plan.add(s, std::make_unique<BenignAttack>(0.4, seed + s), start_time);
        }
      };
  }
  return nullptr;
}

core::Verdict expected_verdict(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::kClean:
    case InjectionKind::kBenign:
      return core::Verdict::kNormal;
    case InjectionKind::kStuckAt:
    case InjectionKind::kCalibration:
    case InjectionKind::kAdditive:
    case InjectionKind::kRandomNoise:
      return core::Verdict::kError;
    default:
      return core::Verdict::kAttack;
  }
}

core::AnomalyKind expected_kind(InjectionKind kind) {
  switch (kind) {
    case InjectionKind::kClean:
    case InjectionKind::kBenign:
      return core::AnomalyKind::kNone;
    case InjectionKind::kStuckAt: return core::AnomalyKind::kStuckAt;
    case InjectionKind::kCalibration: return core::AnomalyKind::kCalibration;
    case InjectionKind::kAdditive: return core::AnomalyKind::kAdditive;
    case InjectionKind::kRandomNoise: return core::AnomalyKind::kRandomNoise;
    case InjectionKind::kCreation: return core::AnomalyKind::kDynamicCreation;
    case InjectionKind::kDeletion: return core::AnomalyKind::kDynamicDeletion;
    case InjectionKind::kChange: return core::AnomalyKind::kDynamicChange;
    case InjectionKind::kMixed: return core::AnomalyKind::kMixedAttack;
  }
  return core::AnomalyKind::kNone;
}

ScenarioScore score_report(const core::DiagnosisReport& report, InjectionKind injected) {
  ScenarioScore score;
  const core::Verdict want_verdict = expected_verdict(injected);
  const core::AnomalyKind want_kind = expected_kind(injected);

  switch (want_verdict) {
    case core::Verdict::kAttack:
      score.verdict = report.network.verdict;
      score.kind = report.network.kind;
      break;
    case core::Verdict::kError: {
      // Errors are diagnosed per sensor; the injected sensor is 6.
      const auto it = report.sensors.find(6);
      if (it != report.sensors.end()) {
        score.verdict = it->second.verdict;
        score.kind = it->second.kind;
      } else {
        score.verdict = core::Verdict::kNormal;
        score.kind = core::AnomalyKind::kNone;
      }
      break;
    }
    case core::Verdict::kNormal: {
      // Clean/benign: the network must be clean and no sensor may carry an
      // error or attack diagnosis.
      score.verdict = report.network.verdict;
      score.kind = report.network.kind;
      for (const auto& [id, d] : report.sensors) {
        if (d.verdict != core::Verdict::kNormal) {
          score.verdict = d.verdict;
          score.kind = d.kind;
        }
      }
      break;
    }
  }
  score.detected = score.verdict == want_verdict;
  score.exact = score.detected && score.kind == want_kind;
  return score;
}

std::string state_label(hmm::StateId id, const core::CentroidLookup& lookup) {
  if (id == hmm::kBottomSymbol) return "_|_";
  if (const auto c = lookup(id)) return vecn::to_string(*c, 0);
  return "s" + std::to_string(id);
}

namespace {

void print_matrix_labelled(std::ostream& os, const Matrix& b,
                           const std::vector<std::string>& row_labels,
                           const std::vector<std::string>& col_labels) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%10s", "");
  os << buf;
  for (const auto& cl : col_labels) {
    std::snprintf(buf, sizeof buf, " %9s", cl.c_str());
    os << buf;
  }
  os << '\n';
  for (std::size_t r = 0; r < b.rows(); ++r) {
    std::snprintf(buf, sizeof buf, "%10s", row_labels[r].c_str());
    os << buf;
    for (std::size_t c = 0; c < b.cols(); ++c) {
      std::snprintf(buf, sizeof buf, " %9.3f", b(r, c));
      os << buf;
    }
    os << '\n';
  }
}

}  // namespace

void print_emission(std::ostream& os, const hmm::OnlineHmm& m,
                    const core::CentroidLookup& lookup, const std::string& title) {
  // Print the long-run (decreasing-gain) estimate -- the matrix the
  // classifier actually analyzes; see OnlineHmm::emission_matrix_avg().
  os << title << '\n';
  std::vector<std::string> rows, cols;
  for (const auto id : m.hidden_states()) rows.push_back(state_label(id, lookup));
  for (const auto id : m.symbols()) cols.push_back(state_label(id, lookup));
  print_matrix_labelled(os, m.emission_matrix_avg(), rows, cols);
}

void print_filtered(std::ostream& os, const core::FilteredEmission& f,
                    const core::CentroidLookup& lookup, const std::string& title) {
  os << title << '\n';
  if (f.empty()) {
    os << "  (empty)\n";
    return;
  }
  std::vector<std::string> rows, cols;
  for (const auto id : f.hidden) rows.push_back(state_label(id, lookup));
  for (const auto id : f.symbols) cols.push_back(state_label(id, lookup));
  print_matrix_labelled(os, f.b, rows, cols);
}

void print_chain(std::ostream& os, const hmm::MarkovChain& chain,
                 const core::CentroidLookup& lookup, const std::string& title) {
  os << title << '\n';
  const auto ids = chain.states();
  std::vector<std::string> labels;
  for (const auto id : ids) labels.push_back(state_label(id, lookup));
  print_matrix_labelled(os, chain.transition_matrix(), labels, labels);
  const auto occ = chain.occupancy();
  os << "occupancy:";
  char buf[64];
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::snprintf(buf, sizeof buf, " %s=%.3f", labels[i].c_str(), occ[i]);
    os << buf;
  }
  os << '\n';
}

}  // namespace sentinel::bench
