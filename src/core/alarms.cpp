#include "core/alarms.h"

#include <stdexcept>

#include "util/serialize.h"

namespace sentinel::core {

changepoint::AlarmFilterFactory make_filter_factory(const AlarmFilterConfig& cfg) {
  switch (cfg.kind) {
    case FilterKind::kKofN:
      return changepoint::make_kofn_factory(cfg.k, cfg.n);
    case FilterKind::kSprt: {
      changepoint::SprtConfig sc;
      sc.p0 = cfg.p0;
      sc.p1 = cfg.p1;
      sc.alpha = cfg.sprt_alpha;
      sc.beta = cfg.sprt_beta;
      return changepoint::make_sprt_factory(sc);
    }
    case FilterKind::kCusum: {
      changepoint::CusumConfig cc;
      cc.p0 = cfg.p0;
      cc.p1 = cfg.p1;
      cc.threshold = cfg.cusum_threshold;
      return changepoint::make_cusum_factory(cc);
    }
  }
  throw std::invalid_argument("make_filter_factory: unknown filter kind");
}

AlarmBank::AlarmBank(const AlarmFilterConfig& cfg) : factory_(make_filter_factory(cfg)) {}

AlarmUpdate AlarmBank::update(SensorId sensor, bool raw_alarm) {
  auto [e, created] = entries_.emplace(sensor);
  if (created) e.filter = factory_();

  AlarmUpdate out;
  out.raw = raw_alarm;
  const bool before = e.filter->active();
  out.filtered = e.filter->update(raw_alarm);
  out.raised_edge = !before && out.filtered;
  out.cleared_edge = before && !out.filtered;

  if (raw_alarm) ++e.raw_count;
  ++e.window_count;
  return out;
}

bool AlarmBank::filtered_active(SensorId sensor) const {
  const Entry* e = entries_.find(sensor);
  return e != nullptr && e->filter->active();
}

std::size_t AlarmBank::raw_count(SensorId sensor) const {
  const Entry* e = entries_.find(sensor);
  return e == nullptr ? 0 : e->raw_count;
}

std::size_t AlarmBank::window_count(SensorId sensor) const {
  const Entry* e = entries_.find(sensor);
  return e == nullptr ? 0 : e->window_count;
}

void AlarmBank::save(serialize::Writer& w) const {
  serialize::tag(w, "alarm-bank");
  serialize::put(w, entries_.size());
  entries_.for_each([&](SensorId id, const Entry& e) {
    serialize::put(w, id);
    serialize::put(w, e.raw_count);
    serialize::put(w, e.window_count);
    e.filter->save(w);
  });
}

void AlarmBank::load(serialize::Reader& r) {
  serialize::expect(r, "alarm-bank");
  const auto n = serialize::get<std::size_t>(r);
  if (n > (1u << 26)) throw std::runtime_error("checkpoint: implausible alarm-bank size");
  entries_.clear();
  AscendingIds ids;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = entries_.emplace(ids.check(serialize::get<SensorId>(r))).first;
    e.filter = factory_();  // load() below restores its state
    e.raw_count = serialize::get<std::size_t>(r);
    e.window_count = serialize::get<std::size_t>(r);
    e.filter->load(r);
  }
}

}  // namespace sentinel::core
