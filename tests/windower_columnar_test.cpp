// Tests: the columnar windower against the legacy map-based reference.
//
// The windower logs each window's records in arrival order, taking a run of
// records inside the open window's bounds in bulk, and sums the log into
// slot-indexed SoA arenas when the window closes; the contract is that every
// emitted ObservationSet is *bit-identical* to what the old std::map-based
// finalization produced. This file embeds that legacy implementation (from
// the pre-columnar source; the raw samples it averaged are now a local of its
// finalization) as an in-test reference and property-tests the two against
// each other over hostile traces: out-of-order timestamps within a window,
// sparse/absent sensors, single-record windows, NaN/negative/huge times,
// multi-window gaps, window edges one ulp apart, and special attribute values
// (inf, denormals, signed zero), through both add_batch overloads.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "trace/windower.h"
#include "util/serialize.h"
#include "util/vecn.h"

namespace sentinel {
namespace {

// --- the legacy map-based windower, verbatim -------------------------------

namespace legacy {

class Windower {
 public:
  explicit Windower(double window_seconds) : window_seconds_(window_seconds) {}

  template <typename Fn>
  void add(const SensorRecord& rec, Fn&& on_window) {
    const auto idx = index_for(rec.time);
    if (current_index_ == 0) {
      open_window(idx);
    } else if (idx < current_index_) {
      ++late_records_;
      return;
    } else if (idx > current_index_) {
      on_window(finalize_current());
      for (std::size_t i = current_index_ + 1; i < idx; ++i) {
        ObservationSet empty;
        empty.window_index = i;
        empty.window_start = window_seconds_ * static_cast<double>(i - 1);
        empty.window_end = window_seconds_ * static_cast<double>(i);
        on_window(std::move(empty));
      }
      open_window(idx);
    }
    pending_.push_back(rec);
  }

  std::optional<ObservationSet> flush() {
    if (current_index_ == 0 || pending_.empty()) return std::nullopt;
    auto set = finalize_current();
    open_window(current_index_);
    return set;
  }

  std::size_t late_records() const { return late_records_; }
  std::size_t clamped_records() const { return clamped_records_; }

 private:
  ObservationSet finalize_current() {
    ObservationSet set;
    set.window_index = current_index_;
    set.window_start = window_seconds_ * static_cast<double>(current_index_ - 1);
    set.window_end = window_seconds_ * static_cast<double>(current_index_);
    set.records = pending_.size();
    std::vector<AttrVec> raw;
    std::map<SensorId, std::vector<AttrVec>> by_sensor;
    for (auto& rec : pending_) {
      raw.push_back(rec.attrs);
      by_sensor[rec.sensor].push_back(std::move(rec.attrs));
    }
    set.rep_sensors.reserve(by_sensor.size());
    set.rep_points.reserve(by_sensor.size());
    set.rep_sums.reserve(by_sensor.size());
    for (auto& [id, samples] : by_sensor) {
      auto rep = vecn::mean(samples);
      set.rep_sensors.push_back(id);
      set.rep_sums.push_back(vecn::scalar_sum(rep));
      if (set.rep_total.empty()) set.rep_total.assign(rep.size(), 0.0);
      for (std::size_t a = 0; a < set.rep_total.size() && a < rep.size(); ++a) {
        set.rep_total[a] += rep[a];
      }
      set.rep_points.push_back(std::move(rep));
    }
    if (!raw.empty()) vecn::mean_into(raw, set.cached_mean);
    return set;
  }

  void open_window(std::size_t index) {
    current_index_ = index;
    pending_.clear();
  }

  std::size_t index_for(double time) {
    const double idx = std::floor(time / window_seconds_);
    if (!(idx >= 0.0)) {
      ++clamped_records_;
      return 1;
    }
    constexpr double kMaxIndex = 9.0e18;
    if (idx >= kMaxIndex) {
      ++clamped_records_;
      return static_cast<std::size_t>(kMaxIndex);
    }
    return static_cast<std::size_t>(idx) + 1;
  }

  double window_seconds_;
  std::size_t current_index_ = 0;
  std::vector<SensorRecord> pending_;
  std::size_t late_records_ = 0;
  std::size_t clamped_records_ = 0;
};

}  // namespace legacy

// --- bit-exact ObservationSet comparison -----------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_vec(const AttrVec& got, const AttrVec& want, const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << tag << " [" << i << "] got=" << got[i]
                                           << " want=" << want[i];
  }
}

void expect_same_window(const ObservationSet& got, const ObservationSet& want,
                        const std::string& tag) {
  EXPECT_EQ(got.window_index, want.window_index) << tag;
  EXPECT_EQ(bits(got.window_start), bits(want.window_start)) << tag;
  EXPECT_EQ(bits(got.window_end), bits(want.window_end)) << tag;
  EXPECT_EQ(got.records, want.records) << tag;
  expect_same_vec(got.cached_mean, want.cached_mean, tag + " cached_mean");
  EXPECT_EQ(got.rep_sensors, want.rep_sensors) << tag;
  ASSERT_EQ(got.rep_points.size(), want.rep_points.size()) << tag;
  for (std::size_t j = 0; j < got.rep_points.size(); ++j) {
    expect_same_vec(got.rep_points[j], want.rep_points[j],
                    tag + " rep_points[" + std::to_string(j) + "]");
  }
  expect_same_vec(got.rep_sums, want.rep_sums, tag + " rep_sums");
  expect_same_vec(got.rep_total, want.rep_total, tag + " rep_total");
}

// --- hostile trace generation ----------------------------------------------

/// A deterministic hostile trace: mostly-forward time walk with backwards
/// jitter inside the window, multi-window jumps (gaps + single-record
/// windows), genuinely late records, degenerate times (NaN / negative /
/// astronomically large), sensors drawn sparsely from a pool (some ids never
/// appear), and attribute values spanning special doubles. Dimensions are
/// uniform per trace -- mismatch handling is tested separately because the
/// legacy path leaves moved-from remnants behind after throwing.
std::vector<SensorRecord> hostile_trace(std::uint64_t seed, std::size_t n, std::size_t dims,
                                        double window) {
  std::mt19937_64 rng(0x5eed0000 + seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr double kSpecial[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min(), 1e300, -1e-300};
  std::vector<SensorRecord> trace;
  trace.reserve(n);
  double t = 0.25 * window;
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = unit(rng);
    SensorRecord rec;
    if (roll < 0.025) {
      rec.time = std::numeric_limits<double>::quiet_NaN();  // clamps to window 1 (late)
    } else if (roll < 0.05) {
      rec.time = -window * unit(rng) * 10.0;  // negative: clamps to window 1
      // (An astronomically large time clamps to index ~9e18 and the gap
      // emission loop would then emit ~1e18 empty windows -- identical in
      // both implementations but far too slow to property-test here; the
      // clamp itself is covered by the NaN/negative cases above.)
    } else if (roll < 0.10) {
      t += window * (2.0 + std::floor(unit(rng) * 4.0));  // gap: skip 2-5 windows
      rec.time = t;
    } else if (roll < 0.15) {
      rec.time = t - window * (1.0 + unit(rng));  // genuinely late
    } else {
      t += window * 0.15 * unit(rng);
      rec.time = t - window * 0.4 * unit(rng);  // out-of-order within the window
    }
    rec.sensor = static_cast<SensorId>(rng() % 11);  // sparse: many absent per window
    rec.attrs.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      if (unit(rng) < 0.08) {
        rec.attrs[d] = kSpecial[rng() % std::size(kSpecial)];
      } else {
        rec.attrs[d] = (unit(rng) - 0.5) * std::pow(10.0, 6.0 * unit(rng) - 3.0);
      }
    }
    trace.push_back(std::move(rec));
  }
  return trace;
}

/// A windowing run's output: the completed windows in order, and how many
/// empty windows the gaps between them held. The columnar windower hands a
/// gap over as one Windower::EmptyWindows; the legacy one emitted an empty
/// ObservationSet per window, which run_legacy counts here instead.
struct Windows {
  std::vector<ObservationSet> windows;
  std::size_t gap_windows = 0;
  void operator()(ObservationSet&& s) { windows.push_back(std::move(s)); }
  void operator()(Windower::EmptyWindows gap) { gap_windows += gap.count; }
};

void expect_same_windows(const Windows& got, const Windows& want, const std::string& tag) {
  EXPECT_EQ(got.gap_windows, want.gap_windows) << tag;
  ASSERT_EQ(got.windows.size(), want.windows.size()) << tag;
  for (std::size_t k = 0; k < got.windows.size(); ++k) {
    expect_same_window(got.windows[k], want.windows[k],
                       tag + " window[" + std::to_string(k) + "]");
  }
}

Windows run_legacy(const std::vector<SensorRecord>& trace, double window,
                   std::size_t* late = nullptr, std::size_t* clamped = nullptr) {
  legacy::Windower w(window);
  Windows out;
  for (const auto& rec : trace) {
    w.add(rec, [&](ObservationSet&& s) {
      if (s.records == 0) {
        ++out.gap_windows;
      } else {
        out(std::move(s));
      }
    });
  }
  if (auto last = w.flush()) out(std::move(*last));
  if (late) *late = w.late_records();
  if (clamped) *clamped = w.clamped_records();
  return out;
}

/// Feeds trace[first, last) to `w` in add_batch calls of `batch` records: as
/// spans of SensorRecords, or when `flat` as RecordBatches (the fleet's shard
/// currency).
void feed(Windower& w, Windows& out, const std::vector<SensorRecord>& trace, std::size_t first,
          std::size_t last, std::size_t batch, bool flat) {
  RecordBatch columns;
  for (std::size_t i = first; i < last; i += batch) {
    const std::span<const SensorRecord> chunk(trace.data() + i, std::min(batch, last - i));
    if (flat) {
      columns.clear();
      columns.append(chunk);
      w.add_batch(columns, out);
    } else {
      w.add_batch(chunk, out);
    }
  }
}

Windows run_columnar(const std::vector<SensorRecord>& trace, double window, std::size_t batch,
                     bool flat, std::size_t* late = nullptr, std::size_t* clamped = nullptr) {
  Windower w(window);
  Windows out;
  feed(w, out, trace, 0, trace.size(), batch, flat);
  if (auto last = w.flush()) out(std::move(*last));
  if (late) *late = w.late_records();
  if (clamped) *clamped = w.clamped_records();
  return out;
}

/// Both add_batch overloads at each batch size against the legacy reference:
/// the same windows, bit for bit, and the same late and clamped counts.
void expect_matches_legacy(const std::vector<SensorRecord>& trace, double window,
                           std::initializer_list<std::size_t> batches) {
  std::size_t llate = 0, lclamped = 0;
  const auto want = run_legacy(trace, window, &llate, &lclamped);
  for (const bool flat : {false, true}) {
    for (const std::size_t batch : batches) {
      std::size_t clate = 0, cclamped = 0;
      const auto got = run_columnar(trace, window, batch, flat, &clate, &cclamped);
      const std::string tag =
          std::string(flat ? "flat" : "span") + " batch=" + std::to_string(batch);
      EXPECT_EQ(clate, llate) << tag;
      EXPECT_EQ(cclamped, lclamped) << tag;
      expect_same_windows(got, want, tag);
    }
  }
}

// --- properties ------------------------------------------------------------

TEST(WindowerColumnar, BitIdenticalToLegacyOverHostileTraces) {
  const double window = 60.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (const std::size_t dims : {1ul, 2ul, 5ul}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " dims=" + std::to_string(dims));
      const auto trace = hostile_trace(seed, 800, dims, window);
      expect_matches_legacy(trace, window, {1ul, 7ul, 64ul, trace.size()});
    }
  }
}

TEST(WindowerColumnar, WindowEdgesMatchWindowIndex) {
  // A record inside the open window's bounds skips window_index, so the
  // bounds must be exactly the times window_index puts in that window. Each
  // case opens window k with a record in its middle, then sends records at
  // (k-1)*w and k*w and one ulp either side of each: the first may be late,
  // the last ones close window k. Indices run past 2^52, where consecutive
  // indices stop mapping to distinct doubles; widths run from denorm_min
  // (every product exact) to 1e300 (products overflow to inf, which clamps).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double widths[] = {3600.0, 300.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                           std::numeric_limits<double>::denorm_min()};
  constexpr std::size_t k52 = std::size_t{1} << 52;
  const std::size_t indices[] = {1,       2,       3,           7,           1000,
                                 1 << 20, 1 << 30, k52 - 1,     k52,         k52 + 1,
                                 k52 + 2, k52 * 2, k52 * 2 + 3, k52 * 4 + 5};
  for (const double w : widths) {
    for (const std::size_t k : indices) {
      SCOPED_TRACE("w=" + std::to_string(w) + " k=" + std::to_string(k));
      const double lo = static_cast<double>(k - 1) * w;
      const double hi = static_cast<double>(k) * w;
      const std::vector<double> times = {
          (static_cast<double>(k) - 0.5) * w,
          std::nextafter(lo, -kInf), lo, std::nextafter(lo, kInf),
          (static_cast<double>(k) - 0.5) * w,
          std::nextafter(hi, -kInf), hi, std::nextafter(hi, kInf),
          (static_cast<double>(k) + 0.5) * w};
      std::vector<SensorRecord> trace;
      for (std::size_t i = 0; i < times.size(); ++i) {
        trace.push_back({.sensor = static_cast<SensorId>(i % 3),
                         .time = times[i],
                         .attrs = {static_cast<double>(i), 1.0 / (static_cast<double>(i) + 3.0)}});
      }
      expect_matches_legacy(trace, w, {1ul, trace.size()});
    }
  }
  // Window 1's lower edge: signed zero and tiny negatives, whose quotient
  // rounds to -0.0 for w > 1 (window 1, unclamped) and below -0.0 otherwise
  // (clamped into window 1).
  for (const double w : widths) {
    SCOPED_TRACE("w=" + std::to_string(w));
    const double dmin = std::numeric_limits<double>::denorm_min();
    std::vector<SensorRecord> trace;
    for (const double t : {0.5 * w, -0.0, -dmin, 0.0, -2.0 * dmin, dmin, -0.0}) {
      trace.push_back({.sensor = 1, .time = t, .attrs = {t, 2.0}});
    }
    expect_matches_legacy(trace, w, {1ul, trace.size()});
  }
}

TEST(WindowerColumnar, SingleRecordWindowsAndExactBoundaries) {
  // One record per window plus records exactly on window boundaries (time =
  // k*w belongs to window k+1 under the half-open convention).
  const double window = 10.0;
  std::vector<SensorRecord> trace;
  for (std::size_t k = 0; k < 20; ++k) {
    SensorRecord rec;
    rec.sensor = static_cast<SensorId>(k % 3);
    rec.time = static_cast<double>(k) * 3.0 * window;  // every 3rd window only
    rec.attrs = {static_cast<double>(k) * 0.1, -1.0 / (static_cast<double>(k) + 1.0)};
    trace.push_back(std::move(rec));
  }
  const auto want = run_legacy(trace, window);
  EXPECT_GT(want.gap_windows, 0u);
  for (const std::size_t batch : {1ul, 5ul, trace.size()}) {
    expect_same_windows(run_columnar(trace, window, batch, false), want,
                        "batch=" + std::to_string(batch));
  }
}

TEST(WindowerColumnar, DimensionMismatchThrowsLegacyMessage) {
  // A sensor whose samples disagree in width throws for the lowest such
  // sensor id (the legacy vecn::mean order); after the throw the columnar
  // windower is reset and usable, which the legacy one never guaranteed.
  Windower w(60.0);
  Windows sink;
  std::vector<SensorRecord> recs;
  recs.push_back({.sensor = 4, .time = 5.0, .attrs = {1.0, 2.0}});
  recs.push_back({.sensor = 4, .time = 6.0, .attrs = {1.0, 2.0, 3.0}});
  recs.push_back({.sensor = 7, .time = 70.0, .attrs = {9.0}});  // closes window 1
  try {
    w.add_batch(std::span<const SensorRecord>(recs.data(), recs.size()), sink);
    FAIL() << "expected dimension mismatch";
  } catch (const std::invalid_argument& e) {
    // Identical to what legacy finalize_current surfaced via vecn::mean.
    std::string want;
    try {
      std::vector<AttrVec> samples = {{1.0, 2.0}, {1.0, 2.0, 3.0}};
      (void)vecn::mean(samples);
    } catch (const std::invalid_argument& le) {
      want = le.what();
    }
    EXPECT_EQ(std::string(e.what()), want);
  }
  // Still usable: the poisoned window was discarded, window 2 accumulates.
  SensorRecord ok{.sensor = 1, .time = 75.0, .attrs = {1.0, 1.0}};
  w.add_batch(std::span<const SensorRecord>(&ok, 1), sink);
  auto last = w.flush();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->window_index, 2u);
  EXPECT_EQ(last->rep_sensors.size(), 1u);
}

TEST(WindowerColumnar, SaveLoadRoundTripContinuesBitIdentically) {
  // Checkpoint mid-window, restore into a fresh windower, and continue both
  // with the remainder of the trace: every subsequent window must match the
  // uninterrupted run bit-for-bit (load() refills the arrival-order log, and
  // the open window's bounds come back with its index). The hostile trace is
  // cut mid-window and mid-batch; the in-order one inside window 2's run of
  // in-bounds records, which the resumed windower must keep taking in bulk.
  const double window = 60.0;
  std::vector<SensorRecord> in_order;
  for (std::size_t i = 0; i < 400; ++i) {
    const double t = 0.7 * static_cast<double>(i);
    in_order.push_back(
        {.sensor = static_cast<SensorId>(i % 5), .time = t, .attrs = {std::sin(t), t * 1e3}});
  }
  ASSERT_EQ(window_index(in_order[99].time, window).index, 2u);
  ASSERT_EQ(window_index(in_order[100].time, window).index, 2u);
  const std::pair<std::vector<SensorRecord>, std::size_t> cases[] = {
      {hostile_trace(7, 500, 3, window), 217}, {in_order, 100}};

  for (const auto& [trace, cut] : cases) {
    for (const bool flat : {false, true}) {
      SCOPED_TRACE(std::string(flat ? "flat" : "span") + " cut=" + std::to_string(cut));
      const auto want = run_columnar(trace, window, 16, flat);

      Windower first(window);
      Windows got;
      feed(first, got, trace, 0, cut, 16, flat);

      std::ostringstream blob(std::ios::binary);
      serialize::BinaryWriter sw(blob);
      first.save(sw);

      Windower resumed(window);
      std::istringstream in(blob.str(), std::ios::binary);
      serialize::BinaryReader sr(in);
      resumed.load(sr);

      feed(resumed, got, trace, cut, trace.size(), 16, flat);
      if (auto last = resumed.flush()) got(std::move(*last));

      expect_same_windows(got, want, "resumed");
    }
  }
}

// --- fleet determinism over a hostile stream -------------------------------

TEST(WindowerColumnar, FleetReportIdenticalAcrossThreadsOnHostileTrace) {
  // The batched shard handoff must not change results: a hostile trace
  // (out-of-order, sparse, degenerate times) through threads=1 and threads=4
  // fleets yields byte-identical reports.
  const double window = kSecondsPerHour;
  const auto make_trace = [&](std::uint64_t seed) {
    auto t = hostile_trace(seed, 1200, 2, window);
    // Scale hostile times into a few days so the pipeline sees real windows.
    for (auto& rec : t) {
      if (std::isfinite(rec.time) && rec.time >= 0.0) rec.time *= 40.0;
    }
    return t;
  };
  const std::vector<std::vector<SensorRecord>> traces = {make_trace(1), make_trace(2)};

  const auto run = [&](std::size_t threads) {
    core::FleetConfig fc;
    fc.threads = threads;
    core::FleetMonitor fleet(fc);
    core::PipelineConfig cfg;
    cfg.window_seconds = window;
    cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
    fleet.add_region("alpha", cfg);
    fleet.add_region("beta", cfg);
    const std::vector<std::string> names = {"alpha", "beta"};
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (std::size_t r = 0; r < traces.size(); ++r) {
        if (i < traces[r].size()) {
          fleet.add_record(names[r], traces[r][i]);
          any = true;
        }
      }
      if (!any) break;
    }
    fleet.finish();
    return core::to_string(fleet.diagnose());
  };

  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace sentinel
