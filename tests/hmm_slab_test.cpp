// Tests: hmm::OnlineHmmSlab -- the struct-of-arrays lane storage behind the
// diagnosis tier's batched per-sensor stage. The slab's contract is
// BIT-IDENTITY with per-object OnlineHmm estimators: feed the same
// observations through a lane (batched observe + flush) and through a
// standalone OnlineHmm, and materialize() must reproduce the standalone
// object exactly, checkpoint bytes included -- across lane counts that
// straddle the pipeline's 256-sensor block size, across whole-slab repacks,
// and across free/reopen recycling. TrackManager-level tests pin the same
// property for the window bracket (begin_window/flush_window vs standalone
// observes) and for checkpoint round-trips out of slab storage.

#include "hmm/hmm_slab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/tracks.h"
#include "hmm/online_hmm.h"
#include "text_codec.h"

namespace sentinel::hmm {
namespace {

/// Deterministic per-lane observation stream: a handful of hidden states and
/// symbols (incl. bottom) so rows churn without unbounded growth.
struct Stream {
  std::uint64_t x;
  explicit Stream(std::uint64_t seed) : x(seed * 2654435761u + 1) {}
  std::pair<StateId, StateId> next() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto h = static_cast<StateId>((x >> 33) % 5);
    const auto sym = ((x >> 17) % 4 == 0) ? kBottomSymbol : static_cast<StateId>((x >> 20) % 6 + 10);
    return {h, sym};
  }
};

// The pipeline batches one observation per tracked sensor per window. Lane
// counts straddle its 256-sensor block: 1, block-1, block, block+1.
const std::vector<std::size_t> kLaneCounts = {1, 255, 256, 257};

TEST(HmmSlab, BatchedLanesMatchShadowOnlineHmmsBitExactly) {
  const OnlineHmmConfig cfg;
  for (const std::size_t n_lanes : kLaneCounts) {
    OnlineHmmSlab slab(cfg);
    std::vector<std::uint32_t> lanes(n_lanes);
    std::vector<OnlineHmm> shadows(n_lanes, OnlineHmm(cfg));
    std::vector<Stream> streams;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      lanes[l] = slab.open_lane();
      streams.emplace_back(l + 1);
    }
    const std::size_t windows = n_lanes == 1 ? 200 : 12;
    for (std::size_t w = 0; w < windows; ++w) {
      // One window: every lane observed once, all EMA updates batched into
      // a single flush -- the pipeline's begin/flush bracket.
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const auto [h, sym] = streams[l].next();
        slab.observe(lanes[l], h, sym);
        shadows[l].observe(h, sym);
      }
      slab.flush();
    }
    for (std::size_t l = 0; l < n_lanes; ++l) {
      ASSERT_EQ(test::text_bytes(slab.materialize(lanes[l])), test::text_bytes(shadows[l]))
          << "lanes=" << n_lanes << " lane " << l;
    }
  }
}

TEST(HmmSlab, RepackPreservesEveryLaneBitExactly) {
  // Growing one lane past the shared (hidden, symbol) capacity repacks the
  // WHOLE slab; every other lane must come through untouched.
  const OnlineHmmConfig cfg;
  OnlineHmmSlab slab(cfg);
  const std::uint32_t bystander = slab.open_lane();
  const std::uint32_t grower = slab.open_lane();
  OnlineHmm shadow_by(cfg);
  OnlineHmm shadow_gr(cfg);

  slab.observe(bystander, 1, 7);
  shadow_by.observe(1, 7);
  slab.flush();
  EXPECT_EQ(slab.repacks(), 0u);

  // 20 hidden states and 40 symbols blow through the initial capacity of 4
  // several times over (doubling => multiple repacks).
  for (StateId h = 0; h < 20; ++h) {
    slab.observe(grower, h, h);
    shadow_gr.observe(h, h);
    slab.flush();
    slab.observe(grower, h, h + 100);
    shadow_gr.observe(h, h + 100);
    slab.flush();
  }
  EXPECT_GT(slab.repacks(), 0u);
  EXPECT_EQ(test::text_bytes(slab.materialize(grower)), test::text_bytes(shadow_gr));
  EXPECT_EQ(test::text_bytes(slab.materialize(bystander)), test::text_bytes(shadow_by));
}

TEST(HmmSlab, RepackBetweenObserveAndFlushIsSafe) {
  // A lane opening mid-window can repack the slab while other lanes hold
  // pending batched updates; flush offsets are computed at flush time, so
  // the pending rows land in the repacked tiles correctly.
  const OnlineHmmConfig cfg;
  OnlineHmmSlab slab(cfg);
  const std::uint32_t steady = slab.open_lane();
  OnlineHmm shadow_st(cfg);
  // Pre-warm so the steady lane has real EMA state.
  for (int i = 0; i < 5; ++i) {
    slab.observe(steady, static_cast<StateId>(i % 3), 7);
    shadow_st.observe(static_cast<StateId>(i % 3), 7);
    slab.flush();
  }

  const std::uint32_t spawned = slab.open_lane();
  OnlineHmm shadow_sp(cfg);
  // One window: steady observes first (pending), THEN the spawned lane
  // grows capacity before the flush.
  slab.observe(steady, 1, 7);
  shadow_st.observe(1, 7);
  const std::size_t repacks_before = slab.repacks();
  for (StateId h = 0; h < 6; ++h) {  // > h_cap: forces grow_caps pre-flush
    slab.observe(spawned, h, static_cast<StateId>(h + 50));
    shadow_sp.observe(h, static_cast<StateId>(h + 50));
  }
  EXPECT_GT(slab.repacks(), repacks_before);
  slab.flush();

  EXPECT_EQ(test::text_bytes(slab.materialize(steady)), test::text_bytes(shadow_st));
  EXPECT_EQ(test::text_bytes(slab.materialize(spawned)), test::text_bytes(shadow_sp));
}

TEST(HmmSlab, FreedLanesRecycleClean) {
  const OnlineHmmConfig cfg;
  OnlineHmmSlab slab(cfg);
  const std::uint32_t a = slab.open_lane();
  slab.observe(a, 3, 9);
  slab.observe(a, 4, 9);
  slab.flush();
  slab.free_lane(a);
  const std::uint32_t b = slab.open_lane();
  EXPECT_EQ(a, b);  // freelist recycles
  EXPECT_EQ(test::text_bytes(slab.materialize(b)), test::text_bytes(OnlineHmm(cfg)));
  slab.observe(b, 1, 2);
  slab.flush();
  OnlineHmm shadow(cfg);
  shadow.observe(1, 2);
  EXPECT_EQ(test::text_bytes(slab.materialize(b)), test::text_bytes(shadow));
}

// --- TrackManager over slab storage -----------------------------------------

TEST(HmmSlabTracks, WindowBracketMatchesStandaloneObserves) {
  // Same opens/observes/closes through (a) the pipeline's batched
  // begin_window/flush_window bracket and (b) standalone observes that
  // flush one at a time. Checkpoints must be byte-identical at every
  // block-straddling sensor count.
  for (const std::size_t n_sensors : kLaneCounts) {
    core::TrackManager batched{OnlineHmmConfig{}};
    core::TrackManager unbatched{OnlineHmmConfig{}};
    for (std::size_t s = 0; s < n_sensors; ++s) {
      batched.open(static_cast<SensorId>(s), 0);
      unbatched.open(static_cast<SensorId>(s), 0);
    }
    std::vector<Stream> streams;
    std::vector<Stream> streams2;
    for (std::size_t s = 0; s < n_sensors; ++s) {
      streams.emplace_back(s + 7);
      streams2.emplace_back(s + 7);
    }
    const std::size_t windows = n_sensors == 1 ? 64 : 6;
    for (std::size_t w = 1; w <= windows; ++w) {
      batched.begin_window();
      for (std::size_t s = 0; s < n_sensors; ++s) {
        const auto [h, sym] = streams[s].next();
        batched.observe(static_cast<SensorId>(s), h, sym);
      }
      batched.flush_window();
      for (std::size_t s = 0; s < n_sensors; ++s) {
        const auto [h, sym] = streams2[s].next();
        unbatched.observe(static_cast<SensorId>(s), h, sym);
      }
    }
    // Close every other sensor's track so both storage paths (materialized
    // m_ce and live lane) appear in the checkpoint.
    for (std::size_t s = 0; s < n_sensors; s += 2) {
      batched.close(static_cast<SensorId>(s), windows + 1);
      unbatched.close(static_cast<SensorId>(s), windows + 1);
    }
    ASSERT_EQ(test::text_bytes(batched), test::text_bytes(unbatched)) << "sensors=" << n_sensors;
  }
}

TEST(HmmSlabTracks, SpawnMidWindowRepacksAndStaysIdentical) {
  // Tracks opening mid-window (fresh sensors escalating) grow the slab --
  // lanes AND capacities -- while earlier observes of the same window are
  // still pending. The repack must be visible in the metric and the result
  // still byte-identical to the unbatched run.
  core::TrackManager batched{OnlineHmmConfig{}};
  core::TrackManager unbatched{OnlineHmmConfig{}};
  auto feed = [](core::TrackManager& tm, SensorId s, std::size_t i) {
    // Distinct states per step so capacities must grow past the initial 4.
    tm.observe(s, static_cast<StateId>(i % 7), static_cast<StateId>(20 + i % 9));
  };
  batched.open(0, 0);
  unbatched.open(0, 0);

  const std::size_t windows = 12;
  for (std::size_t w = 0; w < windows; ++w) {
    // Batched run: the new sensor of the window spawns (and observes) AFTER
    // earlier sensors queued their pending updates.
    batched.begin_window();
    for (SensorId s = 0; s <= w; ++s) {
      if (s == w && w > 0) batched.open(s, w);  // spawn mid-window
      feed(batched, s, w + s);
    }
    batched.flush_window();

    for (SensorId s = 0; s <= w; ++s) {
      if (s == w && w > 0) unbatched.open(s, w);
      feed(unbatched, s, w + s);
    }
  }

  EXPECT_GT(batched.slab().repacks(), 0u);
  EXPECT_EQ(test::text_bytes(batched), test::text_bytes(unbatched));
}

TEST(HmmSlabTracks, CheckpointRoundTripsByteStableFromSlabStorage) {
  // Active tracks live in slab lanes; save() materializes them on the way
  // out and load() adopts them back in. A second save must reproduce the
  // first byte-for-byte, and the reloaded manager must keep accepting
  // batched windows identically to the original.
  core::TrackManager tm{OnlineHmmConfig{}};
  std::vector<Stream> streams;
  for (SensorId s = 0; s < 9; ++s) {
    tm.open(s, 0);
    streams.emplace_back(s + 3);
  }
  for (int w = 0; w < 20; ++w) {
    tm.begin_window();
    for (SensorId s = 0; s < 9; ++s) {
      const auto [h, sym] = streams[s].next();
      tm.observe(s, h, sym);
    }
    tm.flush_window();
  }
  tm.close(2, 21);  // mix of closed (materialized) and active (slab) tracks

  const std::string first = test::text_bytes(tm);
  auto loaded = core::TrackManager::load(OnlineHmmConfig{}, test::ReaderOver(first));
  EXPECT_EQ(test::text_bytes(loaded), first);

  // Both managers keep evolving in lockstep after the round trip.
  for (int w = 0; w < 5; ++w) {
    tm.begin_window();
    loaded.begin_window();
    for (SensorId s = 0; s < 9; ++s) {
      if (!tm.has_active_track(s)) continue;
      const auto [h, sym] = streams[s].next();
      tm.observe(s, h, sym);
      loaded.observe(s, h, sym);
    }
    tm.flush_window();
    loaded.flush_window();
  }
  EXPECT_EQ(test::text_bytes(loaded), test::text_bytes(tm));
}

}  // namespace
}  // namespace sentinel::hmm
