// Tests: hmm::OnlineHmmSlab -- the struct-of-arrays lane storage behind the
// diagnosis tier's per-sensor stage. The slab's contract is BIT-IDENTITY
// with per-object OnlineHmm estimators: feed the same observations through
// a lane and through a standalone OnlineHmm, and materialize() must
// reproduce the standalone object exactly, checkpoint bytes included --
// after every observe, across lane counts that straddle a lane-capacity
// doubling, across whole-slab repacks, and across free/reopen recycling.
// TrackManager-level tests pin that the order lanes open in changes no
// byte, and that checkpoints round-trip out of slab storage.

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

// The pipeline observes each tracked sensor once per window. Lane counts
// straddle the slab's lane-capacity doubling at 256.
const std::vector<std::size_t> kLaneCounts = {1, 255, 256, 257};

TEST(HmmSlab, LanesMatchShadowOnlineHmmsAfterEveryObserve) {
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
      // One window: every lane observed once, in lane order, and each
      // materialized right after its own step.
      for (std::size_t l = 0; l < n_lanes; ++l) {
        const auto [h, sym] = streams[l].next();
        slab.observe(lanes[l], h, sym);
        shadows[l].observe(h, sym);
        ASSERT_EQ(test::text_bytes(slab.materialize(lanes[l])), test::text_bytes(shadows[l]))
            << "lanes=" << n_lanes << " window " << w << " lane " << l;
      }
    }
    // Later lanes' steps (and the repacks they caused) left earlier lanes
    // alone.
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
  EXPECT_EQ(slab.repacks(), 0u);

  // 20 hidden states and 40 symbols blow through the initial capacity of 4
  // several times over (doubling => multiple repacks).
  for (StateId h = 0; h < 20; ++h) {
    slab.observe(grower, h, h);
    shadow_gr.observe(h, h);
    slab.observe(grower, h, h + 100);
    shadow_gr.observe(h, h + 100);
  }
  EXPECT_GT(slab.repacks(), 0u);
  EXPECT_EQ(test::text_bytes(slab.materialize(grower)), test::text_bytes(shadow_gr));
  EXPECT_EQ(test::text_bytes(slab.materialize(bystander)), test::text_bytes(shadow_by));
}

TEST(HmmSlab, RepackMidWindowKeepsEarlierLanes) {
  // A lane opening mid-window can repack the slab after other lanes took
  // this window's step; the repack must carry those steps over intact.
  const OnlineHmmConfig cfg;
  OnlineHmmSlab slab(cfg);
  const std::uint32_t steady = slab.open_lane();
  OnlineHmm shadow_st(cfg);
  // Pre-warm so the steady lane has real EMA state.
  for (int i = 0; i < 5; ++i) {
    slab.observe(steady, static_cast<StateId>(i % 3), 7);
    shadow_st.observe(static_cast<StateId>(i % 3), 7);
  }

  const std::uint32_t spawned = slab.open_lane();
  OnlineHmm shadow_sp(cfg);
  // One window: steady observes first, THEN the spawned lane grows
  // capacity.
  slab.observe(steady, 1, 7);
  shadow_st.observe(1, 7);
  const std::size_t repacks_before = slab.repacks();
  for (StateId h = 0; h < 6; ++h) {  // > h_cap: forces grow_caps
    slab.observe(spawned, h, static_cast<StateId>(h + 50));
    shadow_sp.observe(h, static_cast<StateId>(h + 50));
  }
  EXPECT_GT(slab.repacks(), repacks_before);

  EXPECT_EQ(test::text_bytes(slab.materialize(steady)), test::text_bytes(shadow_st));
  EXPECT_EQ(test::text_bytes(slab.materialize(spawned)), test::text_bytes(shadow_sp));
}

TEST(HmmSlab, FreedLanesRecycleClean) {
  const OnlineHmmConfig cfg;
  OnlineHmmSlab slab(cfg);
  const std::uint32_t a = slab.open_lane();
  slab.observe(a, 3, 9);
  slab.observe(a, 4, 9);
  slab.free_lane(a);
  const std::uint32_t b = slab.open_lane();
  EXPECT_EQ(a, b);  // freelist recycles
  EXPECT_EQ(test::text_bytes(slab.materialize(b)), test::text_bytes(OnlineHmm(cfg)));
  slab.observe(b, 1, 2);
  OnlineHmm shadow(cfg);
  shadow.observe(1, 2);
  EXPECT_EQ(test::text_bytes(slab.materialize(b)), test::text_bytes(shadow));
}

// --- TrackManager over slab storage -----------------------------------------

TEST(HmmSlabTracks, LaneOpenOrderDoesNotChangeBytes) {
  // The pipeline takes each sensor's track edges and its observe together,
  // so a fresh sensor's track lane and its pooled-aggregate lane open
  // between other sensors' steps. Taking every edge of a window first and
  // its observes after (track lanes open together, aggregate lanes at the
  // observes) hands out other lane ids, and must write the same checkpoint.
  // Sensor s joins at window first(s), so a sensor spawns every window and
  // sensors 4 and 5 spawn together, growing lanes and capacities
  // mid-window; sensor 1's track closes and reopens.
  core::TrackManager interleaved{OnlineHmmConfig{}};
  core::TrackManager edges_first{OnlineHmmConfig{}};
  const auto first = [](SensorId s) { return s < 5 ? std::size_t{s} : std::size_t{s} - 1; };
  const auto opens = [&](SensorId s, std::size_t w) { return first(s) == w || (s == 1 && w == 7); };
  const auto closes = [](SensorId s, std::size_t w) { return s == 1 && w == 5; };
  const auto feed = [](core::TrackManager& tm, SensorId s, std::size_t w) {
    // Distinct states per step so capacities must grow past the initial 4.
    tm.observe(s, static_cast<StateId>((w + s) % 7), static_cast<StateId>(20 + (w + s) % 9));
  };
  const std::size_t windows = 12;
  for (std::size_t w = 0; w < windows; ++w) {
    for (SensorId s = 0; first(s) <= w; ++s) {
      if (opens(s, w)) interleaved.open(s, w);
      if (closes(s, w)) interleaved.close(s, w);
      feed(interleaved, s, w);
    }
    for (SensorId s = 0; first(s) <= w; ++s) {
      if (opens(s, w)) edges_first.open(s, w);
      if (closes(s, w)) edges_first.close(s, w);
    }
    for (SensorId s = 0; first(s) <= w; ++s) feed(edges_first, s, w);
  }

  // Sensor 4's aggregate lane opens before sensor 5's track lane in one
  // order and after it in the other.
  EXPECT_NE(interleaved.tracks(5)->back().lane, edges_first.tracks(5)->back().lane);
  EXPECT_GT(interleaved.slab().repacks(), 0u);
  EXPECT_EQ(test::text_bytes(interleaved), test::text_bytes(edges_first));
}

TEST(HmmSlabTracks, CheckpointRoundTripsByteStableFromSlabStorage) {
  // Active tracks live in slab lanes; save() materializes them on the way
  // out and load() adopts them back in. A second save must reproduce the
  // first byte-for-byte, and the reloaded manager must keep accepting
  // windows identically to the original.
  core::TrackManager tm{OnlineHmmConfig{}};
  std::vector<Stream> streams;
  for (SensorId s = 0; s < 9; ++s) {
    tm.open(s, 0);
    streams.emplace_back(s + 3);
  }
  for (int w = 0; w < 20; ++w) {
    for (SensorId s = 0; s < 9; ++s) {
      const auto [h, sym] = streams[s].next();
      tm.observe(s, h, sym);
    }
  }
  tm.close(2, 21);  // mix of closed (materialized) and active (slab) tracks

  const std::string first = test::text_bytes(tm);
  auto loaded = core::TrackManager::load(OnlineHmmConfig{}, test::ReaderOver(first));
  EXPECT_EQ(test::text_bytes(loaded), first);

  // Both managers keep evolving in lockstep after the round trip.
  for (int w = 0; w < 5; ++w) {
    for (SensorId s = 0; s < 9; ++s) {
      if (!tm.has_active_track(s)) continue;
      const auto [h, sym] = streams[s].next();
      tm.observe(s, h, sym);
      loaded.observe(s, h, sym);
    }
  }
  EXPECT_EQ(test::text_bytes(loaded), test::text_bytes(tm));
}

}  // namespace
}  // namespace sentinel::hmm
