// The endurance soak's drift gate (soak::detect_drift, DESIGN.md §15): a
// bounded sawtooth and a one-time step must pass, climbing minima must fail,
// and too short a series must never fail.
#include <gtest/gtest.h>

#include <vector>

#include "soak/soak.h"

namespace dpg::soak {
namespace {

constexpr std::size_t kWarmup = 6;
constexpr double kBound = 0.10;

// 33 samples (one per tick plus tick 0) of a three-step sawtooth whose
// minima rise by `climb` per period.
std::vector<double> sawtooth(double climb) {
  std::vector<double> xs;
  for (std::size_t i = 0; i <= kTicks; ++i) {
    xs.push_back(500.0 + 40.0 * static_cast<double>(i % 3) +
                 climb * static_cast<double>(i / 3));
  }
  return xs;
}

TEST(DriftGate, FlatSawtoothPasses) {
  const SeriesDrift d = detect_drift("vma", sawtooth(0), kWarmup, kBound, true);
  EXPECT_GT(d.samples, 1u);
  EXPECT_FALSE(d.failed) << "relative drift " << d.relative_drift;
  EXPECT_LT(d.relative_drift, kBound);
}

TEST(DriftGate, ClimbingMinimaFail) {
  // Minima climb 25 a period: about +16% over the gated half.
  const SeriesDrift d =
      detect_drift("vma", sawtooth(25), kWarmup, kBound, true);
  EXPECT_TRUE(d.failed);
  EXPECT_GT(d.relative_drift, kBound);
  // The same series ungated is reported, never failed.
  EXPECT_FALSE(
      detect_drift("vma", sawtooth(25), kWarmup, kBound, false).failed);
}

TEST(DriftGate, OneTimeStepInTheFirstHalfPasses) {
  // The fault pulse's shape: flat, a step up by a third at tick 11, flat.
  std::vector<double> xs;
  for (std::size_t i = 0; i <= kTicks; ++i) xs.push_back(i < 11 ? 540 : 720);
  const SeriesDrift d = detect_drift("vma", xs, kWarmup, kBound, true);
  EXPECT_FALSE(d.failed) << "relative drift " << d.relative_drift;
  EXPECT_EQ(d.first, 720);
  EXPECT_EQ(d.last, 720);
}

TEST(DriftGate, FewerThanWarmupPlusTwoSamplesNeverFail) {
  for (std::size_t n = 0; n < kWarmup + 2; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(100.0 * (i + 1) * (i + 1));
    const SeriesDrift d = detect_drift("vma", xs, kWarmup, kBound, true);
    EXPECT_FALSE(d.failed) << n << " samples";
  }
}

}  // namespace
}  // namespace dpg::soak
