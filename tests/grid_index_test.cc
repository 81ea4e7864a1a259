// Uniform grid spatial index, validated against brute force.
#include "storage/grid_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bqs {
namespace {

TEST(GridIndexTest, InsertAndQueryBasics) {
  GridIndex index(10.0);
  index.Insert(1, {0, 0});
  index.Insert(2, {5, 5});
  index.Insert(3, {100, 100});
  EXPECT_EQ(index.size(), 3u);

  auto hits = index.Query({0, 0}, 8.0);
  std::sort(hits.begin(), hits.end());
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(GridIndexTest, RemoveWorksAndReportsAbsence) {
  GridIndex index(10.0);
  index.Insert(1, {3, 3});
  EXPECT_TRUE(index.Remove(1, {3, 3}));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.Remove(1, {3, 3}));
  EXPECT_FALSE(index.Remove(99, {50, 50}));
  EXPECT_TRUE(index.Query({3, 3}, 5.0).empty());
}

TEST(GridIndexTest, NegativeCoordinates) {
  GridIndex index(25.0);
  index.Insert(1, {-100, -100});
  index.Insert(2, {-101, -99});
  const auto hits = index.Query({-100, -100}, 3.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(GridIndexTest, MatchesBruteForce) {
  Rng rng(55);
  GridIndex index(50.0);
  std::vector<std::pair<uint64_t, Vec2>> all;
  for (uint64_t id = 0; id < 500; ++id) {
    const Vec2 pos{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
    index.Insert(id, pos);
    all.emplace_back(id, pos);
  }
  for (int q = 0; q < 100; ++q) {
    const Vec2 center{rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)};
    const double radius = rng.Uniform(1.0, 300.0);
    auto hits = index.Query(center, radius);
    std::sort(hits.begin(), hits.end());
    std::vector<uint64_t> expected;
    for (const auto& [id, pos] : all) {
      if (DistanceSq(pos, center) <= radius * radius) expected.push_back(id);
    }
    EXPECT_EQ(hits, expected);
  }
}

TEST(GridIndexTest, RemovalKeepsQueriesConsistent) {
  Rng rng(56);
  GridIndex index(20.0);
  std::vector<std::pair<uint64_t, Vec2>> alive;
  for (uint64_t id = 0; id < 200; ++id) {
    const Vec2 pos{rng.Uniform(0, 500), rng.Uniform(0, 500)};
    index.Insert(id, pos);
    alive.emplace_back(id, pos);
  }
  // Remove every third entry.
  for (std::size_t i = alive.size(); i-- > 0;) {
    if (i % 3 == 0) {
      EXPECT_TRUE(index.Remove(alive[i].first, alive[i].second));
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  EXPECT_EQ(index.size(), alive.size());
  auto hits = index.Query({250, 250}, 400.0);
  std::sort(hits.begin(), hits.end());
  std::vector<uint64_t> expected;
  for (const auto& [id, pos] : alive) {
    if (DistanceSq(pos, {250, 250}) <= 400.0 * 400.0) {
      expected.push_back(id);
    }
  }
  EXPECT_EQ(hits, expected);
}

TEST(GridIndexTest, HugeRadiusWalksOccupiedCellsQuickly) {
  // ~500 m cells: a 1e9 m radius would sweep ~1.6e13 cells, and the
  // far-out query's cell coordinates do not fit an int64_t.
  Rng rng(57);
  GridIndex index(500.0);
  std::vector<std::pair<uint64_t, Vec2>> all;
  for (uint64_t id = 0; id < 2000; ++id) {
    const Vec2 pos{rng.Uniform(-2e6, 2e6), rng.Uniform(-2e6, 2e6)};
    index.Insert(id, pos);
    all.emplace_back(id, pos);
  }
  const auto expect_brute_force = [&](Vec2 center, double radius) {
    std::vector<uint64_t> hits = index.Query(center, radius);
    std::sort(hits.begin(), hits.end());
    std::vector<uint64_t> expected;
    for (const auto& [id, pos] : all) {
      if (DistanceSq(pos, center) <= radius * radius) expected.push_back(id);
    }
    EXPECT_EQ(hits, expected) << radius;
  };
  const auto begin = std::chrono::steady_clock::now();
  expect_brute_force({0, 0}, 1e9);
  expect_brute_force({1e6, -1e6}, 1.5e6);
  expect_brute_force({0, 0}, 1e300);
  expect_brute_force({1e30, 1e30}, 1e31);
  expect_brute_force({-1e25, 0}, 10.0);
  expect_brute_force({0, 0}, std::numeric_limits<double>::infinity());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(index.Query({nan, 0}, 100.0).empty());
  EXPECT_TRUE(index.Query({0, 0}, nan).empty());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  const double seconds = elapsed.count();
  EXPECT_LT(seconds, 1.0);
}

TEST(GridIndexTest, OccupiedCellWalkKeepsSweepOrder) {
  // Same entries in two indexes; `sparse` has few cells so a mid-size
  // query walks its occupied cells, `dense` has far-away filler cells so
  // the same query sweeps. Both must list the same ids in the same order.
  Rng rng(58);
  GridIndex sparse(10.0);
  GridIndex dense(10.0);
  for (uint64_t id = 0; id < 300; ++id) {
    const Vec2 pos{rng.Uniform(-200, 200), rng.Uniform(-200, 200)};
    sparse.Insert(id, pos);
    dense.Insert(id, pos);
  }
  for (uint64_t id = 1000; id < 6000; ++id) {
    dense.Insert(id, {1e6 + 10.0 * static_cast<double>(id), 1e6});
  }
  for (int q = 0; q < 50; ++q) {
    const Vec2 center{rng.Uniform(-200, 200), rng.Uniform(-200, 200)};
    const double radius = rng.Uniform(150.0, 300.0);
    const std::vector<uint64_t> walked = sparse.Query(center, radius);
    EXPECT_EQ(walked, dense.Query(center, radius));
    EXPECT_FALSE(walked.empty());
  }
}

TEST(GridIndexTest, ClearEmptiesEverything) {
  GridIndex index(10.0);
  index.Insert(1, {1, 1});
  index.Insert(2, {2, 2});
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Query({1, 1}, 100.0).empty());
}

}  // namespace
}  // namespace bqs
