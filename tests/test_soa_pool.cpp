// The hot-state pool (sim/soa_pool.hpp) and the commit-phase lane sweeps
// (commit_lanes_dense/commit_lanes_sparse in sim/simulator.hpp).
//
// The sweeps are checked lane-for-lane against a reference commit over
// every short pool length, including the clean-lane no-op invariant the
// dense sweep relies on. The handle tests cover PooledWords/PooledCycle
// adoption semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/soa_pool.hpp"

namespace axihc {
namespace {

std::vector<ChannelHot> make_lanes(std::size_t n) {
  std::vector<ChannelHot> lanes(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChannelHot& h = lanes[i];
    h.head = static_cast<std::uint32_t>(i * 3);
    h.committed = static_cast<std::uint32_t>(i % 5);
    if (i % 3 == 0) {
      // Clean lane: staged == 0, snapshot == committed (the dense-sweep
      // no-op invariant).
      h.staged = 0;
      h.snapshot = h.committed;
    } else {
      h.staged = static_cast<std::uint32_t>(1 + i % 4);
      h.snapshot = h.committed + (i % 2);
    }
  }
  return lanes;
}

void commit_reference(ChannelHot& h) {
  h.committed += h.staged;
  h.staged = 0;
  h.snapshot = h.committed;
}

bool equal_lanes(const std::vector<ChannelHot>& a,
                 const std::vector<ChannelHot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head || a[i].committed != b[i].committed ||
        a[i].staged != b[i].staged || a[i].snapshot != b[i].snapshot) {
      return false;
    }
  }
  return true;
}

TEST(CommitKernels, DenseMatchesReferenceEveryTailShape) {
  for (std::size_t n = 0; n <= 19; ++n) {
    std::vector<ChannelHot> expected = make_lanes(n);
    for (ChannelHot& h : expected) commit_reference(h);
    std::vector<ChannelHot> lanes = make_lanes(n);
    commit_lanes_dense(lanes.data(), n);
    EXPECT_TRUE(equal_lanes(lanes, expected)) << "n=" << n;
  }
}

TEST(CommitKernels, DenseIsNoOpOnCleanLanes) {
  // A committed pool is all-clean; a second dense sweep must change nothing
  // (this is what lets the kernel sweep the whole pool when only some lanes
  // are dirty).
  std::vector<ChannelHot> lanes = make_lanes(16);
  for (ChannelHot& h : lanes) commit_reference(h);
  const std::vector<ChannelHot> snapshot = lanes;
  commit_lanes_dense(lanes.data(), lanes.size());
  EXPECT_TRUE(equal_lanes(lanes, snapshot));
}

TEST(CommitKernels, SparseMatchesReferenceAndSkipsOthers) {
  const std::vector<std::uint32_t> dirty = {1, 4, 5, 11};
  std::vector<ChannelHot> expected = make_lanes(12);
  for (std::uint32_t lane : dirty) commit_reference(expected[lane]);
  std::vector<ChannelHot> lanes = make_lanes(12);
  commit_lanes_sparse(lanes.data(), dirty.data(), dirty.size());
  EXPECT_TRUE(equal_lanes(lanes, expected));
}

TEST(PooledWords, InlineThenAdoptedKeepsValuesAndWrites) {
  HotStatePool pool;
  PooledWords w(std::vector<std::uint32_t>{10, 20, 30});
  EXPECT_EQ(w.size(), 3u);
  w[1] = 21;  // pre-adoption write goes to inline storage
  w.adopt(pool, nullptr, "test_words");
  EXPECT_EQ(w.get(0), 10u);
  EXPECT_EQ(w.get(1), 21u);
  EXPECT_EQ(w.get(2), 30u);
  w[2] = 31;  // post-adoption write goes to the pool slot
  EXPECT_EQ(w.get(2), 31u);
  w = std::vector<std::uint32_t>{1, 2, 3};  // same-size assign, post-adopt
  EXPECT_EQ(w.get(0), 1u);
  ASSERT_EQ(pool.slots().size(), 1u);
  EXPECT_EQ(pool.slots()[0].what, "test_words");
  EXPECT_EQ(pool.slots()[0].words, 3u);
}

TEST(PooledWords, HandlesSurviveLaterAllocations) {
  HotStatePool pool;
  PooledWords first(std::vector<std::uint32_t>{7});
  first.adopt(pool, nullptr, "first");
  const std::uint32_t* before = first.begin();
  for (int i = 0; i < 64; ++i) {
    PooledWords extra(std::vector<std::uint32_t>(17, 0));
    extra.adopt(pool, nullptr, "extra");
  }
  EXPECT_EQ(first.begin(), before);  // per-slot blocks: no relocation
  EXPECT_EQ(first.get(0), 7u);
}

TEST(PooledCycle, AdoptPreservesValue) {
  HotStatePool pool;
  PooledCycle c(42);
  EXPECT_EQ(c.get(), 42u);
  c.adopt(pool, nullptr, "deadline");
  EXPECT_EQ(c.get(), 42u);
  c.set(99);
  EXPECT_EQ(c.get(), 99u);
}

}  // namespace
}  // namespace axihc
