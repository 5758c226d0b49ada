#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "support/rng.h"
#include "support/snapshot.h"
#include "support/status.h"
#include "support/strutil.h"

namespace repro {
namespace {

TEST(Strutil, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strutil, SplitAndTrimDropsEmptyPieces) {
  const auto parts = split_and_trim(" a; b ;; c ;", ';');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strutil, StartsWith) {
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strutil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Result, HoldsValueOrError) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  Result<int> bad(Error{"boom", 3});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.error().to_string(), "boom (at offset 3)");
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceZeroAndCertain) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}


// ---- Snapshot -------------------------------------------------------------

using support::Snapshot;

TEST(Snapshot, SetAndGetByName) {
  auto keys = std::make_shared<Snapshot::Keys>(Snapshot::Keys{"a", "b", "c"});
  Snapshot s(keys);
  s.set("b", 7);
  EXPECT_EQ(s.get("b"), std::optional<uint64_t>(7));
  EXPECT_EQ(s.get("a"), std::optional<uint64_t>(0));
  EXPECT_FALSE(s.get("missing").has_value());
  EXPECT_EQ(s.value("b"), 7u);
}

TEST(Snapshot, EmptySnapshotHasNoKeys) {
  Snapshot s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.get("x").has_value());
}

TEST(Snapshot, CopySharesKeysButNotValues) {
  auto keys = std::make_shared<Snapshot::Keys>(Snapshot::Keys{"a"});
  Snapshot first(keys);
  first.set("a", 1);
  Snapshot second = first;
  second.set("a", 2);
  EXPECT_EQ(first.get("a"), std::optional<uint64_t>(1));
  EXPECT_EQ(second.get("a"), std::optional<uint64_t>(2));
  EXPECT_EQ(first.keys(), second.keys());
}

TEST(Snapshot, IndexAccess) {
  auto keys = std::make_shared<Snapshot::Keys>(Snapshot::Keys{"x", "y"});
  Snapshot s(keys);
  s.set_at(1, 42);
  EXPECT_EQ(s.at(1), 42u);
  EXPECT_EQ(s.get("y"), std::optional<uint64_t>(42));
}

TEST(Snapshot, PairsBuildAKeyTableInTheGivenOrder) {
  const Snapshot s({{"z", 3}, {"a", 1}});
  ASSERT_NE(s.keys(), nullptr);
  EXPECT_EQ(*s.keys(), (Snapshot::Keys{"z", "a"}));
  EXPECT_EQ(s.at(0), 3u);
  EXPECT_EQ(s.value("a"), 1u);
}

// The one name lookup every checker goes through must name the missing
// signal and stop in every build type (an assert would vanish under NDEBUG).
TEST(SnapshotDeathTest, ValueOfMissingSignalFailsFastWithItsName) {
  const Snapshot s({{"a", 1}});
  EXPECT_DEATH(s.value("nosuch"),
               "signal 'nosuch' not in the observable key table");
}

TEST(SnapshotDeathTest, SetOfMissingSignalFailsFastWithItsName) {
  Snapshot s({{"a", 1}});
  EXPECT_DEATH(s.set("nosuch", 2),
               "signal 'nosuch' not in the observable key table");
}

TEST(SnapshotDeathTest, DuplicateNameInPairsFailsFastWithItsName) {
  EXPECT_DEATH(Snapshot({{"a", 1}, {"b", 2}, {"a", 3}}),
               "signal 'a' listed twice in an observable row");
}

TEST(SnapshotDeathTest, EmptySnapshotLookupFailsFastWithItsName) {
  const Snapshot s;
  EXPECT_DEATH(s.value("x"), "signal 'x' not in the observable key table");
}

}  // namespace
}  // namespace repro
