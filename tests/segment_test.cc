// Unit tests for the sealed run (instance/segment.h) and the run-backed
// paths on RelationInstance: seal-time sort+dedup, min/max probe skipping,
// shared-on-copy immutability, the single-range prefix probe, and the rule
// that the first successful mutation drops the run. The chase-level seal
// points and read agreement sweeps live in chase_diff_test.cc and
// incremental_test.cc; this file pins the building blocks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "instance/instance.h"
#include "instance/segment.h"
#include "instance/value.h"

namespace mm2::instance {
namespace {

Tuple Row(std::int64_t a, std::int64_t b) {
  return {Value::Int64(a), Value::Int64(b)};
}

TEST(SegmentInserterTest, SealSortsAndDeduplicates) {
  SegmentOpStats stats;
  SegmentInserter inserter(2);
  inserter.Add(Row(3, 1));
  inserter.Add(Row(1, 2));
  inserter.Add(Row(3, 1));  // duplicate
  inserter.Add(Row(1, 1));
  inserter.Add(Row(2, 9));
  EXPECT_EQ(inserter.pending_rows(), 5u);

  SegmentPtr seg = inserter.Seal(&stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(inserter.pending_rows(), 0u);  // reusable after seal
  EXPECT_EQ(seg->arity(), 2u);
  EXPECT_EQ(seg->rows(), 4u);

  std::vector<Tuple> expect = {Row(1, 1), Row(1, 2), Row(2, 9), Row(3, 1)};
  for (std::size_t r = 0; r < seg->rows(); ++r) {
    Tuple got;
    seg->CopyRow(r, &got);
    EXPECT_EQ(got, expect[r]) << "row " << r;
  }
  // Per-column bounds recorded at seal time.
  EXPECT_EQ(seg->col_min(0), Value::Int64(1));
  EXPECT_EQ(seg->col_max(0), Value::Int64(3));
  EXPECT_EQ(seg->col_min(1), Value::Int64(1));
  EXPECT_EQ(seg->col_max(1), Value::Int64(9));
  // Telemetry: one seal, the surviving rows, and sort work recorded.
  EXPECT_EQ(stats.seals, 1u);
  EXPECT_EQ(stats.sealed_rows, 4u);
  EXPECT_GT(stats.compares, 0u);
}

TEST(SegmentInserterTest, FromSortedCopiesSetOrderWithoutCompares) {
  std::set<Tuple> rows = {Row(2, 2), Row(1, 5), Row(2, 1)};
  SegmentOpStats stats;
  SegmentPtr seg = SegmentInserter::FromSorted(2, rows, &stats);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->rows(), 3u);
  std::size_t r = 0;
  for (const Tuple& t : rows) {
    Tuple got;
    seg->CopyRow(r++, &got);
    EXPECT_EQ(got, t);
  }
  // Set iteration is already sorted and unique: no comparison work.
  EXPECT_EQ(stats.compares, 0u);
  EXPECT_EQ(stats.seals, 1u);
  EXPECT_EQ(stats.sealed_rows, 3u);
}

TEST(SegmentProbeTest, EqualRangeFindsPrefixAndMinMaxSkips) {
  SegmentOpStats stats;
  SegmentInserter ins(2);
  for (std::int64_t x : {2, 2, 3, 5}) {
    ins.Add(Row(x, x * 10));
    ins.Add(Row(x, x * 10 + 1));
  }
  SegmentPtr seg = ins.Seal(&stats);

  // Prefix probe on column 0.
  Value key2[] = {Value::Int64(2)};
  SegmentOpStats probe;
  Segment::RowRange r = seg->EqualRange(key2, 1, &probe);
  EXPECT_EQ(r.end - r.begin, 2u);
  Tuple got;
  seg->CopyRow(r.begin, &got);
  EXPECT_EQ(got, Row(2, 20));
  EXPECT_EQ(probe.skips, 0u);

  // Key below min / above max: answered empty via bounds, counted as skip.
  Value low[] = {Value::Int64(0)};
  Value high[] = {Value::Int64(7)};
  SegmentOpStats skip;
  EXPECT_TRUE(seg->EqualRange(low, 1, &skip).empty());
  EXPECT_TRUE(seg->EqualRange(high, 1, &skip).empty());
  EXPECT_EQ(skip.skips, 2u);
  EXPECT_EQ(skip.compares, 0u);  // bounds check avoided the binary search

  // A full-width key is exact membership.
  SegmentOpStats member;
  EXPECT_FALSE(seg->EqualRange(Row(3, 30).data(), 2, &member).empty());
  EXPECT_TRUE(seg->EqualRange(Row(3, 35).data(), 2, &member).empty());
}

TEST(SortedHelperTest, CountedSortAndSortedContains) {
  std::vector<Tuple> rows = {Row(3, 0), Row(1, 0), Row(2, 0)};
  SegmentOpStats stats;
  CountedSort(&rows, &stats);
  EXPECT_EQ(rows.front(), Row(1, 0));
  EXPECT_EQ(rows.back(), Row(3, 0));
  EXPECT_GT(stats.compares, 0u);
  EXPECT_TRUE(SortedContains(rows, Row(2, 0), &stats));
  EXPECT_FALSE(SortedContains(rows, Row(4, 0), &stats));
}

TEST(RelationSegmentTest, PrepareSealsAndTracksCurrency) {
  RelationInstance rel(2);
  rel.Insert(Row(2, 2));
  rel.Insert(Row(1, 1));
  EXPECT_FALSE(rel.SegmentCurrent());

  rel.PrepareSegments();
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 2u);
  EXPECT_EQ(rel.live_runs(), 1u);
  EXPECT_EQ(rel.segment_stats().seals, 1u);

  // A current run makes a second seal a no-op.
  SegmentPtr sealed = rel.sealed_segment();
  rel.PrepareSegments();
  EXPECT_EQ(rel.sealed_segment().get(), sealed.get());
  EXPECT_EQ(rel.segment_stats().seals, 1u);

  // An insert drops the run; the next seal rebuilds it from the set.
  rel.Insert(Row(3, 3));
  EXPECT_FALSE(rel.SegmentCurrent());
  rel.PrepareSegments();
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 3u);
  EXPECT_EQ(rel.segment_stats().seals, 2u);
  EXPECT_EQ(rel.segment_stats().compares, 0u);  // set order: no sort
}

// The first successful mutation drops the run; a mutation that changes
// nothing keeps it.
TEST(RelationSegmentTest, FirstMutationDropsRun) {
  auto sealed = [] {
    RelationInstance rel(2);
    rel.Insert(Row(1, 1));
    rel.Insert(Row(2, 2));
    rel.PrepareSegments();
    return rel;
  };

  RelationInstance rel = sealed();
  EXPECT_FALSE(rel.Insert(Row(1, 1)));  // duplicate
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_FALSE(rel.Erase(Row(9, 9)));  // absent
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_TRUE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());

  EXPECT_TRUE(rel.Insert(Row(3, 3)));
  EXPECT_FALSE(rel.SegmentCurrent());
  EXPECT_EQ(rel.live_runs(), 0u);
  EXPECT_FALSE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());

  rel = sealed();
  EXPECT_TRUE(rel.Erase(Row(1, 1)));
  EXPECT_FALSE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_segment(), nullptr);

  rel = sealed();
  rel.Clear();
  EXPECT_FALSE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 0u);
}

TEST(RelationSegmentTest, CopySharesSealedSegment) {
  RelationInstance rel(2);
  rel.Insert(Row(1, 1));
  rel.Insert(Row(2, 2));
  rel.PrepareSegments();
  SegmentPtr sealed = rel.sealed_segment();
  ASSERT_NE(sealed, nullptr);

  RelationInstance copy(rel);
  EXPECT_EQ(copy.sealed_segment().get(), sealed.get());  // aliased, not deep
  EXPECT_TRUE(copy.SegmentCurrent());

  // Mutating the copy drops only the copy's run and reseals it
  // independently; the original's run and the shared immutable segment
  // are untouched.
  copy.Insert(Row(3, 3));
  EXPECT_FALSE(copy.SegmentCurrent());
  EXPECT_TRUE(rel.SegmentCurrent());
  copy.PrepareSegments();
  EXPECT_NE(copy.sealed_segment().get(), sealed.get());
  EXPECT_EQ(rel.sealed_segment().get(), sealed.get());
  EXPECT_EQ(sealed->rows(), 2u);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationSegmentTest, SegmentProbePrefixServesAndDeclines) {
  RelationInstance rel(2);
  rel.Insert(Row(1, 10));
  rel.Insert(Row(1, 11));
  rel.Insert(Row(2, 20));

  // Never sealed: declined, so the caller reads the set.
  EXPECT_FALSE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());
  EXPECT_EQ(rel.segment_stats().probes, 0u);

  rel.PrepareSegments();
  auto range = rel.SegmentProbePrefix({Value::Int64(1)});
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->size(), 2u);
  EXPECT_EQ(range->segment, rel.sealed_segment().get());
  Tuple got;
  range->segment->CopyRow(range->begin, &got);
  EXPECT_EQ(got, Row(1, 10));

  // An empty key selects every row of the run, in set order.
  auto all = rel.SegmentProbePrefix({});
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->begin, 0u);
  EXPECT_EQ(all->end, 3u);

  // An engaged-but-empty range still counts as a served probe.
  auto miss = rel.SegmentProbePrefix({Value::Int64(9)});
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->empty());
  EXPECT_EQ(rel.segment_stats().probes, 3u);
  EXPECT_EQ(rel.segment_stats().probe_hits, 5u);

  // A mutation since the seal dropped the run: declined again.
  rel.Insert(Row(3, 30));
  EXPECT_FALSE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());
}

TEST(InstanceSegmentTest, PrepareAllSegmentsSealsEveryRelation) {
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("S", 1);
  db.DeclareRelation("E", 1);  // empty: nothing to read, stays run-free
  db.InsertUnchecked("R", Row(1, 1));
  db.InsertUnchecked("R", Row(2, 2));
  db.InsertUnchecked("S", {Value::Int64(7)});
  db.PrepareAllSegments();
  EXPECT_TRUE(db.Find("R")->SegmentCurrent());
  EXPECT_TRUE(db.Find("S")->SegmentCurrent());
  EXPECT_FALSE(db.Find("E")->SegmentCurrent());
  EXPECT_EQ(db.Find("R")->sealed_rows(), 2u);
  EXPECT_EQ(db.SegmentStatsTotal().seals, 2u);
  EXPECT_EQ(db.SegmentShapeTotal().live_segments, 2u);
}

TEST(StorageModeTest, ResolveAndNames) {
  // One store: resolution is the identity and reads no environment.
  const char* saved = std::getenv("MM2_STORAGE");
  std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("MM2_STORAGE", "indexed", 1);
  EXPECT_EQ(ResolveStorageMode(StorageMode::kDefault), StorageMode::kDefault);
  EXPECT_STREQ(StorageModeName(ResolveStorageMode(StorageMode::kDefault)),
               "default");
  if (saved != nullptr) {
    ::setenv("MM2_STORAGE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("MM2_STORAGE");
  }
}

}  // namespace
}  // namespace mm2::instance
