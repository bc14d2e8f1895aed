// Unit tests for the columnar segment layer (instance/segment.h) and the
// segment-backed paths on RelationInstance: seal-time sort+dedup, k-way
// merge order, min/max probe skipping, shared-on-copy immutability, the
// incremental tail reseal, and the batched RetainExisting merge with its
// set-probe fallback. The chase-level bit-identity sweeps live in
// chase_diff_test.cc; this file pins the building blocks.
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

TEST(SegmentMergeTest, MergeIteratorYieldsSortedUnion) {
  SegmentOpStats stats;
  SegmentInserter a(2);
  a.Add(Row(1, 1));
  a.Add(Row(3, 3));
  a.Add(Row(5, 5));
  SegmentInserter b(2);
  b.Add(Row(2, 2));
  b.Add(Row(3, 3));  // overlaps a
  b.Add(Row(4, 4));
  SegmentPtr sa = a.Seal(&stats);
  SegmentPtr sb = b.Seal(&stats);

  std::vector<Tuple> merged;
  for (SegmentMergeIterator it({sa, sb}, &stats); !it.Done(); it.Advance()) {
    merged.push_back(it.Row());
  }
  std::vector<Tuple> expect = {Row(1, 1), Row(2, 2), Row(3, 3), Row(4, 4),
                               Row(5, 5)};
  EXPECT_EQ(merged, expect);
}

TEST(SegmentMergeTest, MergeSegmentsDedupsAndPassesThroughSingletons) {
  SegmentOpStats stats;
  SegmentInserter a(2);
  a.Add(Row(1, 1));
  a.Add(Row(2, 2));
  SegmentInserter b(2);
  b.Add(Row(2, 2));
  b.Add(Row(0, 9));
  SegmentPtr sa = a.Seal(&stats);
  SegmentPtr sb = b.Seal(&stats);

  SegmentPtr merged = MergeSegments({sa, sb}, &stats);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->rows(), 3u);
  Tuple first;
  merged->CopyRow(0, &first);
  EXPECT_EQ(first, Row(0, 9));
  EXPECT_GE(stats.merges, 1u);
  EXPECT_GE(stats.merged_rows, 3u);

  // A single live input is a passthrough: same object, no copy.
  SegmentOpStats solo;
  SegmentPtr same = MergeSegments({sa, nullptr}, &solo);
  EXPECT_EQ(same.get(), sa.get());
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

  // Exact membership.
  SegmentOpStats member;
  EXPECT_TRUE(seg->Contains(Row(3, 30), &member));
  EXPECT_FALSE(seg->Contains(Row(3, 35), &member));
  EXPECT_FALSE(seg->Contains(Row(9, 0), &member));  // min/max skip path
  EXPECT_GE(member.skips, 1u);
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
  rel.set_storage_mode(StorageMode::kSegmented);
  rel.Insert(Row(2, 2));
  rel.Insert(Row(1, 1));
  EXPECT_FALSE(rel.SegmentCurrent());

  rel.PrepareSegments();
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 2u);

  // Insert-only epoch: currency drops, reseal merges the tail.
  rel.Insert(Row(3, 3));
  EXPECT_FALSE(rel.SegmentCurrent());
  SegmentOpStats before = rel.segment_stats();
  rel.PrepareSegments();
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 3u);
  SegmentOpStats after = rel.segment_stats();
  EXPECT_GE(after.merges, before.merges + 1);  // tail merged, not rebuilt

  // Erase invalidates the view and forces a full rebuild.
  rel.Erase(Row(2, 2));
  EXPECT_FALSE(rel.SegmentCurrent());
  rel.PrepareSegments();
  EXPECT_TRUE(rel.SegmentCurrent());
  EXPECT_EQ(rel.sealed_rows(), 2u);
}

TEST(RelationSegmentTest, CopySharesSealedSegment) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  rel.Insert(Row(1, 1));
  rel.Insert(Row(2, 2));
  rel.PrepareSegments();
  SegmentPtr sealed = rel.sealed_segment();
  ASSERT_NE(sealed, nullptr);

  RelationInstance copy(rel);
  EXPECT_EQ(copy.sealed_segment().get(), sealed.get());  // aliased, not deep
  EXPECT_TRUE(copy.SegmentCurrent());

  // Mutating the copy reseals it independently; the original's view and
  // the shared immutable segment are untouched.
  copy.Insert(Row(3, 3));
  copy.PrepareSegments();
  EXPECT_NE(copy.sealed_segment().get(), sealed.get());
  EXPECT_EQ(rel.sealed_segment().get(), sealed.get());
  EXPECT_EQ(sealed->rows(), 2u);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationSegmentTest, SegmentProbePrefixServesAndDeclines) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  rel.Insert(Row(1, 10));
  rel.Insert(Row(1, 11));
  rel.Insert(Row(2, 20));

  // Never sealed: declined, and the decline is booked as a fallback so a
  // segmented session that silently never serves probes is visible.
  EXPECT_FALSE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());
  EXPECT_EQ(rel.segment_stats().fallbacks, 1u);

  rel.PrepareSegments();
  auto ranges = rel.SegmentProbePrefix({Value::Int64(1)});
  ASSERT_TRUE(ranges.has_value());
  ASSERT_EQ(ranges->count, 1u);
  EXPECT_EQ(ranges->rows, 2u);
  const SegmentRanges::Entry& entry = ranges->entries[0];
  EXPECT_EQ(entry.end - entry.begin, 2u);
  Tuple got;
  entry.segment->CopyRow(entry.begin, &got);
  EXPECT_EQ(got, Row(1, 10));

  // An engaged-but-empty range still counts as a served probe.
  auto miss = rel.SegmentProbePrefix({Value::Int64(9)});
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->empty());
  EXPECT_GE(rel.segment_stats().probes, 2u);

  // Stale view (tail insert since the seal): declined with a fallback tick.
  rel.Insert(Row(3, 30));
  std::uint64_t fallbacks = rel.segment_stats().fallbacks;
  EXPECT_FALSE(rel.SegmentProbePrefix({Value::Int64(1)}).has_value());
  EXPECT_EQ(rel.segment_stats().fallbacks, fallbacks + 1);
}

TEST(RelationSegmentTest, RetainExistingMergesAgainstSealedAndTail) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  rel.Insert(Row(1, 1));
  rel.Insert(Row(3, 3));
  rel.PrepareSegments();
  rel.Insert(Row(5, 5));  // unsealed tail — still answered exactly

  std::vector<Tuple> cands = {Row(0, 0), Row(1, 1), Row(2, 2), Row(3, 3),
                              Row(5, 5), Row(9, 9)};
  std::vector<const Tuple*> ptrs;
  for (const Tuple& t : cands) ptrs.push_back(&t);
  std::vector<char> present;
  rel.RetainExisting(ptrs, &present);
  std::vector<char> expect = {0, 1, 0, 1, 1, 0};
  EXPECT_EQ(present, expect);

  SegmentOpStats stats = rel.segment_stats();
  EXPECT_GE(stats.retain_batches, 1u);
  EXPECT_EQ(stats.retain_hits, 3u);
  EXPECT_EQ(stats.fallbacks, 0u);  // merge path, not set probes
}

TEST(RelationSegmentTest, RetainExistingFallsBackWithoutSegments) {
  RelationInstance rel(2);  // kIndexed: no sealed view
  rel.Insert(Row(1, 1));
  rel.Insert(Row(2, 2));

  std::vector<Tuple> cands = {Row(1, 1), Row(4, 4)};
  std::vector<const Tuple*> ptrs = {&cands[0], &cands[1]};
  std::vector<char> present;
  rel.RetainExisting(ptrs, &present);
  std::vector<char> expect = {1, 0};
  EXPECT_EQ(present, expect);
  SegmentOpStats stats = rel.segment_stats();
  EXPECT_GE(stats.fallbacks, 1u);  // answered by set probes
  EXPECT_EQ(stats.retain_hits, 1u);
}

TEST(InstanceSegmentTest, SetStorageModePropagatesToRelations) {
  Instance db;
  db.SetStorageMode(StorageMode::kSegmented);
  db.DeclareRelation("R", 2);  // declared after: inherits the mode
  db.InsertUnchecked("R", Row(1, 1));
  db.InsertUnchecked("R", Row(2, 2));
  db.PrepareAllSegments();

  const RelationInstance* rel = db.Find("R");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->storage_mode(), StorageMode::kSegmented);
  EXPECT_TRUE(rel->SegmentCurrent());
  EXPECT_EQ(rel->sealed_rows(), 2u);
  EXPECT_GE(db.SegmentStatsTotal().seals, 1u);
}

// Tail seals accumulate sealed runs without touching the base run until a
// tier fills up: a 1-row tail against a much larger base stays its own run.
TEST(RelationSegmentTest, TailSealAddsRunWithoutMergingBase) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  SegmentPolicy policy;
  policy.tier_ratio = 2;
  policy.max_runs = 6;
  rel.set_segment_policy(policy);
  for (std::int64_t i = 0; i < 16; ++i) rel.Insert(Row(i, i));
  rel.PrepareSegments();
  ASSERT_EQ(rel.live_runs(), 1u);
  SegmentPtr base = rel.sealed_segment();

  // A small tail (7 rows; 7*2 < 16) seals into its own run: the base
  // segment is untouched (same object) and no compaction fires.
  for (std::int64_t i = 100; i < 107; ++i) rel.Insert(Row(i, i));
  std::uint64_t compactions0 = rel.segment_stats().compactions;
  rel.PrepareSegments();
  EXPECT_EQ(rel.live_runs(), 2u);
  EXPECT_EQ(rel.sealed_segment().get(), base.get());
  EXPECT_EQ(rel.segment_stats().compactions, compactions0);
  EXPECT_EQ(rel.sealed_rows(), 23u);
  EXPECT_TRUE(rel.SegmentCurrent());

  SegmentShape shape = rel.segment_shape();
  EXPECT_EQ(shape.live_segments, 2u);
  EXPECT_EQ(shape.tiers, 2u);  // 16 and 7 land in distinct size classes
  EXPECT_EQ(shape.tail_rows, 0u);
}

// A tail big enough relative to the newest run triggers the size-tiered
// merge (newest * ratio >= prev), and the merged run is sorted + deduped.
TEST(RelationSegmentTest, CompactionMergesTiersInOrder) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  SegmentPolicy policy;
  policy.tier_ratio = 2;
  policy.max_runs = 6;
  rel.set_segment_policy(policy);
  for (std::int64_t i = 0; i < 16; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  for (std::int64_t i = 16; i < 23; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  ASSERT_EQ(rel.live_runs(), 2u);

  // 6-row tail: 6*2 >= 7 merges it with the 7-row run (13 rows), and
  // 13*2 >= 16 cascades into the base for a single 29-row run.
  for (std::int64_t i = 30; i < 36; ++i) rel.Insert(Row(i, 0));
  std::uint64_t compactions0 = rel.segment_stats().compactions;
  rel.PrepareSegments();
  EXPECT_EQ(rel.live_runs(), 1u);
  EXPECT_EQ(rel.segment_stats().compactions, compactions0 + 2);
  SegmentPtr merged = rel.sealed_segment();
  ASSERT_NE(merged, nullptr);
  ASSERT_EQ(merged->rows(), 29u);
  // Sorted, no duplicates.
  Tuple prev;
  for (std::size_t r = 0; r < merged->rows(); ++r) {
    Tuple got;
    merged->CopyRow(r, &got);
    if (r > 0) EXPECT_LT(prev, got) << "row " << r;
    prev = got;
  }
}

// Exceeding max_runs forces a merge even when no tier is oversized.
TEST(RelationSegmentTest, MaxRunsCapTriggersCompaction) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  SegmentPolicy policy;
  policy.tier_ratio = 2;
  policy.max_runs = 2;
  rel.set_segment_policy(policy);
  for (std::int64_t i = 0; i < 16; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  for (std::int64_t i = 16; i < 23; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  ASSERT_EQ(rel.live_runs(), 2u);

  // A 3-row tail is not oversized (3*2 < 7) but breaches max_runs=2.
  for (std::int64_t i = 30; i < 33; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  EXPECT_LE(rel.live_runs(), 2u);
  EXPECT_GE(rel.segment_stats().compactions, 1u);
  EXPECT_EQ(rel.sealed_rows(), 26u);
}

// Prefix probes over three live runs come back in one globally sorted
// stream, byte-identical to what a single merged segment would yield.
TEST(RelationSegmentTest, KWayProbeSpansLiveRuns) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  SegmentPolicy policy;
  policy.tier_ratio = 2;
  policy.max_runs = 6;
  rel.set_segment_policy(policy);
  // Run sizes 16 / 7 / 3: each newest run is under half its predecessor,
  // so no compaction fires and all three stay live.
  rel.Insert(Row(1, 0));
  rel.Insert(Row(1, 6));
  for (std::int64_t i = 0; i < 14; ++i) rel.Insert(Row(50 + i, i));
  rel.PrepareSegments();
  rel.Insert(Row(1, 2));
  rel.Insert(Row(1, 8));
  for (std::int64_t i = 0; i < 5; ++i) rel.Insert(Row(80 + i, i));
  rel.PrepareSegments();
  rel.Insert(Row(1, 4));
  rel.Insert(Row(90, 0));
  rel.Insert(Row(91, 0));
  rel.PrepareSegments();
  ASSERT_EQ(rel.live_runs(), 3u);

  auto ranges = rel.SegmentProbePrefix({Value::Int64(1)});
  ASSERT_TRUE(ranges.has_value());
  EXPECT_EQ(ranges->count, 3u);
  EXPECT_EQ(ranges->rows, 5u);
  std::vector<Tuple> got;
  for (SegmentRangeCursor cursor(*ranges); !cursor.Done(); cursor.Advance()) {
    got.push_back(cursor.Row());
  }
  std::vector<Tuple> expect = {Row(1, 0), Row(1, 2), Row(1, 4), Row(1, 6),
                               Row(1, 8)};
  EXPECT_EQ(got, expect);

  // Exact membership is served across all runs too.
  EXPECT_TRUE(rel.Contains(Row(1, 4)));
  EXPECT_TRUE(rel.Contains(Row(91, 0)));
  EXPECT_FALSE(rel.Contains(Row(1, 5)));
}

// Every row of a view: log refs, then slice rows.
std::vector<Tuple> Collect(const DeltaView& view) {
  std::vector<Tuple> rows;
  for (const Tuple* t : view.refs) rows.push_back(*t);
  for (const DeltaSlice& slice : view.slices) {
    for (std::size_t r = slice.begin; r < slice.end; ++r) {
      rows.emplace_back();
      slice.segment->CopyRow(r, &rows.back());
    }
  }
  return rows;
}

// Insert-only epochs serve the delta as zero-copy slices over runs sealed
// after the watermark; the view matches the log-backed delta as a set.
TEST(RelationSegmentTest, DeltaViewSlicesMatchLogBackedDelta) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  SegmentPolicy policy;
  policy.tier_ratio = 2;
  policy.max_runs = 6;
  rel.set_segment_policy(policy);
  for (std::int64_t i = 0; i < 16; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  const std::size_t mark = rel.Watermark();

  for (std::int64_t i = 100; i < 105; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();          // seals a 5-row run past the watermark
  rel.Insert(Row(200, 0));        // unsealed tail suffix

  DeltaView view = rel.DeltaViewSince(mark);
  EXPECT_TRUE(view.sliced);
  EXPECT_EQ(view.slice_rows, 5u);
  EXPECT_EQ(view.size(), 6u);

  std::vector<const Tuple*> log_delta = rel.DeltaSince(mark);
  ASSERT_EQ(log_delta.size(), view.size());
  std::set<Tuple> expect;
  for (const Tuple* t : log_delta) expect.insert(*t);
  std::vector<Tuple> got = Collect(view);
  EXPECT_EQ(std::set<Tuple>(got.begin(), got.end()), expect);
  EXPECT_GE(rel.segment_stats().delta_slices, 1u);
  EXPECT_GE(rel.segment_stats().delta_slice_rows, 5u);
}

// An erase-containing epoch cannot trust run/log tiling: the view falls
// back to plain log refs and still matches DeltaSince exactly.
TEST(RelationSegmentTest, DeltaViewFallsBackAfterErase) {
  RelationInstance rel(2);
  rel.set_storage_mode(StorageMode::kSegmented);
  for (std::int64_t i = 0; i < 8; ++i) rel.Insert(Row(i, 0));
  rel.PrepareSegments();
  const std::size_t mark = rel.Watermark();

  rel.Insert(Row(100, 0));
  rel.Erase(Row(3, 0));
  rel.Insert(Row(101, 0));

  DeltaView view = rel.DeltaViewSince(mark);
  EXPECT_FALSE(view.sliced);
  EXPECT_TRUE(view.slices.empty());
  std::vector<const Tuple*> log_delta = rel.DeltaSince(mark);
  ASSERT_EQ(view.refs.size(), log_delta.size());
  for (std::size_t i = 0; i < log_delta.size(); ++i) {
    EXPECT_EQ(view.refs[i], log_delta[i]);
  }
}

TEST(StorageModeTest, ResolveAndNames) {
  EXPECT_EQ(ResolveStorageMode(StorageMode::kIndexed), StorageMode::kIndexed);
  EXPECT_EQ(ResolveStorageMode(StorageMode::kSegmented),
            StorageMode::kSegmented);
  EXPECT_STREQ(StorageModeName(StorageMode::kIndexed), "indexed");
  EXPECT_STREQ(StorageModeName(StorageMode::kSegmented), "segmented");
}

TEST(StorageModeTest, DefaultResolvesToSegmented) {
  const char* saved = std::getenv("MM2_STORAGE");
  std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("MM2_STORAGE");
  EXPECT_EQ(ResolveStorageMode(StorageMode::kDefault),
            StorageMode::kSegmented);
  ::setenv("MM2_STORAGE", "indexed", 1);
  EXPECT_EQ(ResolveStorageMode(StorageMode::kDefault), StorageMode::kIndexed);
  ::setenv("MM2_STORAGE", "segmented", 1);
  EXPECT_EQ(ResolveStorageMode(StorageMode::kDefault),
            StorageMode::kSegmented);
  if (saved != nullptr) {
    ::setenv("MM2_STORAGE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("MM2_STORAGE");
  }
}

TEST(SegmentPolicyTest, ResolveArgsEnvAndClamps) {
  const char* saved_ratio = std::getenv("MM2_SEGMENT_TIER_RATIO");
  const char* saved_runs = std::getenv("MM2_SEGMENT_MAX_RUNS");
  std::string ratio_value = saved_ratio != nullptr ? saved_ratio : "";
  std::string runs_value = saved_runs != nullptr ? saved_runs : "";
  ::unsetenv("MM2_SEGMENT_TIER_RATIO");
  ::unsetenv("MM2_SEGMENT_MAX_RUNS");

  // Defaults with nothing set.
  SegmentPolicy policy = ResolveSegmentPolicy(0, 0);
  EXPECT_EQ(policy.tier_ratio, 4u);
  EXPECT_EQ(policy.max_runs, 6u);

  // Explicit arguments win.
  policy = ResolveSegmentPolicy(8, 3);
  EXPECT_EQ(policy.tier_ratio, 8u);
  EXPECT_EQ(policy.max_runs, 3u);

  // Environment fills whatever the arguments left at zero.
  ::setenv("MM2_SEGMENT_TIER_RATIO", "16", 1);
  ::setenv("MM2_SEGMENT_MAX_RUNS", "2", 1);
  policy = ResolveSegmentPolicy(0, 0);
  EXPECT_EQ(policy.tier_ratio, 16u);
  EXPECT_EQ(policy.max_runs, 2u);
  policy = ResolveSegmentPolicy(5, 0);
  EXPECT_EQ(policy.tier_ratio, 5u);
  EXPECT_EQ(policy.max_runs, 2u);

  // Clamps: ratio >= 2, max_runs within [1, kMaxRanges].
  ::setenv("MM2_SEGMENT_TIER_RATIO", "1", 1);
  ::setenv("MM2_SEGMENT_MAX_RUNS", "99", 1);
  policy = ResolveSegmentPolicy(0, 0);
  EXPECT_GE(policy.tier_ratio, 2u);
  EXPECT_LE(policy.max_runs, SegmentRanges::kMaxRanges);

  if (saved_ratio != nullptr) {
    ::setenv("MM2_SEGMENT_TIER_RATIO", ratio_value.c_str(), 1);
  } else {
    ::unsetenv("MM2_SEGMENT_TIER_RATIO");
  }
  if (saved_runs != nullptr) {
    ::setenv("MM2_SEGMENT_MAX_RUNS", runs_value.c_str(), 1);
  } else {
    ::unsetenv("MM2_SEGMENT_MAX_RUNS");
  }
}

}  // namespace
}  // namespace mm2::instance
