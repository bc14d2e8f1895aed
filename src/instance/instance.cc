#include "instance/instance.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <mutex>
#include <utility>

namespace mm2::instance {

RelationInstance::RelationInstance(const RelationInstance& other)
    : arity_(other.arity_),
      tuples_(other.tuples_),
      generation_(other.generation_),
      storage_mode_(other.storage_mode_),
      policy_(other.policy_),
      runs_(other.runs_),  // segments are immutable — shared, not deep-copied
      // The rebuilt log below is in set order, not insertion order, so the
      // copied runs' log spans no longer describe it: slice-served deltas
      // must decline until the next full rebuild restores the tiling.
      runs_tiled_(other.runs_.empty()),
      segment_dirty_(other.segment_dirty_),
      segment_generation_(other.segment_generation_) {
  // Indexes, the insert log and the tail hold pointers into the *source*
  // set; rebuild the log over our own nodes (set order — deterministic),
  // re-point the tail, and let indexes re-materialize lazily. Watermark 0
  // still means "everything".
  log_.reserve(tuples_.size());
  for (const Tuple& t : tuples_) log_.push_back(&t);
  CopyTail(other);
}

void RelationInstance::CopyTail(const RelationInstance& other) {
  tail_.clear();
  tail_.reserve(other.tail_.size());
  for (const Tuple* t : other.tail_) tail_.push_back(&*tuples_.find(*t));
}

RelationInstance& RelationInstance::operator=(const RelationInstance& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = other.tuples_;
  generation_ = other.generation_;
  log_.clear();
  log_.reserve(tuples_.size());
  for (const Tuple& t : tuples_) log_.push_back(&t);
  log_pos_.clear();
  log_pos_tracked_ = false;
  indexes_.clear();
  stats_.Store(IndexStats{});
  seg_stats_.Store(SegmentOpStats{});
  storage_mode_ = other.storage_mode_;
  policy_ = other.policy_;
  runs_ = other.runs_;
  runs_tiled_ = other.runs_.empty();  // see copy ctor: log is in set order
  CopyTail(other);
  segment_dirty_ = other.segment_dirty_;
  segment_generation_ = other.segment_generation_;
  return *this;
}

RelationInstance::RelationInstance(RelationInstance&& other) noexcept
    : arity_(other.arity_),
      tuples_(std::move(other.tuples_)),
      generation_(other.generation_),
      log_(std::move(other.log_)),
      log_pos_(std::move(other.log_pos_)),
      log_pos_tracked_(other.log_pos_tracked_),
      indexes_(std::move(other.indexes_)),
      storage_mode_(other.storage_mode_),
      policy_(other.policy_),
      runs_(std::move(other.runs_)),
      runs_tiled_(other.runs_tiled_),
      tail_(std::move(other.tail_)),
      segment_dirty_(other.segment_dirty_),
      segment_generation_(other.segment_generation_) {
  // Moving a std::set transfers its nodes, so log/index pointers survive.
  stats_.Store(other.stats_.Load());
  seg_stats_.Store(other.seg_stats_.Load());
  other.log_pos_tracked_ = false;  // its map moved away; must not trust it
}

RelationInstance& RelationInstance::operator=(
    RelationInstance&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = std::move(other.tuples_);
  generation_ = other.generation_;
  log_ = std::move(other.log_);
  log_pos_ = std::move(other.log_pos_);
  log_pos_tracked_ = other.log_pos_tracked_;
  indexes_ = std::move(other.indexes_);
  stats_.Store(other.stats_.Load());
  storage_mode_ = other.storage_mode_;
  policy_ = other.policy_;
  runs_ = std::move(other.runs_);
  runs_tiled_ = other.runs_tiled_;
  tail_ = std::move(other.tail_);
  segment_dirty_ = other.segment_dirty_;
  segment_generation_ = other.segment_generation_;
  seg_stats_.Store(other.seg_stats_.Load());
  other.log_pos_tracked_ = false;  // its map moved away; must not trust it
  return *this;
}

Tuple RelationInstance::Project(const Tuple& tuple, const ColumnSet& cols) {
  Tuple key;
  key.reserve(cols.size());
  for (std::size_t c : cols) key.push_back(tuple[c]);
  return key;
}

// Keeps buckets in tuple (set) order so probes enumerate candidates exactly
// as a full ordered scan would.
void RelationInstance::IndexInsert(const Tuple* tuple) {
  for (auto& [cols, index] : indexes_) {
    TupleRefs& bucket = index.buckets[Project(*tuple, cols)];
    auto pos = std::lower_bound(
        bucket.begin(), bucket.end(), tuple,
        [](const Tuple* a, const Tuple* b) { return *a < *b; });
    bucket.insert(pos, tuple);
    stats_.indexed_tuples.fetch_add(1, std::memory_order_relaxed);
  }
}

void RelationInstance::IndexErase(const Tuple* tuple) {
  for (auto& [cols, index] : indexes_) {
    auto it = index.buckets.find(Project(*tuple, cols));
    if (it == index.buckets.end()) continue;
    TupleRefs& bucket = it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), tuple),
                 bucket.end());
    if (bucket.empty()) index.buckets.erase(it);
  }
}

bool RelationInstance::Insert(Tuple tuple) {
  assert(tuple.size() == arity_ && "arity mismatch");
  auto [it, inserted] = tuples_.insert(std::move(tuple));
  if (!inserted) return false;
  ++generation_;
  const Tuple* node = &*it;
  log_.push_back(node);
  if (log_pos_tracked_) log_pos_.emplace(node, log_.size() - 1);
  // Segment tail: remember the insert so the next seal can merge
  // incrementally. Pointless once dirty (a full rebuild is coming anyway).
  if (storage_mode_ == StorageMode::kSegmented && !segment_dirty_) {
    tail_.push_back(node);
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  IndexInsert(node);
  return true;
}

bool RelationInstance::Erase(const Tuple& tuple) {
  auto it = tuples_.find(tuple);
  if (it == tuples_.end()) return false;
  const Tuple* node = &*it;
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    IndexErase(node);
  }
  // Tombstone rather than remove: log positions back caller watermarks.
  if (!log_pos_tracked_) {
    log_pos_.clear();
    for (std::size_t i = 0; i < log_.size(); ++i) {
      if (log_[i] != nullptr) log_pos_.emplace(log_[i], i);
    }
    log_pos_tracked_ = true;
  }
  std::size_t log_pos = log_.size();
  auto pos_it = log_pos_.find(node);
  if (pos_it != log_pos_.end()) {
    log_pos = pos_it->second;
    log_[log_pos] = nullptr;
    log_pos_.erase(pos_it);
  }
  tuples_.erase(it);
  ++generation_;
  // Sealed runs cannot un-say a row: flag for a full rebuild at the next
  // seal and drop the now-untrustworthy tail. The run covering the
  // tombstoned log position books the loss, so DeltaViewSince can keep
  // serving the *other* runs as zero-copy slices through the erase epoch.
  if (!runs_.empty() || !tail_.empty()) {
    segment_dirty_ = true;
    tail_.clear();
    for (SealedRun& run : runs_) {
      if (run.log_begin <= log_pos && log_pos < run.log_end) {
        ++run.dead;
        break;
      }
    }
  }
  return true;
}

void RelationInstance::Clear() {
  tuples_.clear();
  log_.clear();
  log_pos_.clear();
  log_pos_tracked_ = false;
  ++generation_;
  if (!runs_.empty() || !tail_.empty()) {
    segment_dirty_ = true;
    tail_.clear();
    // The log just reset, so the old spans no longer tile it; drop the
    // runs outright (an empty run list is trivially tiled) instead of
    // letting DeltaViewSince trust slices over vanished rows.
    runs_.clear();
    runs_tiled_ = true;
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  indexes_.clear();
}

std::map<RelationInstance::ColumnSet, RelationInstance::Index>::iterator
RelationInstance::BuildIndexLocked(const ColumnSet& cols) const {
  Index index;
  for (const Tuple& t : tuples_) {
    // Set iteration is sorted, so appended buckets stay in tuple order.
    index.buckets[Project(t, cols)].push_back(&t);
  }
  stats_.builds.fetch_add(1, std::memory_order_relaxed);
  stats_.indexed_tuples.fetch_add(tuples_.size(), std::memory_order_relaxed);
  return indexes_.emplace(cols, std::move(index)).first;
}

const RelationInstance::TupleRefs* RelationInstance::Probe(
    const ColumnSet& cols, const Tuple& key) const {
  stats_.probes.fetch_add(1, std::memory_order_relaxed);
  auto lookup = [this](const Index& index,
                       const Tuple& k) -> const TupleRefs* {
    auto bucket = index.buckets.find(k);
    if (bucket == index.buckets.end()) return nullptr;
    stats_.probe_hits.fetch_add(bucket->second.size(),
                                std::memory_order_relaxed);
    return &bucket->second;
  };
  // Fast path: the index exists, so a shared lock suffices and concurrent
  // probes proceed in parallel. The returned bucket pointer stays valid
  // after the lock drops: later builds of *other* column sets only insert
  // new map nodes, and mutations are excluded by contract until the caller
  // is done reading.
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = indexes_.find(cols);
    if (it != indexes_.end()) return lookup(it->second, key);
  }
  // Slow path: first probe of this column set; build under the exclusive
  // lock, double-checking since another thread may have raced us here.
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto it = indexes_.find(cols);
  if (it == indexes_.end()) it = BuildIndexLocked(cols);
  return lookup(it->second, key);
}

RelationInstance::TupleRefs RelationInstance::DeltaSince(
    std::size_t watermark) const {
  TupleRefs out;
  out.reserve(log_.size() - watermark);
  for (std::size_t i = watermark; i < log_.size(); ++i) {
    if (log_[i] != nullptr) out.push_back(log_[i]);
  }
  return out;
}

IndexStats RelationInstance::index_stats() const { return stats_.Load(); }

void RelationInstance::set_storage_mode(StorageMode mode) {
  mode = ResolveStorageMode(mode);
  if (mode == storage_mode_) return;
  storage_mode_ = mode;
  // Either direction invalidates the incremental state: entering
  // kSegmented means past inserts were not tail-tracked; leaving it drops
  // the view entirely.
  runs_.clear();
  runs_tiled_ = true;
  tail_.clear();
  segment_dirty_ = false;
  segment_generation_ = 0;
}

void RelationInstance::CompactLocked(SegmentOpStats* stats) const {
  // Size-tiered compaction: merge the two newest runs while the newest is
  // not "small enough" relative to its predecessor, or while the run list
  // exceeds its cap. Each surviving run ends up >= tier_ratio times larger
  // than the one after it, so a tuple is re-merged only O(log n) times
  // over a chase. Merging adjacent runs keeps log spans contiguous, which
  // preserves the tiling DeltaViewSince depends on.
  while (runs_.size() > 1) {
    SealedRun& newest = runs_.back();
    SealedRun& prev = runs_[runs_.size() - 2];
    const bool oversized =
        newest.segment->rows() * policy_.tier_ratio >= prev.segment->rows();
    if (!oversized && runs_.size() <= policy_.max_runs) break;
    SealedRun merged;
    merged.segment = MergeSegments({prev.segment, newest.segment}, stats);
    merged.log_begin = prev.log_begin;
    merged.log_end = newest.log_end;
    // Compaction only runs in insert-only epochs (dead is always 0 here),
    // but carry the counters anyway so the slice-safety invariant survives
    // any future caller.
    merged.dead = prev.dead + newest.dead;
    runs_.pop_back();
    runs_.back() = std::move(merged);
    if (stats != nullptr) ++stats->compactions;
  }
}

void RelationInstance::PrepareSegments(bool defer_dirty_rebuild) const {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  if (SegmentCurrent()) return;
  SegmentOpStats local;
  if (defer_dirty_rebuild && storage_mode_ == StorageMode::kSegmented &&
      segment_dirty_ && runs_tiled_ && !runs_.empty()) {
    // Erase-dirtied view inside a delta-sized pass: the pass issues few
    // probes, so the O(n) rebuild below would dominate it. Leave the view
    // stale while tombstone debt is low — probes decline to the index path
    // and DeltaViewSince still answers exactly (tiling stays trusted, dead
    // rows are booked per run). Rebuild once debt passes 1/4 of live rows.
    std::size_t dead = 0;
    for (const SealedRun& run : runs_) dead += run.dead;
    if (dead * 4 < tuples_.size()) {
      ++local.deferred_rebuilds;
      seg_stats_.Add(local);
      return;
    }
  }
  if (storage_mode_ == StorageMode::kSegmented && !runs_.empty() &&
      !segment_dirty_ && runs_tiled_ && !tail_.empty()) {
    // Insert-only epoch: seal the tail into a NEW small run covering the
    // log span since the last seal — the base runs are left untouched, and
    // tiered compaction below decides how much merging is actually due.
    const std::size_t span_begin = runs_.back().log_end;
    SealedRun run;
    run.segment = SegmentInserter::FromRefs(arity_, std::move(tail_), &local);
    tail_.clear();
    run.log_begin = span_begin;
    run.log_end = log_.size();
    runs_.push_back(std::move(run));
    CompactLocked(&local);
  } else {
    // Full rebuild: set iteration is already sorted and unique. One run
    // covering the whole log restores the tiling invariant (copied
    // relations arrive here with untrusted spans).
    runs_.clear();
    SealedRun run;
    run.segment = SegmentInserter::FromSorted(arity_, tuples_, &local);
    run.log_begin = 0;
    run.log_end = log_.size();
    runs_.push_back(std::move(run));
    runs_tiled_ = true;
    tail_.clear();
    segment_dirty_ = false;
  }
  segment_generation_ = generation_;
  seg_stats_.Add(local);
}

std::optional<SegmentRanges> RelationInstance::SegmentProbePrefix(
    const Tuple& key) const {
  // Declines are counted only under kSegmented: the chase probes here
  // unconditionally before the hash path, and indexed sessions must keep
  // their zero-atomic hot path (and their exact telemetry surface).
  if (runs_.empty() || segment_dirty_ || segment_generation_ != generation_ ||
      key.size() > arity_ || runs_.size() > SegmentRanges::kMaxRanges) {
    if (storage_mode_ == StorageMode::kSegmented) {
      seg_stats_.fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  SegmentOpStats local;
  SegmentRanges out;
  for (const SealedRun& run : runs_) {
    Segment::RowRange rows =
        run.segment->EqualRange(key.data(), key.size(), &local);
    if (rows.empty()) continue;
    out.entries[out.count++] =
        SegmentRanges::Entry{run.segment.get(), rows.begin, rows.end};
    out.rows += rows.end - rows.begin;
  }
  local.probes = 1;
  local.probe_hits = out.rows;
  seg_stats_.Add(local);
  return out;
}

DeltaView RelationInstance::DeltaViewSince(std::size_t watermark) const {
  DeltaView view;
  // Slices require trustworthy run/log spans: segmented mode, spans tiling
  // the log. Anything else is the log-backed path. An erase-containing
  // epoch (segment_dirty_) does NOT force the fallback: the tiling is
  // still exact, and tombstones are accounted per run below.
  if (storage_mode_ != StorageMode::kSegmented || !runs_tiled_ ||
      runs_.empty()) {
    view.refs = DeltaSince(watermark);
    return view;
  }
  const std::size_t sealed_end = runs_.back().log_end;
  // Per-run walk over the tiled spans. A run is served as a zero-copy
  // whole-run slice only when it lies entirely past the watermark AND none
  // of its rows were tombstoned (run rows == live span entries, so
  // view.size() stays equal to DeltaSince().size()). Runs that straddle
  // the watermark or lost rows to erases are served through the log refs,
  // which skip tombstones exactly.
  for (const SealedRun& run : runs_) {
    if (run.log_end <= watermark) continue;
    if (run.log_begin >= watermark && run.dead == 0) {
      const Segment* segment = run.segment.get();
      if (segment->rows() == 0) continue;
      view.slices.push_back(DeltaSlice{segment, 0, segment->rows()});
      view.slice_rows += segment->rows();
      continue;
    }
    const std::size_t begin =
        run.log_begin > watermark ? run.log_begin : watermark;
    for (std::size_t i = begin; i < run.log_end; ++i) {
      if (log_[i] != nullptr) view.refs.push_back(log_[i]);
    }
  }
  // Log-backed suffix: inserts since the last seal (the unsealed tail).
  const std::size_t suffix_begin =
      watermark > sealed_end ? watermark : sealed_end;
  for (std::size_t i = suffix_begin; i < log_.size(); ++i) {
    if (log_[i] != nullptr) view.refs.push_back(log_[i]);
  }
  if (!view.slices.empty()) {
    view.sliced = true;
    SegmentOpStats local;
    local.delta_slices = 1;
    local.delta_slice_rows = view.slice_rows;
    seg_stats_.Add(local);
  }
  return view;
}

SegmentShape RelationInstance::segment_shape() const {
  SegmentShape shape;
  shape.live_segments = runs_.size();
  shape.tail_rows = tail_.size();
  // Count distinct tier_ratio-geometric size classes among non-empty runs.
  bool seen[64] = {false};
  for (const SealedRun& run : runs_) {
    std::size_t rows = run.segment->rows();
    if (rows == 0) continue;
    std::size_t tier = 0;
    while (rows >= policy_.tier_ratio && tier + 1 < 64) {
      rows /= policy_.tier_ratio;
      ++tier;
    }
    if (!seen[tier]) {
      seen[tier] = true;
      ++shape.tiers;
    }
  }
  return shape;
}

void RelationInstance::RetainExisting(
    const std::vector<const Tuple*>& sorted_candidates,
    std::vector<char>* present) const {
  present->assign(sorted_candidates.size(), 0);
  SegmentOpStats local;
  ++local.retain_batches;
  local.retain_candidates += sorted_candidates.size();
  const bool current = SegmentCurrent();
  // An insert-only tail still answers exactly: runs ∪ tail == extension.
  const bool incremental = !current && !runs_.empty() && !segment_dirty_ &&
                           storage_mode_ == StorageMode::kSegmented;
  if (current || incremental) {
    std::vector<const Tuple*> tail_sorted;
    if (incremental && !tail_.empty()) {
      tail_sorted = tail_;
      CountedSort(&tail_sorted, &local);
    }
    // Every side is sorted ⇒ one monotone forward cursor per live run plus
    // one for the tail. Cursors advance by galloping (doubling steps, then
    // a binary search over the overshoot), so a batch of c candidates
    // against a run of m rows costs O(c·log(m/c)) compares whether the
    // candidates are sparse or dense — never the O(m) full walk a plain
    // merge pays when candidates skip far ahead. Runs are disjoint, so at
    // most one cursor can hit.
    std::vector<std::size_t> cursors(runs_.size(), 0);
    std::size_t tail_cursor = 0;
    for (std::size_t i = 0; i < sorted_candidates.size(); ++i) {
      const Tuple& cand = *sorted_candidates[i];
      if (cand.size() != arity_) continue;  // cannot be present
      bool hit = false;
      for (std::size_t r = 0; r < runs_.size() && !hit; ++r) {
        const Segment& seg = *runs_[r].segment;
        std::size_t& cursor = cursors[r];
        const std::size_t rows = seg.rows();
        int cmp = cursor < rows
                      ? seg.CompareRowPrefix(cursor, cand.data(), cand.size(),
                                             &local.compares)
                      : 1;
        if (cmp < 0) {
          // Gallop: find the first row >= cand past the cursor.
          std::size_t step = 1;
          std::size_t lo = cursor;  // known < cand
          std::size_t hi = cursor + step;
          while (hi < rows &&
                 seg.CompareRowPrefix(hi, cand.data(), cand.size(),
                                      &local.compares) < 0) {
            lo = hi;
            step <<= 1;
            hi = cursor + step;
          }
          if (hi > rows) hi = rows;
          ++lo;
          while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (seg.CompareRowPrefix(mid, cand.data(), cand.size(),
                                     &local.compares) < 0) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          cursor = lo;
          cmp = cursor < rows
                    ? seg.CompareRowPrefix(cursor, cand.data(), cand.size(),
                                           &local.compares)
                    : 1;
        }
        hit = cmp == 0;
      }
      if (!hit && !tail_sorted.empty()) {
        while (tail_cursor < tail_sorted.size()) {
          ++local.compares;
          if (*tail_sorted[tail_cursor] < cand) {
            ++tail_cursor;
            continue;
          }
          hit = !(cand < *tail_sorted[tail_cursor]);
          ++local.compares;
          break;
        }
      }
      if (hit) {
        (*present)[i] = 1;
        ++local.retain_hits;
      }
    }
  } else {
    ++local.fallbacks;
    for (std::size_t i = 0; i < sorted_candidates.size(); ++i) {
      if (tuples_.count(*sorted_candidates[i]) > 0) {
        (*present)[i] = 1;
        ++local.retain_hits;
      }
    }
  }
  seg_stats_.Add(local);
}

SegmentOpStats RelationInstance::segment_stats() const {
  return seg_stats_.Load();
}

Instance Instance::EmptyFor(const model::Schema& schema) {
  Instance instance;
  for (const model::Relation& r : schema.relations()) {
    instance.DeclareRelation(r.name(), r.arity());
  }
  for (const model::EntitySet& s : schema.entity_sets()) {
    Result<EntitySetLayout> layout = ComputeEntitySetLayout(schema, s);
    if (layout.ok()) {
      instance.DeclareRelation(s.name, layout->arity());
    }
  }
  return instance;
}

void Instance::DeclareRelation(std::string_view name, std::size_t arity) {
  RelationInstance fresh(arity);
  fresh.set_storage_mode(storage_mode_);
  fresh.set_segment_policy(segment_policy_);
  // Heterogeneous find first: redeclaration (the UnionWith/runtime refresh
  // pattern) never allocates a key string.
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    it->second = std::move(fresh);
    return;
  }
  relations_.emplace(std::string(name), std::move(fresh));
}

bool Instance::HasRelation(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Status Instance::Insert(std::string_view relation, Tuple tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(relation) +
                            "' not in instance");
  }
  if (tuple.size() != it->second.arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + std::string(relation) + "': got " +
        std::to_string(tuple.size()) + ", want " +
        std::to_string(it->second.arity()));
  }
  it->second.Insert(std::move(tuple));
  return Status::OK();
}

void Instance::InsertUnchecked(std::string_view relation, Tuple tuple) {
  auto it = relations_.find(relation);
  assert(it != relations_.end() && "unknown relation");
  assert(tuple.size() == it->second.arity() && "arity mismatch");
  it->second.Insert(std::move(tuple));
}

Status Instance::Erase(std::string_view relation, const Tuple& tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(relation) +
                            "' not in instance");
  }
  if (!it->second.Erase(tuple)) {
    return Status::NotFound("tuple " + TupleToString(tuple) + " not in '" +
                            std::string(relation) + "'");
  }
  return Status::OK();
}

const RelationInstance* Instance::Find(std::string_view relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

RelationInstance* Instance::FindMutable(std::string_view relation) {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

std::size_t Instance::TotalTuples() const {
  std::size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel.size();
  return total;
}

bool Instance::HasLabeledNulls() const {
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) return true;
      }
    }
  }
  return false;
}

IndexStats Instance::IndexStatsTotal() const {
  IndexStats total;
  for (const auto& [name, rel] : relations_) total += rel.index_stats();
  return total;
}

void Instance::SetStorageMode(StorageMode mode) {
  storage_mode_ = ResolveStorageMode(mode);
  for (auto& [name, rel] : relations_) rel.set_storage_mode(storage_mode_);
}

void Instance::SetSegmentPolicy(const SegmentPolicy& policy) {
  segment_policy_ = policy;
  for (auto& [name, rel] : relations_) rel.set_segment_policy(policy);
}

void Instance::PrepareAllSegments(bool defer_dirty_rebuild) const {
  for (const auto& [name, rel] : relations_)
    rel.PrepareSegments(defer_dirty_rebuild);
}

SegmentOpStats Instance::SegmentStatsTotal() const {
  SegmentOpStats total;
  for (const auto& [name, rel] : relations_) total += rel.segment_stats();
  return total;
}

SegmentShape Instance::SegmentShapeTotal() const {
  SegmentShape total;
  for (const auto& [name, rel] : relations_) total += rel.segment_shape();
  return total;
}

std::map<std::string, std::size_t, std::less<>> Instance::InsertWatermarks()
    const {
  std::map<std::string, std::size_t, std::less<>> out;
  for (const auto& [name, rel] : relations_) out[name] = rel.Watermark();
  return out;
}

std::int64_t Instance::MaxNullLabel() const {
  std::int64_t max_label = -1;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) max_label = std::max(max_label, v.label());
      }
    }
  }
  return max_label;
}

bool Instance::Equals(const Instance& other) const {
  // Compare nonempty extensions only; a declared-but-empty relation is
  // indistinguishable from an undeclared one at the instance level.
  auto nonempty = [](const Instance& instance) {
    std::map<std::string, const RelationInstance*> out;
    for (const auto& [name, rel] : instance.relations_) {
      if (!rel.empty()) out[name] = &rel;
    }
    return out;
  };
  auto a = nonempty(*this);
  auto b = nonempty(other);
  if (a.size() != b.size()) return false;
  for (const auto& [name, rel] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (rel->tuples() != it->second->tuples()) return false;
  }
  return true;
}

namespace {

// Canonical constant skeleton of a null-carrying tuple: constants kept,
// labeled nulls replaced by their local first-occurrence pattern id. Two
// tuples can only correspond under a null bijection if their skeletons are
// identical, so skeletons partition the matching search space.
Tuple NullSkeleton(const Tuple& tuple) {
  Tuple skeleton;
  skeleton.reserve(tuple.size());
  std::map<std::int64_t, std::int64_t> local;
  for (const Value& v : tuple) {
    if (v.is_labeled_null()) {
      auto [it, fresh] =
          local.emplace(v.label(), static_cast<std::int64_t>(local.size()));
      (void)fresh;
      skeleton.push_back(Value::LabeledNull(it->second));
    } else {
      skeleton.push_back(v);
    }
  }
  return skeleton;
}

}  // namespace

bool InstanceEqualsUpToNulls(const Instance& a, const Instance& b) {
  // Same nonempty-extension convention as Equals.
  auto nonempty = [](const Instance& instance) {
    std::map<std::string, const RelationInstance*> out;
    for (const auto& [name, rel] : instance.relations()) {
      if (!rel.empty()) out[name] = &rel;
    }
    return out;
  };
  auto rels_a = nonempty(a);
  auto rels_b = nonempty(b);
  if (rels_a.size() != rels_b.size()) return false;
  // Group null-carrying tuples by (relation, skeleton); ground tuples must
  // simply be present on both sides.
  struct Group {
    std::vector<const Tuple*> left;
    std::vector<const Tuple*> right;
  };
  std::map<std::pair<std::string, Tuple>, Group> groups;
  for (const auto& [name, rel] : rels_a) {
    auto it = rels_b.find(name);
    if (it == rels_b.end()) return false;
    const RelationInstance* other = it->second;
    if (rel->arity() != other->arity() || rel->size() != other->size()) {
      return false;
    }
    auto has_null = [](const Tuple& t) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) return true;
      }
      return false;
    };
    for (const Tuple& t : rel->tuples()) {
      if (has_null(t)) {
        groups[{name, NullSkeleton(t)}].left.push_back(&t);
      } else if (!other->Contains(t)) {
        return false;
      }
    }
    for (const Tuple& t : other->tuples()) {
      if (has_null(t)) {
        groups[{name, NullSkeleton(t)}].right.push_back(&t);
      } else if (!rel->Contains(t)) {
        return false;
      }
    }
  }
  std::vector<Group*> order;
  order.reserve(groups.size());
  for (auto& [key, group] : groups) {
    if (group.left.size() != group.right.size()) return false;
    order.push_back(&group);
  }
  // Backtracking search for a bijection over null labels that maps every
  // left tuple onto a distinct right tuple of its group. The skeleton
  // pre-partitioning keeps candidate lists small for chase-shaped
  // instances (nulls mostly distinct per tuple pattern); the step budget
  // bounds pathological automorphism-heavy inputs, which conservatively
  // report "not equal".
  std::map<std::int64_t, std::int64_t> fwd;
  std::map<std::int64_t, std::int64_t> rev;
  std::size_t steps = 0;
  constexpr std::size_t kMaxSteps = 1u << 22;
  std::vector<std::vector<char>> used(order.size());
  for (std::size_t g = 0; g < order.size(); ++g) {
    used[g].assign(order[g]->right.size(), 0);
  }
  std::function<bool(std::size_t, std::size_t)> solve =
      [&](std::size_t g, std::size_t i) -> bool {
    if (g == order.size()) return true;
    if (i == order[g]->left.size()) return solve(g + 1, 0);
    const Tuple& lt = *order[g]->left[i];
    for (std::size_t c = 0; c < order[g]->right.size(); ++c) {
      if (used[g][c] != 0) continue;
      if (++steps > kMaxSteps) return false;
      const Tuple& rt = *order[g]->right[c];
      // Tentatively extend the bijection; identical skeletons guarantee
      // constants already agree and null positions line up.
      std::vector<std::pair<std::int64_t, std::int64_t>> added;
      bool ok = true;
      for (std::size_t k = 0; k < lt.size() && ok; ++k) {
        if (!lt[k].is_labeled_null()) continue;
        const std::int64_t l = lt[k].label();
        const std::int64_t r = rt[k].label();
        auto fit = fwd.find(l);
        auto rit = rev.find(r);
        if (fit != fwd.end() || rit != rev.end()) {
          ok = fit != fwd.end() && fit->second == r && rit != rev.end() &&
               rit->second == l;
          continue;
        }
        fwd.emplace(l, r);
        rev.emplace(r, l);
        added.emplace_back(l, r);
      }
      if (ok) {
        used[g][c] = 1;
        if (solve(g, i + 1)) return true;
        used[g][c] = 0;
      }
      for (const auto& [l, r] : added) {
        fwd.erase(l);
        rev.erase(r);
      }
    }
    return false;
  };
  return solve(0, 0);
}

Instance Instance::Minus(const Instance& other) const {
  Instance diff;
  for (const auto& [name, rel] : relations_) {
    diff.DeclareRelation(name, rel.arity());
    const RelationInstance* other_rel = other.Find(name);
    for (const Tuple& t : rel.tuples()) {
      if (other_rel == nullptr || !other_rel->Contains(t)) {
        diff.InsertUnchecked(name, t);
      }
    }
  }
  return diff;
}

void Instance::UnionWith(const Instance& other) {
  for (const auto& [name, rel] : other.relations_) {
    if (!HasRelation(name)) DeclareRelation(name, rel.arity());
    for (const Tuple& t : rel.tuples()) InsertUnchecked(name, t);
  }
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name + " [" + std::to_string(rel.size()) + "]:\n";
    for (const Tuple& t : rel.tuples()) {
      out += "  " + TupleToString(t) + "\n";
    }
  }
  return out;
}

std::size_t EntitySetLayout::ColumnIndex(std::string_view attribute) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == attribute) return i;
  }
  return kNpos;
}

Result<EntitySetLayout> ComputeEntitySetLayout(const model::Schema& schema,
                                               const model::EntitySet& set) {
  EntitySetLayout layout;
  layout.set_name = set.name;
  layout.root_type = set.root_type;

  std::vector<std::string> hierarchy = schema.SubtypeClosure(set.root_type);
  if (hierarchy.empty()) {
    return Status::NotFound("entity set '" + set.name +
                            "' has unknown root type '" + set.root_type + "'");
  }
  // Deterministic column order: walk types in schema declaration order
  // (SubtypeClosure preserves it), appending unseen attribute names.
  for (const std::string& type_name : hierarchy) {
    MM2_ASSIGN_OR_RETURN(std::vector<model::Attribute> attrs,
                         schema.AllAttributesOf(type_name));
    std::vector<std::size_t> cols;
    for (const model::Attribute& a : attrs) {
      std::size_t idx = layout.ColumnIndex(a.name);
      if (idx == EntitySetLayout::kNpos) {
        idx = layout.columns.size();
        layout.columns.push_back(a.name);
      }
      cols.push_back(idx);
    }
    layout.columns_of_type[type_name] = std::move(cols);
  }
  return layout;
}

Result<Tuple> MakeEntityTuple(const EntitySetLayout& layout,
                              const model::Schema& schema,
                              std::string_view type_name,
                              const std::vector<Value>& attribute_values) {
  auto it = layout.columns_of_type.find(std::string(type_name));
  if (it == layout.columns_of_type.end()) {
    return Status::InvalidArgument("type '" + std::string(type_name) +
                                   "' not in entity set '" + layout.set_name +
                                   "'");
  }
  const model::EntityType* type = schema.FindEntityType(type_name);
  if (type != nullptr && type->abstract) {
    return Status::InvalidArgument("cannot instantiate abstract type '" +
                                   std::string(type_name) + "'");
  }
  if (attribute_values.size() != it->second.size()) {
    return Status::InvalidArgument(
        "type '" + std::string(type_name) + "' takes " +
        std::to_string(it->second.size()) + " attributes, got " +
        std::to_string(attribute_values.size()));
  }
  Tuple tuple(layout.arity(), Value::Null());
  tuple[0] = Value::String(std::string(type_name));
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    tuple[1 + it->second[i]] = attribute_values[i];
  }
  return tuple;
}

}  // namespace mm2::instance
