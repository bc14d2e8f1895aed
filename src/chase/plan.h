#ifndef MM2_CHASE_PLAN_H_
#define MM2_CHASE_PLAN_H_

// Compiled match plans: the chase's one rule executor. A conjunctive atom
// list is compiled once (per chase run, or per query) into slot-indexed
// term ops over a flat Value frame, and one iterative join executes it for
// rule bodies, restricted-chase head probes, egds, SO clauses, certain-answer
// queries and homomorphism tests. Variables never live in string-keyed maps
// on this path; Assignment exists only at the public MatchAtoms boundary.

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "instance/instance.h"
#include "logic/formula.h"

namespace mm2::obs {
class CancelToken;
}

namespace mm2::chase {

// Index of a variable's cell in a frame.
using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = static_cast<Slot>(-1);

// Variable name -> slot. Variables are added in groups, each group in name
// order, so a frame of one group sorts exactly like the std::map-based
// Assignment over the same variables (a delta pass's row sort reproduces
// the std::set<Assignment> firing order).
class SlotMap {
 public:
  // Appends the variables of `names` that are not mapped yet, in name order.
  void Add(const std::set<std::string>& names);
  Slot Find(std::string_view name) const;
  std::size_t size() const { return names_.size(); }
  const std::string& name(Slot slot) const { return names_[slot]; }

 private:
  std::vector<std::string> names_;  // slot -> name
  std::vector<Slot> by_name_;       // slots sorted by name
};

// A compiled head or witness term: a constant, a frame slot, a Skolem term
// over compiled arguments, or a variable that no slot binds.
struct PlanTerm {
  enum class Kind : std::uint8_t { kConstant, kSlot, kSkolem, kUnbound };
  Kind kind = Kind::kUnbound;
  Slot slot = kNoSlot;
  instance::Value value;
  std::string function;        // kSkolem
  std::vector<PlanTerm> args;  // kSkolem
};

PlanTerm CompileTerm(const logic::Term& term, const SlotMap& slots);

// A compiled head template (or a body atom read back as a witness fact).
// `rel` caches the relation's handle in the instance the template writes
// to; it is resolved on first use.
struct PlanAtom {
  std::string relation;
  std::vector<PlanTerm> terms;
  instance::RelationInstance* rel = nullptr;
};

std::vector<PlanAtom> CompileAtoms(const std::vector<logic::Atom>& atoms,
                                   const SlotMap& slots);

// A compiled conjunctive match over a slot space. Slots [0, inputs) arrive
// bound in the caller's frame (a head probe's body variables); the rest are
// bound by the match. Not thread-safe: Run reuses per-plan scratch, so
// after its first call it allocates only as the caller's row buffer grows.
//
// Each call orders the atoms with the greedy most-bound-first rule (ties go
// to the smaller relation, then to the earlier atom) and gives every depth
// an access path:
//   1. bound columns forming a sorted prefix: the sealed run's prefix range
//      while the relation holds one, else an ordered range over its set;
//   2. a bound leading column: the same ordered range over the longest
//      leading bound prefix, the other bound columns checked in the frame;
//   3. no bound leading column at the outermost atom of an unseeded plan, or
//      no bound column at all: a scan that checks constants before binding
//      (a walk of the set, or the sealed run's columns when the caller does
//      not depend on order);
//   4. otherwise (inner depths, seeded probes): the relation's hash index.
// A path-2 depth whose prefix range proves unselective moves to path 4: the
// plan counts the rows such a depth walks per open, and once the average
// passes kMaxWalkPerOpen the atom takes the hash index for the rest of the
// plan's life. Every path enumerates in set order, so results come out in
// the nested-loop order of a full scan and the switch reorders nothing.
class MatchPlan {
 public:
  static constexpr std::size_t kNoAnchor = static_cast<std::size_t>(-1);

  struct Request {
    const instance::Instance* db = nullptr;
    const obs::CancelToken* cancel = nullptr;
    // The caller collects its answers in a set, so path 3 may scan a
    // sealed run's columns instead of walking the set.
    bool any_order = false;
    // Semi-naive delta pass: atom `anchor` goes first and enumerates the
    // `delta` log refs.
    std::size_t anchor = kNoAnchor;
    const instance::RelationInstance::TupleRefs* delta = nullptr;
  };

  // Average rows a path-2 depth may walk per open before its atom moves to
  // the hash index, and the opens that average needs before it counts.
  static constexpr std::uint64_t kMaxWalkPerOpen = 64;
  static constexpr std::uint64_t kMinWalkOpens = 16;

  MatchPlan() = default;
  MatchPlan(const std::vector<logic::Atom>& atoms, const SlotMap& slots,
            Slot inputs);

  // Appends one frame (stride() values) per match to `*rows`, stopping after
  // `limit` matches (0 = all). `frame` (stride() values) carries the inputs
  // and is scratch afterwards. Returns the number of matches appended.
  std::size_t Run(const Request& request, instance::Value* frame,
                  std::vector<instance::Value>* rows, std::size_t limit = 0);

  std::size_t stride() const { return stride_; }

 private:
  struct Column {
    bool constant = false;
    Slot slot = kNoSlot;
    instance::Value value;
  };
  struct Atom {
    std::string relation;
    std::vector<Column> columns;
    const instance::RelationInstance* rel = nullptr;
    // Opens and rows walked at path-2 depths that check bound columns past
    // the prefix, summed over Runs; `hashed` sends such accesses to the
    // hash index from then on.
    std::uint64_t walk_opens = 0;
    std::uint64_t walk_rows = 0;
    bool hashed = false;
  };
  enum class OpKind : std::uint8_t { kConstant, kCheck, kBind };
  struct Op {
    std::uint32_t column = 0;
    OpKind kind = OpKind::kConstant;
    Slot slot = kNoSlot;
    instance::Value value;
  };
  enum class Path : std::uint8_t { kDelta, kPrefix, kScan, kHash };
  // A row under a cursor: a set/log tuple or a sealed-run row.
  struct RowRef {
    const instance::Tuple* tuple = nullptr;
    const instance::Segment* segment = nullptr;
    std::size_t row = 0;
    const instance::Value& at(std::size_t c) const {
      return tuple != nullptr ? (*tuple)[c] : segment->at(row, c);
    }
  };
  struct Cursor {
    enum class Kind : std::uint8_t { kDone, kSet, kRefs, kRun };
    Kind kind = Kind::kDone;
    std::set<instance::Tuple>::const_iterator it, end;
    const instance::Tuple* const* ref = nullptr;
    const instance::Tuple* const* ref_end = nullptr;
    const instance::Segment* segment = nullptr;  // kRun: rows [row, row_end)
    std::size_t row = 0;
    std::size_t row_end = 0;
  };
  struct Depth {
    std::uint32_t atom = 0;
    Path path = Path::kScan;
    std::uint32_t prefix = 0;  // leading bound columns
    // Checks of the bound columns in column order (the probe key), then
    // binds and repeated-variable checks.
    std::vector<Op> ops;
    instance::RelationInstance::ColumnSet cols;  // the bound columns
    instance::Tuple key_values;
    Cursor cursor;
    // This Run: opens, and rows of set walks plus sealed-run ranges.
    std::uint64_t opens = 0;
    std::uint64_t walked = 0;
  };
  struct Candidate {
    std::size_t bound = 0;
    std::size_t size = 0;
    std::uint32_t atom = 0;
  };
  static bool Worse(const Candidate& a, const Candidate& b);
  void Push(std::uint32_t atom);

  void Order(const Request& request);
  void Take(std::uint32_t atom);
  void Open(Depth& depth, const Request& request,
            const instance::Value* frame);
  bool Next(Depth& depth, RowRef* row);
  static bool Apply(const Depth& depth, const RowRef& row,
                    instance::Value* frame);
  void NoteWalks();

  std::vector<Atom> atoms_;
  std::size_t stride_ = 0;
  Slot inputs_ = 0;
  // False when an atom holds a function term or a variable with no slot.
  bool matchable_ = true;
  std::vector<std::vector<std::uint32_t>> occurrences_;  // slot -> atoms
  std::vector<std::size_t> static_bound_;  // constants per atom
  const instance::Instance* resolved_for_ = nullptr;
  // Per-call scratch.
  std::vector<char> bound_;
  std::vector<std::size_t> bound_terms_;
  std::vector<char> used_;
  std::vector<Candidate> heap_;
  std::vector<std::uint32_t> order_;
  std::vector<Depth> depths_;
};

}  // namespace mm2::chase

#endif  // MM2_CHASE_PLAN_H_
