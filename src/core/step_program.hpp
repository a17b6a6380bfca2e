#pragma once
// The restricted program class the paper targets (Section 2): oblivious
// algorithms whose communication and computation steps alternate and never
// overlap, working on equal-sized basic blocks via a finite set of basic
// operations.  A StepProgram is the simulator-facing encoding of one such
// program: an ordered list of ComputeStep / CommStep entries.

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "core/cost_table.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/types.hpp"

namespace logsim::pattern {
struct CanonicalPattern;
class PatternInterner;
}  // namespace logsim::pattern

namespace logsim::core {

/// One basic-operation invocation on one processor.
struct WorkItem {
  ProcId proc = kNoProc;
  OpId op = 0;
  int block_size = 1;
  /// Identifiers of the basic blocks this invocation touches, in access
  /// order.  Ignored by the plain LogGP predictor; consumed by the cache
  /// model extension and by the Testbed machine.
  std::vector<std::int64_t> touched;

  friend bool operator==(const WorkItem&, const WorkItem&) = default;
};

struct ComputeStep {
  std::vector<WorkItem> items;

  friend bool operator==(const ComputeStep&, const ComputeStep&) = default;
};

struct CommStep {
  pattern::CommPattern pattern;
  /// Shared canonical form, populated by StepProgram::intern_patterns().
  /// Pure acceleration state (lets the comm-step cache share one canonical
  /// instance across shifted copies of the pattern); carries no semantic
  /// content, so it is excluded from equality.
  std::shared_ptr<const pattern::CanonicalPattern> canon{};
  /// The relabeling between this pattern and `canon->form`, recorded at
  /// intern time (empty when canon is null).  Steps are immutable once
  /// added to a StepProgram, so the simulator can trust these instead of
  /// re-canonicalizing the pattern on every run -- that walk is what the
  /// maps exist to avoid.  to_canonical: original proc -> canonical id
  /// (kNoProc for non-participants); from_canonical: canonical id ->
  /// original proc, sized to the participant count.
  std::vector<ProcId> to_canonical{};
  std::vector<ProcId> from_canonical{};

  friend bool operator==(const CommStep& a, const CommStep& b) {
    return a.pattern == b.pattern;
  }
};

class StepProgram {
 public:
  explicit StepProgram(int procs) : procs_(procs) {}

  void add_compute(ComputeStep step) { steps_.emplace_back(std::move(step)); }
  void add_comm(CommStep step) { steps_.emplace_back(std::move(step)); }
  void add_comm(pattern::CommPattern pattern) {
    steps_.emplace_back(CommStep{std::move(pattern)});
  }

  [[nodiscard]] int procs() const { return procs_; }
  [[nodiscard]] std::size_t size() const { return steps_.size(); }
  [[nodiscard]] const std::variant<ComputeStep, CommStep>& step(
      std::size_t i) const {
    return steps_[i];
  }

  [[nodiscard]] std::size_t compute_step_count() const;
  [[nodiscard]] std::size_t comm_step_count() const;
  /// Total basic-operation invocations across all compute steps.
  [[nodiscard]] std::size_t work_item_count() const;
  /// Total messages (network + self) across all comm steps.
  [[nodiscard]] std::size_t message_count() const;
  /// Total bytes crossing the network across all comm steps.
  [[nodiscard]] Bytes network_bytes() const;

  /// Attaches a shared canonical form to every comm step that carries
  /// network messages (see pattern::PatternInterner): shifted copies of
  /// one pattern -- within this program or across programs interned in the
  /// same pool -- end up sharing a single CanonicalPattern instance, which
  /// the comm-step cache then reuses instead of copying pattern storage.
  /// Idempotent; called by the program generators at build time.
  void intern_patterns(pattern::PatternInterner& interner);

  /// Structural equality: same processor count and step-for-step identical
  /// contents.  The prediction cache relies on this to tell true hits from
  /// 64-bit hash collisions.
  friend bool operator==(const StepProgram&, const StepProgram&) = default;

 private:
  int procs_;
  std::vector<std::variant<ComputeStep, CommStep>> steps_;
};

/// Structural FNV-1a-64 hash of a whole program: the companion to
/// StepProgram::operator==.  Comm steps are folded in via
/// CommPattern::hash(), so the prediction cache and the comm-step cache
/// share one message encoding.
[[nodiscard]] std::uint64_t structural_hash(const StepProgram& program);

}  // namespace logsim::core
