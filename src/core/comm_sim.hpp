#pragma once
// The paper's standard communication simulation algorithm (Figure 2).
//
// Given a communication pattern, determines the sequence of send and
// receive operations of every processor under the LogGP model so that:
//   * the gap g is maintained between consecutive network operations,
//   * available messages are sent as soon as possible,
//   * receive operations have priority over send operations (Split-C
//     active-message semantics).
//
// Each processor keeps a FIFO queue of messages to send and a priority
// queue of in-flight messages ordered by arrival time.  The main loop
// repeatedly picks the processor with the minimum current time among those
// that still want to send (ties broken randomly but reproducibly), lets it
// choose between its next send and its earliest pending receive by
// comparing the start times both would get, performs the cheaper one
// (receives win ties), and finally drains all remaining receives.
//
// The minimum selection is incremental: a binary heap keyed on
// (ctime, proc) holds one entry per processor that still wants to send,
// so each committed op costs O(t log P) (t = processors tied at the
// minimum) instead of the former O(P) rescan.  Tie-break semantics are
// preserved exactly -- see the determinism contract in run_into().

#include <cstdint>
#include <functional>

#include "core/comm_sink.hpp"
#include "core/sim_scratch.hpp"
#include "core/trace.hpp"
#include "loggp/params.hpp"
#include "pattern/comm_pattern.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace logsim::network {
class NetworkModel;
}  // namespace logsim::network

namespace logsim::core {

struct CommSimOptions {
  /// Seed for the random tie break between equal-ctime processors.
  std::uint64_t seed = 1;
  /// Invert the paper's Split-C assumption: let a send win when its start
  /// time ties the pending receive's.  Exists for the ablation that
  /// quantifies how much the receive-priority rule matters
  /// (bench/ablation_priority).
  bool send_priority = false;
  /// Topology backend (borrowed; must outlive the simulator).  nullptr or
  /// a FlatLogGP instance leaves the flat hot path bit-identical: the
  /// per-message addition is skipped entirely.  A non-flat model's
  /// step_delays() is evaluated once per run into scratch and added to
  /// every message's arrival time (hop latency + bandwidth sharing).
  const network::NetworkModel* net = nullptr;
  /// The Testbed's latency-jitter hook: extra latency for one message,
  /// added AFTER the NetworkModel delay.  It is called at send-commit
  /// time, in schedule order, which is when the Testbed draws its
  /// real-network jitter -- a vector computed in advance would change the
  /// draw order and so every Testbed number.  Topology costs belong in
  /// `net` above.  Must return >= 0.
  std::function<Time(std::size_t msg_index)> extra_latency;
};

class CommSimulator {
 public:
  explicit CommSimulator(loggp::Params params, CommSimOptions opts = {});

  /// Simulates one communication step; all processors ready at t=0.
  [[nodiscard]] CommTrace run(const pattern::CommPattern& pattern) const;

  /// Simulates one communication step with per-processor ready times
  /// (the incremental form the program simulator uses: processors enter
  /// the step when their preceding computation finishes).
  [[nodiscard]] CommTrace run(const pattern::CommPattern& pattern,
                              const std::vector<Time>& ready) const;

  /// As above, plus per-message earliest injection times (indexed like
  /// pattern.messages(); empty entries default to the source's ready
  /// time).  Sends stay in per-source program order but each waits for
  /// its own message to be produced -- the hook the overlapping-
  /// communication extension uses to inject results as they appear.
  [[nodiscard]] CommTrace run(const pattern::CommPattern& pattern,
                              const std::vector<Time>& ready,
                              const std::vector<Time>& msg_ready) const;

  /// The zero-allocation hot path: simulates into a caller-supplied sink
  /// using caller-supplied scratch state.  With a warmed-up scratch (one
  /// prior run of comparable size) and a FinishOnlySink this performs no
  /// heap allocation at all; the run() overloads above are thin wrappers
  /// recording into a fresh CommTrace via a thread-local scratch.
  /// `msg_ready` may be empty (no per-message injection floors).  The
  /// library instantiates Sink = CommTrace and Sink = FinishOnlySink.
  template <CommSink Sink>
  void run_into(const pattern::CommPattern& pattern,
                const std::vector<Time>& ready,
                const std::vector<Time>& msg_ready, Sink& sink,
                CommSimScratch& scratch) const;

  /// Mega-scale fast path: the same Figure-2 schedule, but equal-ctime
  /// ties are resolved deterministically (lowest processor first) and the
  /// minimum is found by round-based linear scans over the flat ctime[]
  /// array instead of heap + rng -- sequential, SIMD-friendly sweeps with
  /// no per-op log-P pointer chasing, which is what makes P = 1M steps
  /// simulate in well under a second.
  ///
  /// Sound ONLY for uniform-byte patterns: there the finish times are
  /// invariant under the tie-break policy (the relabel/seed-independence
  /// invariant of pattern/canonical.hpp that the comm-step cache and the
  /// parallel component decomposition already rely on), so this produces
  /// exactly the finish times, op and send counts of the seeded scalar
  /// path.  Op *order* and msg_index assignment may differ -- hence the
  /// FinishOnlySink-only signature.  Ignores send_priority/extra_latency
  /// (callers on this path never set them).
  ///
  /// Returns false without completing when the pattern's round structure
  /// is too sparse for scanning (few ops per distinct ctime, e.g. a
  /// serialized flat broadcast): the caller must reset the sink and fall
  /// back to run_into().  The density heuristic is a round budget of
  /// 64 + 16 * ops / procs scans.  Also returns false immediately under a
  /// non-flat NetworkModel: topology delays depend on absolute processor
  /// ids, which the relabel-invariance argument does not survive.
  [[nodiscard]] bool run_dense_into(const pattern::CommPattern& pattern,
                                    const std::vector<Time>& ready,
                                    FinishOnlySink& sink,
                                    CommSimScratch& scratch) const;

  [[nodiscard]] const loggp::Params& params() const { return params_; }

 private:
  loggp::Params params_;
  CommSimOptions opts_;
};

}  // namespace logsim::core
