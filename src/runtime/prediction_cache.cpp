#include "runtime/prediction_cache.hpp"

#include "fault/failpoint.hpp"
#include "util/hash.hpp"

namespace logsim::runtime {

std::uint64_t prediction_program_hash(const core::StepProgram& program,
                                      const core::CostTable& costs) {
  // One encoding for all structural keys: the program is folded in via
  // core::structural_hash (which reuses CommPattern::hash per comm step).
  util::Fnv1a h;
  h.mix_u64(core::structural_hash(program));
  // The calibration: op names and points, in registration order (the
  // program's items address ops by id, so order is meaningful).
  h.mix_i64(costs.op_count());
  for (core::OpId op = 0; op < costs.op_count(); ++op) {
    const std::string& name = costs.name(op);
    h.mix_i64(static_cast<std::int64_t>(name.size()));
    h.mix_bytes(name.data(), name.size());
    for (const int block : costs.block_sizes(op)) {
      h.mix_i64(block);
      h.mix_double(costs.cost(op, block).us());
    }
  }
  return h.digest();
}

std::uint64_t prediction_key_hash(std::uint64_t program_hash,
                                  const loggp::Params& params,
                                  std::uint64_t seed) {
  util::Fnv1a h;
  h.mix_double(params.L.us());
  h.mix_double(params.o.us());
  h.mix_double(params.g.us());
  h.mix_double(params.G);
  h.mix_i64(params.P);
  h.mix_u64(seed);
  h.mix_u64(program_hash);
  return h.digest();
}

std::uint64_t prediction_key_hash(const core::StepProgram& program,
                                  const core::CostTable& costs,
                                  const loggp::Params& params,
                                  std::uint64_t seed) {
  // Composition of the two halves above.  The digests are in-memory cache
  // keys, not a stored format: they may change between versions.
  return prediction_key_hash(prediction_program_hash(program, costs), params,
                             seed);
}

std::size_t prediction_entry_bytes(const core::StepProgram& program,
                                   const core::CostTable& costs,
                                   const core::Prediction& prediction) {
  std::size_t bytes = sizeof(core::StepProgram) + sizeof(core::CostTable) +
                      sizeof(core::Prediction);
  for (std::size_t i = 0; i < program.size(); ++i) {
    const auto& step = program.step(i);
    bytes += sizeof(step);
    if (const auto* comp = std::get_if<core::ComputeStep>(&step)) {
      bytes += comp->items.size() * sizeof(core::WorkItem);
      for (const auto& item : comp->items) {
        bytes += item.touched.size() * sizeof(std::int64_t);
      }
    } else {
      bytes += std::get<core::CommStep>(step).pattern.size() *
               sizeof(pattern::Message);
    }
  }
  // The cost table is a full copy too, and on the serving path it is
  // untrusted upload content: a huge table with a tiny program must not
  // slip past the budget.
  for (core::OpId op = 0; op < costs.op_count(); ++op) {
    bytes += sizeof(std::string) + costs.name(op).size() +
             costs.block_sizes(op).size() * (sizeof(int) + sizeof(Time));
  }
  for (const auto* result : {&prediction.standard, &prediction.worst_case}) {
    bytes += (result->proc_end.size() + result->comp.size() +
              result->comm.size()) *
             sizeof(Time);
  }
  return bytes;
}

namespace {

/// Full-key verification: a hash collision must be a miss.
auto same_key(const core::StepProgram& program, const core::CostTable& costs,
              const loggp::Params& params, std::uint64_t seed) {
  return [prog = &program, table = &costs, point = &params,
          seed](const auto& entry) {
    return entry.seed == seed && entry.params == *point &&
           entry.program == *prog && entry.costs == *table;
  };
}

}  // namespace

std::optional<core::Prediction> PredictionCache::lookup(
    const core::StepProgram& program, const core::CostTable& costs,
    const loggp::Params& params, std::uint64_t seed) {
  return lookup(prediction_key_hash(program, costs, params, seed), program,
                costs, params, seed);
}

std::optional<core::Prediction> PredictionCache::lookup(
    std::uint64_t hash, const core::StepProgram& program,
    const core::CostTable& costs, const loggp::Params& params,
    std::uint64_t seed) {
  // An injected lookup failure degrades to a miss: the cache is an
  // optimization, so a flaky backing store must never fail a prediction.
  if (Status st = fault::failpoint("cache.lookup"); !st.ok()) {
    lru_.count_miss(hash);
    return std::nullopt;
  }
  std::optional<core::Prediction> found;
  (void)lru_.lookup(hash, same_key(program, costs, params, seed),
                    [&found](const Entry& entry) {
                      found = entry.prediction;
                      return false;
                    });
  return found;
}

void PredictionCache::insert(const core::StepProgram& program,
                             const core::CostTable& costs,
                             const loggp::Params& params, std::uint64_t seed,
                             const core::Prediction& prediction) {
  insert(prediction_key_hash(program, costs, params, seed), program, costs,
         params, seed, prediction);
}

void PredictionCache::insert(std::uint64_t hash,
                             const core::StepProgram& program,
                             const core::CostTable& costs,
                             const loggp::Params& params, std::uint64_t seed,
                             const core::Prediction& prediction) {
  // An injected insert failure skips the store; correctness is unaffected,
  // the entry is simply recomputed next time.
  if (Status st = fault::failpoint("cache.insert"); !st.ok()) return;
  (void)lru_.insert(hash, same_key(program, costs, params, seed),
                    Entry{program, costs, params, seed, prediction},
                    prediction_entry_bytes(program, costs, prediction));
}

}  // namespace logsim::runtime
