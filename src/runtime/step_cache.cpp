#include "runtime/step_cache.hpp"

#include <memory>
#include <utility>

#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace logsim::runtime {

namespace {

std::size_t entry_bytes(const pattern::CanonicalPattern& canon,
                        std::size_t participants) {
  // Approximate footprint: the entry's own vectors plus the canonical
  // form's messages.  The form is shared between entries (that is the
  // interner's point), so charging it per entry overcounts -- the safe
  // direction for a budget.
  return 256 + participants * (2 * sizeof(Time) + sizeof(ProcId)) +
         canon.form.size() * sizeof(pattern::Message);
}

}  // namespace

bool SharedStepCache::matches(const Entry& entry,
                              const core::CommStepQuery& query) {
  if (entry.worst_case != query.worst_case || entry.exact != query.exact) {
    return false;
  }
  if (!(entry.params == *query.params)) return false;
  if (entry.ready != *query.ready) return false;
  if (entry.exact && (entry.seed != query.seed ||
                      entry.origin_perm != *query.from_canonical)) {
    return false;
  }
  // Same interned object on both sides proves pattern equivalence without
  // walking the messages: the interner only hands out a CanonicalPattern
  // after verifying canonical_equals against the pattern it was asked to
  // intern, so entry and query patterns are both relabelings of this form.
  if (query.canon != nullptr && entry.canon.get() == query.canon.get()) {
    return true;
  }
  return entry.canon->form.procs() ==
             static_cast<int>(query.from_canonical->size()) &&
         pattern::canonical_equals(*query.pattern, *query.to_canonical,
                                   entry.canon->form);
}

bool SharedStepCache::lookup(const core::CommStepQuery& query,
                             std::vector<Time>& finish, std::size_t& ops) {
  // An injected lookup failure degrades to a miss: the cache is an
  // optimization, so a flaky backing store must never fail a simulation.
  obs::TraceSession& tracer = obs::TraceSession::global();
  if (Status st = fault::failpoint("step_cache.lookup"); !st.ok()) {
    lru_.count_miss(query.key_hash);
    if (tracer.enabled()) tracer.instant("step_cache.miss", "cache");
    return false;
  }
  bool relabel = false;
  const bool hit = lru_.lookup(
      query.key_hash,
      [&query](const Entry& entry) { return matches(entry, query); },
      [&](const Entry& entry) {
        finish.assign(entry.finish.begin(), entry.finish.end());
        ops = entry.ops;
        relabel = !entry.exact && entry.origin_perm != *query.from_canonical;
        return relabel;  // counted as a relabel hit
      });
  if (tracer.enabled()) {
    tracer.instant(!hit      ? "step_cache.miss"
                   : relabel ? "step_cache.relabel_hit"
                             : "step_cache.hit",
                   "cache");
  }
  return hit;
}

void SharedStepCache::insert(const core::CommStepQuery& query,
                             const std::vector<Time>& finish) {
  // An injected insert failure skips the store; correctness is unaffected,
  // the step is simply re-simulated next time.
  if (Status st = fault::failpoint("step_cache.insert"); !st.ok()) return;

  std::shared_ptr<const pattern::CanonicalPattern> canon = query.canon;
  if (canon == nullptr) {
    // Uninterned pattern: materialize a private canonical form (the miss
    // path just paid for a full simulation, so this is noise).
    pattern::Canonicalizer canonicalizer;
    if (canonicalizer.analyze(*query.pattern) == 0) return;
    canon = std::make_shared<const pattern::CanonicalPattern>(
        canonicalizer.materialize(*query.pattern));
  }
  const std::size_t bytes = entry_bytes(*canon, query.from_canonical->size());
  const auto inserted = lru_.insert(
      query.key_hash,
      [&query](const Entry& cached) { return matches(cached, query); },
      Entry{std::move(canon), *query.ready, *query.params,
            query.exact ? query.seed : 0, *query.from_canonical,
            query.worst_case, query.exact, finish, query.ops},
      bytes);
  if (obs::TraceSession& tracer = obs::TraceSession::global();
      tracer.enabled() && inserted.stored) {
    tracer.instant("step_cache.insert", "cache");
    for (std::size_t i = 0; i < inserted.evicted; ++i) {
      tracer.instant("step_cache.evict", "cache");
    }
  }
}

}  // namespace logsim::runtime
