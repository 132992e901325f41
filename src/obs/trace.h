#ifndef LAMBADA_OBS_TRACE_H_
#define LAMBADA_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace lambada::obs {

/// Query-scoped span tracer stamped from the simulator's virtual clock.
///
/// Spans form a tree rooted at the driver's "query" span. Every begin/end/
/// annotate happens in simulator event order, and span ids are assigned in
/// creation order, so for a fixed (workload, seed) the whole trace — ids,
/// timestamps, args — is identical across runs. Tracing draws no
/// randomness and sleeps for no virtual time: enabling it cannot perturb a
/// simulation.
///
/// Span id 0 is "no span": every mutator is a no-op on id 0, so call sites
/// hold a plain uint64_t and never need a tracer-null check after Begin.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 only for the root.
    int track = 0;        ///< Chrome pid: 0 = driver, worker_id + 1 = worker.
    std::string cat;
    std::string name;
    double start = 0;
    double end = -1;  ///< < 0 while open.
    /// Insertion-ordered key/value annotations.
    std::vector<std::pair<std::string, std::string>> args;
    /// Timestamped point annotations (fault events, retries, hedges).
    std::vector<std::pair<double, std::string>> instants;
  };

  /// Creates the root "query" span (cat "driver") at the current time.
  explicit Tracer(sim::Simulator* sim);

  uint64_t root() const { return root_; }
  sim::Simulator* simulator() const { return sim_; }

  /// Opens a child of `parent` (root if parent is 0) at the current time.
  uint64_t BeginSpan(uint64_t parent, std::string cat, std::string name);
  /// Closes `id` at the current time. Idempotent; no-op on id 0.
  void EndSpan(uint64_t id);

  void AddArg(uint64_t id, const std::string& key, std::string value);
  void AddArg(uint64_t id, const std::string& key, int64_t value);
  /// Fixed %.6f formatting so text exports stay byte-stable.
  void AddArgF(uint64_t id, const std::string& key, double value);
  /// Point annotation at the current virtual time.
  void Instant(uint64_t span, std::string text);
  /// Chrome track (pid) for a span; children inherit at BeginSpan.
  void SetTrack(uint64_t id, int track);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(uint64_t id) const { return spans_[id - 1]; }

  /// Chrome `trace_event` JSON (chrome://tracing, Perfetto). Complete "X"
  /// events plus "i" instants; overlapping spans of one track are spread
  /// across tids by greedy interval partitioning.
  std::string ChromeTraceJson() const;

  /// Indented deterministic tree rendering, the golden-test format:
  ///   [start .. end] name | k=v k=v
  ///     @time annotation
  std::string DeterministicText() const;

 private:
  Span* Find(uint64_t id);

  sim::Simulator* sim_;
  std::vector<Span> spans_;  ///< spans_[id - 1]; ids are dense from 1.
  uint64_t root_ = 0;
};

/// Begin helper tolerating a null tracer (tracing disabled => id 0).
inline uint64_t Begin(Tracer* t, uint64_t parent, std::string cat,
                      std::string name) {
  return t == nullptr
             ? 0
             : t->BeginSpan(parent, std::move(cat), std::move(name));
}

inline void End(Tracer* t, uint64_t id) {
  if (t != nullptr) t->EndSpan(id);
}

}  // namespace lambada::obs

#endif  // LAMBADA_OBS_TRACE_H_
