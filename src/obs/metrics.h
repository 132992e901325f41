#ifndef LAMBADA_OBS_METRICS_H_
#define LAMBADA_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"

namespace lambada::obs {

/// Every metric the system emits, by stable numeric id. The id is the wire
/// tag (a worker's registry rides inside core::ResultMessage), so entries
/// are append-only: never renumber, never reuse a retired id.
enum class Metric : uint16_t {
  kProcessingTime = 0,
  kRowsScanned = 1,
  kRowsEmitted = 2,
  kRowGroupsTotal = 3,
  kRowGroupsPruned = 4,
  kRowsDictFiltered = 5,
  kScanFiles = 6,
  kScanGetRequests = 7,
  kScanBytesMoved = 8,
  kRowsJoined = 9,
  kExchangeRounds = 10,
  kExchangePutRequests = 11,
  kExchangeGetRequests = 12,
  kExchangeListRequests = 13,
  kExchangeBytesWritten = 14,
  kExchangeBytesRead = 15,
  kS3Retries = 16,
  kHedgedRequests = 17,
  kHedgeWins = 18,
  kExchangeRoundTime = 19,
  kScanRowGroupTime = 20,
  kMetaCacheHits = 21,
  kMetaCacheMisses = 22,
  kSharedScanFetches = 23,
  kSharedScanAttaches = 24,
  kSharedScanRearms = 25,
  kServedQueries = 26,
  kQueuedQueries = 27,
  kRejectedQueries = 28,
  kCount,
};

enum class MetricType : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// One row of the metric name registry. `name` is the stable public name
/// (docs/OBSERVABILITY.md lists the same table; scripts/check_docs.py
/// greps both against each other).
struct MetricDef {
  Metric id;
  const char* name;
  MetricType type;
  const char* unit;
  const char* help;
};

/// The full declaration table, indexed by metric id (dense, in id order).
const std::vector<MetricDef>& MetricTable();

/// Declaration row for one metric.
const MetricDef& DefOf(Metric m);

/// Bucket upper edges (seconds) shared by all virtual-time histograms.
/// A value lands in the first bucket whose edge is >= it; values beyond
/// the last edge land in the overflow bucket (edges.size()).
const std::vector<double>& VirtualTimeBucketEdges();

struct Histogram {
  std::vector<int64_t> buckets;  ///< edges.size() + 1 slots (last = overflow).
  double sum = 0;
  int64_t count = 0;
};

/// A sparse bag of named metric values. All updates happen on the simulator
/// thread; there is no locking. Registries serialize compactly (only
/// non-empty entries travel) and merge additively, which is how per-worker
/// registries roll up into the fleet-wide one on QueryReport.
class MetricsRegistry {
 public:
  /// Counter increment. DCHECKs that `m` is declared as a counter.
  void Add(Metric m, int64_t delta);
  /// Gauge assignment. DCHECKs that `m` is declared as a gauge.
  void Set(Metric m, double value);
  /// Histogram observation (virtual seconds).
  void Observe(Metric m, double value);

  int64_t counter(Metric m) const;
  double gauge(Metric m) const;
  /// Null when the histogram has no observations.
  const Histogram* histogram(Metric m) const;

  /// Additive merge: counters and histogram buckets add; gauges add too
  /// (summing worker processing time across a fleet is the useful total).
  void Merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  /// Wire format (inside ResultMessage): three sections — counters, gauges,
  /// histograms — each a varint count followed by (varint id, payload)
  /// entries in ascending id order. Only non-empty entries are written.
  void Serialize(BinaryWriter* w) const;
  static Result<MetricsRegistry> Deserialize(BinaryReader* r);

  /// Deterministic "name = value" lines in id order, for debugging and for
  /// the EXPLAIN ANALYZE footer.
  std::string ToText() const;

 private:
  std::map<uint16_t, int64_t> counters_;
  std::map<uint16_t, double> gauges_;
  std::map<uint16_t, Histogram> hists_;
};

}  // namespace lambada::obs

#endif  // LAMBADA_OBS_METRICS_H_
