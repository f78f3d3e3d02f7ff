// Monitor-the-monitor: the unified metrics registry.
//
// The paper's thesis is that a distributed computation must be measured,
// not guessed at (§2.1); this module applies the same standard to the
// monitor itself. Every subsystem (kernel metering, fabric, filter,
// daemon, controller, executive) accounts through one Registry of named
// instruments instead of ad-hoc stats structs:
//
//   Counter    monotonic event count
//   Gauge      instantaneous level with a high-water mark
//   Histogram  fixed-bucket log2 distribution (count/sum/min/max + buckets)
//
// Keys are "subsystem.name" ("kernel.meter_events", "net.delivery_us").
// All timestamps are *simulated* time: the registry never reads a wall
// clock — its clock is a callback the simulation executive installs, so
// standalone use (unit tests, microbenchmarks) simply reads zero.
//
// Trace spans (ObsSpan, span.h) record begin/end events with parent
// linkage into a bounded ring owned by the registry.
//
// Hot-path discipline: instrument handles are plain pointers resolved
// once (the maps are node-based, so references are stable); recording is
// an inline add/compare with no allocation and no locking (the simulation
// is single-threaded by construction).
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.h"

namespace dpm::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// A level (buffer occupancy, queue depth) with a high-water mark. The
/// value is signed so that mismatched add/sub pairs surface as a negative
/// level instead of a silent wrap.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_ = v;
    if (v > high_) high_ = v;
  }
  void add(std::int64_t d) { set(v_ + d); }
  void sub(std::int64_t d) { v_ -= d; }  // never lowers the high-water mark
  std::int64_t value() const { return v_; }
  std::int64_t high_water() const { return high_; }

 private:
  std::int64_t v_ = 0;
  std::int64_t high_ = 0;
};

/// Fixed-bucket log2 histogram of non-negative samples. Bucket 0 holds
/// v <= 0; bucket i (i >= 1) holds v in [2^(i-1), 2^i). 64 buckets cover
/// the whole int64 range, so record() never clips.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    if (__builtin_add_overflow(sum_, v, &sum_)) {
      sum_ = v < 0 ? INT64_MIN : INT64_MAX;  // saturate
    }
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  static int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `i` (what a percentile reports).
  static std::int64_t bucket_bound(int i) {
    if (i <= 0) return 0;
    if (i >= 63) return INT64_MAX;
    return (std::int64_t{1} << i) - 1;
  }

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  const std::uint64_t* buckets() const { return buckets_; }

  /// Upper-bound estimate of the p-th percentile (p in [0,100]): the
  /// bound of the first bucket whose cumulative count reaches p% of the
  /// samples, clamped to the observed maximum. Zero when empty.
  std::int64_t percentile(double p) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// The three quantiles every latency surface prints (the dpmtop pipeline
/// panel, dpmstat, and the controller's `lag` command all share this
/// estimator so a stage reads the same everywhere).
struct Percentiles {
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
};

/// Shared p50/p95/p99 estimation over log2 bucket counts. `buckets` holds
/// `n` consecutive bucket counts (bucket 0 first, Histogram layout);
/// `max_seen` clamps the reported bounds to the observed maximum, exactly
/// like Histogram::percentile. All zeros when the histogram is empty.
Percentiles log2_percentiles(const std::uint64_t* buckets, int n,
                             std::int64_t max_seen);

/// Sparse overload for parsed snapshots (obs/snapshot.h stores only the
/// non-empty buckets as (index, count) pairs).
Percentiles log2_percentiles(
    const std::vector<std::pair<int, std::uint64_t>>& sparse,
    std::int64_t max_seen);

/// One begin or end event of a trace span, as stored in the ring.
struct SpanEvent {
  std::uint64_t span = 0;    // span id (1-based)
  std::uint64_t parent = 0;  // enclosing open span at begin time (0 = root)
  std::string name;          // "subsystem.operation"
  bool begin = false;        // begin or end event
  std::int64_t t_us = 0;     // sim time of the event
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- instruments (references are stable for the registry's lifetime) --
  Counter& counter(std::string_view key);
  Gauge& gauge(std::string_view key);
  Histogram& histogram(std::string_view key);

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // ---- sim-time clock ---------------------------------------------------
  /// Installs the time source (the executive's clock). Without one, now()
  /// is the epoch — spans then record zero-length durations, which keeps
  /// standalone registries (tests, microbenchmarks) working.
  void set_clock(std::function<util::TimePoint()> fn) { clock_ = std::move(fn); }
  util::TimePoint now() const { return clock_ ? clock_() : util::TimePoint{}; }

  // ---- trace spans (used via ObsSpan, span.h) ---------------------------
  /// Begins a span: pushes a begin event and returns the span id.
  std::uint64_t span_begin(std::string name);
  /// Ends the given span (must be the innermost open one; spans are RAII
  /// so begin/end nest by construction).
  void span_end(std::uint64_t id);
  void set_span_ring_capacity(std::size_t cap) { span_capacity_ = cap; }
  const std::deque<SpanEvent>& span_ring() const { return span_ring_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }
  /// Id of the innermost open span (0 = none) — the parent of the next one.
  std::uint64_t current_span() const {
    return open_spans_.empty() ? 0 : open_spans_.back().span;
  }

  // ---- snapshots ---------------------------------------------------------
  /// Serializes every instrument plus the span ring to JSONL (see
  /// snapshot.h for the line schema and the parser).
  std::string snapshot_jsonl() const;
  void snapshot_jsonl(std::string& out) const;

  std::size_t metric_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  void push_span_event(SpanEvent ev);

  // Node-based maps: Counter&/Gauge&/Histogram& stay valid forever.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;

  std::function<util::TimePoint()> clock_;

  struct OpenSpan {
    std::uint64_t span = 0;
    std::string name;
  };
  std::deque<SpanEvent> span_ring_;
  std::deque<OpenSpan> open_spans_;  // stack: innermost at the back
  std::size_t span_capacity_ = 1024;
  std::uint64_t next_span_ = 1;
  std::uint64_t spans_dropped_ = 0;
  mutable std::uint64_t snapshot_seq_ = 0;
};

}  // namespace dpm::obs
