// Virtual-time flight recorder: a cadence-driven sampler over the
// MetricRegistry.
//
// A FlightRecorder installs itself on a Simulation (sim.set_recorder) and
// arms a self-rescheduling callback event: every `cadence` of *virtual*
// time it snapshots every Counter and Gauge in the registry into a frame --
// counters as deltas since the previous frame (so a frame is a rate over
// its window), gauges as their current level -- and appends the frame to a
// bounded ring. When the ring is full the oldest frame is overwritten and
// counted as dropped, so a week-long run records the tail of its own
// history in O(capacity) memory, exactly like an aircraft flight recorder.
//
// Determinism: sample times are virtual, metric names are walked in the
// registry's sorted order, and series ids are assigned at first sight of a
// name -- so two same-seed runs with the same cadence export byte-identical
// timeline JSON. See DESIGN.md section 14.
//
// Null-recorder guard (the tracer idiom): the kernel never calls into the
// recorder -- an uninstrumented run pays nothing, not even a branch. The
// pending tick callback captures the Simulation and the recorder pointer
// and re-checks `sim.recorder() == this` before touching the recorder, so
// destroying a recorder (after uninstalling it) leaves a scheduled tick
// harmlessly inert.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace pacon::obs {

struct RecorderConfig {
  /// Virtual time between samples.
  sim::SimDuration cadence = 5'000'000;  // 5 ms
  /// Ring capacity in frames; the oldest frame is dropped on overflow.
  std::size_t capacity = 4096;
};

/// One sampled frame. Metric identity is an index into the recorder's
/// name tables (names()), assigned stably at first sight.
struct TimelineFrame {
  sim::SimTime at = 0;
  /// (counter id, delta since previous frame); zero deltas are elided.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> counter_deltas;
  /// (gauge id, level at sample time); every known gauge, every frame, so a
  /// frame is interpretable even after the ring dropped its predecessors.
  std::vector<std::pair<std::uint32_t, std::int64_t>> gauge_values;
};

class FlightRecorder {
 public:
  /// Installs itself on `sim` and arms the first tick at now + cadence.
  explicit FlightRecorder(sim::Simulation& sim, RecorderConfig config = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  /// Uninstalls itself if still the installed recorder.
  ~FlightRecorder();

  /// Takes one snapshot at the current virtual time. Called by the cadence
  /// tick; callers may also invoke it directly for a final frame at
  /// teardown. Frames at a time not after the previous frame are skipped
  /// (e.g. teardown right on a tick boundary), keeping timestamps strictly
  /// increasing.
  void sample();

  /// Frames currently held in the ring (<= capacity).
  std::size_t frame_count() const { return ring_.size(); }
  /// Total frames ever sampled, including dropped ones.
  std::uint64_t frames_recorded() const { return frames_recorded_; }
  /// Frames overwritten by ring wraparound.
  std::uint64_t frames_dropped() const { return frames_recorded_ - ring_.size(); }

  /// Oldest-to-newest view of the ring. Index 0 is the oldest retained
  /// frame, not necessarily the first recorded one.
  const TimelineFrame& frame(std::size_t index) const;

  /// Counter / gauge name tables; TimelineFrame ids index into these.
  const std::vector<std::string>& counter_names() const { return counter_names_; }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }

  /// One JSON series object for this recorder's ring:
  /// {"label":...,"cadence_ns":...,"capacity":...,"frames_recorded":...,
  ///  "frames_dropped":...,"counters":[names],"gauges":[names],
  ///  "frames":[{"t_ns":...,"c":[[id,delta],...],"g":[[id,value],...]},...]}
  std::string export_series_json(std::string_view label) const;

  sim::Simulation& sim() { return sim_; }

 private:
  void arm();

  sim::Simulation& sim_;
  RecorderConfig config_;
  sim::SimTime last_sample_at_ = 0;
  bool sampled_once_ = false;
  // Tracked metrics, kept sorted by name and merge-walked against the
  // registry's (also name-sorted) maps each sample: no hashing, no by-name
  // lookups. `id` is the export-stable series id (first-sight order);
  // `last` is the counter value at the previous frame.
  struct TrackedCounter {
    std::string name;
    const sim::Counter* counter;
    std::uint32_t id;
    std::uint64_t last;
  };
  struct TrackedGauge {
    std::string name;
    const sim::Gauge* gauge;
    std::uint32_t id;
  };
  std::vector<TrackedCounter> counters_;
  std::vector<TrackedGauge> gauges_;
  std::vector<std::string> counter_names_;  // id -> name
  std::vector<std::string> gauge_names_;    // id -> name
  // Ring of frames: ring_[(head_ + i) % capacity] is the i-th oldest.
  std::vector<TimelineFrame> ring_;
  std::size_t head_ = 0;
  std::uint64_t frames_recorded_ = 0;
};

/// Accumulates labelled recorder series and writes them as one timeline
/// document: {"schema":"pacon-timeline-v1","name":...,"series":[...]}.
/// The multi-series twin of obs::RunReport -- a bench that builds several
/// testbeds captures each bed's ring under its own label.
class TimelineReport {
 public:
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  void capture(std::string_view label, const FlightRecorder& recorder) {
    series_.push_back(recorder.export_series_json(label));
  }
  std::size_t series_count() const { return series_.size(); }

  std::string to_json() const;

  /// Writes to `dir`/`name`_timeline.json (dir "" = cwd; created if
  /// missing, like RunReport::write). False on I/O error.
  bool write(const std::string& dir) const;

 private:
  std::string name_ = "run";
  std::vector<std::string> series_;
};

}  // namespace pacon::obs
