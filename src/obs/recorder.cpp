#include "obs/recorder.h"

#include <cassert>
#include <filesystem>
#include <fstream>

namespace pacon::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_name_array(std::string& out, const std::vector<std::string>& names) {
  out += '[';
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, names[i]);
    out += '"';
  }
  out += ']';
}

}  // namespace

FlightRecorder::FlightRecorder(sim::Simulation& sim, RecorderConfig config)
    : sim_(sim), config_(config) {
  assert(config_.cadence > 0 && "a zero cadence would self-reschedule forever at one instant");
  assert(config_.capacity > 0);
  ring_.reserve(config_.capacity);
  sim_.set_recorder(this);
  arm();
}

FlightRecorder::~FlightRecorder() {
  if (sim_.recorder() == this) sim_.set_recorder(nullptr);
}

void FlightRecorder::arm() {
  // Two-pointer capture: fits SmallFunc's inline storage, so the cadence
  // tick never allocates. The recorder() re-check is the lifetime guard --
  // a tick outliving its (uninstalled, destroyed) recorder is inert.
  sim::Simulation* sim = &sim_;
  FlightRecorder* self = this;
  sim_.schedule_callback(sim_.now() + config_.cadence, [sim, self] {
    if (sim->recorder() != self) return;
    self->sample();
    self->arm();
  });
}

void FlightRecorder::sample() {
  const sim::SimTime now = sim_.now();
  if (sampled_once_ && now <= last_sample_at_) return;
  sim_.publish_kernel_metrics();

  TimelineFrame frame;
  frame.at = now;

  // Lockstep merge of the registry's name-sorted maps against the tracked
  // vectors (also name-sorted): no hashing, no by-name lookups, one linear
  // walk per sample. The registry never removes metrics, so tracked names
  // are always a subset of registry names and only insertions can occur.
  const auto& counters = sim_.metrics().counters();
  std::size_t ci = 0;
  for (const auto& [name, c] : counters) {
    if (ci == counters_.size() || name < counters_[ci].name) {
      const auto id = static_cast<std::uint32_t>(counter_names_.size());
      counter_names_.push_back(name);
      counters_.insert(counters_.begin() + static_cast<std::ptrdiff_t>(ci),
                       TrackedCounter{name, c.get(), id, 0});
    }
    TrackedCounter& t = counters_[ci++];
    const std::uint64_t v = t.counter->value();
    // `v < last` only after a mid-run registry reset; restart the series.
    const std::uint64_t delta = v >= t.last ? v - t.last : v;
    t.last = v;
    if (delta != 0) frame.counter_deltas.emplace_back(t.id, delta);
  }

  const auto& gauges = sim_.metrics().gauges();
  std::size_t gi = 0;
  for (const auto& [name, g] : gauges) {
    if (gi == gauges_.size() || name < gauges_[gi].name) {
      const auto id = static_cast<std::uint32_t>(gauge_names_.size());
      gauge_names_.push_back(name);
      gauges_.insert(gauges_.begin() + static_cast<std::ptrdiff_t>(gi),
                     TrackedGauge{name, g.get(), id});
    }
    const TrackedGauge& t = gauges_[gi++];
    frame.gauge_values.emplace_back(t.id, t.gauge->value());
  }

  if (ring_.size() < config_.capacity) {
    ring_.push_back(std::move(frame));
  } else {
    ring_[head_] = std::move(frame);
    head_ = (head_ + 1) % config_.capacity;
  }
  ++frames_recorded_;
  last_sample_at_ = now;
  sampled_once_ = true;
}

const TimelineFrame& FlightRecorder::frame(std::size_t index) const {
  assert(index < ring_.size());
  return ring_[(head_ + index) % ring_.size()];
}

std::string FlightRecorder::export_series_json(std::string_view label) const {
  std::string out = "{\"label\":\"";
  append_escaped(out, label);
  out += "\",\"cadence_ns\":" + std::to_string(config_.cadence);
  out += ",\"capacity\":" + std::to_string(config_.capacity);
  out += ",\"frames_recorded\":" + std::to_string(frames_recorded_);
  out += ",\"frames_dropped\":" + std::to_string(frames_dropped());
  out += ",\"counters\":";
  append_name_array(out, counter_names_);
  out += ",\"gauges\":";
  append_name_array(out, gauge_names_);
  out += ",\"frames\":[";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TimelineFrame& f = frame(i);
    if (i) out += ',';
    out += "\n{\"t_ns\":" + std::to_string(f.at);
    out += ",\"c\":[";
    for (std::size_t j = 0; j < f.counter_deltas.size(); ++j) {
      if (j) out += ',';
      out += '[' + std::to_string(f.counter_deltas[j].first) + ',' +
             std::to_string(f.counter_deltas[j].second) + ']';
    }
    out += "],\"g\":[";
    for (std::size_t j = 0; j < f.gauge_values.size(); ++j) {
      if (j) out += ',';
      out += '[' + std::to_string(f.gauge_values[j].first) + ',' +
             std::to_string(f.gauge_values[j].second) + ']';
    }
    out += "]}";
  }
  out += "\n]}";
  return out;
}

std::string TimelineReport::to_json() const {
  std::string out = "{\"schema\":\"pacon-timeline-v1\",\"name\":\"";
  append_escaped(out, name_);
  out += "\",\"series\":[\n";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i) out += ",\n";
    out += series_[i];
  }
  out += "\n]}\n";
  return out;
}

bool TimelineReport::write(const std::string& dir) const {
  std::string path = dir;
  if (!path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (path.back() != '/') path += '/';
  }
  path += name_ + "_timeline.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace pacon::obs
