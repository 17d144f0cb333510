// Fixture: every violation in this file is silenced by an inline lint-allow
// (trailing form, full-line-comment form, comma-list form). The analyzer
// must report zero findings and exactly three suppressions here.
#pragma once

namespace fixture {

// lint-allow: sim-os-lock the full-line-comment form governs the next code line
inline std::mutex big_lock;

inline unsigned reseed() {
  return std::random_device{}() ^ unsigned(time(nullptr));  // lint-allow: sim-random-device,sim-wall-clock comma list silences both
}

}  // namespace fixture
