// Rule implementations. Each rule walks the token stream of one file (plus
// tree-wide facts in Corpus) and emits findings; zone gating happens in the
// run_rules dispatcher at the bottom. The fixture corpus under
// tests/analyze_fixtures/ pins both directions of every rule: the bad
// snippet must fire on the annotated line, the good twin must stay silent.
#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <string>

#include "analyze/analyzer.h"
#include "analyze/structure.h"

namespace pacon::analyze {

namespace {

using structure::CoroSig;
using structure::match_close;
using structure::npos;
using structure::skip_template;

std::string trim_copy(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return std::string(s.substr(b, e - b));
}

void emit(const SourceFile& f, std::vector<Finding>& out, std::string_view rule,
          std::uint32_t line, std::string message) {
  out.push_back({std::string(rule), f.rel, line, std::move(message),
                 trim_copy(f.line_text(line))});
}

bool ident_in(const Token& t, std::initializer_list<std::string_view> names) {
  if (t.kind != Tok::ident) return false;
  return std::find(names.begin(), names.end(), t.text) != names.end();
}

/// ts[i] is the final identifier of a `std::NAME` qualified name.
bool std_qualified(const std::vector<Token>& ts, std::size_t i) {
  return i >= 2 && ts[i - 1].is_punct("::") && ts[i - 2].is_ident("std");
}

// ---- Determinism rules (the retired grep gate's patterns, lexer-grade) ---

void rule_sim_os_thread(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ident_in(ts[i], {"thread", "jthread"}) && std_qualified(ts, i)) {
      emit(f, out, "sim-os-thread", ts[i].line,
           "std::" + std::string(ts[i].text) +
               ": the kernel is cooperatively scheduled and single-threaded");
    }
  }
}

void rule_sim_os_lock(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ident_in(ts[i], {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
                         "recursive_timed_mutex", "condition_variable",
                         "condition_variable_any"}) &&
        std_qualified(ts, i)) {
      emit(f, out, "sim-os-lock", ts[i].line,
           "std::" + std::string(ts[i].text) +
               ": use sim::Mutex/Semaphore, which wake through the event queue");
    }
  }
}

/// Free-function calls `name(` where `name` is unqualified or std-qualified
/// (member calls `obj.name(` and foreign qualifications `ns::name(` do not
/// count -- the class of false positive the grep gate could not express).
void flag_libc_calls(const SourceFile& f, std::vector<Finding>& out, std::string_view rule,
                     std::initializer_list<std::string_view> names, std::string_view why) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ident_in(ts[i], names) || !ts[i + 1].is_punct("(")) continue;
    if (i > 0 && (ts[i - 1].is_punct(".") || ts[i - 1].is_punct("->"))) continue;
    if (i > 0 && ts[i - 1].is_punct("::") && !(i >= 2 && ts[i - 2].is_ident("std"))) continue;
    // `long time(long)` / `int rand(int)` declare a function of that name: a
    // call is never preceded directly by another identifier except a control
    // keyword, a declaration always is (its return type).
    if (i > 0 && ts[i - 1].kind == Tok::ident &&
        !ident_in(ts[i - 1], {"return", "co_return", "co_yield", "co_await", "case", "else",
                              "do"}))
      continue;
    emit(f, out, rule, ts[i].line, std::string(ts[i].text) + "(): " + std::string(why));
  }
}

void rule_sim_libc_rand(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  flag_libc_calls(f, out, "sim-libc-rand", {"rand", "srand", "rand_r", "random", "srandom"},
                  "fork a sim::Rng stream from the run seed instead of libc RNG");
}

void rule_sim_wall_clock(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  flag_libc_calls(f, out, "sim-wall-clock", {"time", "clock"},
                  "wall-clock reads diverge across runs; use Simulation::now() virtual time");
}

void rule_sim_chrono_clock(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 2; i < ts.size(); ++i) {
    if (ident_in(ts[i], {"system_clock", "steady_clock", "high_resolution_clock"}) &&
        ts[i - 1].is_punct("::") && ts[i - 2].is_ident("chrono")) {
      emit(f, out, "sim-chrono-clock", ts[i].line,
           "std::chrono::" + std::string(ts[i].text) +
               ": use SimTime/SimDuration virtual time");
    }
  }
}

void rule_sim_os_clock(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ident_in(ts[i], {"gettimeofday", "clock_gettime", "clock_getres", "timespec_get"})) {
      if (i > 0 && (ts[i - 1].is_punct(".") || ts[i - 1].is_punct("->"))) continue;
      if (i > 0 && ts[i - 1].kind == Tok::ident && !ts[i - 1].is_ident("return"))
        continue;  // `int clock_gettime(...)` shim declaration, not a call
      emit(f, out, "sim-os-clock", ts[i].line,
           std::string(ts[i].text) + ": raw OS clock; use Simulation::now() virtual time");
    }
  }
}

void rule_sim_random_device(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].is_ident("random_device") && std_qualified(ts, i)) {
      emit(f, out, "sim-random-device", ts[i].line,
           "std::random_device is nondeterministic: fork a sim::Rng stream");
    }
  }
}

// ---- New determinism rules (beyond the grep gate) -------------------------

void rule_sim_unordered_iter(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  // Only files that feed the scheduler or the message plane: there,
  // hash-order iteration becomes event order and breaks same-seed runs.
  bool schedules = false;
  for (std::size_t i = 0; i + 1 < ts.size() && !schedules; ++i) {
    schedules = ident_in(ts[i], {"schedule", "schedule_now", "schedule_at", "schedule_callback",
                                 "publish", "spawn", "spawn_at"}) &&
                ts[i + 1].is_punct("(");
  }
  if (!schedules) return;

  // Names declared with an unordered container type in this file.
  std::vector<std::string_view> names;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ident_in(ts[i], {"unordered_map", "unordered_set", "unordered_multimap",
                          "unordered_multiset"}))
      continue;
    const std::size_t gt = skip_template(ts, i + 1);
    if (gt == npos) continue;
    std::size_t j = gt + 1;
    while (j < ts.size() && (ts[j].is_punct("&") || ts[j].is_punct("&&") || ts[j].is_punct("*") ||
                             ts[j].is_ident("const")))
      ++j;
    if (j < ts.size() && ts[j].kind == Tok::ident) names.push_back(ts[j].text);
  }
  if (names.empty()) return;

  // Range-for whose range expression ends in one of those names.
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_ident("for") || !ts[i + 1].is_punct("(")) continue;
    const std::size_t close = match_close(ts, i + 1);
    if (close == npos) continue;
    std::size_t colon = npos;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (ts[j].kind != Tok::punct) continue;
      if (ts[j].text == "(" || ts[j].text == "[" || ts[j].text == "{") {
        const std::size_t c = match_close(ts, j);
        if (c == npos || c > close) break;
        j = c;
      } else if (ts[j].text == ":") {
        colon = j;
        break;
      }
    }
    if (colon == npos) continue;
    std::string_view last_ident;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (ts[j].kind == Tok::ident) last_ident = ts[j].text;
    }
    if (std::find(names.begin(), names.end(), last_ident) != names.end()) {
      emit(f, out, "sim-unordered-iter", ts[i].line,
           "iterating unordered container '" + std::string(last_ident) +
               "' in a file that schedules/publishes: hash order leaks into event order; "
               "iterate a sorted copy or an ordered container");
    }
  }
}

void rule_sim_ptr_key_map(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ident_in(ts[i], {"map", "set", "multimap", "multiset"}) || !std_qualified(ts, i) ||
        !ts[i + 1].is_punct("<"))
      continue;
    // First template argument: up to a depth-1 comma or the closing '>'.
    bool saw_ptr = false;
    std::size_t depth = 1;
    const std::size_t limit = std::min(ts.size(), i + 200);
    for (std::size_t j = i + 2; j < limit && depth > 0; ++j) {
      const Token& t = ts[j];
      if (t.kind != Tok::punct) continue;
      if (t.text == "<") ++depth;
      else if (t.text == ">") --depth;
      else if (t.text == "(" || t.text == "[" || t.text == "{") {
        const std::size_t c = match_close(ts, j);
        if (c == npos) break;
        j = c;
      } else if (t.text == "," && depth == 1) {
        break;
      } else if (t.text == "*" && depth == 1) {
        saw_ptr = true;
      } else if (t.text == ";") {
        break;
      }
    }
    if (saw_ptr) {
      emit(f, out, "sim-ptr-key-map", ts[i].line,
           "std::" + std::string(ts[i].text) +
               " keyed by pointer: iteration order follows allocation addresses, which "
               "differ run to run; key by a stable id");
    }
  }
}

/// Flags std:: associative containers whose FIRST template argument is a raw
/// fs::Path in shard-hot (kernel/net) files. A Path key copies header + heap
/// spelling per entry and rehashes on every probe; million-entry tables key
/// by fs::InternedPath (4 bytes, dense ids, cached hash) against the table's
/// owning interner instead. Cold config-time tables opt out with lint-allow.
void rule_path_key_map(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ident_in(ts[i], {"map", "set", "multimap", "multiset", "unordered_map",
                          "unordered_set", "unordered_multimap", "unordered_multiset"}) ||
        !std_qualified(ts, i) || !ts[i + 1].is_punct("<"))
      continue;
    // First template argument: up to a depth-1 comma or the closing '>'.
    bool saw_path = false;
    std::size_t depth = 1;
    const std::size_t limit = std::min(ts.size(), i + 200);
    for (std::size_t j = i + 2; j < limit && depth > 0; ++j) {
      const Token& t = ts[j];
      if (t.is_ident("Path")) saw_path = true;  // fs::Path or Path; InternedPath differs
      if (t.kind != Tok::punct) continue;
      if (t.text == "<") ++depth;
      else if (t.text == ">") --depth;
      else if (t.text == "(" || t.text == "[" || t.text == "{") {
        const std::size_t c = match_close(ts, j);
        if (c == npos) break;
        j = c;
      } else if (t.text == "," && depth == 1) {
        break;
      } else if (t.text == ";") {
        break;
      }
    }
    if (saw_path) {
      emit(f, out, "path-key-map", ts[i].line,
           "std::" + std::string(ts[i].text) +
               " keyed by fs::Path: copies header+spelling per entry and rehashes per "
               "probe; key by fs::InternedPath against the owning PathInterner "
               "(see DESIGN.md section 13)");
    }
  }
}

void rule_sim_reinterpret_coro(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_ident("reinterpret_cast") || !ts[i + 1].is_punct("<")) continue;
    const std::size_t gt = skip_template(ts, i + 1);
    if (gt == npos || gt + 1 >= ts.size() || !ts[gt + 1].is_punct("(")) continue;
    const std::size_t rp = match_close(ts, gt + 1);
    if (rp == npos) continue;
    bool coro_ish = false;
    for (std::size_t j = i + 2; j < rp && !coro_ish; ++j) {
      if (j == gt || ts[j].kind != Tok::ident) continue;
      coro_ish = ident_in(ts[j], {"coroutine_handle", "promise", "promise_type", "address",
                                  "from_address"}) ||
                 ts[j].text.find("frame") != std::string_view::npos;
    }
    if (coro_ish) {
      emit(f, out, "sim-reinterpret-coro", ts[i].line,
           "reinterpret_cast on a coroutine frame/handle: frames are not trivially "
           "relocatable and GCC 12 bitwise-moves suspension-spanning objects");
    }
  }
}

// ---- Coroutine-lifetime rules ---------------------------------------------

/// Reference parameters to these long-lived kernel/harness services are the
/// sanctioned idiom (they outlive every Task by construction) and are not
/// reported.
bool exempt_service_param(const std::vector<Token>& ts, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (ident_in(ts[i], {"Simulation", "TestBed", "Fixture", "MetricRegistry", "MetricScope",
                         "Tracer", "Fabric", "Rng", "source_location"}))
      return true;
  }
  return false;
}

void rule_coro_params(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (const CoroSig& sig : structure::collect_coro_sigs(ts)) {
    for (const auto& [pb, pe] : structure::split_args(ts, sig.lparen, sig.rparen)) {
      // Cut at a default-argument '=' (angle-depth 0 in a parameter list).
      std::size_t end = pe;
      for (std::size_t i = pb; i < pe; ++i) {
        if (ts[i].is_punct("=")) {
          end = i;
          break;
        }
      }
      if (end == pb) continue;
      std::string_view pname;
      for (std::size_t i = pb; i < end; ++i) {
        if (ts[i].kind == Tok::ident) pname = ts[i].text;
      }
      bool is_view = false;
      bool has_char = false, has_ptr = false, has_ref = false;
      std::size_t angle = 0;
      for (std::size_t i = pb; i < end; ++i) {
        const Token& t = ts[i];
        if (t.is_punct("<")) {
          const std::size_t gt = skip_template(ts, i);
          if (gt != npos && gt < end) {
            i = gt;
            continue;
          }
          ++angle;
        } else if (t.is_punct(">")) {
          if (angle > 0) --angle;
        } else if (t.is_ident("string_view")) {
          is_view = true;
        } else if (t.is_ident("char")) {
          has_char = true;
        } else if (angle == 0 && t.is_punct("*")) {
          has_ptr = true;
        } else if (angle == 0 && (t.is_punct("&") || t.is_punct("&&"))) {
          has_ref = true;
        }
      }
      const std::uint32_t line = ts[pb].line;
      const std::string who =
          pname.empty() ? std::string("parameter") : "parameter '" + std::string(pname) + "'";
      if (is_view || (has_char && has_ptr)) {
        emit(f, out, "coro-param-view", line,
             "coroutine '" + std::string(sig.name) + "' takes view " + who +
                 ": the viewed buffer can die across a suspension point; take an owning "
                 "value instead");
        continue;
      }
      if (exempt_service_param(ts, pb, end)) continue;
      if (has_ref || has_ptr) {
        emit(f, out, "coro-param-ref", line,
             "coroutine '" + std::string(sig.name) + "' takes " + who +
                 " by reference/pointer: dangles if the caller passes a temporary and the "
                 "Task outlives the full expression; pass by value or keep the argument a "
                 "named local that outlives the await");
      }
    }
  }
}

void rule_coro_temp_lambda(const SourceFile& f, const Corpus& corpus,
                           std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  const auto& coro_names = corpus.coro_fn_names;  // sorted
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != Tok::ident || !ts[i + 1].is_punct("(")) continue;
    // Free (possibly namespace-qualified) calls only: method-call syntax on
    // common names like `.call(` collides with unrelated APIs, and the
    // footgun receivers in this tree (eventually, run_task wrappers) are
    // free functions.
    if (i > 0 && (ts[i - 1].is_punct(".") || ts[i - 1].is_punct("->"))) continue;
    if (!std::binary_search(coro_names.begin(), coro_names.end(), ts[i].text)) continue;
    const std::size_t rp = match_close(ts, i + 1);
    if (rp == npos) continue;
    for (const auto& [ab, ae] : structure::split_args(ts, i + 1, rp)) {
      if (!ts[ab].is_punct("[")) continue;
      if (ab + 1 < ae && ts[ab + 1].is_punct("[")) continue;  // [[attribute]]
      const std::size_t cb = match_close(ts, ab);
      if (cb == npos || cb >= ae) continue;
      bool bad = false;
      for (const auto& [kb, ke] : structure::split_args(ts, ab, cb)) {
        (void)ke;
        // Safe captures copy only trivially-relocatable state: references
        // (&, &x, &x = expr) and the `this` pointer. Everything else (=,
        // by-value, init-captures, *this) may own memory that GCC 12
        // bitwise-relocates when the temporary closure spans a suspension.
        if (ts[kb].is_punct("&") || ts[kb].is_punct("&&") || ts[kb].is_ident("this")) continue;
        bad = true;
      }
      if (bad) {
        emit(f, out, "coro-temp-lambda", ts[ab].line,
             "temporary lambda with owning captures passed into coroutine '" +
                 std::string(ts[i].text) +
                 "': GCC 12 bitwise-relocates suspension-spanning temporaries and corrupts "
                 "non-trivial captures; name the closure as a local or capture only "
                 "references to named locals");
      }
    }
  }
}

void rule_coro_await_temp(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!ts[i].is_ident("co_await")) continue;
    std::size_t j = i + 1;
    if (ts[j].kind != Tok::ident) continue;
    std::size_t last_ident = j;
    while (j + 2 < ts.size() && ts[j + 1].is_punct("::") && ts[j + 2].kind == Tok::ident) {
      j += 2;
      last_ident = j;
    }
    std::size_t open = j + 1;
    if (open < ts.size() && ts[open].is_punct("<")) {
      const std::size_t gt = skip_template(ts, open);
      if (gt == npos) continue;
      open = gt + 1;
    }
    if (open >= ts.size() || !(ts[open].is_punct("(") || ts[open].is_punct("{"))) continue;
    const std::string_view name = ts[last_ident].text;
    if (name.empty() || !std::isupper(static_cast<unsigned char>(name.front()))) continue;
    const std::size_t close = match_close(ts, open);
    if (close == npos || close + 2 >= ts.size()) continue;
    if (!(ts[close + 1].is_punct(".") || ts[close + 1].is_punct("->"))) continue;
    if (ts[close + 2].kind != Tok::ident) continue;
    emit(f, out, "coro-await-temp", ts[i].line,
         "co_await on a member of freshly constructed temporary '" + std::string(name) +
             "': the temporary (and anything its awaiter references) must survive the "
             "suspension; name it as a local first");
  }
}

void rule_coro_detach_tag(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
    if (!ts[i].is_ident("release_detached")) continue;
    if (!(ts[i - 1].is_punct(".") || ts[i - 1].is_punct("->"))) continue;
    const std::uint32_t line = ts[i].line;
    bool tagged = false;
    for (std::size_t j = 0; j < ts.size() && !tagged; ++j) {
      tagged = ts[j].is_ident("coro_tag") &&
               (ts[j].line + 8 >= line && line + 8 >= ts[j].line);
    }
    if (!tagged) {
      emit(f, out, "coro-detach-tag", line,
           "release_detached() without a nearby debug::coro_tag(): the detached frame "
           "shows up untagged in coroutine-lifetime reports; tag it with a creation site");
    }
  }
}

// ---- Sim hygiene ----------------------------------------------------------

// Recorder sampling contexts: token ranges that re-execute once per
// flight-recorder cadence tick, which makes them loops over virtual time
// even though no loop keyword appears. Two shapes: the braced body of a
// lambda passed to schedule_callback(...) (the self-rescheduling tick
// idiom), and the body of a function named sample (the tick's target).
std::vector<std::pair<std::size_t, std::size_t>> sampler_bodies(const std::vector<Token>& ts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (!ts[i + 1].is_punct("(")) continue;
    if (ts[i].is_ident("schedule_callback")) {
      const std::size_t close = structure::match_close(ts, i + 1);
      if (close == structure::npos) continue;
      // First braced body inside the call is the callback's; anything
      // nested deeper is inside it and covered by the same range.
      for (std::size_t j = i + 2; j < close; ++j) {
        if (!ts[j].is_punct("{")) continue;
        const std::size_t end = structure::match_close(ts, j);
        if (end != structure::npos && end < close) out.emplace_back(j, end);
        break;
      }
    } else if (ts[i].is_ident("sample")) {
      // A definition `... sample(...) [const|noexcept|override|final] {`;
      // a plain call site (`rec.sample();`) has no brace and never matches.
      const std::size_t close = structure::match_close(ts, i + 1);
      if (close == structure::npos) continue;
      std::size_t j = close + 1;
      while (j < ts.size() &&
             (ts[j].is_ident("const") || ts[j].is_ident("noexcept") ||
              ts[j].is_ident("override") || ts[j].is_ident("final"))) {
        ++j;
      }
      if (j < ts.size() && ts[j].is_punct("{")) {
        const std::size_t end = structure::match_close(ts, j);
        if (end != structure::npos) out.emplace_back(j, end);
      }
    }
  }
  return out;
}

void rule_metric_hot_loop(const SourceFile& f, const Corpus&, std::vector<Finding>& out) {
  const auto& ts = f.lex.tokens;
  const auto loops = structure::loop_bodies(ts);
  const auto samplers = sampler_bodies(ts);
  if (loops.empty() && samplers.empty()) return;
  const auto covers = [](const auto& ranges, std::size_t i) {
    return std::any_of(ranges.begin(), ranges.end(),
                       [&](const auto& r) { return r.first <= i && i <= r.second; });
  };
  for (std::size_t i = 1; i + 2 < ts.size(); ++i) {
    if (!ident_in(ts[i], {"counter", "gauge", "histogram"})) continue;
    if (!(ts[i - 1].is_punct(".") || ts[i - 1].is_punct("->"))) continue;
    if (!ts[i + 1].is_punct("(") || ts[i + 2].is_punct(")")) continue;
    if (covers(loops, i)) {
      emit(f, out, "metric-hot-loop", ts[i].line,
           "metric '" + std::string(ts[i].text) +
               "(name)' lookup inside a loop: name hashing/map walk per iteration; resolve "
               "the handle once outside the loop (see DESIGN.md section 9)");
    } else if (covers(samplers, i)) {
      emit(f, out, "metric-hot-loop", ts[i].line,
           "metric '" + std::string(ts[i].text) +
               "(name)' lookup in a recorder sampling context: the cadence tick re-runs it "
               "every window; walk the registry's sorted maps or resolve handles once at "
               "install time (see DESIGN.md section 14)");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"sim-os-thread", "OS threads in kernel code: cooperative single-threaded scheduling only",
       kZoneKernel},
      {"sim-os-lock", "OS locks: use sim::Mutex/Semaphore, which wake through the event queue",
       kZoneKernel},
      {"sim-libc-rand", "libc rand()/srand()/random(): fork a sim::Rng stream from the run seed",
       kZoneKernel},
      {"sim-wall-clock", "wall-clock time()/clock(): use Simulation::now() virtual time",
       kZoneKernel},
      {"sim-chrono-clock", "std::chrono clocks: use SimTime/SimDuration virtual time",
       kZoneKernel},
      {"sim-os-clock", "raw OS clock syscalls: use Simulation::now() virtual time", kZoneKernel},
      {"sim-random-device", "std::random_device is nondeterministic: fork a sim::Rng stream",
       kZoneKernel},
      {"sim-unordered-iter",
       "unordered-container iteration in scheduling/publishing files leaks hash order into "
       "event order",
       kZoneKernel | kZoneNet},
      {"sim-ptr-key-map",
       "ordered container keyed by pointer iterates in allocation-address order",
       kZoneKernel | kZoneNet},
      {"path-key-map",
       "associative container keyed by raw fs::Path in shard-hot files; key by "
       "fs::InternedPath",
       kZoneKernel | kZoneNet},
      {"sim-reinterpret-coro",
       "reinterpret_cast on coroutine frames/handles (frames are not trivially relocatable)",
       kZoneAll},
      {"coro-param-view",
       "coroutine takes string_view/const char*: viewed buffer can die across suspension",
       kZoneAll},
      {"coro-param-ref",
       "coroutine takes reference/pointer parameter: dangles when fed a temporary",
       kZoneAll},
      {"coro-temp-lambda",
       "temporary lambda with owning captures passed into a coroutine (GCC 12 bitwise "
       "relocation footgun)",
       kZoneAll},
      {"coro-await-temp", "co_await on a member of a freshly constructed temporary", kZoneAll},
      {"coro-detach-tag", "release_detached() without a creation-site debug::coro_tag()",
       kZoneAll},
      {"metric-hot-loop", "metric handle looked up by name inside a loop", kZoneKernel |
       kZoneNet | kZoneApp},
  };
  return catalog;
}

void run_rules(const SourceFile& file, const Corpus& corpus, std::vector<Finding>& out) {
  struct Impl {
    std::string_view id;
    void (*fn)(const SourceFile&, const Corpus&, std::vector<Finding>&);
  };
  static const std::array<Impl, 16> impls = {{
      {"sim-os-thread", rule_sim_os_thread},
      {"sim-os-lock", rule_sim_os_lock},
      {"sim-libc-rand", rule_sim_libc_rand},
      {"sim-wall-clock", rule_sim_wall_clock},
      {"sim-chrono-clock", rule_sim_chrono_clock},
      {"sim-os-clock", rule_sim_os_clock},
      {"sim-random-device", rule_sim_random_device},
      {"sim-unordered-iter", rule_sim_unordered_iter},
      {"sim-ptr-key-map", rule_sim_ptr_key_map},
      {"path-key-map", rule_path_key_map},
      {"sim-reinterpret-coro", rule_sim_reinterpret_coro},
      // coro-param-view and coro-param-ref share one walk:
      {"coro-param-ref", rule_coro_params},
      {"coro-temp-lambda", rule_coro_temp_lambda},
      {"coro-await-temp", rule_coro_await_temp},
      {"coro-detach-tag", rule_coro_detach_tag},
      {"metric-hot-loop", rule_metric_hot_loop},
  }};
  const unsigned file_bit = zone_bit(file.zone);
  for (const Impl& impl : impls) {
    const auto& catalog = rule_catalog();
    const auto it = std::find_if(catalog.begin(), catalog.end(),
                                 [&](const RuleInfo& r) { return r.id == impl.id; });
    if (it == catalog.end() || !(it->zones & file_bit)) continue;
    impl.fn(file, corpus, out);
  }
}

}  // namespace pacon::analyze
