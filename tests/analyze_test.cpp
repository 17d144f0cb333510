// Self-test for pacon-analyze (DESIGN.md section 12), in three layers:
//
//  1. fixture corpus: runs the analyzer library in-process over
//     tests/analyze_fixtures/ and requires an *exact* match between the
//     findings and the `// expect: rule-id` annotations -- every bad snippet
//     must fire on its annotated line with the right rule id, and every
//     unannotated line (the good twins, full of strings/comments/members
//     that reuse flagged names) doubles as a false-positive check;
//  2. machinery: lexer invisibility of strings/comments/preprocessor lines,
//     lint-allow parsing in all its forms, baseline round-trip and
//     staleness, JSON output;
//  3. clean-tree gate: this source tree itself must analyze to zero live
//     findings against scripts/analyze_baseline.txt, with no stale entries.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/baseline.h"
#include "analyze/structure.h"
#include "analyze/token.h"

namespace {

using namespace pacon::analyze;
namespace fs = std::filesystem;

// Compile definitions from tests/CMakeLists.txt.
const char* const kFixtureDir = ANALYZE_FIXTURE_DIR;
const char* const kSourceRoot = PACON_SOURCE_ROOT;

Options fixture_options() {
  Options opts;
  opts.root = kFixtureDir;
  opts.scan_roots = {"sim", "app"};
  opts.zone_dirs = {{"sim", Zone::kernel}, {"app", Zone::app}};
  opts.exclude_substrings.clear();  // the default excludes this very corpus
  return opts;
}

std::string key_of(const std::string& file, std::uint32_t line, const std::string& rule) {
  return file + ":" + std::to_string(line) + ":" + rule;
}

/// Reads the `// expect: id[,id]` annotations out of the fixture corpus.
std::multiset<std::string> expected_keys(const Options& opts) {
  std::multiset<std::string> keys;
  for (const std::string& scan : opts.scan_roots) {
    for (const auto& entry : fs::recursive_directory_iterator(fs::path(opts.root) / scan)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".h") continue;
      const std::string rel =
          fs::relative(entry.path(), fs::path(opts.root)).generic_string();
      std::ifstream in(entry.path());
      std::string text;
      for (std::uint32_t line = 1; std::getline(in, text); ++line) {
        const std::size_t at = text.find("// expect:");
        if (at == std::string::npos) continue;
        std::istringstream ids(text.substr(at + std::string("// expect:").size()));
        std::string field;
        ids >> field;  // first whitespace-delimited field = comma-joined ids
        std::stringstream split(field);
        std::string id;
        while (std::getline(split, id, ',')) {
          if (!id.empty()) keys.insert(key_of(rel, line, id));
        }
      }
    }
  }
  return keys;
}

std::string diff(const std::multiset<std::string>& expected,
                 const std::multiset<std::string>& actual) {
  std::ostringstream out;
  for (const std::string& k : expected) {
    if (actual.count(k) < expected.count(k) && out.str().find("missing " + k) == std::string::npos)
      out << "  missing " << k << "\n";
  }
  for (const std::string& k : actual) {
    if (expected.count(k) < actual.count(k) && out.str().find("extra " + k) == std::string::npos)
      out << "  extra   " << k << "\n";
  }
  return out.str();
}

TEST(AnalyzeFixtures, EveryRuleFiresExactlyWhereAnnotated) {
  const Options opts = fixture_options();
  const Result result = run_analysis(opts, nullptr);
  ASSERT_GT(result.files_scanned, 3);

  std::multiset<std::string> actual;
  for (const Finding& f : result.findings) actual.insert(key_of(f.file, f.line, f.rule));
  const std::multiset<std::string> expected = expected_keys(opts);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected, actual) << diff(expected, actual);
}

TEST(AnalyzeFixtures, EveryLintAllowFormSuppresses) {
  // suppressed.h: trailing, full-line-above, and comma-list forms -- three
  // violations, all silenced, none live.
  const Result result = run_analysis(fixture_options(), nullptr);
  EXPECT_EQ(result.suppressed, 3);
  for (const Finding& f : result.findings) {
    EXPECT_EQ(f.file.find("suppressed"), std::string::npos)
        << f.file << ":" << f.line << ": " << f.rule << " escaped its lint-allow";
  }
}

TEST(AnalyzeFixtures, FindingsCarryCatalogRulesAndRealSnippets) {
  const Result result = run_analysis(fixture_options(), nullptr);
  const auto& catalog = rule_catalog();
  std::set<std::string_view> fired;
  for (const Finding& f : result.findings) {
    fired.insert(f.rule);
    EXPECT_TRUE(std::any_of(catalog.begin(), catalog.end(),
                            [&](const RuleInfo& r) { return r.id == f.rule; }))
        << "unknown rule id: " << f.rule;
    EXPECT_FALSE(f.message.empty());
    EXPECT_FALSE(f.snippet.empty());
  }
  // The corpus exercises every rule in the catalog.
  for (const RuleInfo& r : catalog) {
    EXPECT_TRUE(fired.count(r.id)) << "no fixture fires rule " << r.id;
  }
}

TEST(AnalyzeBaseline, RoundTripAbsorbsEveryFindingAndFlagsStaleness) {
  const Options opts = fixture_options();
  const Result raw = run_analysis(opts, nullptr);
  ASSERT_FALSE(raw.findings.empty());

  const std::string path = testing::TempDir() + "analyze_baseline_roundtrip.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << Baseline::serialize(raw.findings);
    out << "sim-os-thread\tno/such/file.h\tstd::thread ghost;\n";  // stale entry
  }
  Baseline baseline;
  ASSERT_TRUE(baseline.load(path));

  const Result gated = run_analysis(opts, &baseline);
  EXPECT_TRUE(gated.findings.empty()) << gated.findings.size() << " findings escaped";
  EXPECT_EQ(gated.baselined.size(), raw.findings.size());
  ASSERT_EQ(gated.stale_baseline.size(), 1u);
  EXPECT_NE(gated.stale_baseline[0].find("no/such/file.h"), std::string::npos);
  fs::remove(path);
}

TEST(AnalyzeBaseline, DuplicateEntriesActAsMultiset) {
  // Two identical findings need two identical baseline lines; one line
  // absorbs exactly one of them.
  Finding f{"sim-os-lock", "a.h", 3, "msg", "std::mutex m;"};
  Finding g = f;
  g.line = 9;  // same content key, different location
  const std::string path = testing::TempDir() + "analyze_baseline_multiset.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << Baseline::serialize({f});
  }
  Baseline one;
  ASSERT_TRUE(one.load(path));
  EXPECT_TRUE(one.consume(f));
  EXPECT_FALSE(one.consume(g));  // already spent

  {
    std::ofstream out(path, std::ios::binary);
    out << Baseline::serialize({f, g});
  }
  Baseline two;
  ASSERT_TRUE(two.load(path));
  EXPECT_TRUE(two.consume(f));
  EXPECT_TRUE(two.consume(g));
  EXPECT_TRUE(two.remaining().empty());
  fs::remove(path);
}

TEST(AnalyzeLexer, StringsCommentsAndPreprocessorAreInvisible) {
  const LexResult lexed = lex(
      "#include <thread>\n"
      "#define STAMP() time(nullptr) \\\n"
      "    + rand()\n"
      "// std::thread in a comment\n"
      "/* std::mutex in a block\n   comment */\n"
      "const char* s = \"std::thread rand() time(0)\";\n"
      "const char* r = R\"x(rand() \" still a string)x\";\n"
      "char c = 't';\n"
      "int live;\n");
  for (const Token& t : lexed.tokens) {
    if (t.kind != Tok::ident) continue;
    EXPECT_NE(t.text, "thread") << "leaked from line " << t.line;
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
    EXPECT_NE(t.text, "mutex");
  }
  // String/char literals survive as opaque single tokens.
  int strings = 0, chars = 0;
  for (const Token& t : lexed.tokens) {
    strings += t.kind == Tok::str;
    chars += t.kind == Tok::chr;
  }
  EXPECT_EQ(strings, 2);
  EXPECT_EQ(chars, 1);
}

TEST(AnalyzeLexer, LintAllowFormsParse) {
  const LexResult lexed = lex(
      "int a = f();  // lint-allow: rule-one trailing form\n"
      "// lint-allow: rule-two,rule-three full-line form, comma list\n"
      "int b = g();\n");
  ASSERT_EQ(lexed.allows.size(), 2u);
  EXPECT_EQ(lexed.allows[0].target_line, 1u);
  ASSERT_EQ(lexed.allows[0].rules.size(), 1u);
  EXPECT_EQ(lexed.allows[0].rules[0], "rule-one");
  EXPECT_EQ(lexed.allows[1].target_line, 3u);  // governs the next code line
  ASSERT_EQ(lexed.allows[1].rules.size(), 2u);
  EXPECT_EQ(lexed.allows[1].rules[0], "rule-two");
  EXPECT_EQ(lexed.allows[1].rules[1], "rule-three");
}

TEST(AnalyzeStructure, ArgumentSplittingHonorsNestingAndTemplates) {
  const LexResult lexed = lex("f(a, g(b, c), std::map<int, long>{}, [x, y] { h(1, 2); });");
  const auto& ts = lexed.tokens;
  ASSERT_TRUE(ts[0].is_ident("f"));
  const std::size_t rp = structure::match_close(ts, 1);
  ASSERT_NE(rp, structure::npos);
  const auto args = structure::split_args(ts, 1, rp);
  ASSERT_EQ(args.size(), 4u);  // nested call/template/lambda commas swallowed
  EXPECT_TRUE(ts[args[0].first].is_ident("a"));
  EXPECT_TRUE(ts[args[1].first].is_ident("g"));
  EXPECT_TRUE(ts[args[2].first].is_ident("std"));
  EXPECT_TRUE(ts[args[3].first].is_punct("["));
}

TEST(AnalyzeReport, JsonCarriesFindingsAndCounts) {
  const Options opts = fixture_options();
  const Result result = run_analysis(opts, nullptr);
  const std::string json = to_json(result, opts);
  EXPECT_NE(json.find("\"tool\": \"pacon-analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(json.find("sim-os-thread"), std::string::npos);
  EXPECT_NE(json.find("bad_determinism.h"), std::string::npos);
}

// ---- The gate: this tree analyzes clean ------------------------------------

TEST(AnalyzeCleanTree, ZeroLiveFindingsAgainstCheckedInBaseline) {
  Options opts;  // production defaults: src tests bench examples tools
  opts.root = kSourceRoot;
  Baseline baseline;
  ASSERT_TRUE(baseline.load(std::string(kSourceRoot) + "/scripts/analyze_baseline.txt"))
      << "missing scripts/analyze_baseline.txt";
  const Result result = run_analysis(opts, &baseline);
  EXPECT_GT(result.files_scanned, 100);
  for (const Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
                  << "\n  fix it, lint-allow it with a reason, or (for accepted legacy "
                     "style) refresh scripts/analyze_baseline.txt via scripts/analyze.sh "
                     "--write-baseline";
  }
  for (const std::string& stale : result.stale_baseline) {
    ADD_FAILURE() << "stale baseline entry (finding fixed but still listed): " << stale
                  << "\n  refresh with scripts/analyze.sh --write-baseline";
  }
}

}  // namespace
