// Repo benchmark driver: runs one Pacon workload repeatedly for a host-time
// budget and prints its metrics as one JSON line (see README.md here).
//
//   perfbench_driver --workload mdtest_write|stat_random|mega_hotdir
//                    --seed N --seconds S --trace 0|1
//
// Every repetition builds a fresh deployment from the seed, so all
// virtual-clock values repeat exactly across repetitions; the driver checks
// that they do, reports them once, and reports host values as the median
// over the repetitions after the first (a warm-up). `--trace 1` adds one
// repetition with an obs::Tracer installed and prints the per-layer metrics
// instead of the end-to-end ones.
//
// The driver measures each layer from outside: it times calls into
// wl::MetaClient with sim.now(), reads public counters after each phase,
// times synchronous public functions directly, and reads the tracer's spans
// in memory. It adds nothing to the simulator itself.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/consistency_check.h"
#include "core/region.h"
#include "dfs/client.h"
#include "fs/interner.h"
#include "harness/calibration.h"
#include "harness/testbed.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "workload/hotdir.h"
#include "workload/meta_client.h"

namespace {

using namespace pacon;
using namespace pacon::sim::literals;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile in microseconds over an unsorted sample.
double pct_us(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  return to_us(obs::percentile_ns(v, q));
}

/// Key prefix of span-derived values inside a traced repetition's `virt`.
constexpr std::string_view kTraced = "traced.";

const fs::Credentials kCreds{static_cast<fs::Uid>(1000), static_cast<fs::Gid>(1000)};
const std::string kWorkspace = "/bench";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Workload sizes: every workload yields >= 10^5 latency samples.
constexpr std::size_t kMdNodes = 16;
constexpr std::size_t kMdClientsPerNode = 20;
constexpr std::uint32_t kMdItems = 200;         // mkdirs, then creates, per client
constexpr std::uint32_t kStatPopulation = 256;  // files per client, made in setup
constexpr std::uint32_t kStatOps = 640;         // getattrs per client
constexpr std::size_t kMegaNodes = 64;
constexpr std::uint64_t kMegaClients = 65'536;  // one create+getattr pair each
constexpr std::uint64_t kMegaWave = 8'192;

/// One repetition's outcome. `virt` holds virtual-clock values and counts,
/// which a fixed seed fixes exactly; `host` holds host-clock values.
struct Rep {
  std::map<std::string, double> virt;
  std::map<std::string, double> host;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

// ---- Peak memory -------------------------------------------------------------

/// Resets the process's resident-memory high-water mark (Linux >= 4.0), so
/// each repetition's peak excludes earlier repetitions and the checks.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident-memory high-water mark since the last reset, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// ---- Stepping ------------------------------------------------------------------

/// Steps until `done` reaches `target`; false if the event queue ran dry.
bool step_until(sim::Simulation& sim, const std::uint64_t& done, std::uint64_t target) {
  while (done < target) {
    if (!sim.step()) return false;
  }
  return true;
}

/// Steps until every published op reached the DFS. The virtual-time limit
/// turns a commit pipeline that never drains into a reported violation
/// instead of a hang.
bool drain(sim::Simulation& sim, core::ConsistentRegion& region) {
  const sim::SimTime limit = sim.now() + 600_s;
  while (region.pending_commits() > 0) {
    if (sim.now() > limit || !sim.step()) return false;
  }
  return true;
}

// ---- Simulated client processes ----------------------------------------------

/// Latency samples and outcomes of one op type. `stream` sums the path
/// hashes the op was issued on: an interleaving-independent fingerprint of
/// the op stream the seed generated.
struct OpLog {
  std::vector<std::uint64_t> lat_ns;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t stream = 0;
};

/// Everything one repetition builds: the deployment, the workload's inputs
/// and the timed phase's logs. It outlives every simulated process of the
/// repetition, which is why those processes may hold references into it.
struct Workload {
  std::unique_ptr<harness::TestBed> bed;
  std::vector<std::unique_ptr<wl::MetaClient>> clients;
  core::ConsistentRegion* region = nullptr;
  std::unique_ptr<fs::PathInterner> interner;  // mega_hotdir's shared paths
  std::unique_ptr<wl::HotDirWorkload> hot;
  // Timed phase.
  std::map<std::string, OpLog> logs;          // op type -> samples
  std::map<std::string, double> host_per_op;  // metric -> host ns per op
  std::uint64_t new_inodes = 0;               // acknowledged ops that each add an inode
  std::vector<fs::InternedPath> drawn;        // mega_hotdir's files, in draw order
  bool completed = true;                      // every client process finished
};

Workload deploy(std::size_t nodes, std::size_t clients_per_node, std::uint64_t seed) {
  harness::TestBedConfig cfg;
  cfg.kind = harness::SystemKind::pacon;
  cfg.client_nodes = nodes;
  cfg.seed = seed;
  Workload w;
  w.bed = std::make_unique<harness::TestBed>(cfg);
  w.bed->provision_workspace(kWorkspace, kCreds);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t c = 0; c < clients_per_node; ++c) {
      w.clients.push_back(w.bed->make_client(n, kWorkspace, kCreds));
    }
  }
  w.region = w.bed->pacon_region(kWorkspace);
  return w;
}

enum class OpKind { mkdir, create };

/// mdtest-style name: unique per (salt, client, index).
std::string item_name(const char* prefix, std::uint64_t salt, std::size_t client,
                      std::uint64_t index) {
  return std::string(prefix) + std::to_string(salt) + "." + std::to_string(client) + "." +
         std::to_string(index);
}

/// Seed-derived name salt: a new seed renames every item, so keys hash to
/// other cache servers and the op stream changes.
std::uint64_t name_salt(std::uint64_t seed) { return sim::Rng(seed).next_u64() % 100'000; }

// Every referent (client, log, counters) is owned by the repetition's
// Workload or frame, which steps the simulation until this process finishes.
sim::Task<> mdtest_client(sim::Simulation& sim, wl::MetaClient& mc, OpKind kind,
                          const fs::Path& base, const char* prefix, std::uint64_t salt,
                          std::size_t client, std::uint32_t count, OpLog& log,
                          std::uint64_t& done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const fs::Path path = base.child(item_name(prefix, salt, client, i));
    log.stream += path.hash();
    const sim::SimTime t0 = sim.now();
    const fs::FsResult<void> r = kind == OpKind::mkdir
                                     ? co_await mc.mkdir(path, fs::FileMode::dir_default())
                                     : co_await mc.create(path, fs::FileMode::file_default());
    log.lat_ns.push_back(sim.now() - t0);
    if (r) {
      ++log.ok;
    } else {
      ++log.failed;
    }
  }
  ++done;
}

sim::Task<> stat_client(sim::Simulation& sim, wl::MetaClient& mc, const fs::Path& base,
                        std::uint64_t salt, std::size_t total_clients,
                        std::uint32_t population, std::uint32_t count, sim::Rng rng,
                        OpLog& log, std::uint64_t& done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t who = rng.uniform(total_clients);
    const std::uint64_t idx = rng.uniform(population);
    const fs::Path path = base.child(item_name("f", salt, who, idx));
    log.stream += path.hash();
    const sim::SimTime t0 = sim.now();
    const fs::FsResult<fs::InodeAttr> r = co_await mc.getattr(path);
    log.lat_ns.push_back(sim.now() - t0);
    if (r && r->type == fs::FileType::file) {
      ++log.ok;
    } else {
      ++log.failed;
    }
  }
  ++done;
}

sim::Task<> make_hot_dirs(wl::MetaClient& mc, wl::HotDirWorkload& load, std::uint64_t& done) {
  for (std::size_t k = 0; k < load.directory_count(); ++k) {
    (void)co_await mc.mkdir(load.resolve(load.directory(k)), fs::FileMode::dir_default());
  }
  ++done;
}

sim::Task<> mega_client(sim::Simulation& sim, wl::MetaClient& mc, Workload& w, sim::Rng rng,
                        OpLog& creates, OpLog& getattrs, std::uint64_t& done) {
  const fs::InternedPath h = w.hot->next_file(rng);
  w.drawn.push_back(h);
  const fs::Path& path = w.hot->resolve(h);
  creates.stream += path.hash();
  sim::SimTime t0 = sim.now();
  const fs::FsResult<void> created = co_await mc.create(path, fs::FileMode::file_default());
  creates.lat_ns.push_back(sim.now() - t0);
  // Hot files collide: EEXIST is the expected answer for a repeat draw.
  if (created) {
    ++creates.ok;
    ++w.new_inodes;
  } else if (created.error() == fs::FsError::exists) {
    ++creates.ok;
  } else {
    ++creates.failed;
  }
  t0 = sim.now();
  const fs::FsResult<fs::InodeAttr> attr = co_await mc.getattr(path);
  getattrs.lat_ns.push_back(sim.now() - t0);
  if (attr && attr->type == fs::FileType::file) {
    ++getattrs.ok;
  } else {
    ++getattrs.failed;
  }
  ++done;
}

// ---- Layer counters --------------------------------------------------------------

/// Public counters read before and after the timed phase.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t kv_hits = 0;
  std::uint64_t kv_misses = 0;
  std::uint64_t kv_stores = 0;
  std::uint64_t committed = 0;
  std::uint64_t retries = 0;
  std::uint64_t barriers = 0;
  std::uint64_t degraded = 0;
  std::uint64_t redelivered = 0;
  std::uint64_t failovers = 0;
  std::uint64_t mds_ops = 0;
  std::uint64_t mds_misses = 0;
  std::size_t inodes = 0;

  static Counters read(harness::TestBed& bed, core::ConsistentRegion& region) {
    sim::Simulation& sim = bed.sim();
    sim::MetricRegistry& m = sim.metrics();
    Counters c;
    c.events = sim.events_processed();
    c.kv_hits = m.counter("kv.hits").value();
    c.kv_misses = m.counter("kv.misses").value();
    c.kv_stores = m.counter("kv.stores").value();
    c.committed = region.committed_ops();
    c.retries = region.commit_retries();
    c.barriers = region.barriers_run();
    c.degraded = region.degraded_ops();
    c.redelivered = region.redelivered_ops();
    c.failovers = region.cache().failovers();
    c.mds_ops = bed.dfs().mds().ops_served();
    c.mds_misses = bed.dfs().mds().cache_misses();
    c.inodes = bed.dfs().mds().inode_count();
    return c;
  }
};

// ---- Host probes -----------------------------------------------------------------
//
// Read-only calls timed directly at the workload's working-set size, after
// the measured counters were read. Each probe makes a fixed number of calls
// so its work does not depend on the host's speed.

constexpr std::size_t kProbeCalls = 200'000;

template <typename T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform(i)]);
}

/// ns per MemCacheServer::apply(get) over every cached key of the region.
double probe_kv(core::ConsistentRegion& region, sim::Rng rng) {
  std::vector<std::pair<kv::MemCacheServer*, kv::KvRequest>> reqs;
  const std::string prefix = region.root().str() + "/";
  for (const net::NodeId node : region.config().nodes) {
    kv::MemCacheServer& server = region.cache().server_on(node);
    for (std::string& key : server.keys_with_prefix(prefix)) {
      kv::KvRequest req;
      req.op = kv::KvRequest::Op::get;
      req.key_hash = sim::Rng::hash(key);
      req.key = std::move(key);
      reqs.emplace_back(&server, std::move(req));
    }
  }
  if (reqs.empty()) return 0;
  shuffle(reqs, rng);
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    auto& [server, req] = reqs[i % reqs.size()];
    sink += server->apply(req).value.size();
  }
  const double s = seconds_since(t0);
  if (sink == 0) std::fprintf(stderr, "perfbench: kv probe read no values\n");
  return s * 1e9 / static_cast<double>(kProbeCalls);
}

/// ns per MetaServer::apply(lookup) over `paths` (parents resolved first,
/// untimed).
double probe_mds(dfs::MetaServer& mds, const std::vector<fs::Path>& paths, sim::Rng rng) {
  std::map<std::string, fs::Ino, std::less<>> dir_ino{{"/", fs::kRootIno}};
  auto lookup = [&](fs::Ino parent, std::string_view name) {
    dfs::MetaRequest req;
    req.op = dfs::MetaOp::lookup;
    req.parent = parent;
    req.name = std::string(name);
    req.creds = kCreds;
    return req;
  };
  // Resolves a directory path to its inode through untimed lookups.
  auto resolve_dir = [&](const fs::Path& dir) {
    fs::Ino ino = fs::kRootIno;
    fs::Path walked = fs::Path::parse("/");
    for (const std::string_view comp : dir.components()) {
      walked = walked.child(comp);
      auto it = dir_ino.find(walked.str());
      if (it == dir_ino.end()) {
        const dfs::MetaResponse r = mds.apply(lookup(ino, comp));
        it = dir_ino.emplace(walked.str(), r.attr.ino).first;
      }
      ino = it->second;
    }
    return ino;
  };
  std::vector<dfs::MetaRequest> reqs;
  reqs.reserve(paths.size());
  for (const fs::Path& p : paths) reqs.push_back(lookup(resolve_dir(p.parent()), p.name()));
  if (reqs.empty()) return 0;
  shuffle(reqs, rng);
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    sink += static_cast<std::uint64_t>(mds.apply(reqs[i % reqs.size()]).attr.ino);
  }
  const double s = seconds_since(t0);
  if (sink == 0) std::fprintf(stderr, "perfbench: mds probe resolved nothing\n");
  return s * 1e9 / static_cast<double>(kProbeCalls);
}

/// ns per PathInterner::find over `paths`, all interned in `interner`.
double probe_interner(const fs::PathInterner& interner, std::vector<fs::Path> paths,
                      sim::Rng rng) {
  if (paths.empty()) return 0;
  shuffle(paths, rng);
  std::uint64_t found = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeCalls; ++i) {
    found += interner.find(paths[i % paths.size()]).valid() ? 1 : 0;
  }
  const double s = seconds_since(t0);
  if (found != kProbeCalls) std::fprintf(stderr, "perfbench: interner probe missed paths\n");
  return s * 1e9 / static_cast<double>(kProbeCalls);
}

// ---- Trace analysis ----------------------------------------------------------------

/// Per-layer values read from the tracer's spans (inclusive durations at
/// each layer boundary). The spans are read in memory: obs::TraceForest
/// computes the same exclusive time, but it loads only from the Chrome JSON
/// export, and parsing mdtest_write's 9*10^5 spans that way raises the
/// traced run's peak resident memory from 0.3 GB to 2.9 GB.
std::map<std::string, double> span_metrics(const obs::Tracer& tracer) {
  const std::vector<obs::SpanRecord>& spans = tracer.spans();
  const std::size_t n = spans.size();
  // Ids are sequential from 1 and a parent always opens before its child,
  // so one forward pass settles ancestry.
  std::vector<bool> in_commit(n + 1, false);
  std::vector<std::vector<std::size_t>> children(n + 1);
  std::vector<std::uint64_t> rpc_ns, queue_ns, kv_get_ns, kv_add_ns, lag_ns, dfs_create_ns,
      dfs_mkdir_ns;
  const sim::SimDuration wire = 2 * harness::default_calibration().net_one_way;
  std::uint64_t roots = 0, root_ns = 0, root_self_ns = 0;
  for (const obs::SpanRecord& s : spans) {
    const std::uint64_t dur = s.end - s.begin;
    in_commit[s.id] = s.name == "commit" || (s.parent != obs::kNoSpan && in_commit[s.parent]);
    if (s.parent != obs::kNoSpan) children[s.parent].push_back(s.id);
    if (s.name == "rpc.call" && !in_commit[s.id]) {
      rpc_ns.push_back(dur);
      queue_ns.push_back(dur > wire ? dur - wire : 0);
    } else if (s.name == "kv.get") {
      kv_get_ns.push_back(dur);
    } else if (s.name == "kv.add") {
      kv_add_ns.push_back(dur);
    } else if (s.name == "commit" && s.status == "committed") {
      lag_ns.push_back(dur);
    } else if (s.name == "dfs.create") {
      dfs_create_ns.push_back(dur);
    } else if (s.name == "dfs.mkdir") {
      dfs_mkdir_ns.push_back(dur);
    }
  }
  // Root op self time: duration minus the union of its children's
  // intervals clipped to the op's window.
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != obs::kNoSpan || !s.name.starts_with("pacon.")) continue;
    ++roots;
    root_ns += s.end - s.begin;
    std::vector<std::pair<sim::SimTime, sim::SimTime>> iv;
    for (const std::size_t c : children[s.id]) {
      const obs::SpanRecord& ch = spans[c - 1];
      const sim::SimTime lo = std::max(ch.begin, s.begin);
      const sim::SimTime hi = std::min(ch.end, s.end);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    sim::SimTime cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    root_self_ns += (s.end - s.begin) - covered;
  }
  return {
      {"core.self_frac", ratio(static_cast<double>(root_self_ns), static_cast<double>(root_ns))},
      {"rpc.calls_per_op",
       ratio(static_cast<double>(rpc_ns.size()), static_cast<double>(roots))},
      {"rpc.call.p50_us", pct_us(rpc_ns, 0.50)},
      {"rpc.call.p99_us", pct_us(rpc_ns, 0.99)},
      {"rpc.queue_us.p99", pct_us(queue_ns, 0.99)},
      {"kv.get.p50_us", pct_us(kv_get_ns, 0.50)},
      {"kv.get.p99_us", pct_us(kv_get_ns, 0.99)},
      {"kv.add.p50_us", pct_us(kv_add_ns, 0.50)},
      {"kv.add.p99_us", pct_us(kv_add_ns, 0.99)},
      {"commit.lag_p50_us", pct_us(lag_ns, 0.50)},
      {"commit.lag_p99_us", pct_us(lag_ns, 0.99)},
      {"dfs.create.p50_us", pct_us(dfs_create_ns, 0.50)},
      {"dfs.create.p99_us", pct_us(dfs_create_ns, 0.99)},
      {"dfs.mkdir.p50_us", pct_us(dfs_mkdir_ns, 0.50)},
      {"dfs.mkdir.p99_us", pct_us(dfs_mkdir_ns, 0.99)},
      {"obs.spans", static_cast<double>(n)},
  };
}

// ---- One repetition ------------------------------------------------------------------

class Runner {
 public:
  explicit Runner(const Options& opt) : opt_(opt) {}

  /// One repetition: set-up, timed phase, drain, then the output checks.
  /// `traced` installs a tracer for the timed phase; `probes` adds the
  /// host probes (per-layer metrics); `audit` adds the full cache-vs-DFS
  /// consistency walk, which the cheaper checks cover on later same-seed
  /// repetitions.
  Rep run(bool traced, bool probes, bool audit) {
    Rep rep;
    reset_peak_rss();
    const Clock::time_point t_setup = Clock::now();
    Workload w = setup();
    rep.host["setup_s"] = seconds_since(t_setup);

    harness::TestBed& bed = *w.bed;
    sim::Simulation& sim = bed.sim();
    core::ConsistentRegion& region = *w.region;
    std::unique_ptr<obs::Tracer> tracer;
    if (traced) {
      tracer = std::make_unique<obs::Tracer>(sim);
      sim.set_tracer(tracer.get());
    }

    const Counters before = Counters::read(bed, region);
    const sim::SimTime v_start = sim.now();
    const Clock::time_point t_wall = Clock::now();
    timed_phase(w);
    const sim::SimTime v_last = sim.now();
    const std::uint64_t backlog = region.pending_commits();
    const std::uint64_t committed_at_last = region.committed_ops();
    const Clock::time_point t_drain = Clock::now();
    const bool drained = w.completed && drain(sim, region);
    const double drain_host_s = seconds_since(t_drain);
    const double wall_s = seconds_since(t_wall);
    const sim::SimTime v_drained = sim.now();
    const Counters after = Counters::read(bed, region);
    rep.host["peak_rss_mb"] = peak_rss_mb();

    if (!w.completed) rep.violations.push_back("client phase deadlocked");
    if (!drained) rep.violations.push_back("commit queues never drained");

    // ---- End-to-end values.
    std::vector<std::uint64_t> all_lat;
    std::uint64_t ok = 0, stream = 0;
    for (const auto& [name, log] : w.logs) {
      all_lat.insert(all_lat.end(), log.lat_ns.begin(), log.lat_ns.end());
      ok += log.ok;
      rep.failed += log.failed;
      stream += log.stream;
    }
    rep.attempted = ok + rep.failed;
    const double client_s = static_cast<double>(v_last - v_start) / 1e9;
    const double drain_s = static_cast<double>(v_drained - v_last) / 1e9;
    auto& v = rep.virt;
    v["ops_per_s"] = ratio(static_cast<double>(rep.attempted), client_s);
    v["lat_p50_us"] = pct_us(all_lat, 0.50);
    v["lat_p99_us"] = pct_us(all_lat, 0.99);
    v["lat_p999_us"] = pct_us(all_lat, 0.999);
    v["dfs_visible_s"] = static_cast<double>(v_drained - v_start) / 1e9;
    rep.host["wall_s"] = wall_s;

    // ---- Per-layer values read from counters.
    const std::uint64_t events = after.events - before.events;
    const std::uint64_t committed = after.committed - before.committed;
    const std::uint64_t drain_committed = after.committed - committed_at_last;
    const std::uint64_t hits = after.kv_hits - before.kv_hits;
    const std::uint64_t misses = after.kv_misses - before.kv_misses;
    const std::uint64_t retries = after.retries - before.retries;
    const std::uint64_t mds_ops = after.mds_ops - before.mds_ops;
    v["sim.events"] = static_cast<double>(events);
    v["op_stream"] = static_cast<double>(stream >> 12);  // exact in a double
    v["core.ops"] = static_cast<double>(rep.attempted);
    v["core.fail_frac"] =
        ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted));
    for (const char* op : {"mkdir", "create", "getattr"}) {
      const auto it = w.logs.find(op);
      const std::string key = std::string("core.") + op;
      v[key + ".lat_p50_us"] = it == w.logs.end() ? 0 : pct_us(it->second.lat_ns, 0.50);
      v[key + ".lat_p99_us"] = it == w.logs.end() ? 0 : pct_us(it->second.lat_ns, 0.99);
    }
    v["kv.hits"] = static_cast<double>(hits);
    v["kv.misses"] = static_cast<double>(misses);
    v["kv.stores"] = static_cast<double>(after.kv_stores - before.kv_stores);
    v["kv.hit_ratio"] = ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
    v["kv.items"] = static_cast<double>(region.cache().total_items());
    v["kv.bytes"] = static_cast<double>(region.cache().total_bytes_used());
    v["kv.failovers"] = static_cast<double>(after.failovers - before.failovers);
    v["commit.drain_s"] = drain_s;
    v["commit.backlog_peak"] = static_cast<double>(backlog);
    v["commit.ops_per_s"] = ratio(static_cast<double>(drain_committed), drain_s);
    v["commit.retries"] = static_cast<double>(retries);
    v["commit.retry_ratio"] =
        ratio(static_cast<double>(retries), static_cast<double>(committed));
    v["commit.barriers"] = static_cast<double>(after.barriers - before.barriers);
    v["commit.degraded_ops"] = static_cast<double>(after.degraded - before.degraded);
    v["commit.redelivered_ops"] = static_cast<double>(after.redelivered - before.redelivered);
    v["dfs.mds_ops"] = static_cast<double>(mds_ops);
    v["dfs.mds_ops_per_commit"] =
        ratio(static_cast<double>(mds_ops), static_cast<double>(committed));
    v["dfs.mds_cache_misses"] = static_cast<double>(after.mds_misses - before.mds_misses);

    auto& h = rep.host;
    for (const char* key : {"core.mkdir.host_ns_per_op", "core.create.host_ns_per_op",
                            "core.getattr.host_ns_per_op", "core.pair.host_ns_per_op"}) {
      const auto it = w.host_per_op.find(key);
      h[key] = it == w.host_per_op.end() ? 0 : it->second;
    }
    h["sim.host_ns_per_event"] = ratio(wall_s * 1e9, static_cast<double>(events));
    h["commit.host_ns_per_op"] =
        ratio(drain_host_s * 1e9, static_cast<double>(drain_committed));

    if (tracer) {
      for (const auto& [key, value] : span_metrics(*tracer)) {
        rep.virt[std::string(kTraced) + key] = value;
      }
      sim.set_tracer(nullptr);
      tracer.reset();
    }

    // ---- Host probes (read-only; after every measured counter was read).
    if (probes) run_probes(rep, w);

    // ---- Output checks (outside wall_s).
    if (after.inodes != before.inodes + w.new_inodes) {
      rep.violations.push_back("MDS holds " + std::to_string(after.inodes) +
                               " inodes, expected " + std::to_string(before.inodes) + " + " +
                               std::to_string(w.new_inodes) + " acknowledged");
    }
    if (region.pending_paths() != 0) {
      rep.violations.push_back("pending_paths() = " + std::to_string(region.pending_paths()) +
                               " after the drain");
    }
    if (audit && drained) {
      dfs::DfsClient probe(sim, bed.dfs(), net::NodeId{90'001});
      const core::ConsistencyReport report =
          sim::run_task(sim, core::check_consistency(region, probe));
      if (!report.converged()) {
        rep.violations.push_back("cache and DFS did not converge: " + report.summary());
      }
    }
    return rep;
  }

 private:
  void run_probes(Rep& rep, Workload& w) {
    const std::vector<fs::Path> paths = live_paths(w);
    sim::Rng rng = sim::Rng(opt_.seed).fork("perfbench-probes");
    rep.host["kv.apply_host_ns"] = probe_kv(*w.region, rng.fork(1));
    rep.host["dfs.apply_host_ns"] = probe_mds(w.bed->dfs().mds(), paths, rng.fork(2));
    // mdtest-style workloads build Paths directly; intern them here so every
    // workload reports the interner at its own working-set size.
    fs::PathInterner own;
    const fs::PathInterner* interner = w.interner.get();
    if (interner == nullptr) {
      for (const fs::Path& p : paths) own.intern(p);
      interner = &own;
    }
    rep.host["fs.find_host_ns"] = probe_interner(*interner, paths, rng.fork(3));
    rep.virt["fs.interned_paths"] = static_cast<double>(interner->size());
    rep.virt["fs.interner_bytes"] = static_cast<double>(interner->memory_bytes());
  }

  /// The namespace the timed phase left behind (what the probes walk).
  std::vector<fs::Path> live_paths(const Workload& w) const {
    const std::size_t clients = w.clients.size();
    if (opt_.workload == "mdtest_write") {
      std::vector<fs::Path> paths = item_paths(clients, "d", kMdItems);
      const std::vector<fs::Path> files = item_paths(clients, "f", kMdItems);
      paths.insert(paths.end(), files.begin(), files.end());
      return paths;
    }
    if (opt_.workload == "stat_random") return item_paths(clients, "f", kStatPopulation);
    std::vector<fs::InternedPath> drawn = w.drawn;
    std::sort(drawn.begin(), drawn.end());
    drawn.erase(std::unique(drawn.begin(), drawn.end()), drawn.end());
    std::vector<fs::Path> paths;
    for (const fs::InternedPath h : drawn) paths.push_back(w.hot->resolve(h));
    return paths;
  }

  std::uint64_t salt() const { return name_salt(opt_.seed); }

  Workload setup() {
    if (opt_.workload == "mega_hotdir") {
      Workload w = deploy(kMegaNodes, 1, opt_.seed);
      w.interner = std::make_unique<fs::PathInterner>();
      w.hot = std::make_unique<wl::HotDirWorkload>(*w.interner, fs::Path::parse(kWorkspace),
                                                  wl::HotDirConfig{});
      // Hot directories first, so every create's parent check hits cache,
      // drained so the timed phase starts with empty commit queues.
      std::uint64_t done = 0;
      w.bed->sim().spawn(make_hot_dirs(*w.clients[0], *w.hot, done));
      if (!step_until(w.bed->sim(), done, 1) || !drain(w.bed->sim(), *w.region)) {
        fail("hot-directory set-up never finished");
      }
      return w;
    }
    Workload w = deploy(kMdNodes, kMdClientsPerNode, opt_.seed);
    if (opt_.workload == "stat_random") {
      // Population, drained to the DFS before the timed phase.
      OpLog log;
      run_clients(w, OpKind::create, "f", kStatPopulation, log);
      if (!w.completed || log.failed != 0) fail("population creates failed");
      if (!drain(w.bed->sim(), *w.region)) fail("population never drained");
    }
    return w;
  }

  /// Runs one mdtest phase over every client; returns host seconds.
  double run_clients(Workload& w, OpKind kind, const char* prefix, std::uint32_t count,
                     OpLog& log) {
    sim::Simulation& sim = w.bed->sim();
    const fs::Path base = fs::Path::parse(kWorkspace);
    log.lat_ns.reserve(w.clients.size() * count);
    std::uint64_t done = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < w.clients.size(); ++c) {
      sim.spawn(mdtest_client(sim, *w.clients[c], kind, base, prefix, salt(), c, count, log,
                              done));
    }
    w.completed = w.completed && step_until(sim, done, w.clients.size());
    const double host_s = seconds_since(t0);
    sim.reap_completed_roots();
    return host_s;
  }

  std::vector<fs::Path> item_paths(std::size_t clients, const char* prefix,
                                   std::uint32_t count) const {
    const fs::Path base = fs::Path::parse(kWorkspace);
    std::vector<fs::Path> out;
    out.reserve(clients * count);
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::uint32_t i = 0; i < count; ++i) {
        out.push_back(base.child(item_name(prefix, salt(), c, i)));
      }
    }
    return out;
  }

  /// The measured client phase; fills the Workload's logs.
  void timed_phase(Workload& w) {
    sim::Simulation& sim = w.bed->sim();
    const std::size_t clients = w.clients.size();
    if (opt_.workload == "mdtest_write") {
      OpLog& mkdirs = w.logs["mkdir"];
      OpLog& creates = w.logs["create"];
      const double mkdir_s = run_clients(w, OpKind::mkdir, "d", kMdItems, mkdirs);
      const double create_s = run_clients(w, OpKind::create, "f", kMdItems, creates);
      w.host_per_op["core.mkdir.host_ns_per_op"] =
          ratio(mkdir_s * 1e9, static_cast<double>(mkdirs.lat_ns.size()));
      w.host_per_op["core.create.host_ns_per_op"] =
          ratio(create_s * 1e9, static_cast<double>(creates.lat_ns.size()));
      w.new_inodes = mkdirs.ok + creates.ok;
    } else if (opt_.workload == "stat_random") {
      const fs::Path base = fs::Path::parse(kWorkspace);
      OpLog& getattrs = w.logs["getattr"];
      getattrs.lat_ns.reserve(clients * kStatOps);
      const sim::Rng root(opt_.seed);
      std::uint64_t done = 0;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t c = 0; c < clients; ++c) {
        sim.spawn(stat_client(sim, *w.clients[c], base, salt(), clients, kStatPopulation,
                              kStatOps, root.fork(c), getattrs, done));
      }
      w.completed = step_until(sim, done, clients);
      const double host_s = seconds_since(t0);
      sim.reap_completed_roots();
      w.host_per_op["core.getattr.host_ns_per_op"] =
          ratio(host_s * 1e9, static_cast<double>(getattrs.lat_ns.size()));
    } else {
      OpLog& creates = w.logs["create"];
      OpLog& getattrs = w.logs["getattr"];
      creates.lat_ns.reserve(kMegaClients);
      getattrs.lat_ns.reserve(kMegaClients);
      w.drawn.reserve(kMegaClients);
      std::uint64_t done = 0;
      std::uint64_t spawned = 0;
      const Clock::time_point t0 = Clock::now();
      // Waves of short-lived clients, reaped between waves.
      while (spawned < kMegaClients && w.completed) {
        const std::uint64_t n = std::min(kMegaWave, kMegaClients - spawned);
        for (std::uint64_t id = spawned; id < spawned + n; ++id) {
          sim.spawn(mega_client(sim, *w.clients[id % clients], w, sim.rng().fork(id), creates,
                                getattrs, done));
        }
        spawned += n;
        w.completed = step_until(sim, done, spawned);
        sim.reap_completed_roots();
      }
      const double host_s = seconds_since(t0);
      w.host_per_op["core.pair.host_ns_per_op"] =
          ratio(host_s * 1e9, static_cast<double>(kMegaClients));
    }
  }

  [[noreturn]] static void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(1);
  }

  const Options& opt_;
};

// ---- Reporting -----------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

// Must list the same metrics, in the same units, as BENCHMARK.json.
// The client phase's host seconds (`wall_s`) are not among them: on a shared
// host they drift by more than any bound allows (see README.md), so they are
// printed on the "# timed repetitions" line and enter the per-layer host costs.
constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"lat_p50_us", "us"},  {"lat_p99_us", "us"},
    {"lat_p999_us", "us"},    {"dfs_visible_s", "s"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"core.ops", "count"},
    {"core.fail_frac", "ratio"},
    {"core.mkdir.lat_p50_us", "us"},
    {"core.mkdir.lat_p99_us", "us"},
    {"core.create.lat_p50_us", "us"},
    {"core.create.lat_p99_us", "us"},
    {"core.getattr.lat_p50_us", "us"},
    {"core.getattr.lat_p99_us", "us"},
    {"core.mkdir.host_ns_per_op", "ns"},
    {"core.create.host_ns_per_op", "ns"},
    {"core.getattr.host_ns_per_op", "ns"},
    {"core.pair.host_ns_per_op", "ns"},
    {"core.self_frac", "ratio"},
    {"rpc.calls_per_op", "count"},
    {"rpc.call.p50_us", "us"},
    {"rpc.call.p99_us", "us"},
    {"rpc.queue_us.p99", "us"},
    {"kv.get.p50_us", "us"},
    {"kv.get.p99_us", "us"},
    {"kv.add.p50_us", "us"},
    {"kv.add.p99_us", "us"},
    {"kv.hits", "count"},
    {"kv.misses", "count"},
    {"kv.stores", "count"},
    {"kv.hit_ratio", "ratio"},
    {"kv.items", "count"},
    {"kv.bytes", "bytes"},
    {"kv.failovers", "count"},
    {"kv.apply_host_ns", "ns"},
    {"commit.drain_s", "s"},
    {"commit.backlog_peak", "count"},
    {"commit.ops_per_s", "1/s"},
    {"commit.lag_p50_us", "us"},
    {"commit.lag_p99_us", "us"},
    {"commit.retries", "count"},
    {"commit.retry_ratio", "ratio"},
    {"commit.barriers", "count"},
    {"commit.degraded_ops", "count"},
    {"commit.redelivered_ops", "count"},
    {"commit.host_ns_per_op", "ns"},
    {"dfs.mds_ops", "count"},
    {"dfs.mds_ops_per_commit", "ratio"},
    {"dfs.mds_cache_misses", "count"},
    {"dfs.create.p50_us", "us"},
    {"dfs.create.p99_us", "us"},
    {"dfs.mkdir.p50_us", "us"},
    {"dfs.mkdir.p99_us", "us"},
    {"dfs.apply_host_ns", "ns"},
    {"fs.interned_paths", "count"},
    {"fs.interner_bytes", "bytes"},
    {"fs.find_host_ns", "ns"},
    {"obs.spans", "count"},
    {"obs.trace_overhead_frac", "ratio"},
};

std::string json_number(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, x] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + json_number(x);
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const char* val = i + 1 < argc ? argv[++i] : nullptr;
    if (val == nullptr) return false;
    if (a == "--workload") {
      opt.workload = val;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string_view(val) == "1";
    } else {
      return false;
    }
  }
  return opt.workload == "mdtest_write" || opt.workload == "stat_random" ||
         opt.workload == "mega_hotdir";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload mdtest_write|stat_random|mega_hotdir "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Runner runner(opt);

  // A warm-up repetition (with the full audit) fills caches and the
  // allocator; its host values are discarded. Timed repetitions then fill
  // the time budget. Every repetition must reproduce the warm-up's virtual
  // values exactly.
  std::vector<Rep> reps;
  std::vector<std::string> violations;
  const Clock::time_point t0 = Clock::now();
  do {
    const bool warmup = reps.empty();
    reps.push_back(runner.run(/*traced=*/false, /*probes=*/opt.trace, /*audit=*/warmup));
    const Rep& r = reps.back();
    for (const std::string& v : r.violations) violations.push_back(v);
    if (r.virt != reps.front().virt) {
      violations.push_back("same-seed repetitions gave different virtual values");
    }
  } while (violations.empty() && (reps.size() < 2 || seconds_since(t0) < opt.seconds));

  std::map<std::string, double> host;
  for (const auto& [key, unused] : reps.front().host) {
    std::vector<double> xs;
    for (std::size_t i = 1; i < reps.size(); ++i) xs.push_back(reps[i].host.at(key));
    host[key] = median(xs);
  }
  std::map<std::string, double> values = reps.front().virt;
  values.insert(host.begin(), host.end());
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
  }

  // The traced repetition's virtual values, span-derived ones aside.
  std::map<std::string, double> traced_virt;
  if (opt.trace && violations.empty()) {
    Rep traced = runner.run(/*traced=*/true, /*probes=*/true, /*audit=*/false);
    for (const std::string& v : traced.violations) violations.push_back(v);
    attempted += traced.attempted;
    failed += traced.failed;
    for (const auto& [k, x] : traced.virt) {
      if (k.starts_with(kTraced)) {
        values[k.substr(kTraced.size())] = x;
      } else {
        traced_virt[k] = x;
      }
    }
    if (traced_virt != reps.front().virt) {
      violations.push_back("tracing changed the virtual values or the event count");
    }
    values["obs.trace_overhead_frac"] = ratio(traced.host.at("wall_s"), host.at("wall_s")) - 1;
  }

  // Virtual values of the first (and the traced) repetition, for the
  // self-test's determinism checks.
  std::printf("# virtual %s\n", json_map(reps.front().virt).c_str());
  if (!traced_virt.empty()) std::printf("# traced virtual %s\n", json_map(traced_virt).c_str());
  std::printf("# timed repetitions %zu, wall_s:", reps.size() - 1);
  for (std::size_t i = 1; i < reps.size(); ++i) std::printf(" %.4f", reps[i].host.at("wall_s"));
  std::printf("\n");

  std::string metrics;
  auto emit = [&](const Metric& m) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      violations.push_back(std::string("metric ") + m.name + " was not measured");
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " + json_number(it->second) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              violations.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return violations.empty() ? 0 : 1;
}
