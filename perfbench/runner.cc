// One repetition of one benchmark workload, in this (fresh) process.
//
// run.py launches this binary once per repetition so that peak RSS and
// timings carry nothing over from earlier repetitions or workloads. The
// runner drives the engine only through its public entry points
// (Engine::Create, InsertLinkFacts, Run, DeleteFact/InsertFact,
// ProvQueryBuilder::Run, the obs::Profiler / registry / MemAccounting
// readers, and direct Authenticator::Say/Verify calls), checks every output
// against the Floyd-Warshall oracle and the query contract, and prints one
// JSON object on stdout. Diagnostics go to stderr.
//
//   perfbench_runner --workload <name> --seed <n> [--trace 0|1]
//                    [--tmp <dir>] [--spans <file>] [--setups <k>]
//                    [--n <nodes>] [--steps <k>] [--queries <k>]
//
// With --trace 1 the profiler and memory accounting are on, spans around
// every public call are recorded (and written to --spans), and the
// per-layer metrics are computed; timings of such a repetition are not
// end-to-end numbers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/bestpath.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "crypto/authenticator.h"
#include "crypto/keystore.h"
#include "net/faults.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/profiler.h"
#include "query/provquery.h"
#include "util/logging.h"

using namespace provnet;

namespace {

using Clock = std::chrono::steady_clock;

// Seed of every workload's network: the date of the paper's workshop, as in
// the figure benches (bench/figure_common.h). It also seeds the principals'
// keys.
constexpr uint64_t kNetworkSeed = 20080407;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  size_t n = 0;
  size_t steps = 0;    // closed-loop steps (0 = fixpoint only)
  size_t queries = 0;  // ProvQueries per step
  // Step update: true = flap a link (down, then up: two updates); false =
  // one held-back link comes up (one update).
  bool flap = false;
};

bool LookupWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "paper-sendlogprov" || name == "fullprov-archive") {
    w->n = 100;
  } else if (name == "ops-reliable" || name == "ops-lossy") {
    w->n = 50;
    w->steps = 30;
    w->queries = 10;
    w->flap = name == "ops-lossy";
  } else {
    return false;
  }
  return true;
}

EngineOptions OptionsFor(const Workload& w, uint64_t seed,
                         const std::string& archive_dir) {
  EngineOptions o;
  o.seed = kNetworkSeed;  // the principals' keys belong to the network
  o.rsa_bits = 256;
  if (w.name == "paper-sendlogprov") {
    // The paper's SeNDLogProv: RSA says + condensed principal-grain
    // provenance, one lane.
    o = OptionsForVariant(Variant::kSendlogProv, o);
    o.threads = 1;
  } else if (w.name == "fullprov-archive") {
    // Full derivation trees at tuple grain, archived to disk; four lanes
    // requested (full mode pins itself to one today).
    o.prov_mode = ProvMode::kFull;
    o.prov_grain = ProvGrain::kTuple;
    o.record_offline = true;
    o.archive_dir = archive_dir;
    o.threads = 4;
  } else {
    // The operator's day: HMAC says, condensed tuple-grain provenance with
    // online records for queries, and the ack/retransmit transport armed —
    // under 1% loss for ops-lossy, loss-free for ops-reliable.
    o.authenticate = true;
    o.says_level = SaysLevel::kHmac;
    o.prov_mode = ProvMode::kCondensed;
    o.prov_grain = ProvGrain::kTuple;
    o.record_online = true;
    o.reliable_transport = true;
    if (w.flap) o.fault_plan = FaultPlan::UniformLoss(0.01, seed);
    o.threads = 1;
  }
  return o;
}

const std::string& ProgramFor(const Workload& w) {
  return w.name == "fullprov-archive" ? BestPathNdlogProgram()
                                      : BestPathSendlogProgram();
}

// --- Spans -------------------------------------------------------------------

// In-memory span log: name, start, end and parent of every public call the
// runner makes, plus numeric attributes (profiler phase deltas and registry
// counters on Run spans). Written out once, at the end of the repetition.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  // Returns a handle (0 when disabled).
  size_t Begin(const std::string& name) {
    if (!enabled_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start_s = Since(t0_);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void End(size_t id) {
    if (id == 0) return;
    spans_[id - 1].end_s = Since(t0_);
    stack_.pop_back();
  }
  void Attr(size_t id, const std::string& key, double value) {
    if (id != 0) spans_[id - 1].attrs.emplace_back(key, value);
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      obs::JsonWriter w;
      w.BeginObject()
          .Field("id", uint64_t{s.id})
          .Field("parent", uint64_t{s.parent})
          .Field("name", s.name)
          .Field("start_s", s.start_s)
          .Field("end_s", s.end_s);
      w.Key("attrs").BeginObject();
      for (const auto& [k, v] : s.attrs) w.Field(k, v);
      w.EndObject().EndObject();
      // One span per line: collapse the writer's pretty-printing.
      std::string line = w.str();
      line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
      out << line << "\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    size_t id = 0;
    size_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> attrs;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(id_); }
  size_t id() const { return id_; }

 private:
  SpanLog& log_;
  size_t id_;
};

// --- Profiler windows --------------------------------------------------------

struct PhaseSnapshot {
  uint64_t ns[obs::kNumProfilerPhases] = {};

  static PhaseSnapshot Of(const obs::Profiler& p) {
    PhaseSnapshot s;
    for (size_t i = 0; i < obs::kNumProfilerPhases; ++i) {
      s.ns[i] = p.PhaseNs(static_cast<obs::Phase>(i));
    }
    return s;
  }
  // Seconds spent in `phase` between `before` and this snapshot.
  double Since(const PhaseSnapshot& before, obs::Phase phase) const {
    size_t i = static_cast<size_t>(phase);
    return static_cast<double>(ns[i] - before.ns[i]) * 1e-9;
  }
};

uint64_t CounterValue(const Engine& engine, const char* name) {
  const obs::Counter* c = engine.metrics().FindCounter(name);
  return c != nullptr ? c->value : 0;
}

// Attaches the phase deltas and run counters of one Run() to its span.
void AttachRun(SpanLog& spans, size_t span, const PhaseSnapshot& before,
               const PhaseSnapshot& after, const RunStats& stats) {
  for (size_t i = 0; i < obs::kNumProfilerPhases; ++i) {
    auto phase = static_cast<obs::Phase>(i);
    double secs = after.Since(before, phase);
    if (secs > 0) {
      spans.Attr(span, std::string("phase.") + obs::PhaseName(phase), secs);
    }
  }
  spans.Attr(span, "derivations", static_cast<double>(stats.derivations));
  spans.Attr(span, "messages", static_cast<double>(stats.messages));
  spans.Attr(span, "bytes", static_cast<double>(stats.bytes));
  spans.Attr(span, "signs", static_cast<double>(stats.signs));
  spans.Attr(span, "verifies", static_cast<double>(stats.verifies));
  spans.Attr(span, "retractions", static_cast<double>(stats.retractions));
  spans.Attr(span, "rederivations", static_cast<double>(stats.rederivations));
}

// --- Checks ------------------------------------------------------------------

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void ExpectOk(const Status& s, const std::string& what) {
    Expect(s.ok(), s.ok() ? what : what + ": " + s.ToString());
  }
};

// The topology with edge `skip` removed (the flapped link while it is down).
Topology Without(const Topology& topo, size_t skip) {
  Topology out;
  out.num_nodes = topo.num_nodes;
  for (size_t i = 0; i < topo.edges.size(); ++i) {
    if (i != skip) out.edges.push_back(topo.edges[i]);
  }
  return out;
}

Tuple LinkTuple(const TopoEdge& e) {
  return Tuple("link", {Value::Address(e.from), Value::Address(e.to),
                        Value::Int(e.cost)});
}

// A query passes when it returns the asked tuple's complete proof: root
// equal to the tuple, no missing/unreachable leaves, nothing rejected.
std::string QueryProblem(const Result<QueryResult>& r, const Tuple& asked) {
  if (!r.ok()) return r.status().ToString();
  const QueryResult& q = r.value();
  if (q.dag.empty()) return "empty proof";
  if (!(q.dag.root_node().tuple == asked)) return "root is not the tuple";
  for (const ProofNode& pn : q.dag.nodes) {
    if (pn.rule == kMissingRule || pn.rule == kUnreachableRule) {
      return "proof has a " + pn.rule + " leaf";
    }
  }
  if (q.stats.responses_rejected != 0) return "responses rejected";
  return "";
}

// --- Direct crypto micro-measurement ----------------------------------------

// Median per-call microseconds of RSA-256 Say and Verify on a payload of
// `payload_bytes` bytes.
void MeasureSays(uint64_t seed, size_t payload_bytes, double* say_us,
                 double* verify_us) {
  KeyStore keys(seed, /*rsa_bits=*/256);
  Authenticator auth(&keys);
  Bytes payload(std::max<size_t>(payload_bytes, 1));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + seed);
  }
  const Principal who = "n0";
  Result<SaysTag> tag = auth.Say(who, payload, SaysLevel::kRsa);  // keygen
  PROVNET_CHECK(tag.ok()) << tag.status();
  constexpr int kBatches = 7;
  constexpr int kCalls = 50;
  std::vector<double> say, verify;
  for (int b = 0; b < kBatches; ++b) {
    auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      PROVNET_CHECK(auth.Say(who, payload, SaysLevel::kRsa).ok());
    }
    say.push_back(Since(t0) * 1e6 / kCalls);
    t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      PROVNET_CHECK(auth.Verify(tag.value(), payload).ok());
    }
    verify.push_back(Since(t0) * 1e6 / kCalls);
  }
  std::sort(say.begin(), say.end());
  std::sort(verify.begin(), verify.end());
  *say_us = say[kBatches / 2];
  *verify_us = verify[kBatches / 2];
}

// --- Output helpers ----------------------------------------------------------

void WriteArray(obs::JsonWriter& w, const std::string& key,
                const std::vector<double>& values) {
  w.Key(key).BeginArray();
  for (double v : values) w.Value(v);
  w.EndArray();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string tmp = ".";
  std::string spans;
  size_t setups = 3;
  size_t n = 0;
  long steps = -1;
  long queries = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--tmp") {
      a->tmp = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else if (k == "--setups") {
      a->setups = std::max<size_t>(1, std::strtoull(v.c_str(), nullptr, 10));
    } else if (k == "--n") {
      a->n = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--steps") {
      a->steps = std::atol(v.c_str());
    } else if (k == "--queries") {
      a->queries = std::atol(v.c_str());
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload wl;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &wl)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload paper-sendlogprov|"
                 "fullprov-archive|ops-reliable|ops-lossy --seed N "
                 "[--trace 0|1] [--tmp DIR] [--spans FILE] [--setups K] "
                 "[--n N] [--steps K] [--queries K]\n");
    return 2;
  }
  if (args.n > 0) wl.n = std::max<size_t>(args.n, 4);  // ring + 2 extra links
  if (args.steps >= 0 && wl.steps > 0) wl.steps = static_cast<size_t>(args.steps);
  if (args.queries >= 0 && wl.steps > 0) {
    wl.queries = static_cast<size_t>(args.queries);
  }

  // The network: RingPlusRandom(n, 3) from a fixed network seed, so every
  // seed does nearly the same work (across seeds the fixpoint cost of
  // independently drawn topologies spreads by 13-47%, far beyond any usable
  // regression bound). The workload seed relabels the nodes, reorders the
  // link facts, and draws the order in which held-back links come up, the
  // flapped links, the loss pattern and the queried nodes and tuples.
  Rng net_rng(kNetworkSeed + wl.n);
  const Topology network = Topology::RingPlusRandom(wl.n, 3, net_rng);
  // Link-up steps: hold back `steps` non-ring links of the network from the
  // initial deployment (the ring keeps every pair reachable); each step
  // brings one up. `topo` is the deployed topology and grows as links come
  // up.
  std::vector<bool> held(network.edges.size(), false);
  if (!wl.flap && wl.steps > 0) {
    std::vector<size_t> extra;
    for (size_t i = 0; i < network.edges.size(); ++i) {
      const TopoEdge& e = network.edges[i];
      if (e.to != (e.from + 1) % wl.n) extra.push_back(i);
    }
    net_rng.Shuffle(extra);
    extra.resize(std::min(extra.size(), wl.steps));
    for (size_t i : extra) held[i] = true;
  }
  Rng seed_rng(args.seed);
  std::vector<NodeId> label(wl.n);
  for (NodeId i = 0; i < wl.n; ++i) label[i] = i;
  seed_rng.Shuffle(label);
  Topology topo;
  topo.num_nodes = wl.n;
  std::vector<TopoEdge> held_back;
  for (size_t i = 0; i < network.edges.size(); ++i) {
    const TopoEdge& e = network.edges[i];
    TopoEdge relabeled{label[e.from], label[e.to], e.cost};
    (held[i] ? held_back : topo.edges).push_back(relabeled);
  }
  seed_rng.Shuffle(topo.edges);
  Rng ops_rng(args.seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  ops_rng.Shuffle(held_back);
  if (!wl.flap) wl.steps = held_back.size();
  const std::string archive_dir =
      args.tmp + "/archive-" + wl.name + "-" + std::to_string(getpid());
  EngineOptions options = OptionsFor(wl, args.seed, archive_dir);
  const bool archive = !options.archive_dir.empty();

  SpanLog spans(args.trace);
  Checks checks;
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  obs::JsonWriter out;
  out.BeginObject()
      .Field("workload", wl.name)
      .Field("seed", args.seed)
      .Field("trace", args.trace)
      .Field("n", uint64_t{wl.n})
      .Field("edges", uint64_t{topo.edges.size()});

  // --- Setup: Create + InsertLinkFacts, --setups times; the last engine
  // runs. Each set-up archives into a fresh directory (an archive directory
  // that already holds logs would be replayed), all removed at the end. The
  // directory is provisioned with empty per-node logs (<dir>/node<i>.prov)
  // before the timed set-up: the engine treats an empty log exactly like a
  // new one, and creating 100 files on the shared host took 4-20 ms from
  // run to run, which swamped the engine's own set-up work.
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s, create_s;
  const size_t root_span = spans.Begin("repetition");
  for (size_t i = 0; i < args.setups; ++i) {
    engine.reset();
    if (archive) {
      options.archive_dir = archive_dir + "/setup" + std::to_string(i);
      std::error_code ec;
      std::filesystem::create_directories(options.archive_dir, ec);
      for (NodeId node = 0; node < wl.n; ++node) {
        std::ofstream(options.archive_dir + "/node" + std::to_string(node) +
                      ".prov");
      }
    }
    if (args.trace && i + 1 == args.setups) {
      mem.Reset();
      mem.Enable();
    }
    ScopedSpan setup(spans, "setup");
    auto t0 = Clock::now();
    Result<std::unique_ptr<Engine>> created = [&] {
      ScopedSpan s(spans, "Engine::Create");
      return Engine::Create(topo, ProgramFor(wl), options);
    }();
    create_s.push_back(Since(t0));
    checks.ExpectOk(created.status(), "Engine::Create");
    if (!created.ok()) break;
    engine = std::move(created).value();
    {
      ScopedSpan s(spans, "Engine::InsertLinkFacts");
      checks.ExpectOk(engine->InsertLinkFacts(), "InsertLinkFacts");
    }
    setup_s.push_back(Since(t0));
  }
  WriteArray(out, "setup_s", setup_s);
  WriteArray(out, "create_s", create_s);

  std::map<std::string, double> exact;  // must repeat exactly at one seed
  std::map<std::string, double> layers;
  if (engine != nullptr) {
    if (args.trace) engine->profiler().Enable();
    const obs::Profiler& prof = engine->profiler();

    // --- Fixpoint.
    PhaseSnapshot p0 = PhaseSnapshot::Of(prof);
    RunStats fix;
    double fixpoint_s = 0.0;
    {
      ScopedSpan run(spans, "Engine::Run");
      auto t0 = Clock::now();
      Result<RunStats> r = engine->Run();
      fixpoint_s = Since(t0);
      checks.ExpectOk(r.status(), "fixpoint Run");
      if (r.ok()) fix = r.value();
      AttachRun(spans, run.id(), p0, PhaseSnapshot::Of(prof), fix);
    }
    PhaseSnapshot p1 = PhaseSnapshot::Of(prof);
    {
      ScopedSpan s(spans, "check.VerifyBestPaths");
      checks.ExpectOk(VerifyBestPaths(*engine, topo), "fixpoint oracle");
    }
    const double converge_vt_s = engine->network().now();
    out.Field("fixpoint_s", fixpoint_s)
        .Field("fixpoint_bytes", fix.bytes)
        .Field("converge_vt_s", converge_vt_s);
    exact["derivations"] = static_cast<double>(fix.derivations);
    exact["join_candidates"] = static_cast<double>(fix.join_candidates);
    exact["messages"] = static_cast<double>(fix.messages);
    exact["fixpoint_bytes"] = static_cast<double>(fix.bytes);
    exact["signs"] = static_cast<double>(fix.signs);
    exact["verifies"] = static_cast<double>(fix.verifies);
    exact["converge_vt_s"] = converge_vt_s;

    // Fixpoint-window layer attribution (profiler phases are cumulative).
    if (args.trace) {
      auto sec = [&](obs::Phase ph) { return p1.Since(p0, ph); };
      const double mb = 1e6;
      layers["core.events_self_s"] =
          std::max(0.0, sec(obs::Phase::kEvents) - sec(obs::Phase::kSign));
      layers["core.derivations"] = static_cast<double>(fix.derivations);
      layers["core.join_candidates"] =
          static_cast<double>(fix.join_candidates);
      layers["core.events"] = static_cast<double>(fix.events);
      double par = sec(obs::Phase::kParallelCompute);
      double commit = sec(obs::Phase::kCommitReplay);
      layers["core.parallel_compute_s"] = par;
      layers["core.commit_replay_s"] = commit;
      layers["core.commit_serial_fraction"] =
          par + commit > 0 ? commit / (par + commit) : 0.0;
      double lane_min = 0.0;
      for (size_t lane = 0; lane < prof.num_lanes(); ++lane) {
        double u = prof.LaneUtilization(lane);
        lane_min = lane == 0 ? u : std::min(lane_min, u);
      }
      layers["core.lane_util_min"] = lane_min;
      layers["crypto.sign_s"] = sec(obs::Phase::kSign);
      layers["crypto.verify_s"] = sec(obs::Phase::kVerify);
      layers["crypto.signs"] = static_cast<double>(fix.signs);
      layers["crypto.verifies"] = static_cast<double>(fix.verifies);
      layers["net.delivery_self_s"] = std::max(
          0.0, sec(obs::Phase::kDelivery) - sec(obs::Phase::kVerify));
      layers["net.messages"] = static_cast<double>(fix.messages);
      double retransmits =
          static_cast<double>(CounterValue(*engine, "net.retransmits"));
      layers["net.retransmits"] = retransmits;
      layers["net.acks"] =
          static_cast<double>(CounterValue(*engine, "net.acks_received"));
      layers["net.retransmit_overhead"] =
          fix.deliveries > 0 ? retransmits / fix.deliveries : 0.0;
      layers["net.dup_deduped"] =
          static_cast<double>(CounterValue(*engine, "net.dup_deduped"));
      layers["faults.losses"] =
          static_cast<double>(CounterValue(*engine, "faults.losses"));
      layers["provenance.tuple_mb"] = fix.tuple_bytes / mb;
      layers["provenance.auth_mb"] = fix.auth_bytes / mb;
      layers["provenance.prov_mb"] = fix.prov_bytes / mb;
      double interned =
          static_cast<double>(CounterValue(*engine, "store.interned_nodes"));
      double hits =
          static_cast<double>(CounterValue(*engine, "store.interned_hits"));
      layers["store.interned_nodes"] = interned;
      layers["store.intern_hit_ratio"] =
          interned + hits > 0 ? hits / (interned + hits) : 0.0;
      layers["store.archive_page_writes"] = static_cast<double>(
          CounterValue(*engine, "store.archive_page_writes"));
      uint64_t disk = 0;
      for (NodeId node = 0; node < engine->num_nodes(); ++node) {
        disk += engine->node(node).offline_store().DiskBytes();
      }
      layers["store.archive_disk_mb"] = disk / mb;
      double say_us = 0.0, verify_us = 0.0;
      {
        ScopedSpan s(spans, "Authenticator::Say+Verify");
        MeasureSays(kNetworkSeed,
                    fix.messages > 0 ? fix.bytes / fix.messages : 1, &say_us,
                    &verify_us);
      }
      layers["crypto.say_us"] = say_us;
      layers["crypto.verify_us"] = verify_us;
    }

    // --- Closed loop: each step is one or two timed updates (a held-back
    // link comes up, or a link flaps down and up), then k queries.
    std::vector<double> update_ms, update_bytes, query_ms, query_bytes, op_ms;
    Network& net = engine->network();
    double retract_s = 0.0, rederive_s = 0.0, serve_s = 0.0;
    uint64_t retractions = 0, rederivations = 0;
    uint64_t records = 0, qmessages = 0, offline_hits = 0, retries = 0,
             timeouts = 0;
    // Applies one link change, runs to the new fixpoint, and checks the
    // result against the oracle on `after` (the topology it leaves).
    auto update = [&](bool down, const TopoEdge& e, const Topology& after) {
      ScopedSpan span(spans, down ? "update.link_down" : "update.link_up");
      Network::Meters m0 = net.MeterSnapshot();
      PhaseSnapshot b = PhaseSnapshot::Of(prof);
      auto t0 = Clock::now();
      Status s = [&] {
        ScopedSpan call(spans, down ? "Engine::DeleteFact"
                                    : "Engine::InsertFact");
        return down ? engine->DeleteFact(e.from, LinkTuple(e))
                    : engine->InsertFact(e.from, LinkTuple(e));
      }();
      RunStats st;
      if (s.ok()) {
        ScopedSpan run(spans, "Engine::Run");
        PhaseSnapshot rb = PhaseSnapshot::Of(prof);
        Result<RunStats> r = engine->Run();
        s = r.status();
        if (r.ok()) st = r.value();
        AttachRun(spans, run.id(), rb, PhaseSnapshot::Of(prof), st);
      }
      double ms = Since(t0) * 1e3;
      PhaseSnapshot a = PhaseSnapshot::Of(prof);
      checks.ExpectOk(s, down ? "link down update" : "link up update");
      update_ms.push_back(ms);
      op_ms.push_back(ms);
      update_bytes.push_back(
          static_cast<double>(net.MeterSnapshot().bytes - m0.bytes));
      retract_s += a.Since(b, obs::Phase::kRetractions);
      rederive_s += a.Since(b, obs::Phase::kRederive);
      retractions += st.retractions;
      rederivations += st.rederivations;
      ScopedSpan check(spans, "check.VerifyBestPaths");
      checks.ExpectOk(VerifyBestPaths(*engine, after),
                      down ? "oracle after link down" : "oracle after link up");
    };
    for (size_t step = 0; step < wl.steps; ++step) {
      if (wl.flap) {
        size_t edge = ops_rng.NextBelow(topo.edges.size());
        update(/*down=*/true, topo.edges[edge], Without(topo, edge));
        update(/*down=*/false, topo.edges[edge], topo);
      } else {
        topo.edges.push_back(held_back[step]);
        update(/*down=*/false, held_back[step], topo);
      }
      for (size_t q = 0; q < wl.queries; ++q) {
        NodeId node = static_cast<NodeId>(ops_rng.NextBelow(wl.n));
        std::vector<Tuple> paths = engine->TuplesAt(node, "bestPath");
        checks.Expect(!paths.empty(), "node has bestPath tuples");
        if (paths.empty()) continue;
        const Tuple& asked = paths[ops_rng.NextBelow(paths.size())];
        ScopedSpan span(spans, "ProvQueryBuilder::Run");
        PhaseSnapshot b = PhaseSnapshot::Of(prof);
        auto t0 = Clock::now();
        Result<QueryResult> r = ProvQueryBuilder(*engine)
                                    .At(node)
                                    .Of(asked)
                                    .WithScope(QueryScope::kDistributed)
                                    .Run();
        double ms = Since(t0) * 1e3;
        serve_s += PhaseSnapshot::Of(prof).Since(b, obs::Phase::kQueryServe);
        std::string problem = QueryProblem(r, asked);
        checks.Expect(problem.empty(), "query " + asked.ToString() + " at n" +
                                           std::to_string(node) + ": " +
                                           problem);
        query_ms.push_back(ms);
        op_ms.push_back(ms);
        if (r.ok()) {
          const QueryStats& qs = r.value().stats;
          query_bytes.push_back(static_cast<double>(qs.bytes));
          records += qs.records;
          qmessages += qs.messages;
          offline_hits += qs.offline_hits;
          retries += qs.retries;
          timeouts += qs.timeouts;
          spans.Attr(span.id(), "bytes", static_cast<double>(qs.bytes));
          spans.Attr(span.id(), "messages", static_cast<double>(qs.messages));
          spans.Attr(span.id(), "records", static_cast<double>(qs.records));
        }
      }
    }
    WriteArray(out, "update_ms", update_ms);
    WriteArray(out, "update_bytes", update_bytes);
    WriteArray(out, "query_ms", query_ms);
    WriteArray(out, "query_bytes", query_bytes);
    WriteArray(out, "op_ms", op_ms);
    double sum_update_bytes = 0, sum_query_bytes = 0;
    for (double b : update_bytes) sum_update_bytes += b;
    for (double b : query_bytes) sum_query_bytes += b;
    exact["update_bytes"] = sum_update_bytes;
    exact["query_bytes"] = sum_query_bytes;

    // Honest runs: the verification pipeline must reject nothing.
    const RunStats& total = engine->cumulative_stats();
    checks.Expect(total.replays_rejected == 0, "no replays rejected");
    checks.Expect(total.auth_failures == 0, "no authentication failures");
    checks.Expect(total.prov_responses_rejected == 0,
                  "no query responses rejected");

    if (args.trace) {
      double updates = static_cast<double>(update_ms.size());
      double queries = static_cast<double>(query_ms.size());
      layers["dynamics.retract_s"] = retract_s;
      layers["dynamics.rederive_s"] = rederive_s;
      layers["dynamics.retractions_per_update"] =
          updates > 0 ? retractions / updates : 0.0;
      layers["dynamics.rederivations_per_update"] =
          updates > 0 ? rederivations / updates : 0.0;
      layers["query.serve_s"] = serve_s;
      layers["query.records_per_query"] = queries > 0 ? records / queries : 0;
      layers["query.messages_per_query"] =
          queries > 0 ? qmessages / queries : 0;
      layers["query.offline_hits"] = static_cast<double>(offline_hits);
      layers["query.retries"] = static_cast<double>(retries);
      layers["query.timeouts"] = static_cast<double>(timeouts);
      layers["adversary.replays_rejected"] =
          static_cast<double>(total.replays_rejected);
      layers["adversary.auth_failures"] =
          static_cast<double>(total.auth_failures);
      const double mb = 1e6;
      auto peak = [&](obs::MemSubsystem s) { return mem.PeakBytes(s) / mb; };
      layers["mem.prov_arena_mb"] = peak(obs::MemSubsystem::kProvArena);
      layers["mem.archive_pages_mb"] = peak(obs::MemSubsystem::kArchivePages);
      layers["mem.table_rows_mb"] = peak(obs::MemSubsystem::kTableRows);
      layers["mem.prov_annotations_mb"] =
          peak(obs::MemSubsystem::kProvAnnotations);
      layers["mem.network_queues_mb"] =
          peak(obs::MemSubsystem::kNetworkQueues);
    }
  }
  spans.End(root_span);
  engine.reset();
  if (archive) {
    std::error_code ec;
    std::filesystem::remove_all(archive_dir, ec);
  }

  out.Field("peak_rss_mb", PeakRssMb());
  out.Key("exact").BeginObject();
  for (const auto& [k, v] : exact) out.Field(k, v);
  out.EndObject();
  out.Key("layers").BeginObject();
  for (const auto& [k, v] : layers) out.Field(k, v);
  out.EndObject();
  out.Key("checks")
      .BeginObject()
      .Field("attempted", checks.attempted)
      .Field("failed", checks.failed);
  out.Key("failures").BeginArray();
  for (const std::string& f : checks.failures) out.Value(f);
  out.EndArray().EndObject().EndObject();
  std::printf("%s\n", out.str().c_str());

  if (args.trace && !args.spans.empty() && !spans.Write(args.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  return 0;
}
