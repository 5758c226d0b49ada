// abvbench: end-to-end assertion-based-verification benchmark program.
//
// One process measures one workload. Modes (first argument):
//
//   prepare  Runs the workload once live with its trace log recorded, then
//            replays that log through the tree-interpreter checkers on the
//            serial engine. The replayed report must be byte-identical to
//            the live one; its verdict (per-property tuples plus
//            functional_ok, see PropertyVerdict) is the run's reference,
//            written next to the log. The replay workload checks the log
//            recorded here.
//   measure  Makes a fixed number of models::run_simulation calls (--seconds
//            times kCallsPerSecond), each between two runs of the host-speed
//            probe, and prints the end-to-end metrics as the last stdout
//            line. Every call is held against the verdict gate.
//   trace    Re-runs the pipeline of one call from the outside, timing the
//            public entry point of each layer (psl, rewrite, models, sim,
//            tlm, tracelog, abv, checker) in nested spans, interleaved with
//            untraced calls; prints the per-layer metrics and writes the
//            spans as Chrome trace-event JSON.
//
// run.py builds this binary, runs prepare and then measure or trace, and
// relays the final JSON line. See README.md for the metric definitions.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "abv/report.h"
#include "abv/rtl_env.h"
#include "abv/tlm_env.h"
#include "models/colorconv/colorconv_core.h"
#include "models/des56/des_core.h"
#include "models/properties.h"
#include "models/stimulus.h"
#include "models/testbench.h"
#include "rewrite/methodology.h"
#include "sim/kernel.h"
#include "support/json.h"
#include "support/tracelog.h"

using namespace repro;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  models::Design design;
  models::Level level;
  bool replay;        // offline replay of a recorded log (no kernel)
  size_t jobs;        // evaluation-engine shards
  // How strongly the call follows the host-speed probe: a call's times are
  // scaled by (HostProbe::kNominalSeconds / probe time) to this power. A
  // single-threaded call slows about as the single-threaded probe does. The
  // sharded call runs three threads over several cores, and a slowdown the
  // probe sees reaches it only in part; over four sets of runs its scaled
  // median was steadiest at 0.5 (README.md, Host noise).
  double probe_exponent;
};

constexpr Workload kWorkloads[] = {
    {"colorconv_at", models::Design::kColorConv, models::Level::kTlmAt,
     /*replay=*/false, /*jobs=*/1, /*probe_exponent=*/1.0},
    {"des56_rtl", models::Design::kDes56, models::Level::kRtl,
     /*replay=*/false, /*jobs=*/1, /*probe_exponent=*/1.0},
    {"des56_at_replay", models::Design::kDes56, models::Level::kTlmAt,
     /*replay=*/true, /*jobs=*/2, /*probe_exponent=*/0.5},
};

// Measured calls per second of --seconds. The count of calls is fixed by
// --seconds alone, so both sides of a comparison make the same number of
// calls whatever their speed. The run.py full sizes take ~45 ms per call,
// plus ~7 ms for the host-speed probe, on the host README.md describes, so
// a run lasts ~0.8–1.1 times --seconds there, and up to ~2.3 times in a
// slow regime.
constexpr double kCallsPerSecond = 15;

// Untimed calls before the measured ones.
constexpr size_t kWarmUpCalls = 20;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The configuration every call of the workload runs: the whole property
// suite, default engine knobs apart from the shard count.
models::RunConfig run_config(const Workload& w, size_t size, uint64_t seed) {
  models::RunConfig config;
  config.design = w.design;
  config.level = w.level;
  config.checkers = std::numeric_limits<size_t>::max();  // the whole suite
  config.workload = size;
  config.seed = seed;
  config.engine.jobs = w.jobs;
  return config;
}

// ---- Options -----------------------------------------------------------------

struct Options {
  std::string mode;
  const Workload* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 10.0;
  size_t size = 0;                   // DES56 operations or ColorConv pixels
  std::string dir = ".";             // scratch dir for logs and references
  std::string reference_file;        // committed reference table (optional)
  std::optional<uint64_t> reference_seed;  // look up another seed's entry
  std::string trace_out;             // Chrome trace path (trace mode)

  // Files shared by prepare and measure/trace for this (workload, seed,
  // size).
  std::string stem() const {
    return dir + "/" + workload->name + "-s" + std::to_string(seed) + "-n" +
           std::to_string(size);
  }
  std::string log_path() const { return stem() + ".rtabvlog"; }
  std::string ref_path() const { return stem() + ".ref.json"; }
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "abvbench: " << message << "\n"
            << "usage: abvbench prepare|measure|trace --workload NAME "
               "--seed N --size N [--seconds S] [--dir DIR]\n"
               "       [--reference FILE] [--reference-seed N] "
               "[--trace-out FILE]\n";
  std::exit(2);
}

uint64_t parse_u64(const std::string& flag, const std::string& text) {
  // Digits only: std::stoull alone would accept "-1" and wrap it.
  if (!text.empty() && text.size() <= 19 &&
      std::all_of(text.begin(), text.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    return std::stoull(text);
  }
  usage("bad value for " + flag + ": " + text);
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  if (o.mode != "prepare" && o.mode != "measure" && o.mode != "trace") {
    usage("unknown mode " + o.mode);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) usage("unknown workload " + value);
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--size") {
      o.size = parse_u64(flag, value);
    } else if (flag == "--dir") {
      o.dir = value;
    } else if (flag == "--reference") {
      o.reference_file = value;
    } else if (flag == "--reference-seed") {
      o.reference_seed = parse_u64(flag, value);
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload == nullptr) usage("missing --workload");
  if (o.size == 0) usage("missing --size");
  return o;
}

// ---- Verdicts ----------------------------------------------------------------

// What the gate compares: the testbench self-check plus one
// (name, ok, activations, failures, real_passes) tuple per property, in
// report order. real_passes is there because on DES56 TLM-AT every property
// activates on every transaction (4 per operation) at any seed; the real
// passes of the antecedent-guarded properties still follow the stimulus.
struct PropertyVerdict {
  std::string name;
  bool ok = false;
  uint64_t activations = 0;
  uint64_t failures = 0;
  uint64_t real_passes = 0;

  bool operator==(const PropertyVerdict&) const = default;
};

struct Verdict {
  bool functional_ok = false;
  std::vector<PropertyVerdict> properties;

  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const abv::Report& report, bool functional_ok) {
  Verdict v;
  v.functional_ok = functional_ok;
  for (const abv::PropertyReport& p : report.properties()) {
    v.properties.push_back(
        {p.name, p.ok(), p.activations, p.failures, p.real_passes});
  }
  return v;
}

std::string to_json(const Verdict& v) {
  std::ostringstream os;
  os << "{\"functional_ok\": " << (v.functional_ok ? "true" : "false")
     << ", \"properties\": [";
  for (size_t i = 0; i < v.properties.size(); ++i) {
    const PropertyVerdict& p = v.properties[i];
    os << (i ? ", " : "") << "[";
    support::json::write_string(os, p.name);
    os << ", " << (p.ok ? "true" : "false") << ", " << p.activations << ", "
       << p.failures << ", " << p.real_passes << "]";
  }
  os << "]}";
  return os.str();
}

std::optional<Verdict> verdict_from_json(const support::json::Value& value) {
  const support::json::Value* ok = value.find("functional_ok");
  const support::json::Value* props = value.find("properties");
  if (ok == nullptr || props == nullptr || !props->is_array()) {
    return std::nullopt;
  }
  Verdict v;
  v.functional_ok = ok->boolean;
  for (const support::json::Value& row : props->array) {
    if (!row.is_array() || row.array.size() != 5 || !row.array[0].is_string() ||
        !row.array[2].u64 || !row.array[3].u64 || !row.array[4].u64) {
      return std::nullopt;
    }
    v.properties.push_back({row.array[0].string, row.array[1].boolean,
                            *row.array[2].u64, *row.array[3].u64,
                            *row.array[4].u64});
  }
  return v;
}

std::optional<support::json::Value> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return support::json::parse(buffer.str());
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

// Holds every checked run against the references and the known answer (all
// shipped properties hold on the shipped models). Counts runs, not calls
// into the gate's internals, so `failed / attempted` is verdict_error_rate.
class VerdictGate {
 public:
  explicit VerdictGate(std::vector<Verdict> references)
      : references_(std::move(references)) {}

  void check(const Verdict& got) {
    ++attempted_;
    bool ok = got.functional_ok && !got.properties.empty();
    for (const PropertyVerdict& p : got.properties) ok = ok && p.ok;
    for (const Verdict& ref : references_) ok = ok && got == ref;
    if (!ok) {
      if (failed_ == 0) {
        std::cerr << "abvbench: verdict mismatch: got " << to_json(got)
                  << "\n";
      }
      ++failed_;
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::vector<Verdict> references_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The prepared cross-path reference plus, when the reference table has an
// entry "workload/size/seed", the committed one. --reference-seed
// looks up another seed's committed entry, which must exist.
std::vector<Verdict> load_references(const Options& o) {
  std::vector<Verdict> refs;
  std::optional<support::json::Value> prepared = read_json(o.ref_path());
  std::optional<Verdict> prepared_verdict =
      prepared ? verdict_from_json(*prepared) : std::nullopt;
  if (!prepared_verdict) usage("missing prepared reference " + o.ref_path());
  refs.push_back(*prepared_verdict);

  const uint64_t seed = o.reference_seed.value_or(o.seed);
  const support::json::Value* entry = nullptr;
  std::optional<support::json::Value> table;
  if (!o.reference_file.empty()) {
    table = read_json(o.reference_file);
    if (!table) usage("unreadable reference table " + o.reference_file);
    entry = table->find(std::string(o.workload->name) + "/" +
                        std::to_string(o.size) + "/" + std::to_string(seed));
  }
  if (entry != nullptr) {
    std::optional<Verdict> committed = verdict_from_json(*entry);
    if (!committed) usage("malformed reference entry in " + o.reference_file);
    refs.push_back(*committed);
    std::cerr << "abvbench: holding verdicts against the committed reference"
              << " for seed " << seed << "\n";
  } else if (o.reference_seed) {
    usage("no committed reference for seed " + std::to_string(seed));
  }
  return refs;
}

std::string report_json(const abv::Report& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

// ---- Statistics and process facts ---------------------------------------------

// Linear-interpolation quantile (q = 0.5 is the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// VmHWM, the high-water mark of this process image. getrusage's ru_maxrss
// is not used: Linux carries it across execve, so it can report the RSS of
// the parent that forked this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0.0;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// A metric as it goes into the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- prepare -------------------------------------------------------------------

// Exit status: 0 ok, 1 wrong verdicts (the replay disagrees with the live
// run), 2 an I/O or usage error.
int prepare(const Options& o) {
  const Workload& w = *o.workload;
  models::RunConfig live = run_config(w, o.size, o.seed);
  live.ingest.record_path = o.log_path();
  const models::RunResult recorded = models::run_simulation(live);
  if (!recorded.ingest_error.empty()) {
    std::cerr << "abvbench: recording failed: " << recorded.ingest_error << "\n";
    return 2;
  }
  // The reference replays the recorded stream through a path the measured
  // calls do not take: no kernel or model, the tree interpreter instead of
  // the compiled checker programs, and the serial engine without lockstep
  // batching. A checker change that miscounts on the measured path then
  // shows as a verdict mismatch, not as a quietly matching reference.
  models::RunConfig replay = run_config(w, o.size, o.seed);
  replay.ingest.replay_path = o.log_path();
  replay.compiled_checkers = false;
  replay.engine.jobs = 1;
  replay.engine.vectorized = false;
  const models::RunResult replayed = models::run_simulation(replay);
  if (!replayed.ingest_error.empty()) {
    std::cerr << "abvbench: replay failed: " << replayed.ingest_error << "\n";
    return 2;
  }
  if (report_json(replayed.report) != report_json(recorded.report)) {
    std::cerr << "abvbench: the interpreted replay's report differs from the "
                 "live one\n";
    return 1;
  }
  const Verdict reference = verdict_of(replayed.report, recorded.functional_ok);
  if (!write_file(o.ref_path(), to_json(reference) + "\n")) {
    std::cerr << "abvbench: cannot write " << o.ref_path() << "\n";
    return 2;
  }
  return 0;
}

// ---- Host-speed probe ------------------------------------------------------------

// A fixed amount of work shaped like the program's name-keyed sampling and
// record handling: per step it builds a hierarchical signal name with
// std::to_string and concatenation, bumps that name's counter in a hash map,
// and keeps the last names in a deque of shared pointers, so it allocates,
// hashes, compares strings and frees as the program does. The code is the
// benchmark's own, so it is the same on both sides of a comparison, and its
// time follows the host's speed, which drifts by up to 2x over seconds to
// minutes on a shared host (README.md, Host noise). Of the probes compared
// there, its slowdowns track the program's most closely.
class HostProbe {
 public:
  // The probe's time at the reference host speed the timing metrics are
  // reported at: about its fastest on the host README.md describes.
  static constexpr double kNominalSeconds = 0.006;

  // Runs the probe once; returns its wall time. The work is the same on
  // every run, and so is its checksum (see same_work()).
  double run() {
    const auto t0 = Clock::now();
    std::unordered_map<std::string, uint64_t> counters;
    std::deque<std::shared_ptr<std::string>> recent;
    uint64_t sum = 0;
    for (uint64_t step = 0; step < kSteps; ++step) {
      std::string name = "top.dut.blk" + std::to_string(step % 97) + ".sig_" +
                         std::to_string((step * 31) % 211);
      sum += (counters[name] += step);
      recent.push_back(std::make_shared<std::string>(std::move(name)));
      if (recent.size() > kRecent) recent.pop_front();
      sum += recent.front()->size();
    }
    const double seconds = seconds_since(t0);
    if (runs_++ == 0) checksum_ = sum;
    same_work_ = same_work_ && sum == checksum_;
    return seconds;
  }

  // False when some run computed another checksum than the first: the
  // probe's work changed from run to run, so its times do not compare.
  bool same_work() const { return same_work_; }

 private:
  static constexpr uint64_t kSteps = 40000;
  static constexpr size_t kRecent = 256;

  uint64_t runs_ = 0;
  uint64_t checksum_ = 0;
  bool same_work_ = true;
};

// ---- measure -------------------------------------------------------------------

// One untraced run_simulation call and the end-to-end quantities read off it.
struct CallSample {
  double time_to_verdict_s = 0.0;
  double wall_s = 0.0;  // RunResult::wall_seconds: the simulate+check loop
  double sim_cycles = 0.0;
};

models::RunConfig call_config(const Options& o) {
  models::RunConfig config = run_config(*o.workload, o.size, o.seed);
  if (o.workload->replay) config.ingest.replay_path = o.log_path();
  return config;
}

// The calls one run makes: fixed by --seconds, never by how fast the calls
// turn out to be, so that a quantile of them means the same on two commits.
size_t call_count(const Options& o) {
  return std::max<size_t>(
      20, static_cast<size_t>(o.seconds * kCallsPerSecond));
}

CallSample timed_call(const models::RunConfig& config, VerdictGate& gate) {
  const auto t0 = Clock::now();
  const models::RunResult result = models::run_simulation(config);
  CallSample sample;
  sample.time_to_verdict_s = seconds_since(t0);
  sample.wall_s = result.wall_seconds;
  sample.sim_cycles = static_cast<double>(result.sim_end_ns) /
                      static_cast<double>(config.clock_period_ns);
  const Verdict verdict = verdict_of(result.report, result.functional_ok &&
                                                        result.ingest_error.empty());
  gate.check(verdict);
  return sample;
}

int measure(const Options& o) {
  VerdictGate gate(load_references(o));
  const models::RunConfig config = call_config(o);
  HostProbe probe;

  // Untimed calls first: heap growth and first-touch page faults belong to
  // the process, not to a steady-state regression run. The peak RSS levels
  // off within them, and is read before the probe first runs, so that it is
  // the program's alone.
  for (size_t i = 0; i < kWarmUpCalls; ++i) timed_call(config, gate);
  const double rss_mb = peak_rss_mb();
  probe.run();  // the probe's own warm-up

  // Each call is timed between two probe runs, and its times are scaled by
  // kNominalSeconds over the mean of the two, to the workload's
  // probe_exponent: the call's time at the reference host speed. The host's
  // drift, shared by the call and the probes next to it, cancels; the
  // program's own speed-ups and slow-downs carry through in full, since the
  // scale does not depend on the call.
  const size_t calls = call_count(o);
  std::vector<double> raw_ttv, probe_s, ttv, setup, cycles_per_s;
  double before = probe.run();
  for (size_t i = 0; i < calls; ++i) {
    const CallSample s = timed_call(config, gate);
    const double after = probe.run();
    const double scale =
        std::pow(HostProbe::kNominalSeconds / (0.5 * (before + after)),
                 o.workload->probe_exponent);
    raw_ttv.push_back(s.time_to_verdict_s);
    probe_s.push_back(after);
    ttv.push_back(s.time_to_verdict_s * scale);
    setup.push_back((s.time_to_verdict_s - s.wall_s) * scale);
    cycles_per_s.push_back(s.sim_cycles / (s.wall_s * scale));
    before = after;
  }
  if (!probe.same_work()) {
    std::cerr << "abvbench: the host-speed probe did different work across "
                 "runs\n";
    return 2;
  }

  const bool correct = gate.failed() == 0;
  std::printf("workload %s  seed %llu  size %zu  calls %zu  verdict_error_rate %g\n",
              o.workload->name, static_cast<unsigned long long>(o.seed), o.size,
              ttv.size(), gate.error_rate());
  std::printf("  %-26s %14s %14s %14s\n", "per call", "p5", "median", "p95");
  auto row = [](const char* name, const std::vector<double>& v) {
    std::printf("  %-26s %14.6g %14.6g %14.6g\n", name, quantile(v, 0.05),
                median(v), quantile(v, 0.95));
  };
  row("wall s (unscaled)", raw_ttv);
  row("probe s", probe_s);
  row("time_to_verdict_s", ttv);
  row("setup_s", setup);
  row("sim_cycles_per_s", cycles_per_s);
  print_result(correct, gate.attempted(), gate.failed(),
               {{"time_to_verdict_s", median(ttv), "s"},
                {"sim_cycles_per_s", median(cycles_per_s), "1/s"},
                {"setup_s", median(setup), "s"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return correct ? 0 : 1;
}

// ---- trace ---------------------------------------------------------------------

// In-memory span recorder: (name, start, end, parent) per span, written out
// once at the end as Chrome trace-event JSON. Spans nest strictly (one
// thread), so a span's self time is its duration minus its children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    uint64_t child_ns = 0;

    double self_seconds() const {
      return static_cast<double>(end_ns - start_ns - child_ns) * 1e-9;
    }
  };

  // RAII handle closing the span it opened.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      id_ = tracer_.open(std::move(name));
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

  // Self seconds of the direct children of `parent` named `name` (0 when the
  // layer did not run).
  double self_seconds(int parent, const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == parent && s.name == name) total += s.self_seconds();
    }
    return total;
  }

  void write_chrome(std::ostream& os,
                    const std::vector<Metric>& per_layer) const {
    os << "{\"traceEvents\": [\n";
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
          "\"args\": {\"name\": \"abvbench\"}}";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << ",\n{\"name\": ";
      support::json::write_string(os, s.name);
      os << ", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
            "\"ts\": "
         << static_cast<double>(s.start_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"self_us\": " << s.self_seconds() * 1e6 << "}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
    for (size_t i = 0; i < per_layer.size(); ++i) {
      os << (i ? ", " : "") << "\"" << per_layer[i].name
         << "\": " << per_layer[i].value;
    }
    os << "}}\n";
  }

 private:
  uint64_t now_ns() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count());
  }

  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = now_ns();
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }

  const Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Per-iteration measurements of the traced pipeline, keyed by metric name.
using LayerSample = std::map<std::string, double>;

// Keeps the stimulus reference results observable to the optimizer.
volatile uint64_t g_sink = 0;

// Feeds the decoded stream through an environment built exactly like the
// one run_simulation builds for this workload, timing check / finish /
// report; the caller times bind. Fills `report` and the node-visit count.
template <typename Env>
void time_env_tail(Tracer& tracer, Env& env, tlm::RecordSource& source,
                   LayerSample& sample, abv::Report& report) {
  {
    Tracer::Scope check(tracer, "abv.check");
    for (tlm::RecordSpan span = source.next(); !span.empty();
         span = source.next()) {
      if constexpr (std::is_same_v<Env, abv::RtlAbvEnv>) {
        for (const tlm::TransactionRecord* r = span.begin; r != span.end; ++r) {
          env.on_sample(r->end, r->address == 0, r->observables);
        }
      } else {
        env.on_records(span.begin, span.end);
      }
    }
  }
  {
    Tracer::Scope finish(tracer, "abv.finish");
    env.finish();
  }
  {
    Tracer::Scope report_scope(tracer, "abv.report");
    report = env.report();
    std::ostringstream sink;
    report.write_json(sink);
  }
  uint64_t node_visits = 0;
  for (const abv::PropertyReport& p : report.properties()) {
    node_visits += p.node_visits;
  }
  sample["checker.node_visits"] = static_cast<double>(node_visits);
}

// One traced pass over the workload's pipeline, inside the caller's root
// span `root`. Every layer is timed around its public entry point.
LayerSample traced_iteration(const Options& o, Tracer& tracer, VerdictGate& gate,
                             int root) {
  const Workload& w = *o.workload;
  const bool rtl = w.level == models::Level::kRtl;
  LayerSample sample;

  models::PropertySuite suite;
  {
    Tracer::Scope s(tracer, "psl.parse");
    suite = w.design == models::Design::kDes56 ? models::des56_suite()
                                               : models::colorconv_suite();
  }
  std::vector<psl::TlmProperty> abstracted;
  if (!rtl) {
    Tracer::Scope s(tracer, "rewrite.abstract");
    rewrite::AbstractionOptions options;
    options.clock_period_ns = suite.clock_period_ns;
    options.abstracted_signals = suite.abstracted_signals;
    for (const psl::RtlProperty& p : suite.properties) {
      rewrite::AbstractionOutcome outcome = rewrite::abstract_property(p, options);
      if (!outcome.deleted()) abstracted.push_back(*outcome.property);
    }
  }
  uint64_t stimulus_check = 0;
  {
    Tracer::Scope s(tracer, "models.stimulus");
    if (w.design == models::Design::kDes56) {
      for (const models::DesOp& op : models::make_des_ops(o.size, o.seed)) {
        stimulus_check ^= op.decrypt ? models::des_decrypt(op.indata, op.key)
                                     : models::des_encrypt(op.indata, op.key);
      }
    } else {
      for (const models::CcBurst& b : models::make_cc_bursts(o.size, o.seed)) {
        for (const models::Pixel& p : b.pixels) {
          stimulus_check += models::colorconv_ref(p.r, p.g, p.b).y;
        }
      }
    }
  }
  g_sink = g_sink + stimulus_check;

  // The stream's producer without checkers: kernel + model, then the same
  // with the record stream materialized and logged.
  models::RunConfig bare = run_config(w, o.size, o.seed);
  bare.checkers = 0;
  bool functional_ok = false;
  {
    Tracer::Scope s(tracer, "sim.run");
    const models::RunResult r = models::run_simulation(bare);
    sample["sim.run_s"] = r.wall_seconds;
    sample["sim.kernel_events"] = static_cast<double>(r.kernel_events);
    functional_ok = r.functional_ok;
  }
  const std::string scratch_log = o.stem() + ".traced.rtabvlog";
  double recorded_wall = 0.0;
  {
    Tracer::Scope s(tracer, rtl ? "abv.sample" : "tlm.record");
    models::RunConfig record = bare;
    record.ingest.record_path = scratch_log;
    const models::RunResult r = models::run_simulation(record);
    recorded_wall = r.wall_seconds;
  }

  // Decode the workload's log (the replay workload's input; the live
  // workloads' own stream), then re-encode it to time the writer.
  malloc_trim(0);
  const double rss_before = current_rss_mb();
  support::tracelog::TraceReader reader;
  {
    Tracer::Scope s(tracer, "tracelog.decode");
    if (std::optional<support::tracelog::TraceError> err =
            reader.open(o.log_path())) {
      std::cerr << "abvbench: cannot decode " << o.log_path() << ": "
                << err->to_string() << "\n";
      std::exit(2);
    }
  }
  sample["tracelog.resident_mb"] = current_rss_mb() - rss_before;
  const std::vector<tlm::TransactionRecord>& records = reader.records();
  sample["tlm.records"] = static_cast<double>(records.size());
  {
    Tracer::Scope s(tracer, "tracelog.encode");
    support::tracelog::TraceWriter writer(scratch_log, reader.meta());
    size_t pos = 0;
    for (size_t n : reader.frame_sizes()) {
      writer.write_span(records.data() + pos, records.data() + pos + n);
      pos += n;
    }
    writer.finish();
  }
  std::filesystem::remove(scratch_log);
  support::tracelog::TraceReplaySource source(std::move(reader));

  abv::Report report;
  if (rtl) {
    sim::Kernel kernel;  // inert: replayed samples stand in for the design
    abv::SignalBag bag;
    abv::RtlAbvEnv env(kernel, bag);
    {
      Tracer::Scope s(tracer, "abv.bind");
      for (const psl::RtlProperty& p : suite.properties) env.add_property(p);
    }
    time_env_tail(tracer, env, source, sample, report);
    uint64_t batches = 0;
    uint64_t lanes = 0;
    for (const auto& c : env.checkers()) {
      batches += c->stats().vector_batches;
      lanes += c->stats().vector_lanes_filled;
    }
    sample["engine.vector_batches"] = static_cast<double>(batches);
    sample["engine.vector_lanes_filled"] = static_cast<double>(lanes);
  } else {
    abv::TlmAbvEnv env(suite.clock_period_ns);
    {
      Tracer::Scope s(tracer, "abv.bind");
      env.set_engine_config(run_config(w, o.size, o.seed).engine);
      for (const psl::TlmProperty& q : abstracted) env.add_property(q);
      env.bind();
    }
    time_env_tail(tracer, env, source, sample, report);
    const support::MetricsSnapshot m = env.metrics_snapshot();
    for (const char* name : {"engine.shard_busy_ns", "engine.backpressure_ns",
                             "engine.vector_batches", "engine.vector_lanes_filled"}) {
      const auto it = m.counters.find(name);
      sample[name] = it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
    }
  }
  // Engine occupancy, defined for the sharded engine only (0 at jobs 1).
  const double check_ns = tracer.self_seconds(root, "abv.check") * 1e9;
  const bool sharded = w.jobs > 1 && check_ns > 0.0;
  sample["abv.shard_busy_frac"] =
      sharded ? sample["engine.shard_busy_ns"] /
                    (static_cast<double>(w.jobs) * check_ns)
              : 0.0;
  sample["abv.backpressure_frac"] =
      sharded ? sample["engine.backpressure_ns"] / check_ns : 0.0;
  gate.check(verdict_of(report, functional_ok));

  for (const char* layer : {"psl.parse", "rewrite.abstract", "models.stimulus",
                            "tracelog.decode", "tracelog.encode", "abv.bind",
                            "abv.check", "abv.finish", "abv.report"}) {
    sample[std::string(layer) + "_s"] = tracer.self_seconds(root, layer);
  }
  // Record materialization (TLM) / SignalBag sampling (RTL): the recording
  // run's loop minus the bare loop and the writer's own encode time.
  const double materialize =
      recorded_wall - sample["sim.run_s"] - sample["tracelog.encode_s"];
  sample["tlm.record_s"] = rtl ? 0.0 : materialize;
  sample["abv.sample_s"] = rtl ? materialize : 0.0;
  sample["log_mb"] =
      static_cast<double>(std::filesystem::file_size(o.log_path())) / (1024.0 * 1024.0);

  // The pieces that together make up one run_simulation call of this
  // workload: its traced total, compared with an untraced call.
  double total = sample["psl.parse_s"] + sample["rewrite.abstract_s"] +
                 sample["abv.bind_s"] + sample["abv.check_s"] +
                 sample["abv.finish_s"] + sample["abv.report_s"];
  if (w.replay) {
    total += sample["tracelog.decode_s"];
  } else {
    total += sample["models.stimulus_s"] + sample["sim.run_s"] + materialize;
  }
  sample["traced_total_s"] = total;
  return sample;
}

int trace(const Options& o) {
  const Workload& w = *o.workload;
  VerdictGate gate(load_references(o));
  const models::RunConfig config = call_config(o);
  Tracer tracer;

  timed_call(config, gate);  // untimed warm-up

  // Traced iterations alternate with untraced calls, so each pair sees about
  // the same machine speed; the two ratios against an untraced call are
  // taken per pair. An iteration plus its call costs about five calls.
  const size_t iterations = call_count(o) / 5;
  std::vector<LayerSample> samples;
  std::vector<double> untraced_ttv;
  while (samples.size() < iterations) {
    int root = -1;
    LayerSample sample;
    {
      Tracer::Scope scope(tracer, "abvbench.iteration");
      root = scope.id();
      sample = traced_iteration(o, tracer, gate, root);
    }
    sample["trace.unattributed_s"] = tracer.span(root).self_seconds();
    const double ttv = timed_call(config, gate).time_to_verdict_s;
    untraced_ttv.push_back(ttv);
    sample["check_share"] = sample["abv.check_s"] / ttv;
    sample["overhead_frac"] = sample["traced_total_s"] / ttv - 1.0;
    samples.push_back(std::move(sample));
  }

  auto med = [&samples](const std::string& key) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.at(key));
    return median(v);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double check_ns = med("abv.check_s") * 1e9;
  const double batches = med("engine.vector_batches");
  const std::vector<Metric> per_layer = {
      {"psl.parse_s", med("psl.parse_s"), "s"},
      {"rewrite.abstract_s", med("rewrite.abstract_s"), "s"},
      {"models.stimulus_s", med("models.stimulus_s"), "s"},
      {"sim.run_s", med("sim.run_s"), "s"},
      {"sim.kernel_events", med("sim.kernel_events"), "count"},
      {"sim.ns_per_event", ratio(med("sim.run_s") * 1e9, med("sim.kernel_events")), "ns"},
      {"tlm.record_s", med("tlm.record_s"), "s"},
      {"tlm.records", med("tlm.records"), "count"},
      {"abv.sample_s", med("abv.sample_s"), "s"},
      {"tracelog.encode_s", med("tracelog.encode_s"), "s"},
      {"tracelog.decode_s", med("tracelog.decode_s"), "s"},
      {"tracelog.decode_mb_per_s", ratio(med("log_mb"), med("tracelog.decode_s")), "MB/s"},
      {"tracelog.resident_mb", med("tracelog.resident_mb"), "MB"},
      {"abv.bind_s", med("abv.bind_s"), "s"},
      {"abv.check_s", med("abv.check_s"), "s"},
      {"abv.check_ns_per_record", ratio(check_ns, med("tlm.records")), "ns"},
      {"abv.check_share", med("check_share"), "fraction"},
      {"abv.finish_s", med("abv.finish_s"), "s"},
      {"abv.report_s", med("abv.report_s"), "s"},
      {"abv.shard_busy_frac", med("abv.shard_busy_frac"), "fraction"},
      {"abv.backpressure_frac", med("abv.backpressure_frac"), "fraction"},
      {"checker.node_visits", med("checker.node_visits"), "count"},
      {"checker.ns_per_node_visit", ratio(check_ns, med("checker.node_visits")), "ns"},
      {"checker.lockstep_lanes_per_prime",
       ratio(med("engine.vector_lanes_filled"), batches), "count"},
      {"trace.unattributed_s", med("trace.unattributed_s"), "s"},
      {"trace.overhead_frac", med("overhead_frac"), "fraction"},
      {"verdict_error_rate", gate.error_rate(), "fraction"},
  };

  std::printf("workload %s  seed %llu  size %zu  traced iterations %zu  "
              "untraced time_to_verdict_s (median) %.6f\n",
              w.name, static_cast<unsigned long long>(o.seed), o.size,
              samples.size(), median(untraced_ttv));
  std::printf("  %-34s %16s  %s\n", "per-layer metric", "median", "unit");
  for (const Metric& m : per_layer) {
    std::printf("  %-34s %16.9g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    tracer.write_chrome(out, per_layer);
    if (!out) {
      std::cerr << "abvbench: cannot write " << o.trace_out << "\n";
      return 2;
    }
    std::printf("  chrome trace: %s\n", o.trace_out.c_str());
  }
  const bool correct = gate.failed() == 0;
  print_result(correct, gate.attempted(), gate.failed(), per_layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::filesystem::create_directories(o.dir);
  if (o.mode == "prepare") return prepare(o);
  if (o.mode == "measure") return measure(o);
  return trace(o);
}
