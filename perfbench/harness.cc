#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "kernels/kernels.h"
#include "telemetry/stage.h"
#include "util/checksum.h"

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint32_t ThreadTag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode; a layer a workload does
// not exercise reports 0. BENCHMARK.json lists the same names and units.
// The p90/p99 tails are traced-run metrics: on daemon_hot the p90 moves
// between the one-flush and two-flush latency modes with the host's timer
// wake-up latency, so it cannot hold an end-to-end bound.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"write_MBps", "MB/s"},
    {"restart_read_MBps", "MB/s"},
    {"range_read_p50_us", "us"},
    {"compression_ratio", "x"},
    {"throughput_req_s", "req/s"},
    {"compress_p50_us", "us"},
    {"decompress_p50_us", "us"},
    {"peak_rss_MB", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"lz77.parse_ns_per_B", "ns/B"},
    {"lz77.tokens_per_B", "1/B"},
    {"lz77.expand_ns_per_B", "ns/B"},
    {"deflate.encode_ns_per_B", "ns/B"},
    {"huffman.encode_ns_per_B", "ns/B"},
    {"deflate.decode_ns_per_B", "ns/B"},
    {"deflate.stored_frac", "share"},
    {"deflate.id_ratio", "x"},
    {"deflate.mantissa_ratio", "x"},
    {"isobar.analyze_ns_per_B", "ns/B"},
    {"isobar.self_ns_per_B", "ns/B"},
    {"isobar.solver_share", "share"},
    {"isobar.compressible_col_frac", "share"},
    {"isobar.decode_ns_per_B", "ns/B"},
    {"core.frequency_ns_per_B", "ns/B"},
    {"core.idmap_ns_per_B", "ns/B"},
    {"core.idunmap_ns_per_B", "ns/B"},
    {"core.distinct_pairs_per_chunk", "count"},
    {"core.encode_ns_per_B", "ns/B"},
    {"core.decode_ns_per_B", "ns/B"},
    {"core.encode_unattributed_frac", "share"},
    {"core.stage_isobar_frac_reported", "share"},
    {"kernels.split_ns_per_B", "ns/B"},
    {"kernels.merge_ns_per_B", "ns/B"},
    {"checksum.ns_per_B", "ns/B"},
    {"store.open_us", "us"},
    {"store.write_self_frac", "share"},
    {"store.read_self_frac", "share"},
    {"store.range_read_p99_us", "us"},
    {"cache.hit_ratio", "share"},
    {"cache.reject_ratio", "share"},
    {"cache.evictions", "count"},
    {"cache.hit_us", "us"},
    {"cache.miss_us", "us"},
    {"cache.decoded_B_per_returned_B", "B/B"},
    {"service.latency_p50_us", "us"},
    {"service.latency_p99_us", "us"},
    {"service.overhead_p50_us", "us"},
    {"service.memo_hit_ratio", "share"},
    {"service.cache_hit_ratio", "share"},
    {"service.items_per_batch", "count"},
    {"service.timeout_flush_frac", "share"},
    {"service.rejected", "count"},
    {"service.failed", "count"},
    {"transport.overhead_p50_us", "us"},
    {"transport.overhead_p99_us", "us"},
    {"transport.retries", "count"},
    {"transport.connects", "count"},
    {"transport.server_errors", "count"},
    {"client.compress_p90_us", "us"},
    {"client.compress_p99_us", "us"},
    {"client.decompress_p90_us", "us"},
    {"client.decompress_p99_us", "us"},
    {"client.range_read_p90_us", "us"},
    {"client.range_read_p99_us", "us"},
    {"pool.queue_wait_p50_us", "us"},
    {"pool.busy_frac", "share"},
    {"trace.overhead_frac", "share"},
    {"fail_ratio", "share"},
};

template <std::size_t N>
const MetricDef* FindMetric(const MetricDef (&table)[N],
                            const std::string& name) {
  for (const MetricDef& def : table) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::Record(const char* name, std::uint64_t parent,
                             std::uint64_t group, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t bytes,
                             std::uint64_t id, bool nested) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.group = group;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.tid = ThreadTag();
  span.bytes = bytes;
  span.nested = nested;
  primacy::MutexLock lock(mu_);
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> Tracer::Spans() const {
  primacy::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::vector<Span> spans = Spans();
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::uint64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })->start_ns;
  std::fputs("{\"metadata\": {", file);
  bool first = true;
  for (const auto& [key, value] : meta) {
    std::fprintf(file, "%s%s: %s", first ? "" : ", ", JsonString(key).c_str(),
                 JsonString(value).c_str());
    first = false;
  }
  std::fputs("},\n\"traceEvents\": [\n", file);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Trace Event Format: microsecond timestamps. Exact nanoseconds ride
    // along in args so the reader's sums do not round.
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"group\":%llu,\"bytes\":%llu,"
                 "\"dur_ns\":%llu,\"nested\":%d}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.DurationNs()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group),
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.DurationNs()),
                 s.nested ? 1 : 0, i + 1 == spans.size() ? "" : ",");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent,
                       std::uint64_t group, std::uint64_t bytes)
    : name_(name),
      id_(Tracer::Get().enabled() ? Tracer::Get().NewId() : 0),
      parent_(parent),
      group_(group),
      bytes_(bytes),
      start_ns_(NowNs()) {}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    Tracer::Get().Record(name_, parent_, group_, start_ns_, NowNs(), bytes_,
                         id_);
  }
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

PhaseCount& Report::Phase(const std::string& name) {
  for (PhaseCount& phase : phases_) {
    if (phase.name == name) return phase;
  }
  phases_.push_back(PhaseCount{name, 0, 0});
  return phases_.back();
}

void Report::Set(const std::string& name, double value) {
  if (FindMetric(kEndToEnd, name) == nullptr &&
      FindMetric(kPerLayer, name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

std::uint64_t Report::Attempted() const {
  std::uint64_t total = 0;
  for (const PhaseCount& phase : phases_) total += phase.attempted;
  return total;
}

std::uint64_t Report::Failed() const {
  std::uint64_t total = 0;
  for (const PhaseCount& phase : phases_) total += phase.failed;
  return total;
}

int Report::Finish(const Args& args) const {
  for (const PhaseCount& phase : phases_) {
    std::printf("phase %-14s attempted=%llu succeeded=%llu failed=%llu\n",
                phase.name.c_str(),
                static_cast<unsigned long long>(phase.attempted),
                static_cast<unsigned long long>(phase.attempted - phase.failed),
                static_cast<unsigned long long>(phase.failed));
  }
  std::string stamp = "{";
  for (const auto& [key, value] : HostStamp(args)) {
    stamp += (stamp.size() > 1 ? ", " : "") + JsonString(key) + ": " +
             JsonString(value);
  }
  std::printf("stamp %s}\n", stamp.c_str());
  const bool correct = Failed() == 0 && Attempted() > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(Attempted());
  out += ", \"failed\": " + std::to_string(Failed());
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    const auto it = values_.find(def.name);
    double value = it == values_.end() ? 0.0 : it->second;
    if (std::string(def.name) == "fail_ratio" && Attempted() > 0) {
      value = static_cast<double>(Failed()) / static_cast<double>(Attempted());
    }
    out += (first ? "" : ", ") + JsonString(def.name) + ": {\"value\": " +
           JsonNumber(value) +
           ", \"unit\": " + JsonString(def.unit) + "}";
    first = false;
  };
  if (traced_) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double PeakRssMB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

std::map<std::string, std::string> HostStamp(const Args& args) {
  return {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", JsonNumber(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(ClientCount())},
      {"kernel_isa",
       primacy::kernels::IsaName(primacy::kernels::ActiveIsa())},
      {"telemetry", primacy::telemetry::kEnabled ? "on" : "off"},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

std::uint64_t Hash(primacy::ByteSpan data) { return primacy::Xxh64(data); }

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t purpose) {
  // SplitMix64 finalizer over (seed, purpose).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// The CPUs the process may run on, read once before any thread is pinned.
std::vector<std::size_t> StartCpus() {
  std::vector<std::size_t> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

const std::vector<std::size_t> kStartCpus = StartCpus();

}  // namespace

void RotateCpu() {
  static std::size_t turn = 0;
  if (kStartCpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(kStartCpus[turn++ % kStartCpus.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);  // best effort
}

std::size_t ClientCount() {
  // What `nproc` prints: the CPUs this process may run on.
  if (!kStartCpus.empty()) return kStartCpus.size();
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace perfbench
