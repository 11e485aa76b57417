// Shared machinery of the repository benchmark: run arguments, the span
// recorder behind the traced run, latency samples, per-phase accounting,
// and the result line.
//
// The benchmark measures PRIMACY from outside. It times its own calls into
// each layer's public functions and replays the same inputs one layer
// lower; nothing here is compiled into the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip one expected output before verification: the run must then
  /// report a failure and exit nonzero (the verifier's self-check).
  bool corrupt_expected = false;
  /// Directory for the trace file and the daemon's socket.
  std::string work_dir = ".";
};

/// Nanoseconds on the steady clock.
std::uint64_t NowNs();

/// One recorded span. `parent` is the span that caused this one: its
/// enclosing call on the measured path, or, for a replay, the measured call
/// whose inputs it replays one layer lower. `group` is shared by every span
/// of one request, chunk or phase.
struct Span {
  const char* name = nullptr;  // "<layer>.<operation>", a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t bytes = 0;  // input bytes of the call, when meaningful
  /// False for a reference measurement recorded next to `parent` whose
  /// work is not part of the parent's (LzExpand beside the fused deflate
  /// decoder): it is reported, but not subtracted from the parent's time.
  bool nested = true;

  std::uint64_t DurationNs() const { return end_ns - start_ns; }
};

/// In-memory span store, written out once when the run ends. Disabled
/// (every call a no-op returning id 0) unless the run is traced.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  std::uint64_t NewId() { return next_id_.fetch_add(1); }
  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t Record(const char* name, std::uint64_t parent,
                       std::uint64_t group, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t bytes = 0,
                       std::uint64_t id = 0, bool nested = true)
      PRIMACY_EXCLUDES(mu_);
  std::vector<Span> Spans() const PRIMACY_EXCLUDES(mu_);
  /// Writes every span in the chrome://tracing format the library's own
  /// exporter emits (complete "X" events), with id/parent/group/bytes as
  /// args and `meta` as top-level metadata.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& meta) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable primacy::Mutex mu_;
  std::vector<Span> spans_ PRIMACY_GUARDED_BY(mu_);
};

/// RAII span around one call. The id is reserved up front so children and
/// replays can name it as their parent before it ends.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent, std::uint64_t group,
             std::uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t group_;
  std::uint64_t bytes_;
  std::uint64_t start_ns_;
};

/// Latency samples in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// Median of a list of values; 0 when empty.
double Median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a ratio over work that did not happen).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Ops attempted/succeeded/failed in one phase. A refused request, a
/// non-ok status, a thrown exception and a hash mismatch all count as a
/// failure.
struct PhaseCount {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Collects phase counts and metrics and prints the result.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}
  PhaseCount& Phase(const std::string& name);
  /// Sets a metric of the run's mode (end-to-end untraced, per-layer
  /// traced); the unit comes from the mode's metric table. Metrics of the
  /// other mode are ignored, unknown names abort.
  void Set(const std::string& name, double value);
  /// Prints one line per phase, the host/build stamp, and the final JSON
  /// object. Returns the process exit code: 0 only when every op succeeded.
  int Finish(const Args& args) const;
  std::uint64_t Attempted() const;
  std::uint64_t Failed() const;

 private:
  bool traced_;
  std::deque<PhaseCount> phases_;  // stable references for Phase()
  std::map<std::string, double> values_;
};

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double PeakRssMB();
/// Host and build facts stamped into every result and trace.
std::map<std::string, std::string> HostStamp(const Args& args);

/// XXH64 of a byte range, the benchmark's identity check.
std::uint64_t Hash(primacy::ByteSpan data);

/// Deterministic per-purpose seed derived from the run seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t purpose);

/// Number of closed-loop clients: one per core `nproc` reports.
std::size_t ClientCount();

/// Moves the calling thread to the next CPU, in turn, of those the process
/// started with. On a shared host the CPUs run at different speeds (a
/// busy hyperthread sibling, interrupts): pinned to one CPU for a whole
/// run, a single-threaded restart read ran from 150 to 212 MB/s depending
/// on which CPU the scheduler picked. Turning through the CPUs call by call
/// makes every run sample all of them. Call it from one thread only.
void RotateCpu();

}  // namespace perfbench
