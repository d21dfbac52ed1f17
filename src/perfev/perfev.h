// Thin perf_event_open(2) wrapper: the real-hardware counterpart of the
// simulated PMU. Gives the native plane the same two capabilities the paper
// needs — counting (cycles, instructions, cache misses) and IP sampling —
// with explicit availability probing: containers and locked-down kernels
// commonly deny perf_event_open, in which case every entry point returns
// UNAVAILABLE. No pipeline calls it yet; every profile comes from the
// simulated PMU.
#ifndef YIELDHIDE_SRC_PERFEV_PERFEV_H_
#define YIELDHIDE_SRC_PERFEV_PERFEV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace yieldhide::perfev {

enum class CounterKind : uint8_t {
  kCycles,
  kInstructions,
  kCacheMisses,      // LLC misses
  kCacheReferences,
  kStalledCyclesBackend,
};

const char* CounterKindName(CounterKind kind);

// True if this process can open at least a software perf event.
bool PerfEventsAvailable();

// One hardware counter over the calling thread.
class PerfCounter {
 public:
  PerfCounter() = default;
  PerfCounter(PerfCounter&& other) noexcept;
  PerfCounter& operator=(PerfCounter&& other) noexcept;
  PerfCounter(const PerfCounter&) = delete;
  PerfCounter& operator=(const PerfCounter&) = delete;
  ~PerfCounter();

  static Result<PerfCounter> Open(CounterKind kind);

  Status Start();
  Status Stop();
  Result<uint64_t> Read() const;

  bool valid() const { return fd_ >= 0; }

 private:
  explicit PerfCounter(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// IP sampling via a perf mmap ring buffer. Samples instruction pointers of
// the calling thread every `period` occurrences of the event.
class PerfSampler {
 public:
  struct Config {
    CounterKind kind = CounterKind::kCycles;
    uint64_t period = 100'000;
    size_t ring_pages = 8;  // data pages, must be a power of two
  };

  struct Sample {
    uint64_t ip = 0;
    uint32_t pid = 0;
    uint32_t tid = 0;
  };

  PerfSampler() = default;
  PerfSampler(PerfSampler&& other) noexcept;
  PerfSampler& operator=(PerfSampler&& other) noexcept;
  PerfSampler(const PerfSampler&) = delete;
  PerfSampler& operator=(const PerfSampler&) = delete;
  ~PerfSampler();

  static Result<PerfSampler> Open(const Config& config);

  Status Start();
  Status Stop();
  // Drains all samples currently in the ring.
  std::vector<Sample> Drain();

  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  void* ring_ = nullptr;
  size_t ring_bytes_ = 0;
  void Close();
};

}  // namespace yieldhide::perfev

#endif  // YIELDHIDE_SRC_PERFEV_PERFEV_H_
