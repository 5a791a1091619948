#include "util/trace.h"

#include <algorithm>
#include <chrono>

namespace hypdb {
namespace {

// ---------------------------------------------------------------------
// Slot and ring layout.
//
// One slot is one cache line of atomic words. The writer fills it with
// relaxed stores bracketed by an invalidate + release-fence in front and
// a release publish of `seq` behind; harvesters acquire-read `seq`,
// relaxed-read the payload, and re-check `seq` across an acquire fence,
// skipping slots that changed underneath them. Every access is atomic,
// so the protocol is race-free (TSan-clean); tearing is detected, not
// prevented.

constexpr uint64_t kSeqEmpty = 0;      // never written
constexpr uint64_t kSeqWriting = ~0ull;  // mid-write marker

struct alignas(64) Slot {
  std::atomic<uint64_t> seq{kSeqEmpty};
  std::atomic<uint64_t> ticket{0};
  std::atomic<uint64_t> start_nanos{0};
  std::atomic<uint64_t> dur_nanos{0};
  std::atomic<uint64_t> meta{0};  // kind(8) | thread_id(32)
  std::atomic<uint64_t> arg0{0};
  std::atomic<uint64_t> arg1{0};
  std::atomic<uint64_t> reserved{0};
};
static_assert(sizeof(Slot) == 64, "one slot, one cache line");

constexpr int kRingCapacity = 2048;  // 128 KiB per ring
constexpr int kMaxRings = 64;

struct Ring {
  Slot slots[kRingCapacity];
  /// Next write position (monotone; low bits index the ring). Owner-only
  /// writes; atomic so ownership handoff through the pool needs no
  /// further care.
  std::atomic<uint64_t> pos{0};
  /// Claimed by a live thread. acq_rel exchange on acquire/release
  /// orders the previous owner's writes before the next owner's.
  std::atomic<bool> in_use{false};
};

struct Pool {
  std::atomic<Ring*> rings[kMaxRings] = {};
  std::atomic<int> allocated{0};
};

Pool& GlobalPool() {
  // Leaked intentionally: harvesters may run on any thread until
  // process exit, and rings are a small fixed cost.
  static Pool* pool = new Pool();
  return *pool;
}

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Releases the thread's ring back to the pool at thread exit. The
/// ring's contents stay harvestable; only the writer seat is recycled.
struct RingHandle {
  Ring* ring = nullptr;
  ~RingHandle() {
    if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
  }
};

thread_local RingHandle t_ring;
thread_local TraceContext t_ctx;

Ring* AcquireRing() {
  if (t_ring.ring != nullptr) return t_ring.ring;
  Pool& pool = GlobalPool();
  for (int i = 0; i < kMaxRings; ++i) {
    Ring* ring = pool.rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) {
      Ring* fresh = new Ring();
      if (pool.rings[i].compare_exchange_strong(ring, fresh,
                                                std::memory_order_acq_rel)) {
        pool.allocated.fetch_add(1, std::memory_order_relaxed);
        ring = fresh;
      } else {
        delete fresh;  // another thread won the slot; try to claim theirs
      }
    }
    bool free = false;
    if (ring->in_use.compare_exchange_strong(free, true,
                                             std::memory_order_acq_rel)) {
      t_ring.ring = ring;
      return ring;
    }
  }
  return nullptr;  // pool exhausted; caller counts the drop
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RollupEvent(TraceEventKind kind, uint64_t arg0, double dur_seconds) {
  TraceRollup& r = GlobalTraceRollup();
  switch (kind) {
    case TraceEventKind::kStage:
      if (arg0 < kNumTraceStages) r.stage_seconds[arg0].Observe(dur_seconds);
      break;
    case TraceEventKind::kKernelScan:
      if (arg0 < 3) r.kernel_scan_seconds[arg0].Observe(dur_seconds);
      break;
    case TraceEventKind::kCiTest:
      r.ci_tests.Add();
      r.ci_test_seconds.Observe(dur_seconds);
      break;
    case TraceEventKind::kDiscoveryWait:
      r.discovery_wait_seconds.Observe(dur_seconds);
      break;
    case TraceEventKind::kCacheHit: r.cache_hits.Add(); break;
    case TraceEventKind::kCacheMiss: r.cache_misses.Add(); break;
    case TraceEventKind::kCacheMarginalize:
      r.cache_marginalizations.Add();
      break;
    case TraceEventKind::kCacheEvict: r.cache_evictions.Add(); break;
    case TraceEventKind::kCachePrefetch: r.cache_prefetches.Add(); break;
    case TraceEventKind::kSliceServe: r.slice_serves.Add(); break;
    case TraceEventKind::kSliceFallback: r.slice_fallbacks.Add(); break;
    case TraceEventKind::kDiscoveryHit: r.discovery_hits.Add(); break;
    case TraceEventKind::kDiscoveryCompute: r.discovery_computes.Add(); break;
    case TraceEventKind::kMorselBatch: r.morsel_batches.Add(); break;
    case TraceEventKind::kIngestAppend: r.ingest_appends.Add(); break;
    case TraceEventKind::kDeltaPatch: r.delta_patches.Add(); break;
    case TraceEventKind::kNone: break;
  }
}

void RecordEvent(TraceEventKind kind, uint64_t start_nanos,
                 uint64_t dur_nanos, uint64_t arg0, uint64_t arg1) {
  const TraceContext& ctx = t_ctx;
  RollupEvent(kind, arg0, static_cast<double>(dur_nanos) * 1e-9);
  Ring* ring = AcquireRing();
  if (ring == nullptr) {
    GlobalTraceRollup().dropped_events.Add();
    return;
  }
  const uint64_t pos = ring->pos.load(std::memory_order_relaxed);
  Slot& s = ring->slots[pos & (kRingCapacity - 1)];
  // Seqlock write: invalidate, fence, relaxed payload, release publish.
  // A harvester that observes any of the new payload cannot re-read the
  // old sequence number, so it skips the slot as torn.
  s.seq.store(kSeqWriting, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ticket.store(ctx.ticket, std::memory_order_relaxed);
  s.start_nanos.store(start_nanos, std::memory_order_relaxed);
  s.dur_nanos.store(dur_nanos, std::memory_order_relaxed);
  s.meta.store(static_cast<uint64_t>(kind) |
                   (static_cast<uint64_t>(ThisThreadId()) << 8),
               std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.seq.store(pos + 1, std::memory_order_release);
  ring->pos.store(pos + 1, std::memory_order_relaxed);
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kNone: return "none";
    case TraceEventKind::kStage: return "stage";
    case TraceEventKind::kKernelScan: return "kernel_scan";
    case TraceEventKind::kCiTest: return "ci_test";
    case TraceEventKind::kDiscoveryWait: return "discovery_wait";
    case TraceEventKind::kCacheHit: return "cache_hit";
    case TraceEventKind::kCacheMiss: return "cache_miss";
    case TraceEventKind::kCacheMarginalize: return "cache_marginalize";
    case TraceEventKind::kCacheEvict: return "cache_evict";
    case TraceEventKind::kCachePrefetch: return "cache_prefetch";
    case TraceEventKind::kSliceServe: return "slice_serve";
    case TraceEventKind::kSliceFallback: return "slice_fallback";
    case TraceEventKind::kDiscoveryHit: return "discovery_hit";
    case TraceEventKind::kDiscoveryCompute: return "discovery_compute";
    case TraceEventKind::kMorselBatch: return "morsel_batch";
    case TraceEventKind::kIngestAppend: return "ingest_append";
    case TraceEventKind::kDeltaPatch: return "delta_patch";
  }
  return "unknown";
}

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kAnswers: return "answers";
    case TraceStage::kDiscover: return "discover";
    case TraceStage::kDetect: return "detect";
    case TraceStage::kExplain: return "explain";
    case TraceStage::kRewrite: return "rewrite";
    case TraceStage::kBind: return "bind";
  }
  return "unknown";
}

const char* TraceKernelTierName(TraceKernelTier tier) {
  switch (tier) {
    case TraceKernelTier::kReference: return "reference";
    case TraceKernelTier::kScalar: return "scalar";
    case TraceKernelTier::kSimd: return "simd";
  }
  return "unknown";
}

bool TraceKindIsDeep(TraceEventKind kind) {
  return kind == TraceEventKind::kCiTest ||
         kind == TraceEventKind::kMorselBatch;
}

TraceContext CurrentTraceContext() { return t_ctx; }

bool TraceEnabled(int min_level) {
  return t_ctx.ticket != 0 && t_ctx.level >= min_level;
}

TraceContextScope::TraceContextScope(const TraceContext& ctx) : prev_(t_ctx) {
  t_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { t_ctx = prev_; }

void TraceInstant(TraceEventKind kind, int min_level, uint64_t arg0,
                  uint64_t arg1) {
  if (!TraceEnabled(min_level)) return;
  RecordEvent(kind, NowNanos(), 0, arg0, arg1);
}

TraceSpanScope::TraceSpanScope(TraceEventKind kind, int min_level,
                               uint64_t arg0, uint64_t arg1)
    : arg0_(arg0), arg1_(arg1), kind_(kind) {
  if (TraceEnabled(min_level)) start_nanos_ = NowNanos();
}

TraceSpanScope::~TraceSpanScope() {
  if (start_nanos_ == 0) return;
  const uint64_t end = NowNanos();
  RecordEvent(kind_, start_nanos_,
              end > start_nanos_ ? end - start_nanos_ : 0, arg0_, arg1_);
}

std::vector<TraceEventRecord> HarvestTrace(uint64_t ticket,
                                           uint64_t t0_nanos) {
  std::vector<TraceEventRecord> out;
  if (ticket == 0) return out;
  Pool& pool = GlobalPool();
  for (int i = 0; i < kMaxRings; ++i) {
    Ring* ring = pool.rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (int j = 0; j < kRingCapacity; ++j) {
      Slot& s = ring->slots[j];
      const uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 == kSeqEmpty || seq1 == kSeqWriting) continue;
      if (s.ticket.load(std::memory_order_relaxed) != ticket) continue;
      TraceEventRecord rec;
      const uint64_t start = s.start_nanos.load(std::memory_order_relaxed);
      const uint64_t dur = s.dur_nanos.load(std::memory_order_relaxed);
      const uint64_t meta = s.meta.load(std::memory_order_relaxed);
      rec.arg0 = s.arg0.load(std::memory_order_relaxed);
      rec.arg1 = s.arg1.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      // Validate-and-consume in one step: the CAS fails exactly when the
      // writer started overwriting the slot (a torn read), and on success
      // it empties the slot so a later request that happens to reuse this
      // ticket number (tickets are per-scheduler, and one process can
      // host several) can never inherit the event.
      uint64_t expected = seq1;
      if (!s.seq.compare_exchange_strong(expected, kSeqEmpty,
                                         std::memory_order_acq_rel)) {
        continue;
      }
      rec.kind = static_cast<TraceEventKind>(meta & 0xff);
      rec.thread_id = static_cast<uint32_t>(meta >> 8);
      rec.start_seconds =
          start > t0_nanos
              ? static_cast<double>(start - t0_nanos) * 1e-9
              : 0.0;
      rec.dur_seconds = static_cast<double>(dur) * 1e-9;
      out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEventRecord& a, const TraceEventRecord& b) {
              if (a.start_seconds != b.start_seconds) {
                return a.start_seconds < b.start_seconds;
              }
              return a.dur_seconds > b.dur_seconds;  // parents first
            });
  return out;
}

TraceRollup& GlobalTraceRollup() {
  static TraceRollup* rollup = new TraceRollup();
  return *rollup;
}

int TraceRingsAllocated() {
  return GlobalPool().allocated.load(std::memory_order_relaxed);
}

int TraceRingCapacity() { return kRingCapacity; }

}  // namespace hypdb
