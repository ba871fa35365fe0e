// E-code virtual machine.
//
// A fueled stack machine: every instruction consumes one unit of fuel, so a
// filter containing an endless loop cannot wedge the publishing kernel — a
// guarantee the paper's native-code generator would have needed too. Runtime
// errors (division by zero, out-of-range input index, a sample operand in a
// numeric context, fuel exhaustion) surface as Status and cause d-mon to
// fall back to unfiltered publication.
//
// The VM is built for steady-state speed: the operand stack, the locals
// frame and the output slots are reusable per-Vm scratch arenas, so a d-mon
// evaluating the same filter once per polling period performs zero heap
// allocations after the first (warm-up) run. Outputs live in a flat dense
// array indexed by slot (bounded by VmLimits::max_output_index) instead of
// an ordered map; a small touched-list remembers which slots were written
// so clearing between runs is O(written), not O(max_output_index). Fuel is
// accounted per instruction (superinstructions emitted by the bytecode
// peephole pass carry the weight of the sequence they replaced, keeping
// instructions_executed identical to unoptimized execution) but the limit
// is only *checked* at control-flow edges — straight-line code cannot loop,
// so checking at jumps and returns bounds execution all the same.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dproc/ecode/bytecode.hpp"
#include "dproc/util/status.hpp"

namespace dproc::ecode {

/// The monitoring sample record filters operate on. Field names mirror the
/// paper's filter example (Figure 3): `value` is the current measurement,
/// `last_value_sent` the value most recently published to subscribers.
struct Sample {
  std::int64_t id = 0;
  double value = 0.0;
  double last_value_sent = 0.0;
  std::int64_t timestamp_ns = 0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

struct VmLimits {
  /// Hard ceiling on max_instructions. The fuel counter is only checked at
  /// control-flow edges, so a limit near 2^64 would make out_of_fuel()
  /// effectively unreachable; the Vm constructor clamps to this bound and
  /// the control-file path (`fuel <n>`) rejects larger requests outright.
  static constexpr std::uint64_t kMaxInstructionLimit = 1'000'000'000;

  std::uint64_t max_instructions = 1'000'000;
  std::int64_t max_output_index = 255;
};

struct FilterResult {
  /// Written output slots in ascending index order.
  std::vector<std::pair<std::int64_t, Sample>> outputs;
  std::optional<double> return_value;
  std::uint64_t instructions_executed = 0;
};

/// Embedder-provided sketch state the kCallSketch builtins operate on: a
/// primary heavy-hitter sketch (rank-indexed top-k plus count-min lookups)
/// and zero or more auxiliary sketches that can be merged into it. The
/// concrete implementation lives in core/sketch (FilterSketchBridge); the
/// VM sees only this interface so the ecode layer stays core-free.
class SketchHost {
 public:
  virtual ~SketchHost() = default;

  /// Estimated count of the rank-th heaviest key (0 = heaviest); 0.0 when
  /// fewer than rank+1 keys are tracked.
  [[nodiscard]] virtual double topk_count(std::int64_t rank) const = 0;
  /// Key of the rank-th heaviest entry; -1.0 when absent.
  [[nodiscard]] virtual double topk_key(std::int64_t rank) const = 0;
  /// Count-min estimate for an arbitrary key (never under the true count).
  [[nodiscard]] virtual double cm_estimate(std::int64_t key) const = 0;
  /// Merges auxiliary sketch `index` into the primary; returns the number
  /// of heavy-hitter entries folded in, or -1.0 when `index` is unknown.
  virtual double merge_aux(std::int64_t index) = 0;
};

class Vm {
 public:
  explicit Vm(VmLimits limits = {}) : limits_(limits) {
    limits_.max_instructions =
        std::min(limits_.max_instructions, VmLimits::kMaxInstructionLimit);
  }

  /// Executes `code` against the input samples into a fresh result.
  Result<FilterResult> run(const Bytecode& code, std::span<const Sample> input);

  /// Steady-state entry point: executes `code` and fills `result`, reusing
  /// the VM's scratch arenas and the capacity already held by `result`.
  /// After one warm-up run of the same program this allocates nothing.
  Status run(const Bytecode& code, std::span<const Sample> input,
             FilterResult& result);

  /// Binds the sketch state the kCallSketch builtins read; nullptr (the
  /// default) makes any sketch builtin a runtime error. Not owned.
  void set_sketch_host(SketchHost* host) { sketch_ = host; }
  [[nodiscard]] SketchHost* sketch_host() const { return sketch_; }

  /// Effective limits (after the constructor's max_instructions clamp).
  [[nodiscard]] const VmLimits& limits() const { return limits_; }

 private:
  /// Compact tagged runtime value: an int, a double, or a sample. The
  /// payload is a union, so an int-valued entry no longer drags a full
  /// Sample through every stack push.
  struct Value {
    enum class Kind : std::uint8_t { kInt, kDouble, kSample };
    // Sample's default constructor is non-trivial, so the union (and with
    // it Value) needs an explicit default constructor. All members are
    // trivially copyable, so Value still copies as raw bytes.
    Value() : kind(Kind::kInt), i(0) {}
    Kind kind;
    union {
      std::int64_t i;
      double d;
      Sample s;
    };
  };

  /// Grows the dense output arrays to cover `idx` (cold path).
  void ensure_output_slot(std::size_t idx);

  VmLimits limits_;
  SketchHost* sketch_ = nullptr;

  // Scratch arenas, reused across runs.
  std::vector<Value> stack_;
  std::vector<Value> locals_;
  std::vector<Sample> out_samples_;       // dense, indexed by output slot
  std::vector<std::uint8_t> out_written_; // parallel written flags
  std::vector<std::int32_t> out_touched_; // slots written this run, any order
};

/// A freelist of warm Vm instances — one pool per channel. The
/// compatibility path (`Filter::run(input)`) constructs a cold Vm per
/// evaluation, paying fresh scratch-arena growth on every call (~4x the
/// steady-state latency, ~14 allocations per run); a Vm leased from the
/// pool keeps the arenas its earlier runs sized, so pooled evaluation
/// allocates nothing once every lease slot has warmed up. Each pool slot
/// also carries a warm FilterResult, so the fresh-call convenience path
/// (Filter::eval) runs at steady-state cost without a caller-owned result.
/// Leases are RAII: the slot returns to the freelist when the handle dies,
/// and concurrent leases (nested filter evaluation) simply grow the pool.
class VmPool {
 public:
  explicit VmPool(VmLimits limits = {}) : limits_(limits) {}
  VmPool(const VmPool&) = delete;
  VmPool& operator=(const VmPool&) = delete;

  /// One warm Vm + FilterResult pair owned by the pool.
  struct Slot {
    std::unique_ptr<Vm> vm;
    std::unique_ptr<FilterResult> result;
  };

  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), slot_(std::move(other.slot_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr) pool_->release(std::move(slot_));
    }
    [[nodiscard]] Vm& vm() { return *slot_.vm; }
    /// The slot's pooled result arena (Filter::eval runs into this).
    [[nodiscard]] FilterResult& result() { return *slot_.result; }
    [[nodiscard]] const FilterResult& result() const { return *slot_.result; }

   private:
    friend class VmPool;
    Lease(VmPool* pool, Slot slot) : pool_(pool), slot_(std::move(slot)) {}
    VmPool* pool_;
    Slot slot_;
  };

  /// Leases a warm slot (or creates one on first use / under nesting).
  [[nodiscard]] Lease acquire() {
    if (free_.empty()) {
      ++created_;
      return Lease{this, Slot{std::make_unique<Vm>(limits_),
                              std::make_unique<FilterResult>()}};
    }
    Slot slot = std::move(free_.back());
    free_.pop_back();
    return Lease{this, std::move(slot)};
  }

  /// Vms ever constructed by this pool (1 in the steady state of one
  /// channel evaluating one filter per period).
  [[nodiscard]] std::size_t created() const { return created_; }
  [[nodiscard]] std::size_t idle() const { return free_.size(); }

 private:
  void release(Slot slot) { free_.push_back(std::move(slot)); }

  VmLimits limits_;
  std::vector<Slot> free_;
  std::size_t created_ = 0;
};

}  // namespace dproc::ecode
