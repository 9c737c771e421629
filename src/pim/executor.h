// BlockExecutor: issues gate micro-ops on one memory block, accounts
// cycles/energy, and manages processing-column allocation.
//
// Data and processing columns are physically identical (Section III-B.1);
// the executor models that by handing out free columns on demand and
// letting operands alias any set of columns. A shift-by-constant therefore
// costs nothing: it is a re-labelling of which columns make up an operand.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "pim/block.h"
#include "pim/device.h"
#include "pim/isa.h"

namespace cryptopim::pim {

class Program;  // pim/program.h

/// A multi-bit value spread over block columns, LSB-first: `col(i)` is the
/// column holding bit i. Columns need not be contiguous, and several
/// operands may alias the same columns (how shifted views are formed).
class Operand {
 public:
  Operand() = default;
  explicit Operand(std::vector<Col> lsb_first_cols)
      : cols_(std::move(lsb_first_cols)) {}

  unsigned width() const noexcept { return static_cast<unsigned>(cols_.size()); }
  Col col(unsigned bit) const {
    if (bit >= cols_.size()) throw std::out_of_range("Operand::col");
    return cols_[bit];
  }
  const std::vector<Col>& cols() const noexcept { return cols_; }
  std::vector<Col>& cols() noexcept { return cols_; }

  /// Left shift by k bits: prepend k zero-columns (value * 2^k). The zero
  /// column id is executor-owned; use BlockExecutor::shifted().
  /// Bits [lo, hi) of this operand (a right shift is slice(k, width())).
  Operand slice(unsigned lo, unsigned hi) const {
    if (lo > hi || hi > cols_.size()) throw std::out_of_range("Operand::slice");
    return Operand(std::vector<Col>(cols_.begin() + lo, cols_.begin() + hi));
  }

 private:
  std::vector<Col> cols_;
};

/// Cycle/energy accounting for one block (or one chained program).
/// Summed over a run's banks it is sim::SimReport::totals.
struct ExecStats {
  std::uint64_t cycles = 0;       ///< crossbar cycles consumed
  std::uint64_t micro_ops = 0;    ///< gate evaluations issued
  std::uint64_t cell_events = 0;  ///< sum over ops of cycles * active rows
  std::uint64_t transfer_bits = 0;  ///< bits moved through inter-block switches
  std::uint64_t cols_peak = 0;    ///< high-water mark of columns in use

  double energy_fj(const DeviceModel& dev) const {
    return static_cast<double>(cell_events) * dev.cell_switch_energy_fj +
           static_cast<double>(transfer_bits) * dev.switch_transfer_energy_fj;
  }
  ExecStats& operator+=(const ExecStats& o) {
    cycles += o.cycles;
    micro_ops += o.micro_ops;
    cell_events += o.cell_events;
    transfer_bits += o.transfer_bits;
    if (o.cols_peak > cols_peak) cols_peak = o.cols_peak;
    return *this;
  }
};

class BlockExecutor {
 public:
  /// Columns 0 and 1 are reserved as constant 0 / constant 1 rails; the
  /// SET of the one-rail is charged to the program (1 cycle).
  BlockExecutor(MemoryBlock& block, RowMask mask,
                DeviceModel device = DeviceModel::paper_45nm());

  const RowMask& mask() const noexcept { return mask_; }
  /// Change which wordlines subsequent gate ops drive. Used by stage
  /// programs that run one op sequence on the butterfly's low rows and
  /// another on its high rows.
  void set_mask(RowMask mask) noexcept { mask_ = mask; }
  const DeviceModel& device() const noexcept { return device_; }
  MemoryBlock& block() noexcept { return block_; }

  Col zero_col() const noexcept { return kZeroCol; }
  Col one_col() const noexcept { return kOneCol; }

  // -- column allocation ----------------------------------------------------
  // Columns are reference counted so that operands produced by the
  // width-trimmed circuits may alias input or intermediate columns
  // ("data and processing columns are physically indistinguishable").
  // Rails, constants and reserved data regions are sticky: retain/release
  // are no-ops on them.
  Col alloc_col();                       ///< refcount 1
  Operand alloc(unsigned width);
  void retain_col(Col c);                ///< share ownership of an alias
  void free_col(Col c);                  ///< release; recycles at refcount 0
  void free(const Operand& op);          ///< release every column once
  /// Pin [base, base+width) as host data columns: removed from the free
  /// pool, exempt from retain/release.
  void reserve_region(Col base, unsigned width);
  std::size_t free_count() const noexcept { return free_cols_.size(); }

  // -- operand helpers ------------------------------------------------------
  /// Operand over contiguous columns [base, base+width), matching the
  /// MSB-first number layout of MemoryBlock::write_number.
  Operand contiguous(Col base, unsigned width) const;
  /// value * 2^k as a zero-cost column re-labelling.
  Operand shifted(const Operand& op, unsigned k) const;
  /// Zero-extend to `width` bits with the constant-zero rail.
  Operand zext(const Operand& op, unsigned width) const;
  /// Row-invariant constant as a pure rail alias (zero cycles, zero
  /// columns): bit i reads the one- or zero-rail.
  Operand constant(std::uint64_t value, unsigned width);

  // -- gate issue -----------------------------------------------------------
  /// Execute one micro-op over the active row mask; charges cycles and
  /// cell events.
  void issue(const MicroOp& op);

  void set0(Col dst) { issue({GateKind::kSet0, dst, 0, 0, 0, false, false, false}); }
  void set1(Col dst) { issue({GateKind::kSet1, dst, 0, 0, 0, false, false, false}); }
  void gate1(GateKind k, Col dst, Col a, bool neg_a = false) {
    issue({k, dst, a, 0, 0, neg_a, false, false});
  }
  void gate2(GateKind k, Col dst, Col a, Col b, bool neg_a = false,
             bool neg_b = false) {
    issue({k, dst, a, b, 0, neg_a, neg_b, false});
  }
  void gate3(GateKind k, Col dst, Col a, Col b, Col c, bool neg_a = false,
             bool neg_b = false, bool neg_c = false) {
    issue({k, dst, a, b, c, neg_a, neg_b, neg_c});
  }

  /// Charge an inter-block transfer (the fixed-function switch moves one
  /// column per cycle; a full operand costs width cycles per connection).
  /// `what` labels the transfer span in traces.
  void charge_transfer(unsigned bits, unsigned cycles,
                       const char* what = "switch.transfer");

  // -- cycle-domain tracing (see obs/trace.h) --------------------------------
  // The executor is the span source for everything it executes: spans are
  // timestamped `base + stats().cycles`, where `base` is the block's
  // position on the simulated timeline (set per stage by the simulator).
  /// Attach a tracer; nullptr (the default) makes every trace call a
  /// single-branch no-op. `track` is this block's timeline id.
  void set_tracer(obs::Tracer* tracer, std::uint32_t track) noexcept {
    tracer_ = tracer;
    trace_track_ = track;
  }
  void set_trace_base(std::uint64_t base_cycles) noexcept {
    trace_base_ = base_cycles;
  }
  obs::Tracer* tracer() const noexcept { return tracer_; }
  std::uint32_t trace_track() const noexcept { return trace_track_; }
  /// Current position on the simulated timeline.
  std::uint64_t trace_now() const noexcept { return trace_base_ + stats_.cycles; }
  void trace_begin(std::string name, std::string cat) {
    if (tracer_ != nullptr) {
      tracer_->begin(trace_track_, std::move(name), std::move(cat),
                     trace_now());
    }
  }
  void trace_end() {
    if (tracer_ != nullptr) tracer_->end(trace_track_, trace_now());
  }

  // -- microcode recording (see pim/program.h) -------------------------------
  /// While set, every issued micro-op is appended to `program` under the
  /// current record slot. Pass nullptr to stop.
  void set_recording(Program* program) noexcept { recorder_ = program; }
  void set_record_slot(std::uint8_t slot) noexcept { record_slot_ = slot; }

  // -- host I/O (write drivers; not charged as compute cycles) --------------
  /// Write one value per active row into `op` (bit i -> op.col(i)).
  void host_write(const Operand& op, std::span<const std::uint64_t> values);
  /// Read one value per active row.
  std::vector<std::uint64_t> host_read(const Operand& op) const;

  const ExecStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ExecStats{}; }

 private:
  static constexpr Col kZeroCol = 0;
  static constexpr Col kOneCol = 1;

  MemoryBlock& block_;
  RowMask mask_;
  DeviceModel device_;
  ExecStats stats_;
  std::vector<Col> free_cols_;  // LIFO free list
  // refcount per column: kSticky for rails/constants/data regions.
  static constexpr int kSticky = -1;
  std::array<int, kBlockCols> refcount_{};
  Program* recorder_ = nullptr;
  std::uint8_t record_slot_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_track_ = 0;
  std::uint64_t trace_base_ = 0;
};

/// RAII span on an executor's track, in cycle time:
///   TraceScope ts(exec, "multiply", "circuit");
/// Costs one branch per scope when no tracer is attached.
class TraceScope {
 public:
  TraceScope(BlockExecutor& exec, std::string name, std::string cat)
      : exec_(exec.tracer() != nullptr ? &exec : nullptr) {
    if (exec_ != nullptr) exec_->trace_begin(std::move(name), std::move(cat));
  }
  ~TraceScope() {
    if (exec_ != nullptr) exec_->trace_end();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  BlockExecutor* exec_;
};

}  // namespace cryptopim::pim
