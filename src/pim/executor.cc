#include "pim/executor.h"

#include <cassert>

#include "pim/program.h"

namespace cryptopim::pim {

BlockExecutor::BlockExecutor(MemoryBlock& block, RowMask mask,
                             DeviceModel device)
    : block_(block), mask_(mask), device_(device) {
  free_cols_.reserve(kBlockCols - 2);
  // LIFO: hand out low column ids first.
  for (std::size_t c = kBlockCols; c-- > 2;) {
    free_cols_.push_back(static_cast<Col>(c));
  }
  refcount_[kZeroCol] = kSticky;
  refcount_[kOneCol] = kSticky;
  // Establish the constant rails. Power-on state is all-zero, so only the
  // one-rail needs a SET.
  set1(kOneCol);
}

Col BlockExecutor::alloc_col() {
  if (free_cols_.empty()) {
    throw std::runtime_error("BlockExecutor: out of processing columns");
  }
  const Col c = free_cols_.back();
  free_cols_.pop_back();
  assert(refcount_[c] == 0);
  refcount_[c] = 1;
  // Column-allocator occupancy high-water mark (rails + reserved regions
  // + live allocations).
  const std::uint64_t in_use = kBlockCols - free_cols_.size();
  if (in_use > stats_.cols_peak) stats_.cols_peak = in_use;
  return c;
}

Operand BlockExecutor::alloc(unsigned width) {
  std::vector<Col> cols(width);
  for (auto& c : cols) c = alloc_col();
  return Operand(std::move(cols));
}

void BlockExecutor::retain_col(Col c) {
  if (refcount_[c] == kSticky) return;
  assert(refcount_[c] > 0);
  ++refcount_[c];
}

void BlockExecutor::free_col(Col c) {
  if (refcount_[c] == kSticky) return;
  assert(refcount_[c] > 0);
  if (--refcount_[c] == 0) free_cols_.push_back(c);
}

void BlockExecutor::free(const Operand& op) {
  for (Col c : op.cols()) free_col(c);
}

void BlockExecutor::reserve_region(Col base, unsigned width) {
  for (Col c = base; c < base + width; ++c) {
    assert(refcount_[c] == 0 && "region already in use");
    refcount_[c] = kSticky;
    std::erase(free_cols_, c);
  }
}

Operand BlockExecutor::contiguous(Col base, unsigned width) const {
  // MemoryBlock numbers are MSB-first: bit i (LSB-first) lives at
  // column base + width - 1 - i.
  std::vector<Col> cols(width);
  for (unsigned i = 0; i < width; ++i) {
    cols[i] = static_cast<Col>(base + width - 1 - i);
  }
  return Operand(std::move(cols));
}

Operand BlockExecutor::shifted(const Operand& op, unsigned k) const {
  std::vector<Col> cols;
  cols.reserve(op.width() + k);
  cols.insert(cols.end(), k, kZeroCol);
  cols.insert(cols.end(), op.cols().begin(), op.cols().end());
  return Operand(std::move(cols));
}

Operand BlockExecutor::zext(const Operand& op, unsigned width) const {
  assert(width >= op.width());
  std::vector<Col> cols = op.cols();
  cols.insert(cols.end(), width - op.width(), kZeroCol);
  return Operand(std::move(cols));
}

Operand BlockExecutor::constant(std::uint64_t value, unsigned width) {
  assert(width == 64 || value < (std::uint64_t{1} << width));
  // Row-invariant constants are pure rail aliases: bit i reads the one- or
  // zero-rail directly, costing no cycles and no columns.
  std::vector<Col> cols(width);
  for (unsigned i = 0; i < width; ++i) {
    cols[i] = ((value >> i) & 1u) ? kOneCol : kZeroCol;
  }
  return Operand(std::move(cols));
}

void BlockExecutor::issue(const MicroOp& op) {
  // The zero rail is shared by every shifted/zero-extended operand view;
  // writing to it would silently corrupt unrelated operands.
  assert(op.dst != kZeroCol);
  if (recorder_ != nullptr) recorder_->append(op, record_slot_);
  const unsigned cycles = gate_cycles(op.kind);
  stats_.cycles += cycles;
  stats_.micro_ops += 1;
  stats_.cell_events += static_cast<std::uint64_t>(cycles) * mask_.count();

  ColumnBits& dst = block_.column(op.dst);
  const ColumnBits& ca = block_.column(op.a);
  const ColumnBits& cb = block_.column(op.b);
  const ColumnBits& cc = block_.column(op.c);

  for (std::size_t w = 0; w < ColumnBits::kWords; ++w) {
    const std::uint64_t m = mask_.word(w);
    if (m == 0) continue;
    const std::uint64_t a = op.neg_a ? ~ca.word(w) : ca.word(w);
    const std::uint64_t b = op.neg_b ? ~cb.word(w) : cb.word(w);
    const std::uint64_t c = op.neg_c ? ~cc.word(w) : cc.word(w);
    std::uint64_t v = 0;
    switch (op.kind) {
      case GateKind::kSet0: v = 0; break;
      case GateKind::kSet1: v = ~std::uint64_t{0}; break;
      case GateKind::kNot:  v = ~a; break;
      case GateKind::kNor:  v = ~(a | b); break;
      case GateKind::kNand: v = ~(a & b); break;
      case GateKind::kOr:   v = a | b; break;
      case GateKind::kAnd:  v = a & b; break;
      case GateKind::kXor2: v = a ^ b; break;
      case GateKind::kXor3: v = a ^ b ^ c; break;
      case GateKind::kMaj3: v = (a & b) | (a & c) | (b & c); break;
      case GateKind::kMin3: v = ~((a & b) | (a & c) | (b & c)); break;
      case GateKind::kMux:  v = (a & c) | (b & ~c); break;
      case GateKind::kCopy: v = a; break;
    }
    dst.set_word(w, (dst.word(w) & ~m) | (v & m));
  }
  block_.enforce_faults();
}

void BlockExecutor::charge_transfer(unsigned bits, unsigned cycles,
                                    const char* what) {
  if (tracer_ != nullptr) {
    tracer_->emit(trace_track_, what, "transfer", trace_now(), cycles);
  }
  stats_.cycles += cycles;
  stats_.transfer_bits += static_cast<std::uint64_t>(bits) * mask_.count();
}

void BlockExecutor::host_write(const Operand& op,
                               std::span<const std::uint64_t> values) {
  std::size_t v = 0;
  for (std::size_t row = 0; row < kBlockRows; ++row) {
    if (!mask_.get(row)) continue;
    assert(v < values.size());
    for (unsigned i = 0; i < op.width(); ++i) {
      block_.column(op.col(i)).set(row, (values[v] >> i) & 1u);
    }
    ++v;
  }
  assert(v == values.size());
  block_.enforce_faults();
}

std::vector<std::uint64_t> BlockExecutor::host_read(const Operand& op) const {
  std::vector<std::uint64_t> out;
  for (std::size_t row = 0; row < kBlockRows; ++row) {
    if (!mask_.get(row)) continue;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < op.width(); ++i) {
      v |= static_cast<std::uint64_t>(block_.column(op.col(i)).get(row)) << i;
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace cryptopim::pim
