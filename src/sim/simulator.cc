#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>

#include "common/bitutil.h"
#include "ntt/modular.h"
#include "pim/circuits/arith.h"
#include "pim/circuits/reduction.h"
#include "pim/switch.h"

namespace cryptopim::sim {

namespace {

// Reserved data-column layout inside every stage block.
constexpr pim::Col kOwnBase = 8;

}  // namespace

struct CryptoPimSimulator::PolyState {
  struct Bank {
    pim::MemoryBlock block;
    std::unique_ptr<pim::BlockExecutor> exec;
  };
  std::vector<Bank> banks;
  unsigned width = 0;

  pim::Operand own(const pim::BlockExecutor& e) const {
    return e.contiguous(kOwnBase, width);
  }
  pim::Operand partner(const pim::BlockExecutor& e) const {
    return e.contiguous(kOwnBase + static_cast<pim::Col>(width), width);
  }
  pim::Operand twiddle(const pim::BlockExecutor& e) const {
    return e.contiguous(kOwnBase + static_cast<pim::Col>(2 * width), width);
  }
};

CryptoPimSimulator::CryptoPimSimulator(const ntt::NttParams& params,
                                       pim::DeviceModel device)
    : params_(params),
      device_(device),
      engine_(params),
      barrett_(ntt::BarrettShiftAdd::paper_spec(params.q)),
      montgomery_(ntt::MontgomeryShiftAdd::paper_spec(params.q)),
      banks_(params.n > pim::kBlockRows
                 ? params.n / static_cast<unsigned>(pim::kBlockRows)
                 : 1u),
      rows_per_bank_(std::min<std::size_t>(params.n, pim::kBlockRows)),
      width_(bit_length(params.q)) {}

std::unique_ptr<CryptoPimSimulator::PolyState>
CryptoPimSimulator::make_state() {
  auto st = std::make_unique<PolyState>();
  st->width = width_;
  st->banks.resize(banks_);
  for (unsigned b = 0; b < banks_; ++b) {
    auto& bank = st->banks[b];
    // Faults and column remaps must land before the executor writes the
    // constant rails, exactly like power-on of a (worn) physical block.
    if (rel_ != nullptr) {
      rel_->prepare_block(stage_counter_, b, bank.block);
    }
    bank.exec = std::make_unique<pim::BlockExecutor>(
        bank.block, pim::RowMask::first_rows(rows_per_bank_), device_);
    bank.exec->reserve_region(kOwnBase, 3 * width_);
    if (rel_ != nullptr) {
      // Keep the repair pool out of the processing-column allocator.
      bank.exec->reserve_region(rel_->spare_base(),
                                rel_->config().spare_cols_per_block);
    }
  }
  ++stage_counter_;
  return st;
}

pim::FixedFunctionSwitch CryptoPimSimulator::make_switch(
    unsigned stride) const {
  pim::FixedFunctionSwitch sw(stride);
  if (rel_ != nullptr) {
    sw.set_fault_hooks(rel_->hooks(), rel_->parity_enabled());
  }
  return sw;
}

void CryptoPimSimulator::attach_obs(PolyState& st) const {
  // Softbank (B-path) stages run concurrently with the A-path stage that
  // preceded them in program order; start their spans at that stage's
  // begin cycle so the timeline shows the overlap.
  const std::uint32_t track_base = wall_enabled_ ? 0 : kSoftbankTrackBase;
  std::uint64_t base = report_.wall_cycles;
  if (!wall_enabled_ && !report_.stage_cycles.empty()) {
    base -= report_.stage_cycles.back();
  }
  for (unsigned b = 0; b < banks_; ++b) {
    st.banks[b].exec->set_tracer(active_tracer_, track_base + b);
    st.banks[b].exec->set_trace_base(base);
  }
}

void CryptoPimSimulator::accumulate(PolyState& st,
                                    const std::string& stage_name) {
  pim::ExecStats stage_total;
  for (auto& bank : st.banks) {
    stage_total += bank.exec->stats();
  }
  report_.totals += stage_total;

  if (active_tracer_ != nullptr) {
    for (auto& bank : st.banks) {
      const auto& e = *bank.exec;
      const std::uint64_t begin = e.trace_now() - e.stats().cycles;
      active_tracer_->emit(e.trace_track(), stage_name, "stage", begin,
                           e.stats().cycles);
    }
    if (wall_enabled_) {
      active_tracer_->emit(kPipelineTrack, stage_name, "stage",
                           report_.wall_cycles,
                           st.banks[0].exec->stats().cycles);
    }
  }

  // Banks run in lock-step, so the critical path is one bank's cycles.
  // B's softbank runs concurrently with A's: its stages cost energy but
  // no wall time (wall_enabled_ toggled around B's stage calls).
  if (wall_enabled_) {
    const std::uint64_t cycles = st.banks[0].exec->stats().cycles;
    report_.wall_cycles += cycles;
    report_.stage_cycles.push_back(cycles);
    report_.stage_names.push_back(stage_name);
  }
  report_.stages += 1;
}

void CryptoPimSimulator::record_stage_program(std::string name,
                                              pim::Program& program) {
  // Stages that run on B's softbank re-use programs already in the
  // library; only register microcode compiled on the wall path (A) plus
  // the shared scale/butterfly shapes once.
  microcode_.add_stage(std::move(name), std::move(program));
}

void CryptoPimSimulator::load_input(
    PolyState& st, const ntt::Poly& p,
    const std::vector<std::uint32_t>& /*unused*/) const {
  // Bit-reversal happens at write time: coefficient i lands in global row
  // bitrev(i) ("changing the row to which a value is written").
  const unsigned bits = params_.log2n;
  std::vector<std::vector<std::uint64_t>> rows(
      banks_, std::vector<std::uint64_t>(rows_per_bank_, 0));
  for (std::uint32_t i = 0; i < params_.n; ++i) {
    const std::uint64_t g = bit_reverse(i, bits);
    rows[g / pim::kBlockRows][g % pim::kBlockRows] = p[i];
  }
  for (unsigned b = 0; b < banks_; ++b) {
    st.banks[b].exec->host_write(st.own(*st.banks[b].exec), rows[b]);
  }
}

namespace {

pim::RowMask side_mask(std::size_t rows_used, std::uint32_t stride,
                       bool high) {
  pim::RowMask m;
  for (std::size_t r = 0; r < rows_used; ++r) {
    const bool is_high = (r & stride) != 0;
    if (is_high == high) m.set(r, true);
  }
  return m;
}

// Copy a computed result into the reserved own-region columns (2 cycles
// per bit) under the executor's current mask.
void write_own(pim::BlockExecutor& exec, const pim::Operand& own,
               const pim::Operand& value) {
  for (unsigned i = 0; i < own.width(); ++i) {
    if (i < value.width()) {
      exec.gate1(pim::GateKind::kCopy, own.col(i), value.col(i));
    } else {
      exec.set0(own.col(i));
    }
  }
}

}  // namespace

void CryptoPimSimulator::stage_scale(
    std::unique_ptr<PolyState>& st, bool /*montgomery_domain*/,
    const std::vector<std::uint32_t>& factors_by_row) {
  auto next = make_state();
  attach_obs(*next);
  const pim::FixedFunctionSwitch sw = make_switch(0);

  // The controller compiles the stage microcode once (while bank 0
  // executes it) and broadcasts it to the remaining banks.
  pim::Program program;
  const std::vector<pim::RowMask> slots = {
      pim::RowMask::first_rows(rows_per_bank_)};

  for (unsigned b = 0; b < banks_; ++b) {
    auto& src = st->banks[b];
    auto& dst = next->banks[b];
    sw.transfer(src.block, st->own(*src.exec), src.exec->mask(), *dst.exec,
                next->own(*dst.exec), pim::FixedFunctionSwitch::Route::kStraight);

    // Pre-computed factors live in the block's data columns.
    std::vector<std::uint64_t> factors(rows_per_bank_);
    for (std::size_t r = 0; r < rows_per_bank_; ++r) {
      factors[r] = factors_by_row[b * pim::kBlockRows + r];
    }
    dst.exec->host_write(next->twiddle(*dst.exec), factors);

    auto& e = *dst.exec;
    if (b == 0) {
      const pim::ProgramRecorder rec(e, program, 0);
      const pim::Operand own = next->own(e);
      const pim::Operand tw = next->twiddle(e);
      pim::Operand prod = pim::circuits::multiply(e, own, tw);
      pim::Operand red =
          pim::circuits::montgomery_reduce(e, prod, montgomery_, true);
      e.free(prod);
      write_own(e, own, red);
      e.free(red);
    } else {
      program.execute(e, slots);
    }
  }
  record_stage_program("scale", program);
  accumulate(*next, "scale");
  st = std::move(next);
}

void CryptoPimSimulator::stage_butterfly(
    std::unique_ptr<PolyState>& st, std::uint32_t stride,
    const std::vector<std::uint32_t>& twiddle_by_high_row) {
  auto next = make_state();
  attach_obs(*next);

  // --- transfers through the fixed-function switches -----------------------
  if (stride < rows_per_bank_) {
    const pim::FixedFunctionSwitch sw = make_switch(stride);
    const pim::RowMask low = side_mask(rows_per_bank_, stride, false);
    const pim::RowMask high = side_mask(rows_per_bank_, stride, true);
    for (unsigned b = 0; b < banks_; ++b) {
      auto& src = st->banks[b];
      auto& dst = next->banks[b];
      sw.transfer(src.block, st->own(*src.exec), src.exec->mask(), *dst.exec,
                  next->own(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
      // Low rows feed their +s neighbours; high rows feed -s.
      sw.transfer(src.block, st->own(*src.exec), low, *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kPlusS);
      sw.transfer(src.block, st->own(*src.exec), high, *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kMinusS);
    }
  } else {
    // Stride crosses banks: the partner sits in the paired bank at the
    // same row; inter-bank switches provide the straight connection.
    const pim::FixedFunctionSwitch sw = make_switch(0);
    const unsigned ds = stride / static_cast<unsigned>(rows_per_bank_);
    for (unsigned b = 0; b < banks_; ++b) {
      auto& dst = next->banks[b];
      auto& src_own = st->banks[b];
      sw.transfer(src_own.block, st->own(*src_own.exec), src_own.exec->mask(),
                  *dst.exec, next->own(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
      auto& src_partner = st->banks[b ^ ds];
      sw.transfer(src_partner.block, st->own(*src_partner.exec),
                  src_partner.exec->mask(), *dst.exec,
                  next->partner(*dst.exec),
                  pim::FixedFunctionSwitch::Route::kStraight);
    }
  }

  // --- compute --------------------------------------------------------------
  // Mask-slot convention: 0 = all rows, 1 = high side, 2 = low side. The
  // stage microcode is identical for every bank (recorded once on bank 0,
  // broadcast to the rest, lock-step); the per-bank mask table selects
  // which rows each phase drives.
  const std::uint32_t q = params_.q;
  pim::Program program;
  for (unsigned b = 0; b < banks_; ++b) {
    auto& dst = next->banks[b];
    auto& e = *dst.exec;

    pim::RowMask low_mask, high_mask;
    if (stride < rows_per_bank_) {
      low_mask = side_mask(rows_per_bank_, stride, false);
      high_mask = side_mask(rows_per_bank_, stride, true);
    } else {
      const unsigned ds = stride / static_cast<unsigned>(rows_per_bank_);
      const bool bank_is_high = (b & ds) != 0;
      low_mask = bank_is_high ? pim::RowMask()
                              : pim::RowMask::first_rows(rows_per_bank_);
      high_mask = bank_is_high ? pim::RowMask::first_rows(rows_per_bank_)
                               : pim::RowMask();
    }
    const std::vector<pim::RowMask> slots = {
        pim::RowMask::first_rows(rows_per_bank_), high_mask, low_mask};

    // Twiddles for the high rows (pre-computed factors, Montgomery form).
    std::vector<std::uint64_t> tw_rows(rows_per_bank_, 0);
    for (std::size_t r = 0; r < rows_per_bank_; ++r) {
      tw_rows[r] = twiddle_by_high_row[b * pim::kBlockRows + r];
    }
    e.host_write(next->twiddle(e), tw_rows);

    if (b > 0) {
      program.execute(e, slots);
      continue;
    }

    const pim::Operand own = next->own(e);
    const pim::Operand partner = next->partner(e);
    const pim::Operand tw = next->twiddle(e);
    pim::ProgramRecorder rec(e, program, 1);

    // High rows: A[j'] = Montgomery(W * (T - A[j'] + q)). Recorded and
    // executed even when this bank's high side is empty — all banks run
    // the broadcast program in lock-step.
    {
      e.set_mask(high_mask);
      const pim::Operand cq = e.constant(q, width_);
      pim::Operand t =
          pim::circuits::add_trimmed(e, partner, cq, width_ + 1);
      auto d = pim::circuits::sub(e, t, own, width_ + 1);
      e.free(t);
      e.free_col(d.no_borrow);
      pim::Operand prod = pim::circuits::multiply(e, d.diff, tw);
      e.free(d.diff);
      pim::Operand red =
          pim::circuits::montgomery_reduce(e, prod, montgomery_, true);
      e.free(prod);
      write_own(e, own, red);
      e.free(red);
    }

    // Low rows: A[j] = Barrett(T + A[j']).
    {
      rec.set_mask_slot(2);
      e.set_mask(low_mask);
      pim::Operand sum = pim::circuits::add(e, own, partner, width_ + 1);
      pim::Operand red = pim::circuits::barrett_reduce(e, sum, barrett_, true);
      e.free(sum);
      write_own(e, own, red);
      e.free(red);
    }
    e.set_mask(pim::RowMask::first_rows(rows_per_bank_));
  }

  const std::string stage_name = "butterfly/s" + std::to_string(stride);
  record_stage_program(stage_name, program);
  accumulate(*next, stage_name);
  st = std::move(next);
}

void CryptoPimSimulator::stage_pointwise(std::unique_ptr<PolyState>& a,
                                         std::unique_ptr<PolyState>& b) {
  auto next = make_state();
  attach_obs(*next);
  const pim::FixedFunctionSwitch sw = make_switch(0);
  pim::Program program;
  const std::vector<pim::RowMask> slots = {
      pim::RowMask::first_rows(rows_per_bank_)};
  for (unsigned k = 0; k < banks_; ++k) {
    auto& dst = next->banks[k];
    sw.transfer(a->banks[k].block, a->own(*a->banks[k].exec),
                a->banks[k].exec->mask(), *dst.exec, next->own(*dst.exec),
                pim::FixedFunctionSwitch::Route::kStraight);
    // B arrives through the inter-softbank switch.
    sw.transfer(b->banks[k].block, b->own(*b->banks[k].exec),
                b->banks[k].exec->mask(), *dst.exec, next->partner(*dst.exec),
                pim::FixedFunctionSwitch::Route::kStraight);

    auto& e = *dst.exec;
    if (k > 0) {
      program.execute(e, slots);
      continue;
    }
    const pim::ProgramRecorder rec(e, program, 0);
    const pim::Operand own = next->own(e);
    const pim::Operand partner = next->partner(e);
    // B is in the Montgomery domain, so this reduction lands plain.
    pim::Operand prod = pim::circuits::multiply(e, own, partner);
    pim::Operand red =
        pim::circuits::montgomery_reduce(e, prod, montgomery_, true);
    e.free(prod);
    write_own(e, own, red);
    e.free(red);
  }
  record_stage_program("pointwise", program);
  accumulate(*next, "pointwise");
  a = std::move(next);
  b.reset();
}

std::vector<std::uint32_t> CryptoPimSimulator::forward_twiddles_by_row(
    std::uint32_t stride) const {
  // Algorithm 2: the butterfly writing row j' = j + 2^k multiplies by
  // twiddle[j >> (k+1)] from the bit-reversed table.
  const unsigned k = ilog2(stride);
  std::vector<std::uint32_t> tw(params_.n, 0);
  for (std::uint32_t g = 0; g < params_.n; ++g) {
    if ((g & stride) == 0) continue;  // low row
    const std::uint32_t j = g - stride;
    const std::uint32_t w = engine_.forward_twiddles()[j >> (k + 1)];
    tw[g] = montgomery_.to_mont(w);
  }
  return tw;
}

std::vector<std::uint32_t> CryptoPimSimulator::inverse_twiddles_by_row(
    std::uint32_t stride) const {
  // Conjugate (decreasing-stride) schedule: classic Gentleman–Sande with
  // w^{-1}; the butterfly at (j, j+len) uses exponent (j mod len)*n/(2len).
  std::vector<std::uint32_t> tw(params_.n, 0);
  const std::uint32_t step = params_.n / (2 * stride);
  for (std::uint32_t g = 0; g < params_.n; ++g) {
    if ((g & stride) == 0) continue;
    const std::uint32_t j = g - stride;
    const std::uint32_t e = (j & (stride - 1)) * step;
    tw[g] = montgomery_.to_mont(
        ntt::pow_mod(params_.omega_inv, e, params_.q));
  }
  return tw;
}

ntt::Poly CryptoPimSimulator::multiply_attempt(const ntt::Poly& a,
                                               const ntt::Poly& b) {
  report_ = SimReport{};
  microcode_ = pim::Controller{};
  stage_counter_ = 0;

  const std::uint32_t n = params_.n;
  const std::uint32_t q = params_.q;
  const unsigned bits = params_.log2n;

  auto A = make_state();
  auto B = make_state();
  load_input(*A, a, {});
  load_input(*B, b, {});

  // psi-scale. A stays plain: factor = psi^i * R (Montgomery-form
  // constant). B enters the Montgomery domain: factor = psi^i * R^2.
  const std::uint64_t R_mod_q = montgomery_.R() % q;
  std::vector<std::uint32_t> fa(n), fb(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    const std::uint64_t i = bit_reverse(g, bits);
    const std::uint32_t psi_i = engine_.psi_powers()[i];
    fa[g] = montgomery_.to_mont(psi_i);
    fb[g] = ntt::mul_mod(montgomery_.to_mont(psi_i),
                         static_cast<std::uint32_t>(R_mod_q), q);
  }
  stage_scale(A, false, fa);
  wall_enabled_ = false;
  stage_scale(B, true, fb);
  wall_enabled_ = true;

  // Forward NTT, strides 1 .. n/2 (bit-reversed input loaded above).
  for (unsigned k = 0; k < bits; ++k) {
    const std::uint32_t stride = 1u << k;
    const auto tw = forward_twiddles_by_row(stride);
    stage_butterfly(A, stride, tw);
    wall_enabled_ = false;
    stage_butterfly(B, stride, tw);
    wall_enabled_ = true;
  }

  stage_pointwise(A, B);

  // Inverse NTT, strides n/2 .. 1 (conjugate schedule, no mid-pipeline
  // bit-reversal).
  for (unsigned k = bits; k-- > 0;) {
    const std::uint32_t stride = 1u << k;
    stage_butterfly(A, stride, inverse_twiddles_by_row(stride));
  }

  // Final scale by n^{-1} psi^{-i}, addressed through the output
  // permutation: row r holds element bitrev(r).
  std::vector<std::uint32_t> fc(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    const std::uint64_t i = bit_reverse(g, bits);
    fc[g] = montgomery_.to_mont(engine_.psi_inv_scaled()[i]);
  }
  stage_scale(A, false, fc);

  // Read out: the bit-reversal at read is a host-side permutation.
  ntt::Poly c(n, 0);
  for (unsigned bnk = 0; bnk < banks_; ++bnk) {
    const auto vals =
        A->banks[bnk].exec->host_read(A->own(*A->banks[bnk].exec));
    for (std::size_t r = 0; r < vals.size(); ++r) {
      const std::uint64_t g = bnk * pim::kBlockRows + r;
      c[bit_reverse(g, bits)] = static_cast<std::uint32_t>(vals[r]);
    }
  }

  report_.latency_us =
      static_cast<double>(report_.wall_cycles) * device_.cycle_ns * 1e-3;
  report_.energy_uj = report_.totals.energy_fj(device_) * 1e-9;
  return c;
}

ntt::Poly CryptoPimSimulator::multiply(const ntt::Poly& a,
                                       const ntt::Poly& b) {
  if (a.size() != params_.n || b.size() != params_.n) {
    throw std::invalid_argument("operand size does not match the degree");
  }
  for (const auto c : a) {
    if (c >= params_.q) throw std::invalid_argument("coefficient >= q");
  }
  for (const auto c : b) {
    if (c >= params_.q) throw std::invalid_argument("coefficient >= q");
  }

  obs::Tracer& tr = custom_tracer_ != nullptr ? *custom_tracer_ : obs::tracer();
  active_tracer_ = tr.enabled() ? &tr : nullptr;
  if (active_tracer_ != nullptr) {
    for (unsigned b = 0; b < banks_; ++b) {
      active_tracer_->set_track_name(b, "bank " + std::to_string(b) + " (A)");
      active_tracer_->set_track_name(kSoftbankTrackBase + b,
                                     "softbank " + std::to_string(b) + " (B)");
    }
    active_tracer_->set_track_name(kPipelineTrack, "pipeline (critical path)");
  }

  ntt::Poly c;
  if (rel_ == nullptr) {
    // Reliability-free fast path: identical execution and cycle
    // accounting to the pre-reliability simulator (tested invariant).
    c = multiply_attempt(a, b);
  } else {
    rel_->begin_run();
    bool ok = false;
    const unsigned attempts = rel_->config().max_retries + 1;
    try {
      for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        rel_->begin_attempt();
        // A dirty attempt (parity / program-verify hit) still runs to
        // completion: every stage block gets prepared and diagnosed, so
        // one repair pass can fix all of them instead of rediscovering
        // one faulty stage per retry.
        c = multiply_attempt(a, b);
        ok = rel_->verify(a, b, c);
        if (ok) break;
        // The attempt's wall cycles were wasted; diagnose and repair
        // before going again (may throw UnrecoverableFault).
        rel_->note_retry(report_.wall_cycles);
        rel_->repair();
      }
    } catch (const reliability::UnrecoverableFault&) {
      report_.reliability = rel_->stats();
      active_tracer_ = nullptr;
      throw;
    }
    rel_->finish_run(ok);
    report_.reliability = rel_->stats();
    if (!ok) {
      active_tracer_ = nullptr;
      throw reliability::UnrecoverableFault(
          "result verification still failing after max_retries",
          report_.reliability);
    }
    if (active_tracer_ != nullptr && report_.reliability.verify_cycles > 0) {
      active_tracer_->emit(kPipelineTrack, "verify", "reliability",
                           report_.wall_cycles,
                           report_.reliability.verify_cycles);
    }
  }

  active_tracer_ = nullptr;
  return c;
}

}  // namespace cryptopim::sim
