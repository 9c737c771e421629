// Cycle-accounted functional simulation of a full CryptoPIM polynomial
// multiplication (the "in-house cycle-accurate C++ simulator" of Section
// IV-A, reconstructed).
//
// Every value lives in simulated 512x512 crossbars; every arithmetic step
// is executed by the gate-level circuits of src/pim/circuits; every move
// between stage blocks goes through a fixed-function switch. The host only
// writes the inputs (bit-reversed at write time, as the paper prescribes)
// and reads the outputs.
//
// Dataflow decisions (documented in DESIGN.md):
//  * Polynomial A flows in the plain domain; polynomial B enters the
//    Montgomery domain through its psi-scale constants (psi^i * R^2), so
//    the point-wise product Montgomery-reduces to a plain value with no
//    extra stage.
//  * The forward NTT is Algorithm 2 (increasing strides, bit-reversed
//    input); the inverse runs the conjugate decreasing-stride schedule, so
//    the mid-pipeline bit-reversal of Algorithm 1 reduces to a host-side
//    read permutation.
//  * Within a butterfly level, the high rows run [diff, mult, Montgomery]
//    and the low rows [add, Barrett] under separate row masks, mirroring
//    the Fig. 4(c) stage grouping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ntt/ntt.h"
#include "obs/trace.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/reduction.h"
#include "pim/device.h"
#include "pim/executor.h"
#include "pim/program.h"
#include "pim/switch.h"
#include "reliability/manager.h"

namespace cryptopim::sim {

/// Aggregated measurements of one simulated multiplication.
struct SimReport {
  std::uint64_t wall_cycles = 0;  ///< per-bank critical path, stages summed
  std::size_t stages = 0;
  pim::ExecStats totals;          ///< summed over all banks (for energy)
  double latency_us = 0;          ///< wall_cycles * cycle time
  double energy_uj = 0;
  /// Per-stage cycle counts along the critical (A) path, in pipeline
  /// order. Invariants (tested): sum(stage_cycles) == wall_cycles, and
  /// the trace does not depend on the operands, which lock-step
  /// pipelining (one product per slowest-stage beat) rests on.
  std::vector<std::uint64_t> stage_cycles;
  /// Stage names parallel to stage_cycles ("scale", "butterfly/s8", ...).
  std::vector<std::string> stage_names;
  /// Fault-tolerance ledger of the run (enabled=false without a
  /// ReliabilityManager attached; then wall_cycles is exactly the
  /// reliability-free figure). wall_cycles covers the final successful
  /// attempt; abandoned attempts are in reliability.retry_cycles and
  /// verify/repair overheads in their own fields.
  reliability::RelStats reliability;
};

class CryptoPimSimulator {
 public:
  explicit CryptoPimSimulator(
      const ntt::NttParams& params,
      pim::DeviceModel device = pim::DeviceModel::paper_45nm());

  /// c = a * b over Z_q[x]/(x^n + 1), computed entirely in simulated
  /// memory. Coefficients must be canonical in [0, q).
  ntt::Poly multiply(const ntt::Poly& a, const ntt::Poly& b);

  /// Measurements of the most recent multiply() call.
  const SimReport& report() const noexcept { return report_; }

  /// The stage-microcode library compiled during the most recent
  /// multiply(): one broadcast program per stage (controller view).
  const pim::Controller& microcode() const noexcept { return microcode_; }

  const ntt::NttParams& params() const noexcept { return params_; }

  // -- observability ---------------------------------------------------------
  // The run's numbers are report(). By default the simulator traces into
  // the process-global obs::tracer(), and only while it is enabled; tests
  // may redirect it.
  //
  // Trace layout: track b = bank b of the critical (A) path; track
  // kSoftbankTrackBase + b = softbank b of the concurrent B path; track
  // kPipelineTrack carries one span per wall-path stage, so the spans on
  // that track sum exactly to SimReport::wall_cycles.
  static constexpr std::uint32_t kSoftbankTrackBase = 1u << 15;
  static constexpr std::uint32_t kPipelineTrack = 1u << 16;
  void set_tracer(obs::Tracer* tracer) noexcept { custom_tracer_ = tracer; }

  // -- fault tolerance --------------------------------------------------------
  // With a manager attached, every stage block gets its faults planted
  // before use, switch transfers carry the parity column, results are
  // Freivalds-verified, and failed attempts retry after repair
  // (column/bank remap). multiply() then either returns a verified
  // result or throws reliability::UnrecoverableFault (chip must
  // degrade). Non-owning; nullptr (the default) keeps the exact
  // reliability-free execution and cycle accounting.
  void set_reliability(reliability::ReliabilityManager* rm) noexcept {
    rel_ = rm;
  }

 private:
  struct PolyState;

  /// One full non-pipelined multiplication (one attempt). Fills report_.
  ntt::Poly multiply_attempt(const ntt::Poly& a, const ntt::Poly& b);

  std::unique_ptr<PolyState> make_state();
  pim::FixedFunctionSwitch make_switch(unsigned stride) const;
  void load_input(PolyState& st, const ntt::Poly& p,
                  const std::vector<std::uint32_t>& scale_factors) const;

  // Stage programs. Each consumes `cur`, produces a fresh stage array and
  // accumulates stats into report_.
  void stage_scale(std::unique_ptr<PolyState>& st, bool montgomery_domain,
                   const std::vector<std::uint32_t>& factors_by_row);
  void stage_butterfly(std::unique_ptr<PolyState>& st, std::uint32_t stride,
                       const std::vector<std::uint32_t>& twiddle_by_high_row);
  void stage_pointwise(std::unique_ptr<PolyState>& a,
                       std::unique_ptr<PolyState>& b);

  std::vector<std::uint32_t> forward_twiddles_by_row(std::uint32_t stride) const;
  std::vector<std::uint32_t> inverse_twiddles_by_row(std::uint32_t stride) const;

  /// Attaches tracer/track/base-cycle to a freshly made stage state
  /// (track block depends on whether we are on the wall (A) or softbank
  /// (B) path).
  void attach_obs(PolyState& st) const;
  void accumulate(PolyState& st, const std::string& stage_name);
  void record_stage_program(std::string name, pim::Program& program);

  ntt::NttParams params_;
  pim::DeviceModel device_;
  ntt::GsNttEngine engine_;
  ntt::BarrettShiftAdd barrett_;
  ntt::MontgomeryShiftAdd montgomery_;
  unsigned banks_ = 1;
  std::size_t rows_per_bank_ = 0;
  unsigned width_ = 0;  ///< datapath bit-width
  bool wall_enabled_ = true;
  reliability::ReliabilityManager* rel_ = nullptr;
  /// Stage states materialised so far this attempt — the physical block
  /// index the fault model keys endurance failures on.
  unsigned stage_counter_ = 0;
  SimReport report_;
  pim::Controller microcode_;
  obs::Tracer* custom_tracer_ = nullptr;
  // Resolved per multiply(): nullptr when tracing is off for the run.
  obs::Tracer* active_tracer_ = nullptr;
};

}  // namespace cryptopim::sim
