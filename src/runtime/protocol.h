// Protocol workload engine: compiles a protocol-level request (KEM
// round-trip, BGV multiply, threshold decryption) into a DAG of
// primitive ops and gives the serving runtime the vocabulary to drive
// it with dependency-aware dispatch.
//
// The paper motivates the NTT accelerator as the kernel inside full
// lattice-based protocols; this module closes that gap for the serving
// path. A protocol request is admitted as one atomic group of ops, each
// a Request whose id names its request and its node in the compiled
// DAG (runtime/request.h). An op becomes eligible only when its parents
// completed, fan-out siblings land on distinct lanes, and host-side ops
// (sampling, joins) run laneless at a fixed cycle cost. The functional
// content of a DAG — the actual KEM/BGV/threshold math, executed
// through the configured backend and checked against pure-host
// references — lives in runtime/protocol_ops.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace cryptopim::runtime {

/// Primitive op classes a protocol request compiles into.
enum class OpClass : std::uint8_t {
  kPolymul,    ///< full negacyclic multiply on a superbank lane
  kNttLimb,    ///< one RNS limb of a wide multiply on a superbank lane
  kSample,     ///< host-side Keccak/XOF sampling (no lane)
  kAggregate,  ///< host-side join (CRT recombine / share aggregation)
};

enum class ProtocolKind : std::uint8_t {
  kNone,       ///< classic raw-polymul serving
  kKem,        ///< KEM encaps + decaps round-trip (NewHope-like PKE)
  kBgvMul,     ///< BGV ciphertext multiply, per-RNS-limb fan-out
  kThreshold,  ///< K share-holder partial decryptions + host aggregate
};

/// Name <-> kind mapping for the `--protocol` flag and report headers.
const char* protocol_name(ProtocolKind kind) noexcept;
std::optional<ProtocolKind> parse_protocol(std::string_view name) noexcept;
const char* op_class_name(OpClass cls) noexcept;

/// Shares must leave room for the sample and aggregate ops in the
/// 64-bit parent mask.
inline constexpr unsigned kMinShares = 2;
inline constexpr unsigned kMaxShares = 62;

/// Ring degrees the protocol flows run at (fixed by the underlying
/// schemes: NewHope-like PKE at n=1024, paper-small BGV at n=256) and
/// the RNS basis width the BGV multiply fans out over.
inline constexpr std::uint32_t kKemDegree = 1024;
inline constexpr std::uint32_t kBgvDegree = 256;
inline constexpr std::size_t kRnsLimbs = 3;

struct ProtocolSpec {
  ProtocolKind kind = ProtocolKind::kNone;
  /// Threshold flow: number of share holders (partial-decryption ops).
  unsigned shares = 3;

  bool enabled() const noexcept { return kind != ProtocolKind::kNone; }
};

/// One node of a compiled protocol DAG.
struct ProtoOp {
  OpClass cls = OpClass::kPolymul;
  std::uint32_t degree = 0;
  /// Bitmask over earlier op indices (strictly topological).
  std::uint64_t parent_mask = 0;
  /// Nonzero: siblings sharing the group want distinct lanes.
  std::uint32_t fanout_group = 0;

  /// Sampling and joins run laneless on the host.
  bool host() const noexcept {
    return cls == OpClass::kSample || cls == OpClass::kAggregate;
  }
};

/// A raw polymul's node: a DAG of one parentless, ungrouped lane op.
inline constexpr ProtoOp kRawOp{};

struct ProtoDag {
  std::vector<ProtoOp> ops;
  /// Degree every lane op of this protocol runs at (also the degree the
  /// workload generator is pinned to in protocol mode).
  std::uint32_t lane_degree = 0;
};

/// Compile the DAG for one protocol request. Shapes are fixed per kind:
///   kem:       sample -> 2 encaps muls (fan-out) -> decaps mul ->
///              sample -> 2 re-encrypt muls (fan-out) -> aggregate
///   bgv-mul:   sample -> 4 tensor muls x L RNS limbs (fan-out per mul)
///              -> aggregate (CRT recombine + relin hook)
///   threshold: sample -> K partial-decrypt muls (fan-out) -> aggregate
/// Every shape starts with a parentless host op, which the runtime
/// dispatches at admission, so no admitted DAG is ever wholly queued.
/// Throws std::invalid_argument for kNone or shares out of range.
ProtoDag compile_protocol(const ProtocolSpec& spec);

/// Protocol-level serving ledger: protos (not ops) plus per-op-class
/// service-time histograms. Emitted as the "protocol" block of every
/// serving/3 report (kind "none" and all zero for raw polymul runs).
struct ProtocolStats {
  std::string kind;   ///< protocol_name() of the run's kind
  unsigned shares = 0;  ///< threshold only; 0 otherwise
  std::uint32_t ops_per_request = 0;

  std::uint64_t requests = 0;   ///< protocol requests submitted
  std::uint64_t completed = 0;  ///< all ops done, join delivered
  std::uint64_t failed = 0;     ///< cancelled exactly once after an op died
  std::uint64_t rejected = 0;   ///< refused whole at admission

  std::uint64_t ops_completed = 0;
  std::uint64_t ops_cancelled = 0;  ///< siblings torn down by a failure
  std::uint64_t host_ops = 0;       ///< laneless sample/aggregate dispatches

  std::uint64_t joins = 0;            ///< functional joins evaluated
  std::uint64_t join_mismatches = 0;  ///< backend result != host reference

  obs::Histogram latency_cycles;  ///< proto arrival -> final op completion
  /// Per-op-class dispatch -> completion service time.
  obs::Histogram op_cycles[4];

  obs::Json to_json() const;
};

}  // namespace cryptopim::runtime
