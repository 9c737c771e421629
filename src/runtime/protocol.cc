#include "runtime/protocol.h"

#include <stdexcept>

namespace cryptopim::runtime {

const char* protocol_name(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kNone: return "none";
    case ProtocolKind::kKem: return "kem";
    case ProtocolKind::kBgvMul: return "bgv-mul";
    case ProtocolKind::kThreshold: return "threshold";
  }
  return "?";
}

std::optional<ProtocolKind> parse_protocol(std::string_view name) noexcept {
  if (name == "kem") return ProtocolKind::kKem;
  if (name == "bgv-mul") return ProtocolKind::kBgvMul;
  if (name == "threshold") return ProtocolKind::kThreshold;
  return std::nullopt;
}

const char* op_class_name(OpClass cls) noexcept {
  switch (cls) {
    case OpClass::kPolymul: return "polymul";
    case OpClass::kNttLimb: return "ntt_limb";
    case OpClass::kSample: return "sample";
    case OpClass::kAggregate: return "aggregate";
  }
  return "?";
}

ProtoDag compile_protocol(const ProtocolSpec& spec) {
  ProtoDag dag;
  const auto add = [&dag](OpClass cls, std::uint32_t degree,
                          std::uint64_t parents, std::uint32_t group) {
    ProtoOp op;
    op.cls = cls;
    op.degree = degree;
    op.parent_mask = parents;
    op.fanout_group = group;
    dag.ops.push_back(op);
  };
  const auto bit = [](std::uint32_t i) { return std::uint64_t{1} << i; };

  switch (spec.kind) {
    case ProtocolKind::kKem: {
      // Full encaps + decaps round-trip: 5 chained ring multiplications
      // with the two Keccak-derived sampling phases and the final
      // compare-and-KDF join on the host.
      const std::uint32_t n = kKemDegree;
      dag.lane_degree = n;
      add(OpClass::kSample, n, 0, 0);                   // 0: G/H derivations
      add(OpClass::kPolymul, n, bit(0), 1);             // 1: encaps a*r
      add(OpClass::kPolymul, n, bit(0), 1);             // 2: encaps b*r
      add(OpClass::kPolymul, n, bit(1) | bit(2), 0);    // 3: decaps u*s
      add(OpClass::kSample, n, bit(3), 0);              // 4: re-derive coins
      add(OpClass::kPolymul, n, bit(4), 2);             // 5: re-encrypt a*r'
      add(OpClass::kPolymul, n, bit(4), 2);             // 6: re-encrypt b*r'
      add(OpClass::kAggregate, n, bit(5) | bit(6), 0);  // 7: compare + KDF
      break;
    }
    case ProtocolKind::kBgvMul: {
      // Tensor product of two degree-1 ciphertexts: 4 ring
      // multiplications, each fanned out across the RNS limbs (one
      // NTT-limb op per prime), recombined by a host-side CRT join.
      const std::uint32_t n = kBgvDegree;
      dag.lane_degree = n;
      add(OpClass::kSample, n, 0, 0);  // 0: encrypt the operands
      std::uint64_t all = 0;
      for (std::uint32_t m = 0; m < 4; ++m) {
        for (std::size_t l = 0; l < kRnsLimbs; ++l) {
          all |= bit(static_cast<std::uint32_t>(dag.ops.size()));
          add(OpClass::kNttLimb, n, bit(0), m + 1);
        }
      }
      add(OpClass::kAggregate, n, all, 0);  // CRT recombine + decrypt check
      break;
    }
    case ProtocolKind::kThreshold: {
      // K share holders each compute a partial decryption c1 * s_k; the
      // host aggregate sums them into the plaintext.
      if (spec.shares < kMinShares || spec.shares > kMaxShares) {
        throw std::invalid_argument("threshold shares must be in [" +
                                    std::to_string(kMinShares) + ", " +
                                    std::to_string(kMaxShares) + "]");
      }
      const std::uint32_t n = kBgvDegree;
      dag.lane_degree = n;
      add(OpClass::kSample, n, 0, 0);  // 0: joint keygen + encrypt
      std::uint64_t all = 0;
      for (unsigned k = 0; k < spec.shares; ++k) {
        all |= bit(static_cast<std::uint32_t>(dag.ops.size()));
        add(OpClass::kPolymul, n, bit(0), 1);
      }
      add(OpClass::kAggregate, n, all, 0);  // sum partials, decode mod t
      break;
    }
    case ProtocolKind::kNone:
      throw std::invalid_argument("cannot compile a DAG without a protocol");
  }
  return dag;
}

namespace {

obs::Json histogram_json(const obs::Histogram& h) {
  obs::Json j = obs::Json::object();
  j.set("count", h.count());
  j.set("mean_cycles", h.mean());
  j.set("p50_cycles", h.quantile(0.50));
  j.set("p99_cycles", h.quantile(0.99));
  j.set("p999_cycles", h.quantile(0.999));
  j.set("max_cycles", h.max());
  return j;
}

}  // namespace

obs::Json ProtocolStats::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("kind", kind);
  j.set("shares", std::uint64_t{shares});
  j.set("ops_per_request", std::uint64_t{ops_per_request});
  j.set("requests", requests);
  j.set("completed", completed);
  j.set("failed", failed);
  j.set("rejected", rejected);
  j.set("ops_completed", ops_completed);
  j.set("ops_cancelled", ops_cancelled);
  j.set("host_ops", host_ops);
  j.set("joins", joins);
  j.set("join_mismatches", join_mismatches);
  j.set("latency", histogram_json(latency_cycles));
  obs::Json classes = obs::Json::array();
  for (unsigned c = 0; c < 4; ++c) {
    if (op_cycles[c].count() == 0) continue;
    obs::Json row = histogram_json(op_cycles[c]);
    row.set("cls", op_class_name(static_cast<OpClass>(c)));
    classes.push_back(std::move(row));
  }
  j.set("op_classes", std::move(classes));
  return j;
}

}  // namespace cryptopim::runtime
