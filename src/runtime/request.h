// A served polynomial-multiplication request: the unit of work flowing
// through the online serving runtime (src/runtime/serving.*).
//
// Requests are modelled, not materialised: a request names a degree
// class, a tenant and (optionally) a deadline, and the runtime charges
// the cycle cost the hardware model predicts for it. A sampled subset
// (`verify = true`) additionally carries a data seed; on completion the
// runtime materialises the operands, produces the product through the
// software mirror of the datapath and Freivalds-checks it, so a serving
// run ends with actually-verified results rather than only cycle
// accounting.
//
// On a protocol chip every queued or in-flight Request is one op of a
// protocol request's DAG: a copy of the request whose id is op_id(its
// id, the op's index). The op's class, parents, fan-out group and
// degree are that node of the compiled DAG (runtime/protocol.h).
#pragma once

#include <cstdint>

namespace cryptopim::runtime {

struct Request {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::uint32_t degree = 0;
  std::uint32_t client = 0;          ///< closed-loop client that issued it
  std::uint64_t arrival_cycle = 0;
  /// Absolute cycle the tenant wants the result by; 0 = no deadline.
  std::uint64_t deadline_cycle = 0;
  /// Unloaded service latency (pipeline fill + extra segment beats),
  /// filled in at admission from the performance model. This is what
  /// shortest-job-first orders on.
  std::uint64_t service_cycles = 0;
  /// Carry data: on completion the result is Freivalds-verified.
  bool verify = false;
  std::uint64_t data_seed = 0;
  /// Retry attempts consumed so far (resilience layer); latency is still
  /// measured from the original arrival_cycle.
  unsigned attempts = 0;
};

/// An op's id: its request's id above 6 bits of op index (a DAG has at
/// most 64 ops, the width of its done mask), so ops order by (request,
/// op) under every policy's (arrival, id) tie-break.
constexpr std::uint64_t op_id(std::uint64_t request, std::uint64_t op) {
  return request << 6 | op;
}
constexpr std::uint64_t request_of(std::uint64_t id) { return id >> 6; }
constexpr std::uint64_t op_index_of(std::uint64_t id) { return id & 63; }

}  // namespace cryptopim::runtime
