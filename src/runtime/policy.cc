#include "runtime/policy.h"

namespace cryptopim::runtime {

std::optional<Policy> parse_policy(std::string_view name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "sjf") return Policy::kSjf;
  if (name == "edf") return Policy::kEdf;
  if (name == "wfq") return Policy::kWfq;
  return std::nullopt;
}

const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> names = {"fifo", "sjf", "edf", "wfq"};
  return names;
}

}  // namespace cryptopim::runtime
