#include "src/engine/bindings.h"

namespace dissodb {

Result<std::vector<Value>> Bindings::ParamVector(int num_params) const {
  for (const auto& [idx, v] : params_) {
    if (idx < 0 || idx >= num_params) {
      return Status::InvalidArgument(
          "bound parameter $" + std::to_string(idx) +
          " is out of range: query has " + std::to_string(num_params) +
          " parameter(s)");
    }
  }
  std::vector<Value> out;
  out.reserve(num_params);
  for (int i = 0; i < num_params; ++i) {
    auto it = params_.find(i);
    if (it == params_.end()) {
      return Status::InvalidArgument("parameter $" + std::to_string(i) +
                                     " is unbound");
    }
    out.push_back(it->second);
  }
  return out;
}

}  // namespace dissodb
