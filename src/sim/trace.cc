#include "sim/trace.h"

namespace repro::sim {

void ChangeLog::watch(Signal<uint64_t>& signal) {
  record(kernel_.now(), signal.name(), signal.read());
  signal.on_change([this, &signal] {
    record(kernel_.now(), signal.name(), signal.read());
  });
}

void ChangeLog::watch(Signal<bool>& signal) {
  record(kernel_.now(), signal.name(), signal.read() ? 1 : 0);
  signal.on_change([this, &signal] {
    record(kernel_.now(), signal.name(), signal.read() ? 1 : 0);
  });
}

void ChangeLog::record(Time time, const std::string& name, uint64_t value) {
  // Collapse repeated observations of the same value (TLM models may report
  // a stable value at several transaction boundaries).
  for (auto it = changes_.rbegin(); it != changes_.rend(); ++it) {
    if (it->name == name) {
      if (it->value == value) return;
      break;
    }
  }
  changes_.push_back({time, name, value});
}

std::vector<Change> ChangeLog::for_signal(const std::string& name) const {
  std::vector<Change> out;
  for (const auto& change : changes_) {
    if (change.name == name) out.push_back(change);
  }
  return out;
}

}  // namespace repro::sim
