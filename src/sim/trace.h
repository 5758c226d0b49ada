// Value-change recording, used by tests to establish timing equivalence
// (Def. III.1) between models at different abstraction levels.
#ifndef REPRO_SIM_TRACE_H_
#define REPRO_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.h"
#include "sim/signal.h"

namespace repro::sim {

// One observed assignment: signal `name` took value `value` at `time`.
struct Change {
  Time time;
  std::string name;
  uint64_t value;

  bool operator==(const Change&) const = default;
};

// Records committed value changes of the signals it watches. The initial
// value is recorded as a change at the attach time so that two logs are
// comparable from t = 0.
class ChangeLog {
 public:
  explicit ChangeLog(Kernel& kernel) : kernel_(kernel) {}

  // Starts watching `signal`; every committed change is appended.
  void watch(Signal<uint64_t>& signal);
  void watch(Signal<bool>& signal);

  // Appends an explicit observation (used by TLM models, where interface
  // values change at transaction boundaries rather than via signals).
  void record(Time time, const std::string& name, uint64_t value);

  const std::vector<Change>& changes() const { return changes_; }

  // Changes restricted to a single signal name, in time order.
  std::vector<Change> for_signal(const std::string& name) const;

 private:
  Kernel& kernel_;
  std::vector<Change> changes_;
};

}  // namespace repro::sim

#endif  // REPRO_SIM_TRACE_H_
