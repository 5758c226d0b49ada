// Evaluation events, traces and atomic-proposition evaluation.
//
// A checker consumes a stream of evaluation events. At RTL an event is a
// clock edge selected by the property's clock context; at TLM it is the end
// of a transaction (the basic transaction context Tb of Def. III.2). Each
// event carries the simulation time and a view of the DUV observables.
#ifndef REPRO_CHECKER_TRACE_H_
#define REPRO_CHECKER_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psl/ast.h"

namespace repro::checker {

// Three-valued verdict of a property instance over a (possibly ongoing)
// trace. kPending means the verdict depends on events not yet observed.
enum class Verdict { kTrue, kFalse, kPending };

const char* to_string(Verdict v);

// The (name, value) pairs one evaluation event exposed, materialized for
// failure diagnostics. Shared: every checker whose ring buffer remembers the
// same event holds the same immutable snapshot.
using WitnessValues = std::vector<std::pair<std::string, uint64_t>>;

// One remembered evaluation event: the simulation (VCD) timestamp of the
// transaction plus the observables it carried.
struct WitnessEntry {
  psl::TimeNs time = 0;
  std::shared_ptr<const WitnessValues> observables;
};

class ValueContext;

// One evaluation event handed to a checker instance.
struct Event {
  psl::TimeNs time;
  const ValueContext* values;
};

// Read access to the DUV observables at one evaluation event.
class ValueContext {
 public:
  virtual ~ValueContext() = default;
  // Value of signal `name`; must only be called for signals the context
  // provides (checked by has()).
  virtual uint64_t value(std::string_view name) const = 0;
  virtual bool has(std::string_view name) const = 0;
  // Shareable snapshot of every signal this context exposes, for failure
  // witnesses. nullptr when the context cannot enumerate its signals (the
  // checker then skips witness capture for this event).
  virtual std::shared_ptr<const WitnessValues> witness_values() const {
    return nullptr;
  }
};

// ValueContext backed by a plain map; used for recorded traces and tests.
class MapContext : public ValueContext {
 public:
  MapContext() = default;
  explicit MapContext(std::map<std::string, uint64_t> values)
      : values_(std::move(values)) {}

  void set(const std::string& name, uint64_t value) { values_[name] = value; }

  uint64_t value(std::string_view name) const override;
  bool has(std::string_view name) const override;
  std::shared_ptr<const WitnessValues> witness_values() const override;

  const std::map<std::string, uint64_t>& entries() const { return values_; }

 private:
  std::map<std::string, uint64_t> values_;
};

// One recorded evaluation event.
struct Observation {
  psl::TimeNs time = 0;
  MapContext values;
};

// A recorded stream of evaluation events, in increasing time order.
using Trace = std::vector<Observation>;

// Evaluates an atomic proposition against `ctx`. All referenced signals
// must be present in the context.
bool eval_atom(const psl::Atom& atom, const ValueContext& ctx);

// Evaluates a boolean (non-temporal) expression against `ctx`.
bool eval_boolean(const psl::ExprPtr& e, const ValueContext& ctx);

}  // namespace repro::checker

#endif  // REPRO_CHECKER_TRACE_H_
