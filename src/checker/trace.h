// Evaluation events, traces and atomic-proposition evaluation.
//
// A checker consumes a stream of evaluation events. At RTL an event is a
// clock edge selected by the property's clock context; at TLM it is the end
// of a transaction (the basic transaction context Tb of Def. III.2). Each
// event carries the simulation time and the row of DUV observables.
#ifndef REPRO_CHECKER_TRACE_H_
#define REPRO_CHECKER_TRACE_H_

#include <vector>

#include "psl/ast.h"
#include "support/snapshot.h"

namespace repro::checker {

// Three-valued verdict of a property instance over a (possibly ongoing)
// trace. kPending means the verdict depends on events not yet observed.
enum class Verdict { kTrue, kFalse, kPending };

const char* to_string(Verdict v);

// One evaluation event handed to a checker instance.
struct Event {
  psl::TimeNs time;
  const support::Snapshot* values;
};

// One recorded evaluation event: its simulation (VCD) timestamp and the
// observables it carried.
struct Observation {
  psl::TimeNs time = 0;
  support::Snapshot values;
};

// A recorded stream of evaluation events, in increasing time order.
using Trace = std::vector<Observation>;

// Evaluates an atomic proposition against `values`. All referenced signals
// must be present in the row (a missing one aborts with its name).
bool eval_atom(const psl::Atom& atom, const support::Snapshot& values);

// Evaluates a boolean (non-temporal) expression against `values`.
bool eval_boolean(const psl::ExprPtr& e, const support::Snapshot& values);

}  // namespace repro::checker

#endif  // REPRO_CHECKER_TRACE_H_
