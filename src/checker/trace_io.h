// Trace serialization: a simple CSV dialect for recorded evaluation-event
// streams, so traces captured from a simulator (or written by hand) can be
// checked offline with the trace checker example (examples/tracecheck.cpp).
//
// Format: first line is the header `time,<sig1>,<sig2>,...`; each following
// line is one evaluation event with a strictly increasing decimal time (ns)
// and one decimal or 0x-hex value per signal. Blank lines and lines starting
// with '#' are ignored.
//
//   time,ds,indata,out,rdy
//   10,1,0,0,0
//   20,0,0,0,0
//   180,0,0,0x9d2a73f1,1
#ifndef REPRO_CHECKER_TRACE_IO_H_
#define REPRO_CHECKER_TRACE_IO_H_

#include <string>
#include <string_view>

#include "checker/trace.h"
#include "support/status.h"

namespace repro::checker {

// Parses a CSV trace; every row shares the header as its key table. Fails on
// malformed headers (including duplicate columns), rows with the wrong
// arity, unparsable values, or non-increasing timestamps.
Result<Trace> parse_trace_csv(std::string_view text);

// Serializes a trace. The signal columns are the first observation's key
// table, in its order (every observation must carry those signals).
std::string to_csv(const Trace& trace);

}  // namespace repro::checker

#endif  // REPRO_CHECKER_TRACE_IO_H_
