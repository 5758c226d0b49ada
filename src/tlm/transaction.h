// TLM transaction payload, modeled after the TLM-2.0 generic payload.
//
// The `observables` map plays the role of a TLM-2.0 extension: it carries
// the values of the preserved interface variables as they stand at the
// *completion* instant of the transaction, which is what the verification
// environment samples at each Tb evaluation point (Def. III.2).
#ifndef REPRO_TLM_TRANSACTION_H_
#define REPRO_TLM_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "sim/kernel.h"
#include "support/snapshot.h"

namespace repro::tlm {

enum class Command { kRead, kWrite };
enum class Response { kOk, kAddressError, kGenericError };

const char* to_string(Command c);
const char* to_string(Response r);

struct Payload {
  Command command = Command::kWrite;
  uint64_t address = 0;
  std::vector<uint64_t> data;  // word-granular, little-endian word order
  Response response = Response::kOk;
  // Set by the initiator socket when a verification environment is
  // subscribed: only then do targets materialize the observables extension
  // (mirrors how TLM-2.0 extensions are only populated on request).
  bool monitored = false;
  // Cleared by the initiator (or target) to mark a phase as silent: the
  // transaction is counted but no record is delivered. Used when its
  // completion instant coincides with another exposed phase carrying the
  // identical snapshot, so the evaluation point is not duplicated.
  bool record = true;
  // Verification extension: preserved interface values at completion time.
  support::Snapshot observables;
};

// A completed transaction as seen by the verification environment.
struct TransactionRecord {
  sim::Time start = 0;  // issue instant
  sim::Time end = 0;    // completion instant (start + annotated delay)
  Command command = Command::kWrite;
  uint64_t address = 0;
  std::vector<uint64_t> data;
  Response response = Response::kOk;
  support::Snapshot observables;
};

}  // namespace repro::tlm

#endif  // REPRO_TLM_TRANSACTION_H_
